//! Streaming parameter-grid sweep: the fleet-scale campaign surface.
//!
//! Sweeps the paper's campaign knobs (tree size `m`, tasks `n`, buffers
//! `b`, delay spread `d`, compute scale `x`) over their cartesian
//! product, `--trees` random trees per cell, in streaming sharded mode:
//! per-tree results are folded straight into mergeable accumulators, so
//! memory stays sub-linear in total tree count no matter how large the
//! sweep grows (`--full` runs 6_400 trees per cell — 102_400 trees over
//! the 16 default cells).
//!
//! `--shard-size` bounds the trees a worker folds before handing its
//! shard accumulator back.
//!
//! With `--checkpoint-dir DIR` the sweep persists its per-cell
//! accumulators and (cell, shard) cursor every `--checkpoint-every`
//! shards (atomic, checksummed generations — see DESIGN.md "Durability
//! & crash recovery"); after a crash, the same command line plus
//! `--resume` continues from the last good generation and the final
//! aggregates are bit-identical to an uninterrupted run.

use bc_engine::SimConfig;
use bc_experiments::campaign::{
    run_grid_streaming, run_grid_streaming_checkpointed, CampaignGrid, CheckpointPolicy,
};
use bc_experiments::cli::{parse, write_artifact, Defaults};

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 100,
            full_trees: 6_400,
            tasks: 500,
        },
    );
    if cli.resume && cli.checkpoint_dir.is_none() {
        eprintln!("error: --resume requires --checkpoint-dir");
        std::process::exit(2);
    }
    let mut grid = CampaignGrid::default_grid(cli.trees, cli.seed);
    grid.tasks = vec![cli.tasks];
    let total = grid.total_trees();
    let t0 = std::time::Instant::now();
    let cells = match &cli.checkpoint_dir {
        None => run_grid_streaming(&grid, cli.shard_size, |c| {
            SimConfig::interruptible(c.buffers, c.tasks)
        }),
        Some(dir) => {
            let policy = CheckpointPolicy::new(dir, cli.checkpoint_every).resuming(cli.resume);
            let outcome = run_grid_streaming_checkpointed(
                &grid,
                cli.shard_size,
                |c| SimConfig::interruptible(c.buffers, c.tasks),
                &policy,
            )
            .unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(1);
            });
            if let Some(generation) = outcome.resumed_from_generation {
                eprintln!(
                    "resumed from checkpoint generation {generation} \
                     ({}/{} shards now done)",
                    outcome.shards_done, outcome.shards_total,
                );
            }
            outcome.results
        }
    };
    let wall = t0.elapsed().as_secs_f64();

    let mut csv = String::from(
        "cell,max_nodes,tasks,buffers,comm_max,compute_scale,trees,fraction_reached,\
         mean_onset,mean_nodes,mean_optimal_rate,events\n",
    );
    let mut events: u128 = 0;
    let mut reached: u64 = 0;
    println!("cell  m={{max_nodes}} b={{fb}} d={{comm}} x={{scale}}  frac_opt  mean_onset");
    for (cell, acc) in &cells {
        events += acc.run_stats.events;
        reached += acc.reached;
        println!(
            "{:4}  m={:<4} b={} d={:<3} x={:<4}  {:.4}    {:.1}",
            cell.index,
            cell.max_nodes,
            cell.buffers,
            cell.comm_max,
            cell.compute_scale,
            acc.fraction_reached(),
            acc.mean_onset(),
        );
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{:.6},{:.2},{:.2},{:.6},{}\n",
            cell.index,
            cell.max_nodes,
            cell.tasks,
            cell.buffers,
            cell.comm_max,
            cell.compute_scale,
            acc.trees(),
            acc.fraction_reached(),
            acc.mean_onset(),
            acc.mean_nodes(),
            acc.mean_optimal_rate(),
            acc.run_stats.events,
        ));
    }
    let frac = reached as f64 / total.max(1) as f64;
    println!(
        "swept {total} trees over {} cells in {wall:.1}s \
         ({:.2}M events/s, overall fraction reached {frac:.4})",
        cells.len(),
        events as f64 / wall / 1e6,
    );
    write_artifact(&cli, "grid_sweep.csv", &csv);
}
