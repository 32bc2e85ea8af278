//! Platform analyzer: the downstream-user tool. Reads a platform tree
//! (JSON file, or a generator seed) and reports everything the theory
//! says about it — optimal rate, per-node allocation, predicted used
//! nodes, the period bound — optionally validating by simulation.
//!
//! Usage:
//!   analyze --json platform.json [--simulate N] [--dot] [--criticality]
//!   analyze --random SEED [--simulate N] [--dot] [--criticality]

use bc_engine::{SimConfig, Simulation};
use bc_metrics::ascii_table;
use bc_platform::{io, RandomTreeConfig, Tree};
use bc_steady::{node_criticality, period_bound, SteadyState};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut tree: Option<Tree> = None;
    let mut simulate: Option<u64> = None;
    let mut dot = false;
    let mut criticality = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => {
                let path = it.next().expect("--json requires a path");
                let text = std::fs::read_to_string(path)
                    .unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
                tree = Some(io::from_json(&text).expect("invalid platform JSON"));
            }
            "--random" => {
                let seed: u64 = it
                    .next()
                    .expect("--random requires a seed")
                    .parse()
                    .expect("seed must be a number");
                tree = Some(RandomTreeConfig::default().generate(seed));
            }
            "--simulate" => {
                simulate = Some(
                    it.next()
                        .expect("--simulate requires a task count")
                        .parse()
                        .expect("task count must be a number"),
                );
            }
            "--dot" => dot = true,
            "--criticality" => criticality = true,
            "--help" | "-h" => {
                println!(
                    "analyze --json FILE | --random SEED [--simulate TASKS] [--dot] [--criticality]"
                );
                return;
            }
            other => panic!("unknown flag {other}; try --help"),
        }
    }
    let tree = tree.expect("provide --json FILE or --random SEED (see --help)");

    println!("platform: {} nodes, depth {}", tree.len(), tree.depth());
    if tree.len() <= 30 {
        println!("  {}", io::to_compact(&tree));
    }
    if dot {
        println!("\n{}", io::to_dot(&tree));
    }

    let analysis = SteadyState::analyze(&tree);
    let rate = analysis.optimal_rate();
    // Deep trees produce rationals with thousand-bit components; print
    // the exact form only when it is readable.
    if rate.numer().magnitude().bit_len() <= 64 && rate.denom().bit_len() <= 64 {
        println!(
            "\noptimal steady-state rate: {} ≈ {:.6} tasks/timestep",
            rate,
            rate.to_f64()
        );
    } else {
        println!(
            "\noptimal steady-state rate ≈ {:.6} tasks/timestep \
             (exact form spans {} bits)",
            rate.to_f64(),
            rate.numer().magnitude().bit_len() + rate.denom().bit_len()
        );
    }
    println!(
        "tree weight w_tree ≈ {:.6}",
        analysis.tree_weight().to_f64()
    );
    let bound = period_bound(&tree);
    println!(
        "schedule-period LCM bound: {} ({} bits)",
        if bound.bit_len() <= 64 {
            bound.to_string()
        } else {
            format!("≈2^{}", bound.bit_len())
        },
        bound.bit_len()
    );
    let alloc = analysis.allocate(&tree);
    let used = alloc.used_nodes();
    println!(
        "predicted used nodes: {}/{}",
        used.iter().filter(|&&u| u).count(),
        tree.len()
    );

    // Per-node allocation (largest shares first, top 15).
    let mut alloc: Vec<(String, f64)> = tree
        .ids()
        .map(|id| (id.to_string(), alloc.node_rate(id).to_f64()))
        .collect();
    alloc.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("rates are finite"));
    let rows: Vec<Vec<String>> = alloc
        .iter()
        .take(15)
        .map(|(id, r)| vec![id.clone(), format!("{r:.6}")])
        .collect();
    println!("\ntop allocated nodes (theory):");
    println!("{}", ascii_table(&["node", "rate"], &rows));

    if criticality {
        // Exact rate lost if each node's subtree detached (top 10).
        let ranks = node_criticality(&tree);
        let rows: Vec<Vec<String>> = ranks
            .iter()
            .take(10)
            .map(|c| {
                vec![
                    c.node.to_string(),
                    format!("{:.6}", c.loss.to_f64()),
                    format!("{:.6}", c.rate_without.to_f64()),
                ]
            })
            .collect();
        println!("most critical subtrees (exact rate lost if detached):");
        println!(
            "{}",
            ascii_table(&["node", "rate lost", "rate without"], &rows)
        );
    }

    if let Some(tasks) = simulate {
        println!("simulating {tasks} tasks under IC, FB=3…");
        let run = Simulation::new(tree, SimConfig::interruptible(3, tasks)).run();
        println!(
            "  completed in {} timesteps; overall rate {:.6} ({:.1}% of optimal)",
            run.end_time,
            run.overall_rate(),
            100.0 * run.overall_rate() / analysis.optimal_rate().to_f64()
        );
        println!(
            "  used nodes (simulated): {}/{}; max buffers {}",
            run.used_nodes().iter().filter(|&&u| u).count(),
            run.tasks_per_node.len(),
            run.max_buffers()
        );
    }
}
