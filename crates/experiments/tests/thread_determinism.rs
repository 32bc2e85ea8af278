//! The `split_seed` contract, end to end: a campaign's results are a pure
//! function of `(seed, tree_config, protocol)` — the worker-thread count
//! (and therefore which worker simulates which tree, with which reused
//! workspace) must not change a single bit of any summary. The streaming
//! sharded engine extends the contract: its merged accumulator must be
//! bit-identical to folding the materialized campaign, again at every
//! thread count.

use bc_engine::{AdmissionPolicy, ArrivalPlan, ArrivalProcess, RunResult, SimConfig, TaskClass};
use bc_experiments::campaign::{
    accumulate_materialized, run_campaign_streaming, run_variants, run_variants_with,
    CampaignConfig, TreeRun,
};
use bc_metrics::OnsetConfig;
use bc_platform::RandomTreeConfig;
use std::sync::Mutex;

/// Both tests below mutate the process-wide worker-pool override
/// (`build_global` on the vendored shim is a settable global), so they
/// must not run concurrently within this test binary.
static POOL: Mutex<()> = Mutex::new(());

fn campaign() -> CampaignConfig {
    CampaignConfig {
        trees: 24,
        tasks: 1_500,
        seed: 2003,
        tree_config: RandomTreeConfig {
            min_nodes: 10,
            max_nodes: 60,
            comm_min: 1,
            comm_max: 20,
            compute_scale: 500,
        },
        onset: OnsetConfig::default(),
    }
}

fn set_threads(threads: usize) {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .unwrap();
}

/// Every field a campaign reports, for exact comparison.
fn fingerprint(runs: &[TreeRun]) -> Vec<(usize, Option<u64>, u64, u64, u32, String)> {
    runs.iter()
        .map(|r| {
            (
                r.index,
                r.onset,
                r.end_time,
                r.events,
                r.max_buffers,
                format!("{:?}", r.optimal_rate),
            )
        })
        .collect()
}

/// An open-world config for the arrival-leg tests below: a Poisson
/// background plus a burst class that overruns the queue, deferred. The
/// plan is a pure function of the campaign seed, so every worker
/// regenerates the same schedule.
fn arrival_config(seed: u64) -> SimConfig {
    let plan = ArrivalPlan {
        seed,
        classes: vec![
            TaskClass {
                name: "background".into(),
                work_units: 1,
                process: ArrivalProcess::Poisson {
                    mean_gap: 3,
                    count: 200,
                },
            },
            TaskClass {
                name: "burst".into(),
                work_units: 4,
                process: ArrivalProcess::Burst {
                    phase: 10,
                    period: 30,
                    size: 3,
                    bursts: 10,
                },
            },
        ],
        queue_cap: 6,
        policy: AdmissionPolicy::Defer,
    };
    SimConfig::interruptible(3, 1).with_arrivals(plan)
}

/// The materialized campaign of one variant: every summary with its raw
/// result.
fn materialized(c: &CampaignConfig, config: SimConfig) -> Vec<(TreeRun, RunResult)> {
    run_variants_with(c, &[config], |run, result| (run, result)).remove(0)
}

#[test]
fn campaign_summaries_are_bit_identical_across_thread_counts() {
    let _pool = POOL.lock().unwrap();
    let c = campaign();
    let mut baselines: Vec<Vec<_>> = Vec::new();
    for threads in [1usize, 2, 4, 7] {
        set_threads(threads);
        assert_eq!(rayon::current_num_threads(), threads);
        let runs = run_variants(
            &c,
            &[
                SimConfig::interruptible(3, c.tasks),
                SimConfig::non_interruptible(1, c.tasks),
                arrival_config(c.seed),
            ],
        );
        baselines.extend(runs.iter().map(|runs| fingerprint(runs)));
    }
    // Restore automatic sizing; the global override outlives the test.
    set_threads(0);
    for group in baselines.chunks(3).skip(1) {
        assert_eq!(
            baselines[0], group[0],
            "IC campaign differs from the single-thread baseline"
        );
        assert_eq!(
            baselines[1], group[1],
            "non-IC campaign differs from the single-thread baseline"
        );
        assert_eq!(
            baselines[2], group[2],
            "open-world campaign differs from the single-thread baseline"
        );
    }
}

/// The streaming half of the contract: at 1/2/4/7 worker threads and
/// across shard sizes (including ones that leave a ragged final shard),
/// the streamed accumulator equals the materialized fold bit for bit —
/// the shard → worker assignment must be invisible in the aggregate.
#[test]
fn streamed_campaign_is_bit_identical_to_materialized_across_thread_counts() {
    let _pool = POOL.lock().unwrap();
    let c = campaign();
    set_threads(1);
    let reference =
        accumulate_materialized(&materialized(&c, SimConfig::interruptible(3, c.tasks)));
    for threads in [1usize, 2, 4, 7] {
        set_threads(threads);
        assert_eq!(rayon::current_num_threads(), threads);
        for shard_size in [1usize, 5, 8, 24, 100] {
            let streamed =
                run_campaign_streaming(&c, shard_size, |t| SimConfig::interruptible(3, t));
            assert_eq!(
                streamed, reference,
                "streamed aggregate diverged at {threads} threads, shard size {shard_size}"
            );
        }
    }
    set_threads(0);
}

/// The same contract for the open-world arrival leg: the batch
/// (materialized) and streaming sharded entry points agree bit for bit
/// on a streamed-workload campaign at 1/2/4 worker threads.
#[test]
fn arrival_campaign_is_bit_identical_across_entry_points_and_threads() {
    let _pool = POOL.lock().unwrap();
    let c = campaign();
    set_threads(1);
    let reference = accumulate_materialized(&materialized(&c, arrival_config(c.seed)));
    for threads in [1usize, 2, 4] {
        set_threads(threads);
        assert_eq!(rayon::current_num_threads(), threads);
        for shard_size in [1usize, 8, 24] {
            let streamed = run_campaign_streaming(&c, shard_size, |_| arrival_config(c.seed));
            assert_eq!(
                streamed, reference,
                "open-world streamed aggregate diverged at {threads} threads, \
                 shard size {shard_size}"
            );
        }
    }
    set_threads(0);
}
