//! `paper_campaign`: the paper's §4.1 experiment, closed loop, one
//! thread.
//!
//! Set-up prepares one population of paper-default random trees
//! (generate + Theorem 1, `CampaignConfig::prepare_all` on one thread).
//! The timed loop then cycles over (tree, protocol) runs, IC/FB=3 and
//! non-IC/IB=1 alternating, issuing the same public calls as the body of
//! `run_campaign_prepared`: `SimWorkspace::run`, `campaign::summarize`,
//! `CampaignAccumulator::fold_summary`. One operation is one such run.

use crate::reference::Gauge;
use crate::report::{fnv_hex, Outcome};
use crate::stats::min_samples_for_tail;
use crate::trace::Tracer;
use crate::{check_fingerprint, emit_end_to_end, layers, paired_loop, timed_loop, Opts};
use bc_engine::{SimConfig, SimWorkspace};
use bc_experiments::campaign::{
    campaign_tree, summarize, CampaignAccumulator, CampaignConfig, PreparedTree,
};
use bc_steady::SteadyState;
use std::time::Instant;

/// Workload name.
pub const NAME: &str = "paper_campaign";

/// Tail percentile reported as `latency_tail_us`.
pub const TAIL_PCT: f64 = 95.0;

/// Population and repetition sizes.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Trees in the prepared population.
    pub trees: usize,
    /// Tasks per run (10,000 in the paper).
    pub tasks: u64,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
}

impl Scale {
    /// The benchmark's size.
    pub const FULL: Scale = Scale {
        trees: 400,
        tasks: 10_000,
        setup_reps: 3,
    };
}

/// The two protocols of the paper-scale campaign, with the span tag
/// that marks their engine runs.
const PROTOCOLS: [(&str, u8); 2] = [
    ("ic_fb3", layers::TAG_IC_FB3),
    ("nonic_ib1", layers::TAG_NONIC_IB1),
];

fn protocol_config(p: usize, tasks: u64) -> SimConfig {
    if p == 0 {
        SimConfig::interruptible(3, tasks)
    } else {
        SimConfig::non_interruptible(1, tasks)
    }
}

/// Generates and analyzes the population tree by tree under spans (the
/// same two calls `CampaignConfig::prepare` makes).
fn prepare_traced(campaign: &CampaignConfig, tr: &mut Tracer) -> Vec<PreparedTree> {
    (0..campaign.trees)
        .map(|i| {
            let id = tr.begin("platform.generate", i as u64);
            let tree = campaign_tree(&campaign.tree_config, campaign.seed, i);
            tr.end(id, 0, tree.len() as u64);
            let id = tr.begin("steady.analyze", i as u64);
            let analysis = SteadyState::analyze(&tree);
            tr.end(id, 0, tree.len() as u64);
            tr.annotate(id, u8::from(!analysis.optimal_rate().is_small()));
            PreparedTree {
                index: i,
                tree,
                analysis,
            }
        })
        .collect()
}

/// The timed loop's state: one workspace, per-protocol accumulators,
/// and each (tree, protocol) run's first-pass result for the
/// determinism check on later passes.
struct Campaign<'a> {
    prepared: &'a [PreparedTree],
    campaign: &'a CampaignConfig,
    ws: SimWorkspace,
    acc: [CampaignAccumulator; 2],
    first_pass: Option<[CampaignAccumulator; 2]>,
    seen: Vec<Option<(u64, Option<u64>)>>,
    latencies: Vec<f64>,
    failed: u64,
}

impl<'a> Campaign<'a> {
    fn new(prepared: &'a [PreparedTree], campaign: &'a CampaignConfig) -> Self {
        Campaign {
            prepared,
            campaign,
            ws: SimWorkspace::new(),
            acc: [CampaignAccumulator::new(), CampaignAccumulator::new()],
            first_pass: None,
            seen: vec![None; 2 * prepared.len()],
            latencies: Vec::new(),
            failed: 0,
        }
    }

    fn pass_len(&self) -> usize {
        2 * self.prepared.len()
    }

    /// Runs operation `k`: tree `k/2` (cycling), protocol `k%2`.
    fn op(&mut self, k: usize, tr: Option<&mut Tracer>) {
        let slot = k % self.pass_len();
        let p = slot % 2;
        let pt = &self.prepared[slot / 2];
        let cfg = protocol_config(p, self.campaign.tasks);
        let t0 = Instant::now();
        let (run, result) = match tr {
            None => {
                let result = self.ws.run(pt.tree.clone(), cfg);
                let run = summarize(
                    pt.index,
                    &pt.tree,
                    &pt.analysis,
                    &result,
                    self.campaign.onset,
                );
                self.acc[p].fold_summary(&run, &result);
                (run, result)
            }
            Some(tr) => {
                let op = tr.begin("paper.op", k as u64);
                let tree = pt.tree.clone();
                let id = tr.begin("engine.run", k as u64);
                let result = self.ws.run(tree, cfg);
                tr.end(id, PROTOCOLS[p].1, result.events_processed);
                let id = tr.begin("metrics.onset", k as u64);
                let run = summarize(
                    pt.index,
                    &pt.tree,
                    &pt.analysis,
                    &result,
                    self.campaign.onset,
                );
                tr.end(id, u8::from(run.reached()), 1);
                let id = tr.begin("experiments.fold", k as u64);
                self.acc[p].fold_summary(&run, &result);
                tr.end(id, 0, 1);
                tr.end(op, 0, 0);
                (run, result)
            }
        };
        self.latencies.push(t0.elapsed().as_secs_f64());

        let complete = result.completion_times.len() as u64 == self.campaign.tasks;
        let key = (run.events, run.onset);
        let repeatable = match self.seen[slot] {
            None => {
                self.seen[slot] = Some(key);
                true
            }
            Some(first) => first == key,
        };
        if !complete || !repeatable {
            self.failed += 1;
        }
        if k + 1 == self.pass_len() {
            self.first_pass = Some(self.acc.clone());
        }
    }

    /// Fingerprint of the first full pass: per-protocol `events_total`
    /// and reached count, plus a digest of both accumulators' bytes.
    fn fingerprint(&self) -> String {
        let accs = self.first_pass.as_ref().expect("loop runs one full pass");
        let mut bytes = Vec::new();
        let mut parts = Vec::new();
        for ((name, _), acc) in PROTOCOLS.iter().zip(accs) {
            acc.encode_into(&mut bytes);
            parts.push(format!(
                "{name} events={} reached={}/{}",
                acc.run_stats.events,
                acc.reached,
                acc.trees()
            ));
        }
        format!("{}; acc={}", parts.join("; "), fnv_hex(&bytes))
    }
}

/// Runs the workload.
pub fn run(opts: &Opts, scale: Scale) -> Outcome {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the vendored pool accepts any thread count");
    let campaign = CampaignConfig::paper(scale.trees, scale.tasks, opts.seed);
    let mut o = Outcome::default();
    let min_ops = (2 * scale.trees).max(min_samples_for_tail(TAIL_PCT));
    o.note("population_trees", scale.trees);
    o.note("tasks_per_run", scale.tasks);
    o.note("loop", "closed, 1 thread");

    if !opts.trace {
        let mut gauge = Gauge::default();
        let mut prepared = Vec::new();
        for _ in 0..scale.setup_reps.max(1) {
            drop(std::mem::take(&mut prepared));
            prepared = gauge.setup(|| campaign.prepare_all());
        }
        let mut c = Campaign::new(&prepared, &campaign);
        let stats = timed_loop(opts, min_ops, &mut gauge, |k| c.op(k, None));
        o.attempted = stats.ops as u64;
        o.failed = c.failed;
        emit_end_to_end(&mut o, &stats, 1.0, &c.latencies, TAIL_PCT, &gauge);
        check_fingerprint(&mut o, NAME, opts.seed, &c.fingerprint());
        return o;
    }

    // Traced run: one traced set-up, then every operation untraced and
    // traced back to back (the difference is the tracing overhead).
    let origin = Instant::now();
    let mut tr = Tracer::new(origin);
    let prepared = prepare_traced(&campaign, &mut tr);
    let mut plain = Campaign::new(&prepared, &campaign);
    let mut traced = Campaign::new(&prepared, &campaign);
    let paired = paired_loop(opts, min_ops, |k, with_spans| {
        if with_spans {
            traced.op(k, Some(&mut tr));
        } else {
            plain.op(k, None);
        }
    });
    paired.note(&mut o);
    o.attempted = 2 * paired.ops as u64;
    o.failed = plain.failed + traced.failed;
    let fp = traced.fingerprint();
    o.check(
        "traced_matches_untraced",
        fp == plain.fingerprint(),
        "first-pass fingerprint of the traced loop equals the untraced loop's",
    );
    check_fingerprint(&mut o, NAME, opts.seed, &fp);
    layers::emit(
        &mut o,
        &tr,
        &layers::Extras {
            untraced_throughput: paired.untraced_per_s(),
            traced_throughput: paired.traced_per_s(),
            ..Default::default()
        },
    );
    layers::write_spans(&mut o, &tr, opts, NAME);
    o
}
