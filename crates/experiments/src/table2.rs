//! Table 2: median and maximum buffers used by non-IC/IB=1, across the
//! four computation-scale classes and at 100 / 1 000 / 4 000 completed
//! tasks.
//!
//! Paper numbers (1 000 trees per class, 4 000 tasks):
//!
//! ```text
//! x        median@100  median@1000  median@4000   max
//! 500           3            3            3        165
//! 1 000         4            5            5        472
//! 5 000       150          212          218       1535
//! 10 000      551          560          561       1951
//! ```
//!
//! The shape to reproduce: medians rise steeply with `x`, plateau after
//! startup, and the maxima dwarf the 3 buffers IC needs.

use crate::campaign::{TreeRun, RATIO_CLASSES};
use bc_core::GrowthGate;
use bc_engine::SimConfig;
use bc_metrics::{ascii_table, median};

/// The checkpoint task counts of the paper.
pub const CHECKPOINTS: [u64; 3] = [100, 1_000, 4_000];

/// One class's buffer statistics.
#[derive(Clone, Debug)]
pub struct ClassBuffers {
    /// The class's computation scale `x`.
    pub compute_scale: u64,
    /// Median (across trees) of the per-tree max buffers at each
    /// checkpoint.
    pub medians: Vec<(u64, f64)>,
    /// Largest pool any node of any tree reached over the full run.
    pub max: u32,
    /// Raw per-tree runs.
    pub runs: Vec<TreeRun>,
}

/// Table 2 data.
#[derive(Clone, Debug)]
pub struct Table2 {
    /// One entry per class, ascending `x`.
    pub classes: Vec<ClassBuffers>,
}

/// Non-IC/IB=1 under `gate`, recording the global max buffer pool at
/// each of [`CHECKPOINTS`] up to `tasks` (recording schedules nothing, so
/// the run is otherwise Fig 5's non-IC run).
pub fn config(gate: GrowthGate, tasks: u64) -> SimConfig {
    SimConfig::non_interruptible_gated(1, gate, tasks).with_checkpoints(checkpoints(tasks))
}

fn checkpoints(tasks: u64) -> Vec<u64> {
    CHECKPOINTS
        .iter()
        .copied()
        .filter(|&c| c <= tasks)
        .collect()
}

/// Builds Table 2 from the runs of [`config`] per ratio class (indexed
/// like `RATIO_CLASSES`; see `campaign::run_ratio_classes`).
pub fn build(nonic: &[Vec<TreeRun>], tasks: u64) -> Table2 {
    let classes = RATIO_CLASSES
        .iter()
        .zip(nonic)
        .map(|(&x, runs)| {
            let medians = checkpoints(tasks)
                .into_iter()
                .map(|cp| {
                    let at: Vec<u64> = runs
                        .iter()
                        .filter_map(|r| {
                            r.checkpoint_max_buffers
                                .iter()
                                .find(|&&(c, _)| c == cp)
                                .map(|&(_, b)| b as u64)
                        })
                        .collect();
                    (cp, median(&at).unwrap_or(0.0))
                })
                .collect();
            let max = runs.iter().map(|r| r.max_buffers).max().unwrap_or(0);
            ClassBuffers {
                compute_scale: x,
                medians,
                max,
                runs: runs.clone(),
            }
        })
        .collect();
    Table2 { classes }
}

/// Renders the paper's table shape.
pub fn render(t: &Table2) -> String {
    let mut out = String::new();
    out.push_str("Table 2 — buffers used by non-IC, IB=1 (median per checkpoint, overall max)\n\n");
    let mut header: Vec<String> = vec!["x".into()];
    if let Some(first) = t.classes.first() {
        header.extend(first.medians.iter().map(|(cp, _)| format!("median@{cp}")));
    }
    header.push("max".into());
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let rows: Vec<Vec<String>> = t
        .classes
        .iter()
        .map(|c| {
            let mut row = vec![c.compute_scale.to_string()];
            row.extend(c.medians.iter().map(|(_, m)| format!("{m:.0}")));
            row.push(c.max.to_string());
            row
        })
        .collect();
    out.push_str(&ascii_table(&header_refs, &rows));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_ratio_classes, CampaignConfig};
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn buffer_usage_rises_with_compute_scale() {
        let campaign = CampaignConfig {
            trees: 8,
            tasks: 1_000,
            seed: 23,
            tree_config: RandomTreeConfig {
                min_nodes: 20,
                max_nodes: 80,
                comm_min: 1,
                comm_max: 100,
                compute_scale: 0, // per class
            },
            onset: OnsetConfig::default(),
        };
        let cfg = config(GrowthGate::default(), campaign.tasks);
        let t = build(&run_ratio_classes(&campaign, &[cfg])[0], campaign.tasks);
        assert_eq!(t.classes.len(), 4);
        // Median at the last checkpoint grows with x (the paper's 3 → 551
        // sweep); allow equality for adjacent small classes.
        let finals: Vec<f64> = t
            .classes
            .iter()
            .map(|c| c.medians.last().unwrap().1)
            .collect();
        assert!(
            finals[3] > finals[0],
            "x=10000 median {} should exceed x=500 median {}",
            finals[3],
            finals[0]
        );
        // Max dwarfs IC's 3 buffers at the top class.
        assert!(t.classes[3].max > 3);
        // Checkpoint medians are nondecreasing within a class.
        for c in &t.classes {
            let ms: Vec<f64> = c.medians.iter().map(|&(_, m)| m).collect();
            assert!(ms.windows(2).all(|w| w[0] <= w[1] + 1e-9));
        }
        let rendered = render(&t);
        assert!(rendered.contains("median@100"));
    }
}
