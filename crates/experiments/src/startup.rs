//! Extension experiment: startup-time analysis.
//!
//! §4.2.1 reports, from "other simulations not displayed here", that
//! *"for all protocols the startup time increases as the computation-to-
//! communication ratio increases"*, and that non-IC has much longer
//! startup phases than IC. This experiment makes that claim a measured
//! artifact: the distribution of onset windows per ratio class per
//! protocol.

use crate::campaign::{TreeRun, RATIO_CLASSES};
use bc_metrics::{ascii_table, median, percentile};

/// One (class, protocol) cell's startup distribution.
#[derive(Clone, Debug)]
pub struct StartupCell {
    /// Computation scale `x`.
    pub compute_scale: u64,
    /// Protocol label.
    pub protocol: String,
    /// Onset windows of the runs that reached optimal steady state.
    pub onsets: Vec<u64>,
    /// Number of runs in the cell.
    pub total_runs: usize,
}

impl StartupCell {
    /// Median onset window (startup length proxy) among reaching runs.
    pub fn median_onset(&self) -> Option<f64> {
        median(&self.onsets)
    }

    /// 90th percentile onset window.
    pub fn p90_onset(&self) -> Option<u64> {
        percentile(&self.onsets, 90.0)
    }
}

/// Experiment output.
#[derive(Clone, Debug)]
pub struct Startup {
    /// All cells: classes outer, protocols inner.
    pub cells: Vec<StartupCell>,
}

/// Builds the experiment from Fig 5's two protocols' runs per ratio
/// class (indexed like `RATIO_CLASSES`). Each class's runs may be a
/// prefix of a larger campaign: tree `i` depends only on the seed and `i`.
pub fn build<R: AsRef<[TreeRun]>>(ic: &[R], nonic: &[R]) -> Startup {
    let mut cells = Vec::new();
    for (c, &x) in RATIO_CLASSES.iter().enumerate() {
        for (protocol, runs) in [("IC, FB=3", &ic[c]), ("non-IC, IB=1", &nonic[c])] {
            let runs = runs.as_ref();
            cells.push(StartupCell {
                compute_scale: x,
                protocol: protocol.to_string(),
                onsets: runs.iter().filter_map(|r| r.onset).collect(),
                total_runs: runs.len(),
            });
        }
    }
    Startup { cells }
}

/// Renders the startup table.
pub fn render(s: &Startup) -> String {
    let mut out = String::new();
    out.push_str("Startup time by ratio class (onset window of runs that reached optimal)\n\n");
    let rows: Vec<Vec<String>> = s
        .cells
        .iter()
        .map(|c| {
            vec![
                format!("x={}", c.compute_scale),
                c.protocol.clone(),
                format!("{}/{}", c.onsets.len(), c.total_runs),
                c.median_onset().map_or("-".into(), |m| format!("{m:.0}")),
                c.p90_onset().map_or("-".into(), |p| p.to_string()),
            ]
        })
        .collect();
    out.push_str(&ascii_table(
        &["class", "protocol", "reached", "median onset", "p90 onset"],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_ratio_classes, CampaignConfig};
    use crate::fig5;
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn startup_grows_with_ratio_for_ic() {
        let campaign = CampaignConfig {
            trees: 16,
            tasks: 2_000,
            seed: 77,
            tree_config: RandomTreeConfig {
                min_nodes: 10,
                max_nodes: 80,
                comm_min: 1,
                comm_max: 100,
                compute_scale: 0, // per class
            },
            onset: OnsetConfig {
                window_threshold: 150,
                crossings: 2,
            },
        };
        let runs = run_ratio_classes(&campaign, &fig5::configs(campaign.tasks));
        let s = build(&runs[1], &runs[0]);
        assert_eq!(s.cells.len(), 8);
        // Compare IC cells at the lowest and highest ratio classes: the
        // median onset should not shrink as x rises (the paper's claim).
        let ic_low = s
            .cells
            .iter()
            .find(|c| c.compute_scale == 500 && c.protocol.starts_with("IC"))
            .unwrap();
        let ic_high = s
            .cells
            .iter()
            .find(|c| c.compute_scale == 10_000 && c.protocol.starts_with("IC"))
            .unwrap();
        if let (Some(low), Some(high)) = (ic_low.median_onset(), ic_high.median_onset()) {
            assert!(
                high >= low * 0.8,
                "startup should not collapse with ratio: low {low} high {high}"
            );
        }
        let rendered = render(&s);
        assert!(rendered.contains("median onset"));
    }
}
