//! Figure 5: impact of the computation-to-communication ratio.
//!
//! Four tree classes differing only in the computation scale
//! `x ∈ {500, 1 000, 5 000, 10 000}` (ratios x/10 000 through x/1), 1 000
//! trees per class at paper scale, 4 000 tasks. Two protocols: non-IC
//! IB=1 and IC FB=3. The paper's findings: IC/FB=3 performs well on all
//! classes; non-IC suffers greatly as the ratio rises; startup time grows
//! with the ratio for every protocol.

use crate::campaign::{TreeRun, RATIO_CLASSES};
use bc_engine::SimConfig;
use bc_metrics::{ascii_table, onset_cdf, Chart};

/// Results for one (class, protocol) cell.
#[derive(Clone, Debug)]
pub struct ClassResult {
    /// The class's computation scale `x`.
    pub compute_scale: u64,
    /// Protocol label.
    pub protocol: String,
    /// Per-tree results.
    pub runs: Vec<TreeRun>,
}

impl ClassResult {
    /// Cumulative fraction reached by each probe (Fig 5's curves).
    pub fn cdf(&self, probes: &[u64]) -> Vec<(u64, f64)> {
        let onsets: Vec<Option<u64>> = self.runs.iter().map(|r| r.onset).collect();
        onset_cdf(&onsets, probes)
    }

    /// Final fraction reached.
    pub fn fraction_reached(&self) -> f64 {
        crate::campaign::fraction_reached(&self.runs)
    }
}

/// Figure 5 output.
#[derive(Clone, Debug)]
pub struct Fig5 {
    /// All (class, protocol) cells, classes outer.
    pub cells: Vec<ClassResult>,
    /// Probe grid.
    pub probes: Vec<u64>,
}

/// The two protocols of Fig 5 (and Fig 6): non-IC/IB=1, then IC/FB=3.
pub fn configs(tasks: u64) -> Vec<SimConfig> {
    vec![
        SimConfig::non_interruptible(1, tasks),
        SimConfig::interruptible(3, tasks),
    ]
}

/// Builds Fig 5 from each protocol's runs per ratio class (indexed like
/// `RATIO_CLASSES`; see `campaign::run_ratio_classes`), `tasks` per run.
pub fn build(nonic: &[Vec<TreeRun>], ic: &[Vec<TreeRun>], tasks: u64) -> Fig5 {
    let mut cells = Vec::new();
    for (c, &x) in RATIO_CLASSES.iter().enumerate() {
        for (protocol, runs) in [("non-IC, IB=1", &nonic[c]), ("IC, FB=3", &ic[c])] {
            cells.push(ClassResult {
                compute_scale: x,
                protocol: protocol.to_string(),
                runs: runs.clone(),
            });
        }
    }
    let max_x = tasks / 2;
    let probes: Vec<u64> = (1..=40).map(|k| k * max_x / 40).collect();
    Fig5 { cells, probes }
}

/// Renders the summary and curves.
pub fn render(fig: &Fig5) -> String {
    let mut out = String::new();
    out.push_str("Figure 5 — impact of computation-to-communication ratio\n\n");
    let rows: Vec<Vec<String>> = fig
        .cells
        .iter()
        .map(|c| {
            vec![
                format!("x={}", c.compute_scale),
                c.protocol.clone(),
                format!("{:.1}%", 100.0 * c.fraction_reached()),
            ]
        })
        .collect();
    out.push_str(&ascii_table(
        &["class", "protocol", "reached optimal"],
        &rows,
    ));
    out.push_str("\nCumulative % of trees reaching optimal vs tasks completed:\n");
    let header: Vec<String> = std::iter::once("x".to_string())
        .chain(
            fig.cells
                .iter()
                .map(|c| format!("{} x={}", c.protocol, c.compute_scale)),
        )
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let curves: Vec<Vec<(u64, f64)>> = fig.cells.iter().map(|c| c.cdf(&fig.probes)).collect();
    let rows: Vec<Vec<String>> = fig
        .probes
        .iter()
        .enumerate()
        .map(|(i, &x)| {
            let mut row = vec![x.to_string()];
            row.extend(curves.iter().map(|c| format!("{:.1}%", 100.0 * c[i].1)));
            row
        })
        .collect();
    out.push_str(&ascii_table(&header_refs, &rows));
    out.push_str("\nshape:\n");
    let mut chart = Chart::new(64, 14).y_max(1.0);
    for (c, curve) in fig.cells.iter().zip(&curves) {
        let pts: Vec<(f64, f64)> = curve.iter().map(|&(x, y)| (x as f64, y)).collect();
        chart = chart.series(format!("{} x={}", c.protocol, c.compute_scale), &pts);
    }
    out.push_str(&chart.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_ratio_classes, CampaignConfig};
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn ic_dominates_every_class() {
        let campaign = CampaignConfig {
            trees: 10,
            tasks: 1500,
            seed: 3,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 60,
                comm_min: 1,
                comm_max: 50,
                compute_scale: 0, // overridden per class
            },
            onset: OnsetConfig {
                window_threshold: 200,
                crossings: 2,
            },
        };
        let runs = run_ratio_classes(&campaign, &configs(campaign.tasks));
        let fig = build(&runs[0], &runs[1], campaign.tasks);
        assert_eq!(fig.cells.len(), 8);
        for pair in fig.cells.chunks(2) {
            let nonic = &pair[0];
            let ic = &pair[1];
            assert_eq!(nonic.compute_scale, ic.compute_scale);
            assert!(
                ic.fraction_reached() >= nonic.fraction_reached() - 1e-9,
                "x={}: IC {} < non-IC {}",
                ic.compute_scale,
                ic.fraction_reached(),
                nonic.fraction_reached()
            );
        }
        let rendered = render(&fig);
        assert!(rendered.contains("x=10000"));
    }
}
