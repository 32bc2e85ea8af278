//! Figure 4: "Achieving Maximal Steady State" — for each protocol
//! variant, the cumulative fraction of trees whose onset of optimal
//! steady state occurred within x completed tasks.
//!
//! Paper setup: 10 000 tasks on 25 000 random trees (m=10, n=500, b=1,
//! d=100, x=10 000); variants non-IC/IB=1, IC/FB=1, IC/FB=2, IC/FB=3.
//! Headline numbers: IC/FB=3 reaches the optimal rate in 99.57 % of
//! trees, IC/FB=2 98.51 %, IC/FB=1 ~82 %, non-IC/IB=1 20.18 %.

use crate::campaign::{fraction_reached, TreeRun};
use bc_core::GrowthGate;
use bc_engine::SimConfig;
use bc_metrics::{ascii_table, onset_cdf, Chart};

/// One protocol variant's label and campaign results.
#[derive(Clone, Debug)]
pub struct VariantResult {
    /// Display label, e.g. `"IC, FB=3"`.
    pub label: String,
    /// Per-tree summaries.
    pub runs: Vec<TreeRun>,
}

impl VariantResult {
    /// Fraction of trees that reached the optimal steady state.
    pub fn fraction_reached(&self) -> f64 {
        fraction_reached(&self.runs)
    }

    /// Fig 4 CDF: `(x, fraction with onset ≤ x)` at the given probes.
    pub fn cdf(&self, probes: &[u64]) -> Vec<(u64, f64)> {
        let onsets: Vec<Option<u64>> = self.runs.iter().map(|r| r.onset).collect();
        onset_cdf(&onsets, probes)
    }
}

/// Full Figure 4 output.
#[derive(Clone, Debug)]
pub struct Fig4 {
    /// The four protocol variants, paper order.
    pub variants: Vec<VariantResult>,
    /// Probe positions (tasks completed at window start).
    pub probes: Vec<u64>,
}

/// Labels of the four protocol variants of Fig 4, paper order.
pub const VARIANTS: [&str; 4] = ["non-IC, IB=1", "IC, FB=1", "IC, FB=2", "IC, FB=3"];

/// The configurations of [`VARIANTS`], with an explicit non-IC growth
/// gate (Table 1 reads the same four runs under the default gate).
pub fn configs(tasks: u64, gate: GrowthGate) -> Vec<SimConfig> {
    vec![
        SimConfig::non_interruptible_gated(1, gate, tasks),
        SimConfig::interruptible(1, tasks),
        SimConfig::interruptible(2, tasks),
        SimConfig::interruptible(3, tasks),
    ]
}

/// Builds Fig 4 from the runs of [`configs`] (`runs[v]` is variant `v`).
pub fn build(runs: &[Vec<TreeRun>], tasks: u64) -> Fig4 {
    assert_eq!(runs.len(), VARIANTS.len(), "one run set per Fig 4 variant");
    let variants = VARIANTS
        .iter()
        .zip(runs)
        .map(|(label, runs)| VariantResult {
            label: label.to_string(),
            runs: runs.clone(),
        })
        .collect();
    // Probe grid matching the figure's axis (0..5000 for 10 000 tasks).
    let max_x = tasks / 2;
    let probes: Vec<u64> = (1..=50).map(|k| k * max_x / 50).collect();
    Fig4 { variants, probes }
}

/// Renders the summary table and CDF series.
pub fn render(fig: &Fig4) -> String {
    let mut out = String::new();
    out.push_str("Figure 4 — fraction of trees reaching optimal steady state\n\n");
    let rows: Vec<Vec<String>> = fig
        .variants
        .iter()
        .map(|v| {
            vec![
                v.label.clone(),
                format!("{:.2}%", 100.0 * v.fraction_reached()),
            ]
        })
        .collect();
    out.push_str(&ascii_table(&["variant", "reached optimal"], &rows));
    out.push_str("\nCDF (x = tasks completed at window start; y = % of trees):\n");
    let mut header: Vec<String> = vec!["x".into()];
    header.extend(fig.variants.iter().map(|v| v.label.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let curves: Vec<Vec<(u64, f64)>> = fig.variants.iter().map(|v| v.cdf(&fig.probes)).collect();
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
    out.push_str("\nshape (y = fraction of trees at optimal, x = tasks completed):\n");
    let mut chart = Chart::new(64, 14).y_max(1.0);
    for (v, curve) in fig.variants.iter().zip(&curves) {
        let pts: Vec<(f64, f64)> = curve.iter().map(|&(x, y)| (x as f64, y)).collect();
        chart = chart.series(v.label.clone(), &pts);
    }
    out.push_str(&chart.render());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_variants, CampaignConfig};
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    /// A miniature Fig 4 run: small trees, short application, relaxed
    /// onset threshold — checks the *ordering* of the variants, which is
    /// the figure's claim.
    #[test]
    fn variant_ordering_matches_paper() {
        let campaign = CampaignConfig {
            trees: 24,
            tasks: 1200,
            seed: 7,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 60,
                comm_min: 1,
                comm_max: 20,
                compute_scale: 500,
            },
            onset: OnsetConfig {
                window_threshold: 150,
                crossings: 2,
            },
        };
        let configs = configs(campaign.tasks, GrowthGate::default());
        let fig = build(&run_variants(&campaign, &configs), campaign.tasks);
        assert_eq!(fig.variants.len(), 4);
        let pct: Vec<f64> = fig.variants.iter().map(|v| v.fraction_reached()).collect();
        // At paper scale FB3 ≥ FB2 ≥ FB1 ≫ non-IC. At this miniature
        // scale FB3's longer startup (a paper-documented effect) can cost
        // it a tree or two against FB2, so allow small slack on the
        // FB3/FB2 comparison and require the large-margin claims exactly.
        assert!(pct[3] >= pct[2] - 0.1, "FB3 {} ≪ FB2 {}", pct[3], pct[2]);
        assert!(pct[2] >= pct[1] - 1e-9, "FB2 {} < FB1 {}", pct[2], pct[1]);
        assert!(pct[3] >= 0.85, "FB3 unexpectedly low: {}", pct[3]);
        assert!(pct[3] > pct[0], "FB3 {} vs non-IC {}", pct[3], pct[0]);
        let rendered = render(&fig);
        assert!(rendered.contains("IC, FB=3"));
    }
}
