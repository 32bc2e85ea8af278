//! Table 1: percentage of trees that reached the optimal steady-state
//! rate using at most n buffers.
//!
//! Paper numbers (25 000 trees, 10 000 tasks):
//!
//! ```text
//! protocol   1      2     3    10   20   100
//! non-IC    0.0%   0.0   0.2   0.8   -   5.1
//! IC       81.9%  98.5  99.6    -    -    -
//! ```
//!
//! Reading: the IC row's column n is the IC/FB=n run's success rate (an
//! IC run uses exactly its fixed pool); the non-IC row's column n is the
//! fraction of trees that both reached the optimal rate *and* whose
//! largest grown pool stayed ≤ n.

use crate::campaign::TreeRun;
use bc_metrics::ascii_table;

/// The paper's buffer thresholds.
pub const THRESHOLDS: [u32; 6] = [1, 2, 3, 10, 20, 100];

/// Table 1 data: the runs of Fig 4's four variants under the default
/// gate (`fig4::configs`), whose first is non-IC/IB=1 and the rest IC.
#[derive(Clone, Debug)]
pub struct Table1 {
    /// non-IC/IB=1 per-tree outcomes.
    pub nonic: Vec<TreeRun>,
    /// IC runs for FB = 1, 2, 3 (in order).
    pub ic: Vec<Vec<TreeRun>>,
}

impl Table1 {
    /// non-IC cell: % reached with ≤ n buffers.
    pub fn nonic_cell(&self, n: u32) -> f64 {
        if self.nonic.is_empty() {
            return 0.0;
        }
        let hit = self
            .nonic
            .iter()
            .filter(|r| r.reached() && r.max_buffers <= n)
            .count();
        hit as f64 / self.nonic.len() as f64
    }

    /// IC cell for FB = n (1-indexed into the runs), None if not run.
    pub fn ic_cell(&self, n: u32) -> Option<f64> {
        let idx = n.checked_sub(1)? as usize;
        let runs = self.ic.get(idx)?;
        if runs.is_empty() {
            return Some(0.0);
        }
        Some(runs.iter().filter(|r| r.reached()).count() as f64 / runs.len() as f64)
    }
}

/// Renders the paper's table shape.
pub fn render(t: &Table1) -> String {
    let mut out = String::new();
    out.push_str("Table 1 — % of trees reaching optimal steady state using at most n buffers\n\n");
    let header: Vec<String> = std::iter::once("protocol".to_string())
        .chain(THRESHOLDS.iter().map(|n| n.to_string()))
        .collect();
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut nonic_row = vec!["non-IC".to_string()];
    nonic_row.extend(
        THRESHOLDS
            .iter()
            .map(|&n| format!("{:.1}%", 100.0 * t.nonic_cell(n))),
    );
    let mut ic_row = vec!["IC".to_string()];
    ic_row.extend(THRESHOLDS.iter().map(|&n| {
        t.ic_cell(n)
            .map_or("-".to_string(), |v| format!("{:.1}%", 100.0 * v))
    }));
    out.push_str(&ascii_table(&header_refs, &[nonic_row, ic_row]));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_variants, CampaignConfig};
    use crate::fig4;
    use bc_core::GrowthGate;
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn cells_are_monotone_and_ic_dominates() {
        let campaign = CampaignConfig {
            trees: 16,
            tasks: 1200,
            seed: 19,
            tree_config: RandomTreeConfig {
                min_nodes: 5,
                max_nodes: 60,
                comm_min: 1,
                comm_max: 30,
                compute_scale: 1000,
            },
            onset: OnsetConfig {
                window_threshold: 150,
                crossings: 2,
            },
        };
        let runs = run_variants(
            &campaign,
            &fig4::configs(campaign.tasks, GrowthGate::default()),
        );
        let (nonic, ic) = (runs[0].clone(), runs[1..].to_vec());
        let t = Table1 { nonic, ic };
        // non-IC cells are nondecreasing in n (CDF over buffer usage).
        let cells: Vec<f64> = THRESHOLDS.iter().map(|&n| t.nonic_cell(n)).collect();
        assert!(cells.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        // IC columns exist exactly for FB = 1..3.
        assert!(t.ic_cell(1).is_some());
        assert!(t.ic_cell(3).is_some());
        assert!(t.ic_cell(10).is_none());
        // IC/FB=3 with 3 buffers beats non-IC restricted to ≤ 3.
        assert!(t.ic_cell(3).unwrap() >= t.nonic_cell(3));
        let rendered = render(&t);
        assert!(rendered.contains("non-IC"));
        assert!(rendered.matches('-').count() >= 3);
    }
}
