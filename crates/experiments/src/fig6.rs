//! Figure 6: tree-characteristic PDFs — the whole tree versus the subtree
//! of *used* nodes (nodes that computed at least one task, closed under
//! ancestors since relays are part of the working subtree).
//!
//! The paper's observation: with the default (high) computation-to-
//! communication ratios, a significant part of each tree is actually used
//! — typically >50 nodes and depth ≈18 — and non-IC occasionally uses a
//! slightly larger/deeper subtree than IC/FB=3.

use crate::campaign::TreeRun;
use bc_metrics::{ascii_table, Histogram};

/// The three populations of Fig 6.
#[derive(Clone, Debug)]
pub struct Fig6 {
    /// Size/depth of every generated tree (the "all nodes" curve).
    pub all: Vec<(u64, u64)>,
    /// Used-subtree size/depth under non-IC, IB=1.
    pub nonic_used: Vec<(u64, u64)>,
    /// Used-subtree size/depth under IC, FB=3.
    pub ic_used: Vec<(u64, u64)>,
}

fn used_stats(runs: &[TreeRun]) -> Vec<(u64, u64)> {
    runs.iter()
        .map(|r| (r.used.size as u64, r.used.depth as u64))
        .collect()
}

/// Builds Fig 6 from the runs of Fig 5's two protocols (`fig5::configs`:
/// non-IC/IB=1, then IC/FB=3) over one population.
pub fn build(nonic: &[TreeRun], ic: &[TreeRun]) -> Fig6 {
    let all = nonic
        .iter()
        .map(|r| (r.nodes as u64, r.depth as u64))
        .collect();
    Fig6 {
        all,
        nonic_used: used_stats(nonic),
        ic_used: used_stats(ic),
    }
}

/// Renders panel (a) size PDF and panel (b) depth PDF.
pub fn render(fig: &Fig6, size_bin: u64, depth_bin: u64) -> String {
    let mut out = String::new();
    out.push_str("Figure 6 — tree characteristics: all nodes vs used nodes\n");
    for (title, pick, bin) in [
        (
            "(a) tree size PDF",
            0usize, // size
            size_bin,
        ),
        ("(b) tree depth PDF", 1, depth_bin),
    ] {
        out.push_str(&format!("\n{title} (bin width {bin}):\n"));
        let series: [(&str, &Vec<(u64, u64)>); 3] = [
            ("all nodes", &fig.all),
            ("used, non-IC IB=1", &fig.nonic_used),
            ("used, IC FB=3", &fig.ic_used),
        ];
        let hists: Vec<(&str, Histogram)> = series
            .iter()
            .map(|(label, data)| {
                let mut h = Histogram::new(bin);
                for &(size, depth) in data.iter() {
                    h.add(if pick == 0 { size } else { depth });
                }
                (*label, h)
            })
            .collect();
        let max_bins = hists.iter().map(|(_, h)| h.pdf().len()).max().unwrap_or(0);
        let header: Vec<String> = std::iter::once("bin".to_string())
            .chain(hists.iter().map(|(l, _)| l.to_string()))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        let pdfs: Vec<Vec<(u64, f64)>> = hists.iter().map(|(_, h)| h.pdf()).collect();
        let rows: Vec<Vec<String>> = (0..max_bins)
            .map(|b| {
                let mut row = vec![format!("{}", b as u64 * bin)];
                for pdf in &pdfs {
                    row.push(
                        pdf.get(b)
                            .map_or("0.0%".to_string(), |&(_, v)| format!("{:.1}%", 100.0 * v)),
                    );
                }
                row
            })
            .collect();
        out.push_str(&ascii_table(&header_refs, &rows));
    }
    out
}

/// The headline comparison: mean size and depth of the whole trees and
/// of each protocol's used subtrees, on one line.
pub fn summary(fig: &Fig6) -> String {
    let (all_s, all_d) = means(&fig.all);
    let (ns, nd) = means(&fig.nonic_used);
    let (is_, id) = means(&fig.ic_used);
    format!(
        "means — all: {all_s:.1} nodes / depth {all_d:.1}; \
         used non-IC: {ns:.1} / {nd:.1}; used IC FB=3: {is_:.1} / {id:.1}\n"
    )
}

/// Mean used-subtree size and depth, for the headline comparison.
pub fn means(data: &[(u64, u64)]) -> (f64, f64) {
    if data.is_empty() {
        return (0.0, 0.0);
    }
    let n = data.len() as f64;
    (
        data.iter().map(|&(s, _)| s as f64).sum::<f64>() / n,
        data.iter().map(|&(_, d)| d as f64).sum::<f64>() / n,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_variants, CampaignConfig};
    use bc_metrics::OnsetConfig;
    use bc_platform::RandomTreeConfig;

    #[test]
    fn used_subtrees_are_substantial_at_high_ratio() {
        let campaign = CampaignConfig {
            trees: 12,
            tasks: 1000,
            seed: 5,
            tree_config: RandomTreeConfig {
                min_nodes: 30,
                max_nodes: 120,
                comm_min: 1,
                comm_max: 100,
                compute_scale: 10_000,
            },
            onset: OnsetConfig::default(),
        };
        let runs = run_variants(&campaign, &crate::fig5::configs(campaign.tasks));
        let fig = build(&runs[0], &runs[1]);
        assert_eq!(fig.all.len(), 12);
        let (all_size, _) = means(&fig.all);
        let (ic_size, _) = means(&fig.ic_used);
        // Used subtree is nonempty and no larger than the whole tree.
        assert!(ic_size > 1.0);
        assert!(ic_size <= all_size + 1e-9);
        // At x=10 000 most of the tree gets used (paper: usually > 50
        // nodes of ~245) — check a loose proportional version.
        assert!(
            ic_size > 0.2 * all_size,
            "used {ic_size} of {all_size} nodes"
        );
        for (&(s, d), &(alls, alld)) in fig.ic_used.iter().zip(&fig.all) {
            assert!(s <= alls && d <= alld);
        }
        let rendered = render(&fig, 25, 4);
        assert!(rendered.contains("tree size PDF"));
    }
}
