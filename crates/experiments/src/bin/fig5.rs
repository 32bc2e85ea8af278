//! Regenerates Figure 5 (impact of computation-to-communication ratio).

use bc_experiments::campaign::{run_ratio_classes, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::fig5;

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 200,
            full_trees: 1_000,
            tasks: 4_000,
        },
    );
    let campaign = CampaignConfig::paper(cli.trees, cli.tasks, cli.seed);
    let runs = run_ratio_classes(&campaign, &fig5::configs(cli.tasks));
    let fig = fig5::build(&runs[0], &runs[1], cli.tasks);
    let text = fig5::render(&fig);
    println!("{text}");
    write_artifact(&cli, "fig5.txt", &text);
    if cli.out.is_some() {
        let mut rows = Vec::new();
        for c in &fig.cells {
            for (x, y) in c.cdf(&fig.probes) {
                rows.push(vec![
                    c.compute_scale.to_string(),
                    c.protocol.clone(),
                    x.to_string(),
                    format!("{y:.6}"),
                ]);
            }
        }
        write_artifact(
            &cli,
            "fig5.csv",
            &bc_metrics::csv(&["x", "protocol", "tasks", "fraction_reached"], &rows),
        );
    }
}
