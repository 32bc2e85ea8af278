//! Regenerates Figure 4 (CDF of trees reaching optimal steady state).

use bc_experiments::campaign::{run_variants, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::fig4;

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 400,
            full_trees: 25_000,
            tasks: 10_000,
        },
    );
    let campaign = CampaignConfig::paper(cli.trees, cli.tasks, cli.seed);
    let runs = run_variants(&campaign, &fig4::configs(cli.tasks, cli.gate));
    let fig = fig4::build(&runs, cli.tasks);
    let text = fig4::render(&fig);
    println!("{text}");
    write_artifact(&cli, "fig4.txt", &text);
    if cli.out.is_some() {
        let mut rows = Vec::new();
        for v in &fig.variants {
            for (x, y) in v.cdf(&fig.probes) {
                rows.push(vec![v.label.clone(), x.to_string(), format!("{y:.6}")]);
            }
        }
        write_artifact(
            &cli,
            "fig4.csv",
            &bc_metrics::csv(&["variant", "tasks", "fraction_reached"], &rows),
        );
    }
}
