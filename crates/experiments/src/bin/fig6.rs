//! Regenerates Figure 6 (tree size/depth PDFs, all vs used nodes).

use bc_experiments::campaign::{run_variants, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::{fig5, fig6};

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 300,
            full_trees: 25_000,
            tasks: 10_000,
        },
    );
    let campaign = CampaignConfig::paper(cli.trees, cli.tasks, cli.seed);
    let runs = run_variants(&campaign, &fig5::configs(cli.tasks));
    let fig = fig6::build(&runs[0], &runs[1]);
    let text = fig6::render(&fig, 25, 4);
    println!("{text}");
    print!("\n{}", fig6::summary(&fig));
    write_artifact(&cli, "fig6.txt", &text);
}
