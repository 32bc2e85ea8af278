//! Runs the startup-time extension experiment.

use bc_experiments::campaign::{run_ratio_classes, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::{fig5, startup};

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 100,
            full_trees: 1_000,
            tasks: 4_000,
        },
    );
    let campaign = CampaignConfig::paper(cli.trees, cli.tasks, cli.seed);
    let runs = run_ratio_classes(&campaign, &fig5::configs(cli.tasks));
    let s = startup::build(&runs[1], &runs[0]);
    let text = startup::render(&s);
    println!("{text}");
    write_artifact(&cli, "startup.txt", &text);
}
