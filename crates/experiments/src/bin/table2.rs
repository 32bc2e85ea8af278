//! Regenerates Table 2 (buffers used by non-IC across ratio classes).

use bc_experiments::campaign::{run_ratio_classes, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::table2;

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
    let runs = run_ratio_classes(&campaign, &[table2::config(cli.gate, cli.tasks)]);
    let t = table2::build(&runs[0], cli.tasks);
    let text = table2::render(&t);
    println!("{text}");
    write_artifact(&cli, "table2.txt", &text);
}
