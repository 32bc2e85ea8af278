//! Regenerates Table 1 (% reaching optimal using at most n buffers).

use bc_core::GrowthGate;
use bc_experiments::campaign::{run_variants, CampaignConfig};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::{fig4, table1};

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
    let mut ic = run_variants(&campaign, &fig4::configs(cli.tasks, GrowthGate::default()));
    let t = table1::Table1 {
        nonic: ic.remove(0),
        ic,
    };
    let text = table1::render(&t);
    println!("{text}");
    write_artifact(&cli, "table1.txt", &text);
}
