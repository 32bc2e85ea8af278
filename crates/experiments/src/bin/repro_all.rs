//! Regenerates every table and figure in one run (laptop-sized defaults;
//! pass --full for paper scale — expect a long run on one core).
//!
//! `--doc PATH` also rewrites every `<!-- gen:NAME --> … <!-- /gen -->`
//! block of the Markdown file PATH with section NAME's rendered text
//! (see `bc_experiments::doc_blocks`). EXPERIMENTS.md's measured numbers
//! are those blocks, regenerated with `--trees 300 --doc EXPERIMENTS.md`.

use bc_core::GrowthGate;
use bc_engine::SimConfig;
use bc_experiments::campaign::{run_ratio_classes, run_variants, CampaignConfig, TreeRun};
use bc_experiments::cli::{parse, write_artifact, Defaults};
use bc_experiments::{
    doc_blocks, elasticity, fig3, fig4, fig5, fig6, fig7, overlay, startup, table1, table2,
    utilization,
};
use std::time::Instant;

fn main() {
    let cli = parse(
        std::env::args().skip(1),
        Defaults {
            trees: 300,
            full_trees: 25_000,
            tasks: 10_000,
        },
    );
    // Read `--doc` before the run, so a bad path fails before any work.
    let doc = cli.doc.as_ref().map(|path| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: cannot read --doc {}: {e}", path.display());
            std::process::exit(2);
        })
    });
    let t0 = Instant::now();
    let mut sections: Vec<(&str, String)> = Vec::new();
    let mut all = String::new();
    let mut section = |name: &'static str, title: &str, body: String| {
        println!("\n=== {title} ===\n{body}");
        all.push_str(&format!("\n=== {title} ===\n{body}\n"));
        sections.push((name, body));
    };

    let c_fig3 = CampaignConfig::paper(cli.trees.min(200), 2_000, cli.seed);
    section("fig3", "Figure 3", fig3::render(&fig3::run(&c_fig3), 200));

    // The main population, simulated once under Fig 4's four variants;
    // Table 1 reads all four, Fig 6 the first (at most) 300 trees.
    let c_main = CampaignConfig::paper(cli.trees, cli.tasks, cli.seed);
    let main = run_variants(&c_main, &fig4::configs(cli.tasks, GrowthGate::default()));
    let text = fig4::render(&fig4::build(&main, cli.tasks));
    section("fig4", "Figure 4", text);

    // The ratio classes, simulated once under non-IC/IB=1 (recording
    // Table 2's checkpoints) and IC/FB=3; the startup extension reads the
    // first (at most) 60 trees of each class.
    let ct = 4_000;
    let c_classes = CampaignConfig::paper(cli.trees.min(200), ct, cli.seed);
    let nonic = table2::config(GrowthGate::default(), ct);
    let classes = run_ratio_classes(&c_classes, &[nonic, SimConfig::interruptible(3, ct)]);
    let text = fig5::render(&fig5::build(&classes[0], &classes[1], ct));
    section("fig5", "Figure 5", text);

    let n = cli.trees.min(300);
    let fig = fig6::build(&main[0][..n], &main[3][..n]);
    let text = fig6::render(&fig, 25, 4) + "\n" + &fig6::summary(&fig);
    section("fig6", "Figure 6", text);

    section("fig7", "Figure 7", fig7::render(&fig7::run(1_000, 200)));

    let mut ic = main;
    let text = table1::render(&table1::Table1 {
        nonic: ic.remove(0),
        ic,
    });
    section("table1", "Table 1", text);

    let text = table2::render(&table2::build(&classes[0], ct));
    section("table2", "Table 2", text);

    let overlay_cfg = overlay::OverlayConfig {
        graphs: cli.trees.min(50),
        seed: cli.seed,
        ..overlay::OverlayConfig::default()
    };
    let text = overlay::render(&overlay::run(&overlay_cfg));
    section("overlay", "Overlay extension", text);

    let n = cli.trees.min(60);
    let prefix = |v: usize| -> Vec<&[TreeRun]> { classes[v].iter().map(|r| &r[..n]).collect() };
    let text = startup::render(&startup::build(&prefix(1), &prefix(0)));
    section("startup", "Startup-time extension", text);

    let c_startup = CampaignConfig::paper(n, ct, cli.seed);
    let filled = table2::config(GrowthGate::AfterPoolFilled, ct);
    let filled = run_ratio_classes(&c_startup, &[filled]);
    let text = table2::render(&table2::build(&filled[0], ct));
    section("table2_filled", "Table 2, gate AfterPoolFilled", text);

    let util_cfg = utilization::UtilizationConfig {
        trees: cli.trees.min(30),
        seed: cli.seed,
        ..utilization::UtilizationConfig::default()
    };
    let text = utilization::render(&utilization::run(&util_cfg));
    section("utilization", "Per-node rate validation", text);

    let elastic_cfg = elasticity::ElasticityConfig {
        trees: cli.trees.min(30),
        seed: cli.seed,
        ..elasticity::ElasticityConfig::default()
    };
    let text = elasticity::render(&elasticity::run(&elastic_cfg));
    section("elasticity", "Elasticity extension", text);

    println!("\ntotal: {:.1?}", t0.elapsed());
    write_artifact(&cli, "repro_all.txt", &all);
    if let (Some(path), Some(doc)) = (&cli.doc, doc) {
        match doc_blocks::fill(&doc, &sections) {
            Ok(filled) => {
                std::fs::write(path, filled).expect("write --doc file");
                eprintln!("rewrote the generated blocks of {}", path.display());
            }
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
}
