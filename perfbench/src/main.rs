//! Benchmark entry point:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_campaign|grid_sweep|serve_sessions> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints one provenance line, then, as
//! the last line, `{"correct", "attempted", "failed", "metrics"}` with
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Checkpoints and span files go under `.bench_out/`.

use bc_perfbench::report::{provenance_line, result_line, Outcome};
use bc_perfbench::{grid, paper, serve, Opts};
use std::panic::{catch_unwind, AssertUnwindSafe};

const USAGE: &str = "usage: bc-perfbench --workload <paper_campaign|grid_sweep|serve_sessions> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: 2003,
        seconds: 10.0,
        trace: false,
        out_dir: ".bench_out".into(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or(format!("bad --seconds {value:?}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value:?}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok((workload.ok_or("missing --workload")?, opts))
}

fn main() {
    let (workload, opts) = parse_args().unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let run: fn(&Opts) -> Outcome = match workload.as_str() {
        paper::NAME => |o| paper::run(o, paper::Scale::FULL),
        grid::NAME => |o| grid::run(o, grid::Scale::FULL),
        serve::NAME => |o| serve::run(o, serve::Scale::FULL),
        other => {
            eprintln!("error: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A panic anywhere in the run is a failed run, reported as such
    // rather than as a missing result line.
    let outcome = catch_unwind(AssertUnwindSafe(|| run(&opts))).unwrap_or_else(|_| {
        let mut o = Outcome {
            attempted: 1,
            failed: 1,
            ..Outcome::default()
        };
        o.check("no_panic", false, "the workload panicked; see stderr");
        o
    });
    println!(
        "{}",
        provenance_line(&workload, opts.seed, opts.trace, &outcome)
    );
    println!("{}", result_line(&outcome));
}
