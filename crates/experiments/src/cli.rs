//! Minimal flag parsing shared by the experiment binaries.
//!
//! Flags: `--trees N`, `--tasks N`, `--seed N`, `--full` (paper-scale
//! campaign), `--threads N` (campaign worker threads), `--shard-size N`
//! (trees per streaming shard), `--out DIR` (also write CSV artifacts
//! there).
//!
//! Binaries call [`parse`], which on a bad command line prints a
//! one-line error plus usage to **stderr** and exits with code 2 (the
//! conventional usage-error status), and honors `--help` on stdout with
//! exit 0. The fallible core is [`try_parse`], which the tests (and any
//! embedding) use directly.

use bc_core::GrowthGate;
#[cfg(test)]
use std::path::Path;
use std::path::PathBuf;

/// Parsed command line for an experiment binary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Cli {
    /// Number of trees (or graphs) to simulate.
    pub trees: usize,
    /// Tasks per run.
    pub tasks: u64,
    /// Campaign seed.
    pub seed: u64,
    /// Paper-scale run requested.
    pub full: bool,
    /// Non-IC growth gate (see `bc_core::GrowthGate`; DESIGN.md §6).
    pub gate: GrowthGate,
    /// Campaign worker threads (None = all cores). Campaign results are
    /// bit-identical at any thread count; this only trades wall-clock.
    pub threads: Option<usize>,
    /// Trees per streaming shard.
    pub shard_size: usize,
    /// Directory for CSV artifacts.
    pub out: Option<PathBuf>,
    /// Durable-checkpoint directory for resumable streaming campaigns
    /// (None = no checkpointing; the fault-free hot path is untouched).
    pub checkpoint_dir: Option<PathBuf>,
    /// Shards between checkpoint generations.
    pub checkpoint_every: usize,
    /// Continue from the newest good checkpoint generation.
    pub resume: bool,
}

/// Defaults an experiment passes to [`parse`].
#[derive(Clone, Copy, Debug)]
pub struct Defaults {
    /// Default tree count.
    pub trees: usize,
    /// Tree count under `--full` (paper scale).
    pub full_trees: usize,
    /// Default (and paper) task count.
    pub tasks: u64,
}

/// Why [`try_parse`] did not produce a [`Cli`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; the caller should print usage and exit 0.
    Help,
    /// The command line is malformed; the message names the offense.
    Usage(String),
}

fn usage_line(defaults: Defaults) -> String {
    format!(
        "flags: --trees N --tasks N --seed N --full --gate every|arrival|filled --threads N \
         --shard-size N --out DIR \
         --checkpoint-dir DIR --checkpoint-every N --resume\n\
         defaults: trees={} (full: {}), tasks={}, seed=2003, shard-size=512, \
         checkpoint-every=8",
        defaults.trees, defaults.full_trees, defaults.tasks
    )
}

/// Parses `args` (without the program name). Returns [`CliError::Usage`]
/// on unknown flags or malformed values and [`CliError::Help`] for
/// `--help`. Does not touch the process (no printing, no exit, no
/// thread-pool configuration) — that is [`parse`]'s job.
pub fn try_parse(
    args: impl IntoIterator<Item = String>,
    defaults: Defaults,
) -> Result<Cli, CliError> {
    let mut cli = Cli {
        trees: defaults.trees,
        tasks: defaults.tasks,
        seed: 2003, // IPDPS'03
        full: false,
        gate: GrowthGate::default(),
        threads: None,
        shard_size: 512,
        out: None,
        checkpoint_dir: None,
        checkpoint_every: 8,
        resume: false,
    };
    let mut it = args.into_iter();
    let mut explicit_trees = false;
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| CliError::Usage(format!("{name} requires a value")))
        };
        let number = |name: &str, raw: String| {
            raw.parse::<u64>()
                .map_err(|_| CliError::Usage(format!("{name} must be a number, got {raw:?}")))
        };
        match arg.as_str() {
            "--trees" => {
                cli.trees = number("--trees", value("--trees")?)? as usize;
                explicit_trees = true;
            }
            "--tasks" => cli.tasks = number("--tasks", value("--tasks")?)?,
            "--seed" => cli.seed = number("--seed", value("--seed")?)?,
            "--full" => cli.full = true,
            "--gate" => {
                cli.gate = match value("--gate")?.as_str() {
                    "every" => GrowthGate::EveryEvent,
                    "arrival" => GrowthGate::OncePerArrival,
                    "filled" => GrowthGate::AfterPoolFilled,
                    other => {
                        return Err(CliError::Usage(format!(
                            "unknown gate {other}; use every|arrival|filled"
                        )))
                    }
                };
            }
            "--threads" => {
                let n = number("--threads", value("--threads")?)? as usize;
                if n == 0 {
                    return Err(CliError::Usage("--threads must be at least 1".into()));
                }
                cli.threads = Some(n);
            }
            "--shard-size" => {
                let n = number("--shard-size", value("--shard-size")?)? as usize;
                if n == 0 {
                    return Err(CliError::Usage("--shard-size must be at least 1".into()));
                }
                cli.shard_size = n;
            }
            "--out" => cli.out = Some(PathBuf::from(value("--out")?)),
            "--checkpoint-dir" => {
                cli.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?))
            }
            "--checkpoint-every" => {
                let n = number("--checkpoint-every", value("--checkpoint-every")?)? as usize;
                if n == 0 {
                    return Err(CliError::Usage(
                        "--checkpoint-every must be at least 1".into(),
                    ));
                }
                cli.checkpoint_every = n;
            }
            "--resume" => cli.resume = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::Usage(format!("unknown flag {other}"))),
        }
    }
    if cli.full && !explicit_trees {
        cli.trees = defaults.full_trees;
    }
    Ok(cli)
}

/// Parses `args` for a binary: on success configures the worker pool (if
/// `--threads` was given) and returns the [`Cli`]; on `--help` prints
/// usage to stdout and exits 0; on a usage error prints the error and
/// usage to stderr and exits 2.
pub fn parse(args: impl IntoIterator<Item = String>, defaults: Defaults) -> Cli {
    let cli = match try_parse(args, defaults) {
        Ok(cli) => cli,
        Err(CliError::Help) => {
            println!("{}", usage_line(defaults));
            std::process::exit(0);
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{}", usage_line(defaults));
            std::process::exit(2);
        }
    };
    if let Some(n) = cli.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure worker threads");
    }
    cli
}

/// Writes `content` as `<out>/<name>` when `--out` was given.
pub fn write_artifact(cli: &Cli, name: &str, content: &str) {
    if let Some(dir) = &cli.out {
        std::fs::create_dir_all(dir).expect("create --out directory");
        let path = dir.join(name);
        std::fs::write(&path, content).expect("write artifact");
        eprintln!("wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: Defaults = Defaults {
        trees: 100,
        full_trees: 25_000,
        tasks: 10_000,
    };

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_apply() {
        let cli = try_parse(args(&[]), D).unwrap();
        assert_eq!(cli.trees, 100);
        assert_eq!(cli.tasks, 10_000);
        assert_eq!(cli.seed, 2003);
        assert!(!cli.full);
        assert!(cli.out.is_none());
    }

    #[test]
    fn flags_override() {
        let cli = try_parse(args(&["--trees", "7", "--tasks", "55", "--seed", "9"]), D).unwrap();
        assert_eq!((cli.trees, cli.tasks, cli.seed), (7, 55, 9));
        assert_eq!(cli.gate, GrowthGate::EveryEvent);
        let cli = try_parse(args(&["--gate", "filled"]), D).unwrap();
        assert_eq!(cli.gate, GrowthGate::AfterPoolFilled);
    }

    #[test]
    fn full_scales_trees_unless_explicit() {
        let cli = try_parse(args(&["--full"]), D).unwrap();
        assert_eq!(cli.trees, 25_000);
        let cli = try_parse(args(&["--full", "--trees", "12"]), D).unwrap();
        assert_eq!(cli.trees, 12);
    }

    #[test]
    fn threads_flag_parses() {
        let cli = try_parse(args(&["--threads", "2"]), D).unwrap();
        assert_eq!(cli.threads, Some(2));
        assert_eq!(
            try_parse(args(&["--threads", "0"]), D),
            Err(CliError::Usage("--threads must be at least 1".into()))
        );
    }

    #[test]
    fn streaming_flags_parse() {
        let cli = try_parse(args(&[]), D).unwrap();
        assert_eq!(cli.shard_size, 512);
        let cli = try_parse(args(&["--shard-size", "64"]), D).unwrap();
        assert_eq!(cli.shard_size, 64);
        // Streaming is the only campaign mode; there is no flag for it.
        assert_eq!(
            try_parse(args(&["--stream"]), D),
            Err(CliError::Usage("unknown flag --stream".into()))
        );
        assert_eq!(
            try_parse(args(&["--shard-size", "0"]), D),
            Err(CliError::Usage("--shard-size must be at least 1".into()))
        );
    }

    #[test]
    fn checkpoint_flags_parse() {
        let cli = try_parse(args(&[]), D).unwrap();
        assert!(cli.checkpoint_dir.is_none());
        assert_eq!(cli.checkpoint_every, 8);
        assert!(!cli.resume);
        let cli = try_parse(
            args(&[
                "--checkpoint-dir",
                "ckpt",
                "--checkpoint-every",
                "3",
                "--resume",
            ]),
            D,
        )
        .unwrap();
        assert_eq!(cli.checkpoint_dir.as_deref(), Some(Path::new("ckpt")));
        assert_eq!(cli.checkpoint_every, 3);
        assert!(cli.resume);
        assert_eq!(
            try_parse(args(&["--checkpoint-every", "0"]), D),
            Err(CliError::Usage(
                "--checkpoint-every must be at least 1".into()
            ))
        );
    }

    #[test]
    fn help_is_not_an_error_exit() {
        assert_eq!(try_parse(args(&["--help"]), D), Err(CliError::Help));
        assert_eq!(try_parse(args(&["-h"]), D), Err(CliError::Help));
    }

    #[test]
    fn malformed_command_lines_are_usage_errors() {
        for bad in [
            vec!["--bogus"],
            vec!["--trees"],
            vec!["--trees", "many"],
            vec!["--tasks", "-3"],
            vec!["--seed", "0x10"],
            vec!["--gate", "sometimes"],
        ] {
            match try_parse(args(&bad), D) {
                Err(CliError::Usage(msg)) => {
                    assert!(!msg.is_empty(), "empty message for {bad:?}")
                }
                other => panic!("{bad:?} parsed as {other:?}"),
            }
        }
    }
}
