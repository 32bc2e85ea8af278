//! Flag parsing shared by the experiment binaries.
//!
//! Flags: `--trees N`, `--tasks N`, `--seed N`, `--full` (paper-scale
//! campaign), `--threads N` (campaign worker threads), `--shard-size N`
//! (trees per streaming shard), `--out DIR` (also write CSV artifacts
//! there), `--doc PATH` (`repro_all`: rewrite the document's generated
//! blocks).
//!
//! Every experiment binary keeps one command-line contract: `--help`
//! prints usage to **stdout** and exits 0; a bad command line prints
//! `error: <what>` plus usage to **stderr** and exits 2 (the
//! conventional usage-error status), never a panic. [`Flags`] takes a
//! flag's value and parses numbers, and [`or_exit`] makes the exit.
//! Campaign binaries call [`parse`], whose fallible core [`try_parse`]
//! the tests (and any embedding) use directly.

use bc_core::GrowthGate;
use std::path::{Path, PathBuf};
use std::str::FromStr;

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
    /// Markdown document whose generated blocks `repro_all` rewrites
    /// (see [`crate::doc_blocks`]).
    pub doc: Option<PathBuf>,
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

/// Why a command-line parse did not produce its flags.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help`/`-h` was given; the caller should print usage and exit 0.
    Help,
    /// The command line is malformed; the message names the offense.
    Usage(String),
}

impl CliError {
    /// The error for a flag the parser does not know.
    pub fn unknown(flag: &str) -> CliError {
        CliError::Usage(format!("unknown flag {flag}"))
    }
}

/// A command line being parsed: yields each flag in turn, and takes the
/// value that follows one.
pub struct Flags<I> {
    args: I,
}

impl<I: Iterator<Item = String>> Flags<I> {
    /// Wraps `args` (without the program name).
    pub fn new(args: impl IntoIterator<Item = String, IntoIter = I>) -> Self {
        Flags {
            args: args.into_iter(),
        }
    }

    /// The value following `flag`.
    pub fn value(&mut self, flag: &str) -> Result<String, CliError> {
        self.args
            .next()
            .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))
    }

    /// The value following `flag`, parsed as a number.
    pub fn number<T: FromStr>(&mut self, flag: &str) -> Result<T, CliError> {
        number(flag, &self.value(flag)?)
    }

    /// The value following `flag`, parsed as a count of at least 1.
    pub fn at_least_one<T: FromStr + PartialOrd + From<u8>>(
        &mut self,
        flag: &str,
    ) -> Result<T, CliError> {
        let n: T = self.number(flag)?;
        if n < T::from(1) {
            return Err(CliError::Usage(format!("{flag} must be at least 1")));
        }
        Ok(n)
    }
}

impl<I: Iterator<Item = String>> Iterator for Flags<I> {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.args.next()
    }
}

/// `raw` parsed as `flag`'s number.
pub fn number<T: FromStr>(flag: &str, raw: &str) -> Result<T, CliError> {
    raw.parse()
        .map_err(|_| CliError::Usage(format!("{flag} must be a number, got {raw:?}")))
}

/// Finishes a parse for a binary: passes the parsed value through; on
/// [`CliError::Help`] prints `usage` to stdout and exits 0; on
/// [`CliError::Usage`] prints `error: <message>` and `usage` to stderr
/// and exits 2.
pub fn or_exit<T>(parsed: Result<T, CliError>, usage: &str) -> T {
    match parsed {
        Ok(value) => value,
        Err(CliError::Help) => {
            println!("{usage}");
            std::process::exit(0);
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}

fn usage_line(defaults: Defaults) -> String {
    format!(
        "flags: --trees N --tasks N --seed N --full --gate every|arrival|filled --threads N \
         --shard-size N --out DIR --doc PATH \
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
        doc: None,
        checkpoint_dir: None,
        checkpoint_every: 8,
        resume: false,
    };
    let mut flags = Flags::new(args);
    let mut explicit_trees = false;
    while let Some(arg) = flags.next() {
        match arg.as_str() {
            "--trees" => {
                cli.trees = flags.number("--trees")?;
                explicit_trees = true;
            }
            "--tasks" => cli.tasks = flags.number("--tasks")?,
            "--seed" => cli.seed = flags.number("--seed")?,
            "--full" => cli.full = true,
            "--gate" => {
                cli.gate = match flags.value("--gate")?.as_str() {
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
            "--threads" => cli.threads = Some(flags.at_least_one("--threads")?),
            "--shard-size" => cli.shard_size = flags.at_least_one("--shard-size")?,
            "--out" => cli.out = Some(PathBuf::from(flags.value("--out")?)),
            "--doc" => cli.doc = Some(PathBuf::from(flags.value("--doc")?)),
            "--checkpoint-dir" => {
                cli.checkpoint_dir = Some(PathBuf::from(flags.value("--checkpoint-dir")?))
            }
            "--checkpoint-every" => {
                cli.checkpoint_every = flags.at_least_one("--checkpoint-every")?
            }
            "--resume" => cli.resume = true,
            "--help" | "-h" => return Err(CliError::Help),
            other => return Err(CliError::unknown(other)),
        }
    }
    if cli.full && !explicit_trees {
        cli.trees = defaults.full_trees;
    }
    Ok(cli)
}

/// Parses `args` for a binary: on success creates the `--out` directory
/// (if given), configures the worker pool (if `--threads` was given)
/// and returns the [`Cli`]; on `--help` prints usage to stdout and exits
/// 0; on a usage error, or an `--out` directory that cannot be created,
/// prints the error and usage to stderr and exits 2.
pub fn parse(args: impl IntoIterator<Item = String>, defaults: Defaults) -> Cli {
    let usage = usage_line(defaults);
    let cli = or_exit(try_parse(args, defaults), &usage);
    if let Some(dir) = &cli.out {
        or_exit(create_out_dir(dir), &usage);
    }
    if let Some(n) = cli.threads {
        rayon::ThreadPoolBuilder::new()
            .num_threads(n)
            .build_global()
            .expect("configure worker threads");
    }
    cli
}

/// Creates the `--out` directory `dir`, before any work starts.
pub fn create_out_dir(dir: &Path) -> Result<(), CliError> {
    std::fs::create_dir_all(dir)
        .map_err(|e| CliError::Usage(format!("cannot create --out {}: {e}", dir.display())))
}

/// Writes `content` as `<out>/<name>` when `--out` was given (the
/// directory [`parse`] created).
pub fn write_artifact(cli: &Cli, name: &str, content: &str) {
    if let Some(dir) = &cli.out {
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
        assert!(cli.doc.is_none());
        let cli = try_parse(args(&["--doc", "EXPERIMENTS.md"]), D).unwrap();
        assert_eq!(cli.doc.as_deref(), Some(Path::new("EXPERIMENTS.md")));
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
