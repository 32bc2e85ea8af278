//! Run results, provenance, and the one-line JSON the benchmark prints.

/// One named metric with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value, printed with all its digits.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed loop.
    pub attempted: u64,
    /// Operations whose output failed a check, panicked, or errored.
    pub failed: u64,
    /// Run-level output checks, `(name, passed, detail)`.
    pub checks: Vec<(String, bool, String)>,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Extra provenance (sample counts, fingerprints, tail percentile).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a run-level check.
    pub fn check(&mut self, name: impl Into<String>, passed: bool, detail: impl Into<String>) {
        self.checks.push((name.into(), passed, detail.into()));
    }

    /// Adds a provenance note.
    pub fn note(&mut self, key: impl Into<String>, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// True when every operation and every run-level check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    assert!(v.is_finite(), "metric value must be finite, got {v}");
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct(),
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The provenance line printed before the result: host, build, seed,
/// checks, and the workload's notes.
pub fn provenance_line(workload: &str, seed: u64, trace: bool, o: &Outcome) -> String {
    let mut fields = vec![
        ("workload".to_string(), json_str(workload)),
        ("seed".to_string(), seed.to_string()),
        ("trace".to_string(), trace.to_string()),
        ("nproc".to_string(), nproc().to_string()),
        ("cpu_model".to_string(), json_str(&cpu_model())),
        ("git_commit".to_string(), json_str(&git_commit())),
        ("source_digest".to_string(), json_str(&source_digest())),
        (
            "build_profile".to_string(),
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
    ];
    let checks: Vec<String> = o
        .checks
        .iter()
        .map(|(name, ok, detail)| {
            format!(
                "{{\"check\": {}, \"passed\": {ok}, \"detail\": {}}}",
                json_str(name),
                json_str(detail)
            )
        })
        .collect();
    fields.push(("checks".to_string(), format!("[{}]", checks.join(", "))));
    for (k, v) in &o.notes {
        fields.push((k.clone(), json_str(v)));
    }
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"provenance\": {{{}}}}}", body.join(", "))
}

/// CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` in `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit of the checkout the benchmark runs in, read from `.git`
/// in the working directory; `unknown` when the tree is not a git
/// checkout (an exported source tree).
pub fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (no .git in working directory)".to_string(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

/// FNV-1a over the path and bytes of every file under `crates/` and
/// `vendor/` plus the root `Cargo.toml` and `Cargo.lock`, in path order:
/// identifies the measured code where no `.git` is at hand.
pub fn source_digest() -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let path = e.path();
            if path.is_dir() {
                if path.file_name().is_some_and(|n| n != "target") {
                    walk(&path, files);
                }
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk("crates".as_ref(), &mut files);
    walk("vendor".as_ref(), &mut files);
    files.sort();
    let mut h = crate::Fnv::default();
    let mut read = 0;
    for f in &files {
        if let Ok(bytes) = std::fs::read(f) {
            h.write(f.to_string_lossy().as_bytes());
            h.write(&bytes);
            read += 1;
        }
    }
    format!("{} ({read} files)", h.hex())
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kib| kib.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a 64 of `bytes`, as 16 hex digits.
pub fn fnv_hex(bytes: &[u8]) -> String {
    format!("{:016x}", bc_engine::durability::fnv1a64(bytes))
}

/// CPU time this process has used (user + system), in seconds.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesized command name; utime and
            // stime are the 14th and 15th fields overall.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}

/// Time the hypervisor ran other guests on this machine's CPUs
/// (`steal` in `/proc/stat`, summed over CPUs), in seconds.
pub fn host_steal_s() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            let cpu = s.lines().next()?;
            cpu.split_whitespace().nth(8)?.parse::<f64>().ok()
        })
        .map_or(0.0, |ticks| ticks / 100.0)
}
