//! In-memory span recording for the traced run.
//!
//! The benchmark records spans around its own calls into each module's
//! public functions (nothing inside the program is instrumented). Spans
//! stay in memory and are written out once, when the run ends. A span's
//! self time is its duration minus the time its child spans cover;
//! children on one thread nest strictly inside their parent, so summing
//! their durations is exact. A span whose children ran in parallel on
//! several threads (a grid sweep's checkpoint chunk) has no meaningful
//! self time; it reads zero.

use std::io::Write;
use std::time::Instant;

/// Sentinel parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the run's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the run's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation (tree run, sweep job, session) the span belongs to.
    pub op: u64,
    /// Small per-span label: protocol index, onset reached, ...
    pub tag: u8,
    /// Work the call did: events, nodes, bytes, ...
    pub count: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder for one thread of control.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// An empty recorder timing relative to `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            op,
            tag: 0,
            count: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn end(&mut self, id: u32, tag: u8, count: u64) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end;
        span.tag = tag;
        span.count = count;
    }

    /// Sets the tag of a closed span (for labels known only after the
    /// timed call returned).
    pub fn annotate(&mut self, id: u32, tag: u8) {
        self.spans[id as usize].tag = tag;
    }

    /// Appends a closed recorder's spans (recorded on another thread)
    /// under `parent`, the innermost span open here.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(other.open.is_empty(), "absorbed tracer has open spans");
        let offset = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                parent
            } else {
                s.parent + offset
            };
            s
        }));
    }

    /// Recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-span self time in nanoseconds (duration minus children).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn busy_s(&self, name: &str) -> f64 {
        let selfs = self.self_ns();
        self.spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns as f64 / 1e9)
            .sum()
    }

    /// Spans named `name` (optionally only those with `tag`).
    pub fn named<'a>(
        &'a self,
        name: &'a str,
        tag: Option<u8>,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && tag.is_none_or(|t| s.tag == t))
    }

    /// Writes every span as one JSON line (the run's trace file).
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let selfs = self.self_ns();
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"parent\":{},\"op\":{},\"tag\":{},\"count\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns, parent, s.op, s.tag, s.count
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.begin("op", 1);
        let child = t.begin("leaf", 1);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child, 0, 5);
        t.end(root, 0, 0);
        let selfs = t.self_ns();
        assert_eq!(selfs[0] + selfs[1], t.spans()[0].dur_ns());
        assert!(t.busy_s("leaf") >= 0.002);
        assert_eq!(t.named("leaf", None).map(|s| s.count).sum::<u64>(), 5);
    }

    #[test]
    fn absorb_reparents_roots() {
        let origin = Instant::now();
        let mut main = Tracer::new(origin);
        let mut worker = Tracer::new(origin);
        let shard = worker.begin("shard", 0);
        let tree = worker.begin("tree", 0);
        worker.end(tree, 0, 0);
        worker.end(shard, 0, 0);
        let chunk = main.begin("chunk", 0);
        main.absorb(worker);
        main.end(chunk, 0, 0);
        assert_eq!(main.spans()[1].parent, chunk);
        assert_eq!(main.spans()[2].parent, 1);
    }
}
