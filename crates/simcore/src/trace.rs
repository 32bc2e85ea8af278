//! Structured trace events: the typed event taxonomy of a protocol run.
//!
//! The engine's aggregate results (end time, per-node busy totals) cannot
//! distinguish two runs that differ only in *when* things happened — yet
//! the paper's evidence is all temporal (steady-state onset, buffer
//! fill-up, wind-down). This module defines the event stream a simulation
//! can emit so tests and tools can audit a schedule event by event:
//!
//! * [`TraceEvent`] — the taxonomy: transfer start/preempt/resume/
//!   complete, compute start/finish, buffer acquire/release (with
//!   occupancy), requests sent/denied, node join/leave.
//! * [`TraceSink`] — where events go. The simulator is generic over the
//!   sink and monomorphizes: the default [`NullSink`] has
//!   [`TraceSink::ENABLED`]` = false`, so every instrumentation site
//!   (including its argument computation) is compiled out and the
//!   untraced event loop stays allocation-free (proven by the engine's
//!   counting-allocator test).
//! * [`VecSink`] (record everything), [`RingRecorder`] (bounded,
//!   allocation-free after construction — the in-flight black box the
//!   invariant checker dumps on failure).
//! * Encodings: canonical JSONL ([`to_jsonl`]/[`from_jsonl`], one JSON
//!   object per line, byte-stable across platforms — the golden-trace
//!   format), a compact tag + varint binary form
//!   ([`to_binary`]/[`from_binary`], 10.4× smaller than the JSONL on the
//!   committed golden traces), and the human-readable text of `Display`
//!   and [`TraceRecord::write_text`]. All of them are generated from one
//!   declaration per kind in `trace_events!` below, which gives the
//!   kind's kebab name, fields and text template once.
//!
//! Determinism: a simulation emits events single-threaded in event-loop
//! order, so for a fixed `(tree, config)` the byte stream is identical
//! on every run at any campaign thread count. `tests/golden_traces.rs`
//! freezes that guarantee against committed snapshots.

use crate::agenda::Time;
use std::fmt;

/// Declares [`TraceEvent`] and everything that goes per kind: one entry
///
/// ```text
/// Variant "kebab-name" at <node field or 0> { field: type, … } text [<pieces>]
/// ```
///
/// gives the variant, its kebab name (the JSONL `"ev"` value), its fields
/// in declaration order (the JSONL key order and the binary field
/// order), the field [`TraceEvent::node`] reports (`0` = the
/// repository), and the text template after the kind name, as string
/// literals and field names. A kind's binary tag is its declaration
/// index, so new kinds append.
macro_rules! trace_events {
    (
        $(#[$meta:meta])*
        pub enum TraceEvent {
            $(
                $(#[$doc:meta])*
                $kind:ident $name:literal at $at:tt {
                    $( $(#[$fdoc:meta])* $field:ident: $ty:ty, )*
                } text [$($piece:tt)*],
            )*
        }
    ) => {
        $(#[$meta])*
        pub enum TraceEvent {
            $( $(#[$doc])* $kind { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        /// Binary tags, one per kind in declaration order.
        #[derive(Clone, Copy)]
        enum Tag {
            $( $kind, )*
        }

        /// Every tag, indexed by its byte.
        const TAGS: &[Tag] = &[$( Tag::$kind, )*];

        impl Tag {
            fn kind(self) -> &'static str {
                match self {
                    $( Tag::$kind => $name, )*
                }
            }
        }

        impl TraceEvent {
            fn tag(&self) -> Tag {
                match self {
                    $( TraceEvent::$kind { .. } => Tag::$kind, )*
                }
            }

            /// The node the event happened at (the sender for transfers,
            /// the contact node for denied joins, the repository for
            /// reissues and arrivals).
            #[allow(unused_variables)]
            pub fn node(&self) -> u32 {
                match *self {
                    $( TraceEvent::$kind { $($field,)* } => $at, )*
                }
            }

            /// Calls `f` with each field's name and value, in declaration
            /// order.
            fn for_each_field(&self, mut f: impl FnMut(&'static str, u64)) {
                match *self {
                    $( TraceEvent::$kind { $($field,)* } => {
                        $( f(stringify!($field), $field.into()); )*
                    } )*
                }
            }

            /// Builds a `tag` event from its field values, taken from
            /// `next` in declaration order.
            fn decode(
                tag: Tag,
                mut next: impl FnMut() -> Result<u64, String>,
            ) -> Result<TraceEvent, String> {
                Ok(match tag {
                    $( Tag::$kind => TraceEvent::$kind {
                        $( $field: narrow($name, stringify!($field), next()?)?, )*
                    }, )*
                })
            }

            /// Writes the per-kind suffix of the human-readable text (the
            /// part after the kind name, e.g. ` -> 5 (work 4)`), shared by
            /// [`TraceRecord`]'s `Display` and [`TraceRecord::write_text`].
            #[allow(unused_variables)]
            fn write_detail<W: fmt::Write>(&self, w: &mut W) -> fmt::Result {
                match *self {
                    $( TraceEvent::$kind { $($field,)* } => {
                        write_pieces(w, &[$( trace_piece!($piece), )*])
                    } )*
                }
            }
        }
    };
}

/// One text-template piece of `trace_events!`: a literal, or a field
/// written as a decimal integer.
macro_rules! trace_piece {
    ($lit:literal) => {
        Piece::Lit($lit)
    };
    ($field:ident) => {
        Piece::Num($field.into())
    };
}

trace_events! {
    /// One typed protocol event. Nodes are named by arena index (the
    /// repository is node 0); `child` is likewise a node index, not a
    /// position in its parent's child list.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A task transfer toward `child` started transmitting on `node`'s
        /// outbound link (`work` timesteps of communication).
        TransferStart "transfer-start" at node {
            /// Sending node.
            node: u32,
            /// Receiving child node.
            child: u32,
            /// Total transmission work, in timesteps.
            work: u64,
        } text [" -> " child " (work " work ")"],
        /// Interruptible only: the active transfer toward `child` was shelved
        /// with `remaining` timesteps of work left (0 = it completed at the
        /// preemption instant; a `TransferComplete` follows immediately).
        TransferPreempt "transfer-preempt" at node {
            /// Sending node.
            node: u32,
            /// Receiving child node.
            child: u32,
            /// Transmission work left when shelved.
            remaining: u64,
        } text [" -> " child " (remaining " remaining ")"],
        /// Interruptible only: a shelved partial transfer toward `child`
        /// resumed transmitting where it left off.
        TransferResume "transfer-resume" at node {
            /// Sending node.
            node: u32,
            /// Receiving child node.
            child: u32,
            /// Transmission work left at resume.
            remaining: u64,
        } text [" -> " child " (remaining " remaining ")"],
        /// The transfer toward `child` delivered its task (`work` = the total
        /// transmission work at delegation time).
        TransferComplete "transfer-complete" at node {
            /// Sending node.
            node: u32,
            /// Receiving child node.
            child: u32,
            /// Total transmission work of the completed transfer.
            work: u64,
        } text [" -> " child " (work " work ")"],
        /// `node`'s processor started computing a task.
        ComputeStart "compute-start" at node {
            /// Computing node.
            node: u32,
        } text [],
        /// `node`'s processor finished computing a task (a task completion).
        ComputeFinish "compute-finish" at node {
            /// Computing node.
            node: u32,
        } text [],
        /// A delivered task occupied one of `node`'s buffers; `held` is the
        /// occupancy *after* the arrival, `capacity` the pool size.
        BufferAcquire "buffer-acquire" at node {
            /// Buffering node.
            node: u32,
            /// Tasks held after the arrival.
            held: u32,
            /// Buffer-pool capacity at that instant.
            capacity: u32,
        } text [" (" held "/" capacity " held)"],
        /// `node` took a task out of a buffer (compute start or delegation);
        /// `held` is the occupancy *after* the removal.
        BufferRelease "buffer-release" at node {
            /// Buffering node.
            node: u32,
            /// Tasks held after the removal.
            held: u32,
            /// Buffer-pool capacity at that instant.
            capacity: u32,
        } text [" (" held "/" capacity " held)"],
        /// `node` sent `count` fresh task requests to its parent (one per
        /// uncovered empty buffer).
        Request "request" at node {
            /// Requesting node.
            node: u32,
            /// Requests sent in this batch.
            count: u32,
        } text [" (" count " sent)"],
        /// `count` requests pending at `node` from `child` were discarded
        /// unserved (the child departed before they could be honored).
        RequestDeny "request-deny" at node {
            /// Parent node that held the requests.
            node: u32,
            /// Departed child whose requests died.
            child: u32,
            /// Requests discarded.
            count: u32,
        } text [" from " child " (" count " dropped)"],
        /// A new node joined the overlay under `parent`.
        NodeJoin "node-join" at node {
            /// The joined node.
            node: u32,
            /// Its parent (the contact node).
            parent: u32,
        } text [" under " parent],
        /// The subtree rooted at `node` departed; `reclaimed` tasks it held
        /// (buffered, computing, or in flight toward it) returned to the
        /// repository.
        NodeLeave "node-leave" at node {
            /// Root of the departed subtree.
            node: u32,
            /// Tasks returned to the repository.
            reclaimed: u64,
        } text [" (" reclaimed " reclaimed)"],
        /// A request batch from `node` to its parent was lost by the network
        /// (dropped by a fault or swallowed by an outage / crashed parent).
        RequestLoss "request-loss" at node {
            /// Requesting node whose batch vanished.
            node: u32,
            /// Requests lost.
            count: u32,
        } text [" (" count " lost)"],
        /// `node`'s request timeout fired with unacknowledged requests
        /// outstanding: it withdrew `count` lost requests and re-issues them
        /// (attempt number `retry`, with exponential backoff).
        RequestRetry "request-retry" at node {
            /// Retrying node.
            node: u32,
            /// Retry attempt number (1-based).
            retry: u32,
            /// Lost requests being re-issued.
            count: u32,
        } text [" (attempt " retry ", " count " re-sent)"],
        /// The in-flight transfer from `node` toward `child` was torn down by
        /// a fault (link reset, outage, or the receiver crashed); its task is
        /// lost and will be reissued by the repository.
        TransferAbort "transfer-abort" at node {
            /// Sending node that observed the reset.
            node: u32,
            /// Intended receiver.
            child: u32,
        } text [" -> " child " (task lost)"],
        /// The uplink of `node` entered a transient outage lasting until
        /// simulation time `until`.
        LinkDown "link-down" at node {
            /// Node whose uplink went dark.
            node: u32,
            /// Sim time the outage ends.
            until: u64,
        } text [" (until t=" until ")"],
        /// The uplink of `node` came back after an outage; deferred negative
        /// acknowledgements resolve now.
        LinkUp "link-up" at node {
            /// Node whose uplink recovered.
            node: u32,
        } text [],
        /// The subtree rooted at `node` crashed abruptly; `lost` tasks it held
        /// (buffered, computing, or in flight inside it) were destroyed and
        /// enter the repository's reissue ledger.
        NodeCrash "node-crash" at node {
            /// Root of the crashed subtree.
            node: u32,
            /// Tasks destroyed by the crash.
            lost: u64,
        } text [" (" lost " lost)"],
        /// The repository re-injected `count` previously lost tasks into the
        /// remaining pool (master-side orphan reissue).
        TaskReissue "task-reissue" at 0 {
            /// Tasks re-injected.
            count: u64,
        } text [" (" count " re-injected)"],
        /// `node` hit the missed-ack threshold for `child` and declared it
        /// dead: pending requests from it are discarded and it stops being a
        /// delegation candidate until it is heard from again.
        ChildDead "child-dead" at node {
            /// Parent making the call.
            node: u32,
            /// Child presumed dead.
            child: u32,
        } text [" presumed dead: " child],
        /// A request from a child previously declared dead arrived at `node`:
        /// the child is alive after all and rejoins the candidate set.
        ChildRevived "child-revived" at node {
            /// Parent revising its belief.
            node: u32,
            /// Child welcomed back.
            child: u32,
        } text [" heard from: " child],
        /// A duplicated delivery reached `node` and was recognized by task
        /// identity and dropped (at-least-once network, at-most-once buffer).
        DuplicateDrop "duplicate-drop" at node {
            /// Receiving node that discarded the copy.
            node: u32,
        } text [],
        /// A scheduled join was denied because the contact node is unknown,
        /// departed, or crashed — in a real overlay the join simply fails.
        JoinDenied "join-denied" at parent {
            /// The contact node the join was addressed to.
            parent: u32,
        } text [],
        /// Open-world mode: an arrival of `units` unit tasks of class
        /// `class` was submitted to the repository.
        TaskArrival "task-arrival" at 0 {
            /// Index into the arrival plan's class list.
            class: u32,
            /// Unit tasks submitted.
            units: u64,
        } text [" (class " class ", " units " units)"],
        /// Open-world mode: `units` unit tasks entered the repository's
        /// admission queue; `queued` is the queue depth *after* admission.
        TaskAdmit "task-admit" at 0 {
            /// Index into the arrival plan's class list.
            class: u32,
            /// Unit tasks admitted.
            units: u64,
            /// Admitted-but-undispatched units after this admission.
            queued: u64,
        } text [" (class " class ", " units " units, " queued " queued)"],
        /// Open-world mode, `Drop` policy: an arrival overflowed the
        /// admission bound and was shed.
        TaskReject "task-reject" at 0 {
            /// Index into the arrival plan's class list.
            class: u32,
            /// Unit tasks rejected.
            units: u64,
        } text [" (class " class ", " units " units shed)"],
        /// Open-world mode, `Defer` policy: an arrival overflowed the
        /// admission bound and joined the deferred queue; `waiting` is the
        /// deferred backlog *after* this deferral, in unit tasks.
        TaskDefer "task-defer" at 0 {
            /// Index into the arrival plan's class list.
            class: u32,
            /// Unit tasks deferred.
            units: u64,
            /// Deferred backlog after this deferral.
            waiting: u64,
        } text [" (class " class ", " units " units, " waiting " waiting)"],
    }
}

/// A [`TraceEvent`] stamped with its simulation time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceRecord {
    /// Simulation time the event occurred at.
    pub time: Time,
    /// The event.
    pub event: TraceEvent,
}

impl TraceEvent {
    /// The stable kebab-case name of this event kind (the `"ev"` field of
    /// the JSONL encoding).
    pub fn kind(&self) -> &'static str {
        self.tag().kind()
    }
}

/// Narrows a decoded field value to the field's type.
fn narrow<T: TryFrom<u64>>(kind: &str, field: &str, v: u64) -> Result<T, String> {
    T::try_from(v).map_err(|_| {
        format!(
            "{kind}: field {field:?} overflows {}",
            std::any::type_name::<T>()
        )
    })
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receives the trace stream of one simulation run.
///
/// The simulator is generic over its sink, so each sink monomorphizes its
/// own event loop. [`NullSink`] sets [`TraceSink::ENABLED`] to `false`;
/// instrumentation sites guard on that associated constant, so the
/// untraced loop contains no trace code at all — not even the occupancy
/// reads that would feed event payloads.
pub trait TraceSink {
    /// Statically `false` only for the no-op sink: lets the simulator
    /// compile instrumentation (and its argument computation) out
    /// entirely.
    const ENABLED: bool = true;

    /// Receives one event. Called in strict event-loop order;
    /// `time` never decreases between calls.
    fn record(&mut self, time: Time, event: TraceEvent);

    /// Appends whatever the sink still retains, oldest first (the
    /// invariant checker's failure dump). Unbounded sinks may truncate to
    /// a recent tail; the default retains nothing.
    fn retained(&self, _out: &mut Vec<TraceRecord>) {}
}

/// The default sink: keeps nothing, compiles to nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _time: Time, _event: TraceEvent) {}
}

/// Records every event in order (tests, golden traces, timeline folds).
#[derive(Clone, Debug, Default)]
pub struct VecSink {
    /// The full trace, in emission order.
    pub records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, time: Time, event: TraceEvent) {
        self.records.push(TraceRecord { time, event });
    }

    fn retained(&self, out: &mut Vec<TraceRecord>) {
        out.extend_from_slice(&self.records);
    }
}

/// A bounded ring buffer keeping the most recent `capacity` records: the
/// black-box flight recorder for long runs. All storage is allocated up
/// front, so recording is allocation-free (asserted by the engine's
/// counting-allocator test).
#[derive(Clone, Debug)]
pub struct RingRecorder {
    buf: Vec<TraceRecord>,
    capacity: usize,
    /// Index the next record lands at once the ring is full.
    next: usize,
}

impl RingRecorder {
    /// A ring retaining the last `capacity` records (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "ring capacity must be >= 1");
        RingRecorder {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
        }
    }

    /// The retained tail in chronological order.
    pub fn tail(&self) -> Vec<TraceRecord> {
        let mut out = Vec::with_capacity(self.buf.len());
        self.retained(&mut out);
        out
    }
}

impl TraceSink for RingRecorder {
    fn record(&mut self, time: Time, event: TraceEvent) {
        let rec = TraceRecord { time, event };
        if self.buf.len() < self.capacity {
            self.buf.push(rec);
        } else {
            self.buf[self.next] = rec;
            self.next = (self.next + 1) % self.capacity;
        }
    }

    fn retained(&self, out: &mut Vec<TraceRecord>) {
        // `next` is both the overwrite cursor and the oldest retained
        // record once the ring has wrapped.
        out.extend_from_slice(&self.buf[self.next..]);
        out.extend_from_slice(&self.buf[..self.next]);
    }
}

// ---------------------------------------------------------------------
// Canonical JSONL encoding
// ---------------------------------------------------------------------

impl TraceRecord {
    /// Appends the canonical JSONL form (no trailing newline): one JSON
    /// object, fixed key order (`t`, `ev`, then payload fields in
    /// declaration order), no whitespace. Integers only — the encoding is
    /// byte-stable across platforms, which is what lets golden traces be
    /// diffed with `assert_eq!` on bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        use Piece::{Lit as L, Num as N};
        let head = [
            L("{\"t\":"),
            N(self.time),
            L(",\"ev\":\""),
            L(self.event.kind()),
            L("\""),
        ];
        write_pieces(out, &head).expect("writing to a String cannot fail");
        self.event.for_each_field(|name, v| {
            write_pieces(out, &[L(",\""), L(name), L("\":"), N(v)])
                .expect("writing to a String cannot fail");
        });
        out.push('}');
    }

    /// The canonical JSONL line (without newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(64);
        self.write_jsonl(&mut s);
        s
    }

    /// Parses one line of [`TraceRecord::write_jsonl`]'s output. Accepts
    /// only the canonical form: after trimming, the line must be exactly
    /// what [`TraceRecord::write_jsonl`] writes for the record it parses
    /// to (this is a snapshot format, not a general JSON reader).
    pub fn from_jsonl(line: &str) -> Result<TraceRecord, String> {
        let line = line.trim();
        let inner = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| format!("not a JSON object: {line:?}"))?;
        // The values in order; the canonical check below pins the keys.
        let mut values = inner.split(',').map(|part| part.split_once(':'));
        let mut next = || match values.next() {
            Some(Some((_, v))) => Ok(v),
            _ => Err(format!("missing or malformed field in {line:?}")),
        };
        let int = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("non-integer value {v:?} in {line:?}"))
        };
        let time = int(next()?)?;
        let kind = next()?.trim_matches('"');
        let tag = *TAGS
            .iter()
            .find(|t| t.kind() == kind)
            .ok_or_else(|| format!("unknown event kind {kind:?} in {line:?}"))?;
        let event = TraceEvent::decode(tag, || int(next()?))?;
        let record = TraceRecord { time, event };
        if record.to_jsonl() != line {
            return Err(format!("not in canonical form: {line:?}"));
        }
        Ok(record)
    }
}

/// One piece of a record's text: a literal or a decimal integer.
enum Piece {
    Lit(&'static str),
    Num(u64),
}

/// Writes `v` in decimal through a stack buffer, without `fmt`'s
/// integer formatting machinery.
fn write_u64<W: fmt::Write>(w: &mut W, mut v: u64) -> fmt::Result {
    let mut buf = [0u8; 20];
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    w.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

fn write_pieces<W: fmt::Write>(w: &mut W, pieces: &[Piece]) -> fmt::Result {
    for piece in pieces {
        match *piece {
            Piece::Lit(s) => w.write_str(s)?,
            Piece::Num(v) => write_u64(w, v)?,
        }
    }
    Ok(())
}

impl TraceRecord {
    /// Appends the compact human-readable text, single-spaced:
    /// `t=14 node 3 transfer-start -> 5 (work 4)`. This is the
    /// [`Display`](fmt::Display) form without its column padding (the
    /// `text` field of `bc-serve`'s `trace` lines), written in one pass.
    /// It contains no character a JSON string escape would rewrite.
    pub fn write_text(&self, out: &mut String) {
        use Piece::{Lit as L, Num as N};
        write_pieces(
            out,
            &[
                L("t="),
                N(self.time),
                L(" node "),
                N(self.event.node().into()),
                L(" "),
                L(self.event.kind()),
            ],
        )
        .and_then(|()| self.event.write_detail(out))
        .expect("writing to a String cannot fail");
    }
}

impl fmt::Display for TraceRecord {
    /// Human-oriented rendering (`trace_dump --format pretty`, failure
    /// dumps): `t=14 node 3  transfer-start -> 5 (work 4)`, with the
    /// time, node and kind padded into columns.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:<8} node {:<4} {:<17}",
            self.time,
            self.event.node(),
            self.event.kind()
        )?;
        self.event.write_detail(f)
    }
}

/// Renders `records` as canonical JSONL, one record per line, trailing
/// newline after every line (the golden-trace file format).
pub fn to_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 64);
    for r in records {
        r.write_jsonl(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a whole JSONL document (inverse of [`to_jsonl`]). Empty lines
/// are ignored; the error names the offending line.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(TraceRecord::from_jsonl(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------
// Compact binary encoding
// ---------------------------------------------------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, String> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos).ok_or("truncated varint")?;
        *pos += 1;
        v |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
    }
    Err("varint exceeds 64 bits".into())
}

impl TraceRecord {
    /// Appends the compact binary form: `[tag][varint time-delta-able
    /// absolute time][varint fields…]`.
    pub fn write_binary(&self, out: &mut Vec<u8>) {
        out.push(self.event.tag() as u8);
        put_varint(out, self.time);
        self.event.for_each_field(|_, v| put_varint(out, v));
    }

    /// Decodes one record at `pos`, advancing it.
    pub fn read_binary(buf: &[u8], pos: &mut usize) -> Result<TraceRecord, String> {
        let tag = *buf.get(*pos).ok_or("truncated record")?;
        *pos += 1;
        let tag = *TAGS
            .get(usize::from(tag))
            .ok_or_else(|| format!("unknown binary tag {tag}"))?;
        let time = get_varint(buf, pos)?;
        let event = TraceEvent::decode(tag, || get_varint(buf, pos))?;
        Ok(TraceRecord { time, event })
    }
}

/// Encodes `records` in the compact binary format.
pub fn to_binary(records: &[TraceRecord]) -> Vec<u8> {
    let mut out = Vec::with_capacity(records.len() * 8);
    for r in records {
        r.write_binary(&mut out);
    }
    out
}

/// Decodes a whole compact-binary document (inverse of [`to_binary`]).
pub fn from_binary(buf: &[u8]) -> Result<Vec<TraceRecord>, String> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < buf.len() {
        out.push(TraceRecord::read_binary(buf, &mut pos)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn every_kind() -> Vec<TraceRecord> {
        let events = [
            TraceEvent::TransferStart {
                node: 0,
                child: 3,
                work: 7,
            },
            TraceEvent::TransferPreempt {
                node: 0,
                child: 3,
                remaining: 4,
            },
            TraceEvent::TransferResume {
                node: 0,
                child: 3,
                remaining: 4,
            },
            TraceEvent::TransferComplete {
                node: 0,
                child: 3,
                work: 7,
            },
            TraceEvent::ComputeStart { node: 2 },
            TraceEvent::ComputeFinish { node: 2 },
            TraceEvent::BufferAcquire {
                node: 3,
                held: 2,
                capacity: 3,
            },
            TraceEvent::BufferRelease {
                node: 3,
                held: 1,
                capacity: 3,
            },
            TraceEvent::Request { node: 3, count: 2 },
            TraceEvent::RequestDeny {
                node: 0,
                child: 3,
                count: 1,
            },
            TraceEvent::NodeJoin { node: 9, parent: 1 },
            TraceEvent::NodeLeave {
                node: 9,
                reclaimed: 5,
            },
            TraceEvent::RequestLoss { node: 3, count: 2 },
            TraceEvent::RequestRetry {
                node: 3,
                retry: 2,
                count: 2,
            },
            TraceEvent::TransferAbort { node: 0, child: 3 },
            TraceEvent::LinkDown {
                node: 3,
                until: 900,
            },
            TraceEvent::LinkUp { node: 3 },
            TraceEvent::NodeCrash { node: 4, lost: 6 },
            TraceEvent::TaskReissue { count: 6 },
            TraceEvent::ChildDead { node: 0, child: 4 },
            TraceEvent::ChildRevived { node: 0, child: 4 },
            TraceEvent::DuplicateDrop { node: 3 },
            TraceEvent::JoinDenied { parent: 9 },
            TraceEvent::TaskArrival { class: 1, units: 3 },
            TraceEvent::TaskAdmit {
                class: 1,
                units: 3,
                queued: 5,
            },
            TraceEvent::TaskReject { class: 2, units: 4 },
            TraceEvent::TaskDefer {
                class: 0,
                units: 2,
                waiting: 6,
            },
        ];
        assert_eq!(events.len(), super::TAGS.len(), "one sample per kind");
        events
            .iter()
            .enumerate()
            .map(|(i, &event)| TraceRecord {
                time: (i as u64) * 1000 + u64::from(i == 11) * u64::from(u32::MAX),
                event,
            })
            .collect()
    }

    #[test]
    fn jsonl_round_trips_every_kind() {
        let records = every_kind();
        let text = to_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    fn jsonl_is_canonical() {
        let r = TraceRecord {
            time: 14,
            event: TraceEvent::TransferStart {
                node: 1,
                child: 5,
                work: 4,
            },
        };
        assert_eq!(
            r.to_jsonl(),
            "{\"t\":14,\"ev\":\"transfer-start\",\"node\":1,\"child\":5,\"work\":4}"
        );
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        for bad in [
            "",
            "{}",
            "{\"t\":1}",
            "{\"ev\":\"compute-start\",\"node\":1}",
            "{\"t\":1,\"ev\":\"no-such-kind\",\"node\":1}",
            "{\"t\":1,\"ev\":\"compute-start\"}",
            "{\"t\":1,\"ev\":\"request\",\"node\":1,\"count\":99999999999}",
            "not json at all",
            // Unknown key.
            "{\"t\":1,\"ev\":\"compute-start\",\"node\":1,\"extra\":2}",
            // Duplicate key.
            "{\"t\":1,\"t\":2,\"ev\":\"compute-start\",\"node\":1}",
            // Keys out of order.
            "{\"ev\":\"compute-start\",\"t\":1,\"node\":1}",
            "{\"t\":1,\"ev\":\"request\",\"count\":2,\"node\":1}",
            // Whitespace around keys and values.
            "{\"t\": 1,\"ev\":\"compute-start\",\"node\":1}",
            "{ \"t\":1,\"ev\":\"compute-start\",\"node\":1}",
            "{\"t\":1,\"ev\":\"compute-start\",\"node\":1 }",
            // Signed integer.
            "{\"t\":+1,\"ev\":\"compute-start\",\"node\":1}",
        ] {
            assert!(TraceRecord::from_jsonl(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn binary_round_trips_every_kind() {
        let records = every_kind();
        let bin = to_binary(&records);
        assert!(
            bin.len() < to_jsonl(&records).len() / 3,
            "binary should be a small fraction of JSONL ({} vs {})",
            bin.len(),
            to_jsonl(&records).len()
        );
        assert_eq!(from_binary(&bin).unwrap(), records);
    }

    #[test]
    fn binary_rejects_truncation_and_bad_tags() {
        let records = every_kind();
        let bin = to_binary(&records);
        assert!(from_binary(&bin[..bin.len() - 1]).is_err());
        assert!(from_binary(&[200]).is_err());
    }

    #[test]
    fn ring_keeps_the_most_recent_tail() {
        let mut ring = RingRecorder::new(4);
        for i in 0..10u64 {
            ring.record(i, TraceEvent::ComputeStart { node: i as u32 });
        }
        let tail = ring.tail();
        assert_eq!(tail.len(), 4);
        assert_eq!(
            tail.iter().map(|r| r.time).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "ring must retain the newest records in chronological order"
        );
        // Before wrapping, the tail is simply everything recorded.
        let mut small = RingRecorder::new(8);
        for i in 0..3u64 {
            small.record(i, TraceEvent::ComputeFinish { node: 0 });
        }
        assert_eq!(small.tail().len(), 3);
    }

    #[test]
    fn null_sink_is_statically_disabled() {
        const { assert!(!NullSink::ENABLED) };
        const { assert!(VecSink::ENABLED) };
        const { assert!(RingRecorder::ENABLED) };
        let mut out = Vec::new();
        NullSink.retained(&mut out);
        assert!(out.is_empty());
    }

    /// `e` with every node/child/parent/count-like `u32` field set to
    /// `a` and every `u64` field set to `b`. No `_` arm: a new variant
    /// does not compile until it is listed here.
    fn with_fields(e: TraceEvent, a: u32, b: u64) -> TraceEvent {
        use TraceEvent::*;
        match e {
            TransferStart { .. } => TransferStart {
                node: a,
                child: a,
                work: b,
            },
            TransferPreempt { .. } => TransferPreempt {
                node: a,
                child: a,
                remaining: b,
            },
            TransferResume { .. } => TransferResume {
                node: a,
                child: a,
                remaining: b,
            },
            TransferComplete { .. } => TransferComplete {
                node: a,
                child: a,
                work: b,
            },
            ComputeStart { .. } => ComputeStart { node: a },
            ComputeFinish { .. } => ComputeFinish { node: a },
            BufferAcquire { .. } => BufferAcquire {
                node: a,
                held: a,
                capacity: a,
            },
            BufferRelease { .. } => BufferRelease {
                node: a,
                held: a,
                capacity: a,
            },
            Request { .. } => Request { node: a, count: a },
            RequestDeny { .. } => RequestDeny {
                node: a,
                child: a,
                count: a,
            },
            NodeJoin { .. } => NodeJoin { node: a, parent: a },
            NodeLeave { .. } => NodeLeave {
                node: a,
                reclaimed: b,
            },
            RequestLoss { .. } => RequestLoss { node: a, count: a },
            RequestRetry { .. } => RequestRetry {
                node: a,
                retry: a,
                count: a,
            },
            TransferAbort { .. } => TransferAbort { node: a, child: a },
            LinkDown { .. } => LinkDown { node: a, until: b },
            LinkUp { .. } => LinkUp { node: a },
            NodeCrash { .. } => NodeCrash { node: a, lost: b },
            TaskReissue { .. } => TaskReissue { count: b },
            ChildDead { .. } => ChildDead { node: a, child: a },
            ChildRevived { .. } => ChildRevived { node: a, child: a },
            DuplicateDrop { .. } => DuplicateDrop { node: a },
            JoinDenied { .. } => JoinDenied { parent: a },
            TaskArrival { .. } => TaskArrival { class: a, units: b },
            TaskAdmit { .. } => TaskAdmit {
                class: a,
                units: b,
                queued: b,
            },
            TaskReject { .. } => TaskReject { class: a, units: b },
            TaskDefer { .. } => TaskDefer {
                class: a,
                units: b,
                waiting: b,
            },
        }
    }

    /// `write_text` is the `Display` form with its column padding
    /// collapsed, for every kind at boundary values, and it never holds
    /// a character the JSON string escaper would rewrite (so `bc-serve`
    /// can copy it into a line verbatim).
    #[test]
    fn write_text_is_collapsed_display_for_every_kind() {
        let mut checked = 0;
        for sample in every_kind() {
            for a in [0, 1, u32::MAX] {
                for b in [0, 1, u64::from(u32::MAX), u64::MAX] {
                    for time in [0, 1, u64::MAX] {
                        let r = TraceRecord {
                            time,
                            event: with_fields(sample.event, a, b),
                        };
                        let mut text = String::from("prefix:");
                        r.write_text(&mut text);
                        let text = &text["prefix:".len()..];
                        let display = r.to_string();
                        let collapsed = display.split_whitespace().collect::<Vec<_>>().join(" ");
                        assert_eq!(text, collapsed, "{:?}", r);
                        let escaped =
                            serde_json::to_string(&serde::Value::Str(text.to_string())).unwrap();
                        assert_eq!(escaped, format!("\"{text}\""), "{:?}", r);
                        checked += 1;
                    }
                }
            }
        }
        assert_eq!(checked, super::TAGS.len() * 3 * 4 * 3);
    }

    #[test]
    fn display_is_stable() {
        let r = TraceRecord {
            time: 14,
            event: TraceEvent::TransferPreempt {
                node: 1,
                child: 5,
                remaining: 3,
            },
        };
        assert_eq!(
            r.to_string(),
            "t=14       node 1    transfer-preempt  -> 5 (remaining 3)"
        );
    }
}
