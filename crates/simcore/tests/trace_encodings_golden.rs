//! Golden per-kind trace encodings.
//!
//! For every [`TraceEvent`] kind, at boundary field values (all 0, all 1,
//! every field at its type's max, and pairwise-distinct values that pin
//! the field order) and at times 0 and `u64::MAX`, the committed fixture
//! `fixtures/trace_encodings.golden` holds the record's canonical JSONL
//! line, its compact binary bytes as hex, its padded `Display` form and
//! its single-spaced `write_text` form. A change that moves one byte of
//! any encoding of any kind fails here with the first differing line;
//! the JSONL and binary forms must also decode back to the record.
//!
//! The kinds are enumerated through the binary decoder (every tag it
//! accepts) and filled by [`fill`], an exhaustive `match` with no `_`
//! arm: a new kind does not compile until it is listed there.
//!
//! `BLESS=1` rewrites the fixture; a change that claims identical
//! encodings must pass without it.

use bc_simcore::trace::{from_binary, TraceEvent, TraceRecord};
use std::path::PathBuf;

/// How [`fill`] sets each field; `i` is the field's position in the
/// variant's declaration.
#[derive(Clone, Copy)]
enum Fill {
    Zero,
    One,
    Max,
    Distinct,
}

impl Fill {
    const ALL: [Fill; 4] = [Fill::Zero, Fill::One, Fill::Max, Fill::Distinct];

    fn name(self) -> &'static str {
        match self {
            Fill::Zero => "zero",
            Fill::One => "one",
            Fill::Max => "max",
            Fill::Distinct => "distinct",
        }
    }

    fn narrow(self, i: u32) -> u32 {
        match self {
            Fill::Zero => 0,
            Fill::One => 1,
            Fill::Max => u32::MAX,
            Fill::Distinct => i + 2,
        }
    }

    fn wide(self, i: u32) -> u64 {
        match self {
            Fill::Zero => 0,
            Fill::One => 1,
            Fill::Max => u64::MAX,
            Fill::Distinct => (1 << 40) + u64::from(i) + 2,
        }
    }
}

/// `kind` with every field set by `f`. No `_` arm: a new variant does not
/// compile until it is listed here.
fn fill(kind: TraceEvent, f: Fill) -> TraceEvent {
    use TraceEvent::*;
    let n = |i| f.narrow(i);
    let w = |i| f.wide(i);
    match kind {
        TransferStart { .. } => TransferStart {
            node: n(0),
            child: n(1),
            work: w(2),
        },
        TransferPreempt { .. } => TransferPreempt {
            node: n(0),
            child: n(1),
            remaining: w(2),
        },
        TransferResume { .. } => TransferResume {
            node: n(0),
            child: n(1),
            remaining: w(2),
        },
        TransferComplete { .. } => TransferComplete {
            node: n(0),
            child: n(1),
            work: w(2),
        },
        ComputeStart { .. } => ComputeStart { node: n(0) },
        ComputeFinish { .. } => ComputeFinish { node: n(0) },
        BufferAcquire { .. } => BufferAcquire {
            node: n(0),
            held: n(1),
            capacity: n(2),
        },
        BufferRelease { .. } => BufferRelease {
            node: n(0),
            held: n(1),
            capacity: n(2),
        },
        Request { .. } => Request {
            node: n(0),
            count: n(1),
        },
        RequestDeny { .. } => RequestDeny {
            node: n(0),
            child: n(1),
            count: n(2),
        },
        NodeJoin { .. } => NodeJoin {
            node: n(0),
            parent: n(1),
        },
        NodeLeave { .. } => NodeLeave {
            node: n(0),
            reclaimed: w(1),
        },
        RequestLoss { .. } => RequestLoss {
            node: n(0),
            count: n(1),
        },
        RequestRetry { .. } => RequestRetry {
            node: n(0),
            retry: n(1),
            count: n(2),
        },
        TransferAbort { .. } => TransferAbort {
            node: n(0),
            child: n(1),
        },
        LinkDown { .. } => LinkDown {
            node: n(0),
            until: w(1),
        },
        LinkUp { .. } => LinkUp { node: n(0) },
        NodeCrash { .. } => NodeCrash {
            node: n(0),
            lost: w(1),
        },
        TaskReissue { .. } => TaskReissue { count: w(0) },
        ChildDead { .. } => ChildDead {
            node: n(0),
            child: n(1),
        },
        ChildRevived { .. } => ChildRevived {
            node: n(0),
            child: n(1),
        },
        DuplicateDrop { .. } => DuplicateDrop { node: n(0) },
        JoinDenied { .. } => JoinDenied { parent: n(0) },
        TaskArrival { .. } => TaskArrival {
            class: n(0),
            units: w(1),
        },
        TaskAdmit { .. } => TaskAdmit {
            class: n(0),
            units: w(1),
            queued: w(2),
        },
        TaskReject { .. } => TaskReject {
            class: n(0),
            units: w(1),
        },
        TaskDefer { .. } => TaskDefer {
            class: n(0),
            units: w(1),
            waiting: w(2),
        },
    }
}

/// One event of every kind the binary decoder knows, in tag order.
fn every_kind() -> Vec<TraceEvent> {
    (0..=u8::MAX)
        .filter_map(|tag| TraceRecord::read_binary(&[tag, 0, 0, 0, 0], &mut 0).ok())
        .map(|r| r.event)
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The fixture text: one block per record, `|` delimiting the text forms
/// so `Display`'s trailing padding stays visible.
fn render() -> String {
    let mut out = String::new();
    for kind in every_kind() {
        for f in Fill::ALL {
            for time in [0, u64::MAX] {
                let r = TraceRecord {
                    time,
                    event: fill(kind, f),
                };
                let jsonl = r.to_jsonl();
                let mut binary = Vec::new();
                r.write_binary(&mut binary);
                let mut text = String::new();
                r.write_text(&mut text);
                assert_eq!(TraceRecord::from_jsonl(&jsonl), Ok(r), "{jsonl}");
                assert_eq!(from_binary(&binary), Ok(vec![r]), "{r:?}");
                out.push_str(&format!(
                    "# {} {} t={time}\njsonl   {jsonl}\nbinary  {}\ndisplay |{r}|\ntext    |{text}|\n",
                    kind.kind(),
                    f.name(),
                    to_hex(&binary),
                ));
            }
        }
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/trace_encodings.golden")
}

#[test]
fn every_kind_encodes_to_the_golden_bytes() {
    let actual = render();
    let path = fixture_path();
    if std::env::var("BLESS").map(|v| v == "1").unwrap_or(false) {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).expect("create fixture dir");
        std::fs::write(&path, &actual).expect("bless fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing {} ({e}); generate with BLESS=1", path.display()));
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{}:{}: encoding changed", path.display(), i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{}: record count changed",
        path.display()
    );
}
