//! `trace` line emission in `bc-serve`: one traced session on a fixed
//! 60-node paper-shape tree, opened, stepped through
//! [`Server::handle_line`] 2,000 events at a time until it finishes, and
//! closed. The reported rate is `trace` lines (one per recorded event)
//! per second, so it covers the sink, the drain and the line writer
//! together with the simulation that feeds them.
//!
//! ```text
//! cargo bench -p bc-serve --bench trace_lines
//! ```

use bc_serve::Server;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

const OPEN: &str = r#"{"cmd":"open","sim":"bench","tree":{"random":{"seed":42,"min_nodes":60,"max_nodes":60,"comm_min":1,"comm_max":100,"compute_scale":10000}},"protocol":"ic","buffers":2,"tasks":1000,"trace":true}"#;
const STEP: &str = r#"{"cmd":"step","sim":"bench","events":2000}"#;
const CLOSE: &str = r#"{"cmd":"close","sim":"bench"}"#;

/// One session lifecycle; returns the number of `trace` lines emitted.
fn session(server: &mut Server) -> u64 {
    let count = |lines: &[String]| {
        lines
            .iter()
            .filter(|l| l.starts_with(r#"{"ev":"trace""#))
            .count() as u64
    };
    let mut traced = count(&server.handle_line(OPEN));
    loop {
        let out = server.handle_line(STEP);
        traced += count(&out);
        let stepped = out
            .iter()
            .find(|l| l.starts_with(r#"{"ev":"stepped""#))
            .expect("step answers with a stepped line");
        if stepped.contains(r#""more":false"#) {
            break;
        }
    }
    server.handle_line(CLOSE);
    traced
}

fn bench_trace_lines(c: &mut Criterion) {
    let mut server = Server::new();
    let records = session(&mut server);
    assert!(records > 0, "the session must emit trace lines");
    let mut g = c.benchmark_group("trace_lines");
    g.sample_size(10);
    g.throughput(Throughput::Elements(records));
    g.bench_function("step_traced", |b| {
        b.iter(|| black_box(session(&mut server)))
    });
    g.finish();
}

criterion_group!(benches, bench_trace_lines);
criterion_main!(benches);
