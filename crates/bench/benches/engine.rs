//! Raw engine overhead: events/sec through empty nodes (no protocol, no
//! CPU model) at 1, 4 and 8 shards, on a token-passing ring with 1 ns
//! links.
//!
//! `single_token` is the worst case for several shards — every
//! lookahead window holds exactly one event, so it prices the window
//! machinery itself. `fanout_64` keeps 64 tokens circulating, the shape
//! real workloads have. A custom `main` (not `criterion_main!`) persists
//! the measurements to `BENCH_engine_micro.json` for the perf
//! trajectory.

use criterion::Criterion;
use teechain_bench::report::BenchJson;
use teechain_net::{AnyEngine, Ctx, EngineKind, LinkSpec, NodeId, SimNode};

/// Forwards every message to the next node in the ring.
struct Forwarder {
    next: NodeId,
}

impl SimNode for Forwarder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: NodeId, msg: Vec<u8>) {
        ctx.send(self.next, msg);
    }
}

const RING: u32 = 64;

fn ring(kind: EngineKind, tokens: u32) -> AnyEngine<Forwarder> {
    let link = LinkSpec {
        latency_ns: 1,
        jitter_frac: 0.0,
        bandwidth_bps: None,
    };
    let nodes = (0..RING)
        .map(|i| Forwarder {
            next: NodeId((i + 1) % RING),
        })
        .collect();
    let mut eng = AnyEngine::new(kind, nodes, link, 3);
    for t in 0..tokens {
        eng.call(NodeId(t % RING), |_, ctx| {
            ctx.send(NodeId((t % RING + 1) % RING), vec![t as u8])
        });
    }
    eng
}

fn engines() -> Vec<(&'static str, EngineKind)> {
    vec![
        ("sharded1", EngineKind::Sharded { shards: 1 }),
        ("sharded4", EngineKind::Sharded { shards: 4 }),
        ("sharded8", EngineKind::Sharded { shards: 8 }),
    ]
}

/// One token: every event is its own lookahead window.
fn single_token(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_single_token");
    for (name, kind) in engines() {
        // 10_000 sim-ns per iteration = 10_000 hops (1 ns per hop).
        let mut eng = ring(kind, 1);
        g.bench_function(name, |b| {
            b.iter(|| {
                let t = eng.now_ns() + 10_000;
                eng.run_until(t)
            })
        });
    }
    g.finish();
}

/// 64 tokens: windows carry real batches.
fn fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_fanout_64");
    for (name, kind) in engines() {
        let mut eng = ring(kind, 64);
        g.bench_function(name, |b| {
            b.iter(|| {
                let t = eng.now_ns() + 1_000;
                eng.run_until(t)
            })
        });
    }
    g.finish();
}

fn main() {
    let mut c = Criterion::default();
    single_token(&mut c);
    fanout(&mut c);

    // Persist ns/event to the perf-trajectory artifact. Events per
    // iteration: single_token = 10_000 hops; fanout = 64 × 1_000 hops.
    let mut doc = BenchJson::new("engine_micro");
    for (id, ns_per_iter) in c.results() {
        let events_per_iter = if id.starts_with("engine_single_token") {
            10_000.0
        } else {
            64_000.0
        };
        let ns_per_event = ns_per_iter / events_per_iter;
        let key = id.replace('/', "_");
        doc.metric(&format!("{key}_ns_per_event"), ns_per_event);
        doc.metric(
            &format!("{key}_events_per_sec"),
            1e9 / ns_per_event.max(1e-12),
        );
    }
    doc.write().expect("write BENCH_engine_micro.json");
}
