//! Property tests of the event-loop invariants, run against the engine
//! at 1 and 3 shards and against the naive reference engine in
//! `reference/`, under randomized link latencies, jitter, CPU costs,
//! traffic patterns and crash/offline toggles:
//!
//! 1. per-connection FIFO — a receiver never observes messages from one
//!    sender out of order, whatever the jitter;
//! 2. busy-queue deferral — a node charging `c` ns per message never
//!    processes two messages closer than `c` apart (the single-server
//!    queue);
//! 3. conservation — every sent message is either delivered or counted
//!    dropped by crash fault injection;
//! 4. reference order — the engine's full receipt trace and counters are
//!    bit-for-bit those of the reference engine, at 1 and at 3 shards.

mod reference;

use proptest::prelude::*;
use reference::RefEngine;
use teechain_net::{AnyEngine, Ctx, EngineKind, LinkSpec, NodeId, SimNode, SimStats, MS};

const NODES: u32 = 4;

/// Records receipts; charges a fixed CPU cost per message.
struct Recorder {
    received: Vec<(u64, u32, u32)>,
    cost_ns: u64,
}

impl SimNode for Recorder {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
        let seq = u32::from_le_bytes([msg[0], msg[1], msg[2], msg[3]]);
        self.received.push((ctx.now_ns(), from.0, seq));
        if self.cost_ns > 0 {
            ctx.busy(self.cost_ns);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// `from` sends `count` tagged messages to `to`.
    Send { from: u32, to: u32, count: u32 },
    /// Crash or recover a node.
    Offline { node: u32, down: bool },
    /// Advance simulated time.
    Run { ms: u64 },
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..1 << 16).prop_map(|bits| Op::Send {
                from: (bits % NODES as u64) as u32,
                to: ((bits >> 2) % NODES as u64) as u32,
                count: (1 + (bits >> 4) % 6) as u32,
            }),
            (0u64..2 * NODES as u64).prop_map(|bits| Op::Offline {
                node: (bits % NODES as u64) as u32,
                down: bits >= NODES as u64,
            }),
            (1u64..25).prop_map(|ms| Op::Run { ms }),
        ],
        1..36,
    )
}

/// The driving surface shared by the engine and the reference engine.
trait Sim<N> {
    fn call(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>));
    fn set_offline(&mut self, id: NodeId, down: bool);
    fn run_until(&mut self, t: u64);
    /// Runs to idle, then reads every node and the counters.
    fn finish<T>(self, read: impl Fn(&N) -> T) -> (Vec<T>, SimStats);
}

impl<N: SimNode + Send> Sim<N> for AnyEngine<N> {
    fn call(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>)) {
        AnyEngine::call(self, id, f)
    }
    fn set_offline(&mut self, id: NodeId, down: bool) {
        AnyEngine::set_offline(self, id, down)
    }
    fn run_until(&mut self, t: u64) {
        AnyEngine::run_until(self, t);
    }
    fn finish<T>(mut self, read: impl Fn(&N) -> T) -> (Vec<T>, SimStats) {
        self.run_to_idle(1_000_000);
        let nodes = (0..self.len()).map(|i| read(self.node(NodeId(i as u32))));
        (nodes.collect(), self.stats())
    }
}

impl<N: SimNode> Sim<N> for RefEngine<N> {
    fn call(&mut self, id: NodeId, f: impl FnOnce(&mut N, &mut Ctx<'_>)) {
        RefEngine::call(self, id, f)
    }
    fn set_offline(&mut self, id: NodeId, down: bool) {
        RefEngine::set_offline(self, id, down)
    }
    fn run_until(&mut self, t: u64) {
        RefEngine::run_until(self, t)
    }
    fn finish<T>(mut self, read: impl Fn(&N) -> T) -> (Vec<T>, SimStats) {
        self.run_to_idle();
        (self.nodes.iter().map(read).collect(), self.stats)
    }
}

fn link(latency_ms: u64, jitter_pct: u64) -> LinkSpec {
    LinkSpec {
        latency_ns: latency_ms * MS,
        jitter_frac: jitter_pct as f64 / 100.0,
        bandwidth_bps: Some(10_000_000),
    }
}

fn recorders(costs: &[u64]) -> Vec<Recorder> {
    costs
        .iter()
        .map(|&cost_ns| Recorder {
            received: Vec::new(),
            cost_ns,
        })
        .collect()
}

/// Replays `ops` on `sim`, then runs it to idle. Returns every node's
/// receipt trace, the counters and the number of messages sent.
#[allow(clippy::type_complexity)]
fn run_case(mut sim: impl Sim<Recorder>, ops: &[Op]) -> (Vec<Vec<(u64, u32, u32)>>, SimStats, u64) {
    let mut next_seq = vec![0u32; (NODES * NODES) as usize];
    let (mut sent, mut now) = (0u64, 0u64);
    for op in ops {
        match *op {
            Op::Send { from, to, count } => {
                let base = next_seq[(from * NODES + to) as usize];
                next_seq[(from * NODES + to) as usize] += count;
                sim.call(NodeId(from), |_, ctx| {
                    for k in 0..count {
                        ctx.send(NodeId(to), (base + k).to_le_bytes().to_vec());
                    }
                });
                sent += count as u64;
            }
            Op::Offline { node, down } => sim.set_offline(NodeId(node), down),
            Op::Run { ms } => {
                now += ms * MS;
                sim.run_until(now);
            }
        }
    }
    let (traces, stats) = sim.finish(|n| n.received.clone());
    (traces, stats, sent)
}

fn check_invariants(
    label: &str,
    traces: &[Vec<(u64, u32, u32)>],
    stats: &SimStats,
    sent: u64,
    costs: &[u64],
) -> Result<(), proptest::TestCaseError> {
    let mut delivered = 0u64;
    for (i, trace) in traces.iter().enumerate() {
        delivered += trace.len() as u64;
        // (1) Per-connection FIFO: per sender, seqs strictly increase.
        let mut last_seq: Vec<Option<u32>> = vec![None; NODES as usize];
        let mut last_t: Option<u64> = None;
        for &(t, from, seq) in trace {
            if let Some(prev) = last_seq[from as usize] {
                prop_assert!(
                    seq > prev,
                    "{label}: node {i} saw {from}'s #{seq} after #{prev}"
                );
            }
            last_seq[from as usize] = Some(seq);
            // (2) Single-server queue: receipts spaced by the CPU cost.
            if let Some(pt) = last_t {
                prop_assert!(
                    t >= pt + costs[i],
                    "{label}: node {i} processed at {t} < {pt} + cost {}",
                    costs[i]
                );
            }
            last_t = Some(t);
        }
    }
    // (3) Conservation: delivered + dropped accounts for every send.
    prop_assert!(
        delivered + stats.dropped == sent,
        "{label}: {delivered} delivered + {} dropped != {sent} sent",
        stats.dropped
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FIFO, busy-queue deferral and message conservation hold for random
    /// schedules, and the engine's trace is the reference engine's, at 1
    /// and at 3 shards.
    #[test]
    fn prop_event_loop_invariants(
        ops in arb_ops(),
        latency_ms in 0u64..12,
        jitter_pct in 0u64..40,
        costs in proptest::collection::vec(0u64..2_000_000, 4..5),
    ) {
        let link = link(latency_ms, jitter_pct);
        let reference = run_case(RefEngine::new(recorders(&costs), link, 0xfeed), &ops);
        check_invariants("reference", &reference.0, &reference.1, reference.2, &costs)?;

        for shards in [1, 3] {
            let kind = EngineKind::Sharded { shards };
            let run = run_case(AnyEngine::new(kind, recorders(&costs), link, 0xfeed), &ops);
            let label = kind.to_string();
            check_invariants(&label, &run.0, &run.1, run.2, &costs)?;
            // (4) Reference order, trace-exact.
            prop_assert!(run.0 == reference.0, "{label} traces diverged from the reference");
            prop_assert!(run.1 == reference.1, "{label} stats diverged from the reference");
        }
    }
}

/// Forwards tokens to peers it picks from its own RNG lane until their hop
/// budget runs out, charges CPU per message, and re-arms a timer that
/// injects a fresh token.
struct Gossip {
    id: u32,
    cost_ns: u64,
    /// `(time, from, hops left)`; timers log `from = u32::MAX`.
    log: Vec<(u64, u32, u8)>,
}

impl SimNode for Gossip {
    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: NodeId, msg: Vec<u8>) {
        self.log.push((ctx.now_ns(), from.0, msg[0]));
        ctx.busy(self.cost_ns);
        let to = ctx.rng().next_below(NODES as u64) as u32;
        if msg[0] > 0 && to != self.id {
            ctx.send(NodeId(to), vec![msg[0] - 1]);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        self.log.push((ctx.now_ns(), u32::MAX, token as u8));
        if token > 0 {
            ctx.send(NodeId((self.id + 1) % NODES), vec![3]);
            ctx.set_timer(2 * MS, token - 1);
        }
    }
}

#[allow(clippy::type_complexity)]
fn gossip(mut sim: impl Sim<Gossip>) -> (Vec<Vec<(u64, u32, u8)>>, SimStats) {
    for i in 0..NODES {
        sim.call(NodeId(i), |_, ctx| {
            ctx.set_timer((i as u64 + 1) * MS, 5);
            for hops in 0..8 {
                ctx.send(NodeId((i + 1 + hops as u32 % 3) % NODES), vec![hops]);
            }
        });
    }
    sim.run_until(5 * MS);
    sim.set_offline(NodeId(2), true);
    sim.run_until(9 * MS);
    sim.set_offline(NodeId(2), false);
    sim.call(NodeId(0), |_, ctx| ctx.send(NodeId(2), vec![6]));
    sim.finish(|n| n.log.clone())
}

/// Timers, handler randomness, CPU costs, jitter and a crash on one
/// schedule: the engine at 1 and 3 shards replays the reference engine
/// event for event.
#[test]
fn gossip_matches_reference_engine() {
    let wan = LinkSpec {
        latency_ns: MS,
        jitter_frac: 0.4,
        bandwidth_bps: Some(50_000_000),
    };
    let nodes = || {
        (0..NODES)
            .map(|id| Gossip {
                id,
                cost_ns: 150_000 * id as u64,
                log: Vec::new(),
            })
            .collect()
    };
    // On the ideal link every hop takes the 1 ns minimum, so same-instant
    // ties are everywhere and only the key order separates them.
    for link in [wan, LinkSpec::ideal()] {
        let reference = gossip(RefEngine::new(nodes(), link, 7));
        assert!(reference.1.dropped > 0, "the crash dropped traffic");
        assert!(reference.1.events > 100, "{:?}", reference.1);
        for shards in [1, 3] {
            let kind = EngineKind::Sharded { shards };
            let run = gossip(AnyEngine::new(kind, nodes(), link, 7));
            assert_eq!(
                run, reference,
                "{kind} on {link:?} diverged from the reference"
            );
        }
    }
}
