//! Sim-vs-live equivalence: one seeded scenario, five substrates, one
//! outcome history.
//!
//! The correlated-operation layer gives every substrate the same
//! observable: a set of `(OpId, outcome)` pairs. This suite replays an
//! identical scenario — sessions, channels, deposits, payments (including
//! deterministic failures), a multi-hop transfer, a cross-chain atomic
//! swap and an on-chain settlement — on:
//!
//! * the discrete-event engine at one shard,
//! * the same engine at 4 shards,
//! * the live scheduler over the reactor transport, with the pool sized
//!   to the host (0 workers), to one worker and to four workers,
//!
//! and asserts the five outcome sets are identical. Identities, channel
//! ids, deposit outpoints and settlement transaction ids all match
//! bit-for-bit because the harnesses derive hardware seeds with the same
//! formulas; only completion *times* (and cross-node interleavings on the
//! live substrates) differ, so the fingerprint deliberately excludes
//! them.

use teechain::live::{LiveCluster, LiveConfig};
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::types::ChannelId;
use teechain::Completion;
use teechain_net::EngineKind;

const SEED: u64 = 0x11FE;
const N: usize = 4;

/// The seeded scenario. Every operation resolves before the next is
/// submitted (bar one deliberate race, below), so the outcome set is
/// substrate-independent even though live threads race. Typed failures
/// are part of the scenario and flow into the history.
fn run_scenario(s: &mut impl Harness) {
    // Sessions and channels along the line 0-1-2-3, each funded from
    // its left end.
    let mut chans = Vec::new();
    for a in 0..3 {
        s.connect(a, a + 1);
        chans.push(s.open_channel(a, a + 1, &format!("eq-c{a}{}", a + 1)));
    }
    for (a, value) in [(0usize, 1_000u64), (1, 1_000), (2, 600)] {
        let dep = s.fund_deposit(a, value, 1);
        s.approve_and_associate(a, a + 1, chans[a], &dep);
    }
    let [c01, c12, c23] = chans[..] else {
        unreachable!("three channels")
    };
    // Payments, including two deterministic typed failures.
    s.pay(0, c01, 100).expect("pay 0->1");
    s.pay(1, c12, 150).expect("pay 1->2");
    s.pay(2, c23, 200).expect("pay 2->3");
    s.pay(0, c01, 50).expect("second pay 0->1");
    s.pay(0, c01, 5_000).expect_err("overspend is refused");
    s.pay(0, ChannelId::from_label("eq-nope"), 1)
        .expect_err("unknown channel");
    // A multi-hop transfer 0 -> 1 -> 2.
    s.pay_multihop(&[0, 1, 2], &[c01, c12], 75, "eq-route")
        .expect("multihop 0->1->2");
    // A second multihop racing two direct pays against its (locked)
    // first hop: on the deterministic engines the pays park in the
    // enclave's admission queue and drain as a batch on unlock; on the
    // live substrates the wall-clock race may resolve either way. The
    // typed outcomes must be identical regardless — a queued op
    // completes exactly like an unqueued one.
    let mh2 = s
        .handle(0)
        .pay_multihop(&[0, 1, 2], &[c01, c12], 40, "eq-route-2");
    let racing: Vec<_> = [25u64, 30]
        .iter()
        .map(|&amount| s.handle(0).pay(c01, amount))
        .collect();
    s.wait(mh2).expect("second multihop");
    for p in racing {
        s.wait(p).expect("racing pay completes via the queue");
    }
    // A cross-chain atomic swap on the 0-1 channel: channel balance
    // against an HTLC on the alternate chain. The happy path is purely
    // message-driven (no timer races), so every substrate redeems and
    // the typed `SwapOutcome` — including the label-derived SwapId —
    // fingerprints identically.
    s.swap(0, c01, "eq-swap", 60, 120, 4)
        .expect("atomic swap 0<->1");
    // Settle the 2-3 channel: balances are non-neutral, so this
    // broadcasts a settlement transaction whose txid must also agree.
    s.settle_channel(2, c23).expect("settle 2-3");
}

/// The substrate-independent view of a history: `(node, seq)` plus the
/// outcome with times stripped (completion timestamps are wall-clock on
/// the live substrates).
fn fingerprint(history: &[Completion]) -> Vec<(u32, u64, String)> {
    let mut out: Vec<(u32, u64, String)> = history
        .iter()
        .map(|c| {
            let outcome = match &c.outcome {
                Ok(o) => format!("ok:{o:?}"),
                Err(e) => format!("err:{}", e.label()),
            };
            (c.op.node, c.op.seq, outcome)
        })
        .collect();
    out.sort();
    out
}

fn sim_fingerprint(engine: EngineKind) -> Vec<(u32, u64, String)> {
    let mut sim = Cluster::new(ClusterConfig {
        n: N,
        seed: SEED,
        engine,
        ..ClusterConfig::default()
    });
    run_scenario(&mut sim);
    fingerprint(&sim.completion_log())
}

/// Runs the scenario on the live scheduler with `workers` worker threads
/// (`0` = the host's parallelism).
fn live_fingerprint(workers: usize) -> Vec<(u32, u64, String)> {
    let cfg = LiveConfig {
        n: N,
        seed: SEED,
        workers,
        ..LiveConfig::default()
    };
    let live = LiveCluster::over_reactor(cfg).expect("bind reactor listener");
    run_scenario(&mut &live);
    let fp = fingerprint(&live.completion_log());
    live.shutdown();
    fp
}

#[test]
fn seq_sharded_and_live_one_worker_agree() {
    let one = sim_fingerprint(EngineKind::Sharded { shards: 1 });
    assert!(
        one.iter().any(|(_, _, o)| o.contains("MultihopDelivered")),
        "scenario exercises multihop: {one:?}"
    );
    assert!(
        one.iter().any(|(_, _, o)| o.contains("err:rejected")),
        "scenario exercises typed failures: {one:?}"
    );
    assert!(
        one.iter()
            .any(|(_, _, o)| o.contains("Swap") && o.contains("redeemed: true")),
        "scenario exercises a redeemed atomic swap: {one:?}"
    );
    let sharded = sim_fingerprint(EngineKind::Sharded { shards: 4 });
    assert_eq!(one, sharded, "1 vs 4 shards: outcome sets differ");
    let live = live_fingerprint(1);
    assert_eq!(one, live, "sim vs live (1 worker) outcome sets differ");
}

#[test]
fn live_four_workers_agree_with_seq() {
    let one = sim_fingerprint(EngineKind::Sharded { shards: 1 });
    let live = live_fingerprint(4);
    assert_eq!(one, live, "sim vs live (4 workers) outcome sets differ");
}

#[test]
fn live_reactor_agrees_with_seq() {
    let one = sim_fingerprint(EngineKind::Sharded { shards: 1 });
    let reactor = live_fingerprint(0);
    assert_eq!(one, reactor, "sim vs live-reactor outcome sets differ");
}

/// Beyond the lock-step scenario: fifty payments in flight at once —
/// across the run queue, the shared timer heap and the reactor pool —
/// must still conserve channel balance exactly.
fn burst_conserves_balance(workers: usize) {
    let cfg = LiveConfig {
        n: 2,
        seed: 9,
        workers,
        ..LiveConfig::default()
    };
    let live = LiveCluster::over_reactor(cfg).expect("bind reactor listener");
    let mut net = &live;
    let chan = net.standard_channel(0, 1, &format!("eq-burst-w{workers}"), 100_000, 1);
    let pendings: Vec<_> = (0..50).map(|_| net.handle(0).pay(chan, 7)).collect();
    let mut delivered = 0u64;
    for p in pendings {
        delivered += net.wait(p).expect("burst payment").amount;
    }
    assert_eq!(delivered, 350);
    let nodes = live.shutdown();
    let c = nodes[0]
        .enclave
        .program()
        .and_then(|p| p.channel(&chan))
        .expect("channel");
    assert_eq!((c.my_bal, c.remote_bal), (100_000 - 350, 350));
}

#[test]
fn live_concurrent_payments_conserve_balance() {
    burst_conserves_balance(4);
}

#[test]
fn reactor_concurrent_payments_conserve_balance() {
    burst_conserves_balance(0);
}

/// Persistent mode (§6.2) on the live scheduler: every commit seals its
/// state into the node's store behind a monotonic-counter window, and
/// payments still complete with exact balances — and the store holds
/// what a restarted enclave would recover from.
#[test]
fn live_persist_payments_complete_and_reach_the_store() {
    let cfg = LiveConfig {
        n: 2,
        seed: 5,
        workers: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..LiveConfig::default()
    };
    let live = LiveCluster::over_reactor(cfg).expect("bind reactor listener");
    let mut net = &live;
    let chan = net.standard_channel(0, 1, "eq-persist", 1_000, 1);
    for _ in 0..5 {
        assert_eq!(net.pay(0, chan, 30).expect("persisted payment").amount, 30);
    }
    let recovery = live.stores[0]
        .as_ref()
        .expect("persist mode gives every node a store")
        .lock()
        .recover()
        .expect("in-memory store reads back");
    assert!(
        recovery.snapshot.is_some() || !recovery.log.is_empty(),
        "payer's store holds neither a snapshot nor a log record"
    );
    let nodes = live.shutdown();
    let c = nodes[0]
        .enclave
        .program()
        .and_then(|p| p.channel(&chan))
        .expect("channel");
    assert_eq!((c.my_bal, c.remote_bal), (1_000 - 150, 150));
}
