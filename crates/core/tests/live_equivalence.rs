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
//! * the live runtime over in-process thread channels,
//! * the live runtime over localhost TCP sockets,
//! * the sharded live scheduler over the non-blocking reactor transport,
//!
//! and asserts the five outcome sets are identical. Identities, channel
//! ids, deposit outpoints and settlement transaction ids all match
//! bit-for-bit because the harnesses derive hardware seeds with the same
//! formulas; only completion *times* (and cross-node interleavings on the
//! live substrates) differ, so the fingerprint deliberately excludes
//! them.

use teechain::enclave::Command;
use teechain::live::{LiveCluster, LiveConfig};
use teechain::ops::{OpError, OpId, OpOutput, Pending};
use teechain::testkit::{Cluster, ClusterConfig};
use teechain::types::ChannelId;
use teechain::Completion;
use teechain_crypto::schnorr::PublicKey;
use teechain_net::{EngineKind, NodeId};

const SEED: u64 = 0x11FE;
const N: usize = 4;
const LIVE_WAIT: std::time::Duration = std::time::Duration::from_secs(60);

/// The per-substrate surface the scenario drives: submit-only operations
/// plus blocking resolution, exactly the ops-layer contract.
trait Substrate {
    fn ids(&self) -> Vec<PublicKey>;
    fn submit(&mut self, i: usize, cmd: Command) -> OpId;
    fn submit_open_channel(&mut self, i: usize, id: ChannelId, remote: PublicKey) -> OpId;
    fn submit_fund_deposit(&mut self, i: usize, value: u64, m: u8) -> OpId;
    fn wait_output(&mut self, op: OpId) -> Result<OpOutput, OpError>;
    fn history(&mut self) -> Vec<Completion>;
}

struct Sim(Cluster);

impl Substrate for Sim {
    fn ids(&self) -> Vec<PublicKey> {
        self.0.ids.clone()
    }
    fn submit(&mut self, i: usize, cmd: Command) -> OpId {
        self.0.submit(i, cmd)
    }
    fn submit_open_channel(&mut self, i: usize, id: ChannelId, remote: PublicKey) -> OpId {
        self.0.sim.call(NodeId(i as u32), |host, ctx| {
            host.node.submit_open_channel(ctx, id, remote)
        })
    }
    fn submit_fund_deposit(&mut self, i: usize, value: u64, m: u8) -> OpId {
        self.0.sim.call(NodeId(i as u32), |host, ctx| {
            host.node.submit_fund_deposit(ctx, value, m)
        })
    }
    fn wait_output(&mut self, op: OpId) -> Result<OpOutput, OpError> {
        self.0.wait(Pending::<OpOutput>::new(op))
    }
    fn history(&mut self) -> Vec<Completion> {
        self.0.completion_log()
    }
}

struct Live(LiveCluster);

impl Substrate for Live {
    fn ids(&self) -> Vec<PublicKey> {
        self.0.ids.clone()
    }
    fn submit(&mut self, i: usize, cmd: Command) -> OpId {
        self.0.submit(i, cmd)
    }
    fn submit_open_channel(&mut self, i: usize, id: ChannelId, remote: PublicKey) -> OpId {
        self.0.submit_open_channel(i, id, remote)
    }
    fn submit_fund_deposit(&mut self, i: usize, value: u64, m: u8) -> OpId {
        self.0.submit_fund_deposit(i, value, m)
    }
    fn wait_output(&mut self, op: OpId) -> Result<OpOutput, OpError> {
        self.0.wait(Pending::<OpOutput>::new(op), LIVE_WAIT)
    }
    fn history(&mut self) -> Vec<Completion> {
        self.0.completion_log()
    }
}

/// One submitted-and-resolved step; panics only on harness plumbing
/// errors (typed failures are part of the scenario and flow into the
/// history).
fn step(s: &mut impl Substrate, i: usize, cmd: Command) -> Result<OpOutput, OpError> {
    let op = s.submit(i, cmd);
    s.wait_output(op)
}

/// The seeded scenario. Every operation resolves before the next is
/// submitted, so the outcome set is substrate-independent even though
/// live threads race: there is never more than one operation in flight.
fn run_scenario(s: &mut impl Substrate) -> Vec<(u32, u64, String)> {
    let ids = s.ids();
    let c01 = ChannelId::from_label("eq-c01");
    let c12 = ChannelId::from_label("eq-c12");
    let c23 = ChannelId::from_label("eq-c23");

    // Sessions along the line 0-1-2-3.
    for (a, b) in [(0, 1), (1, 2), (2, 3)] {
        step(s, a, Command::StartSession { remote: ids[b] }).expect("session");
    }
    // Channels.
    for (a, b, chan) in [(0usize, 1usize, c01), (1, 2, c12), (2, 3, c23)] {
        let op = s.submit_open_channel(a, chan, ids[b]);
        s.wait_output(op).expect("channel open");
    }
    // Deposits: fund, approve, associate.
    for (i, peer, chan, value) in [
        (0usize, 1usize, c01, 1_000u64),
        (1, 2, c12, 1_000),
        (2, 3, c23, 600),
    ] {
        let op = s.submit_fund_deposit(i, value, 1);
        let out = s.wait_output(op).expect("fund deposit");
        let OpOutput::DepositFunded(dep) = out else {
            panic!("unexpected fund output {out:?}");
        };
        step(
            s,
            i,
            Command::ApproveDeposit {
                remote: ids[peer],
                outpoint: dep.outpoint,
            },
        )
        .expect("approve");
        step(
            s,
            i,
            Command::AssociateDeposit {
                id: chan,
                outpoint: dep.outpoint,
            },
        )
        .expect("associate");
    }
    // Payments, including two deterministic typed failures.
    let pay = |chan: ChannelId, amount: u64| Command::Pay {
        id: chan,
        amount,
        count: 1,
    };
    step(s, 0, pay(c01, 100)).expect("pay 0->1");
    step(s, 1, pay(c12, 150)).expect("pay 1->2");
    step(s, 2, pay(c23, 200)).expect("pay 2->3");
    step(s, 0, pay(c01, 50)).expect("second pay 0->1");
    step(s, 0, pay(c01, 5_000)).expect_err("overspend is refused");
    step(s, 0, pay(ChannelId::from_label("eq-nope"), 1)).expect_err("unknown channel");
    // A multi-hop transfer 0 -> 1 -> 2.
    let route = teechain::types::RouteId(teechain_crypto::sha256::tagged_hash(
        "teechain/route",
        &[b"eq-route"],
    ));
    step(
        s,
        0,
        Command::PayMultihop {
            route,
            hops: vec![ids[0], ids[1], ids[2]],
            channels: vec![c01, c12],
            amount: 75,
        },
    )
    .expect("multihop 0->1->2");
    // A second multihop racing two direct pays against its (locked)
    // first hop: on the deterministic engines the pays park in the
    // enclave's admission queue and drain as a batch on unlock; on the
    // live substrates the wall-clock race may resolve either way. The
    // typed outcomes must be identical regardless — a queued op
    // completes exactly like an unqueued one.
    let route2 = teechain::types::RouteId(teechain_crypto::sha256::tagged_hash(
        "teechain/route",
        &[b"eq-route-2"],
    ));
    let mh2 = s.submit(
        0,
        Command::PayMultihop {
            route: route2,
            hops: vec![ids[0], ids[1], ids[2]],
            channels: vec![c01, c12],
            amount: 40,
        },
    );
    let racing: Vec<OpId> = [25u64, 30]
        .iter()
        .map(|&amount| s.submit(0, pay(c01, amount)))
        .collect();
    s.wait_output(mh2).expect("second multihop");
    for op in racing {
        s.wait_output(op)
            .expect("racing pay completes via the queue");
    }
    // A cross-chain atomic swap on the 0-1 channel: channel balance
    // against an HTLC on the alternate chain. The happy path is purely
    // message-driven (no timer races), so every substrate redeems and
    // the typed `SwapOutcome` — including the label-derived SwapId —
    // fingerprints identically.
    step(
        s,
        0,
        Command::Swap {
            swap: teechain::types::SwapId::from_label("eq-swap"),
            channel: c01,
            amount: 60,
            alt_amount: 120,
            timeout_blocks: 4,
        },
    )
    .expect("atomic swap 0<->1");
    // Settle the 2-3 channel: balances are non-neutral, so this
    // broadcasts a settlement transaction whose txid must also agree.
    step(s, 2, Command::Settle { id: c23 }).expect("settle 2-3");

    fingerprint(&s.history())
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
    let mut sim = Sim(Cluster::new(ClusterConfig {
        n: N,
        seed: SEED,
        engine,
        ..ClusterConfig::default()
    }));
    run_scenario(&mut sim)
}

#[test]
fn seq_sharded_and_live_threads_agree() {
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

    let mut live = Live(LiveCluster::over_threads(LiveConfig {
        n: N,
        seed: SEED,
        ..LiveConfig::default()
    }));
    let threads = run_scenario(&mut live);
    live.0.shutdown();
    assert_eq!(one, threads, "sim vs live-threads outcome sets differ");
}

#[test]
fn live_tcp_agrees_with_seq() {
    let one = sim_fingerprint(EngineKind::Sharded { shards: 1 });
    let mut live = Live(
        LiveCluster::over_tcp(LiveConfig {
            n: N,
            seed: SEED,
            ..LiveConfig::default()
        })
        .expect("bind localhost listeners"),
    );
    let tcp = run_scenario(&mut live);
    live.0.shutdown();
    assert_eq!(one, tcp, "sim vs live-tcp outcome sets differ");
}

#[test]
fn live_reactor_agrees_with_seq() {
    let one = sim_fingerprint(EngineKind::Sharded { shards: 1 });
    let mut live = Live(
        LiveCluster::over_reactor(LiveConfig {
            n: N,
            seed: SEED,
            ..LiveConfig::default()
        })
        .expect("bind reactor listener"),
    );
    let reactor = run_scenario(&mut live);
    live.0.shutdown();
    assert_eq!(one, reactor, "sim vs live-reactor outcome sets differ");
}

#[test]
fn live_concurrent_payments_conserve_balance() {
    // Beyond the lock-step scenario: many payments in flight at once on
    // the live substrate must still conserve channel balance exactly.
    let net = LiveCluster::over_threads(LiveConfig {
        n: 2,
        seed: 9,
        ..LiveConfig::default()
    });
    let chan = net.standard_channel(0, 1, "eq-burst", 100_000, 1);
    let pendings: Vec<_> = (0..50).map(|_| net.submit_pay(0, chan, 7)).collect();
    let mut delivered = 0u64;
    for p in pendings {
        delivered += net.wait(p, LIVE_WAIT).expect("burst payment").amount;
    }
    assert_eq!(delivered, 350);
    let nodes = net.shutdown();
    let c = nodes[0]
        .enclave
        .program()
        .and_then(|p| p.channel(&chan))
        .expect("channel");
    assert_eq!((c.my_bal, c.remote_bal), (100_000 - 350, 350));
}

#[test]
fn reactor_concurrent_payments_conserve_balance() {
    // The same burst on the sharded scheduler: fifty payments in flight
    // at once cross the run queue, the shared timer heap and the reactor
    // pool, and channel balance must still be conserved exactly.
    let net = LiveCluster::over_reactor(LiveConfig {
        n: 2,
        seed: 9,
        ..LiveConfig::default()
    })
    .expect("bind reactor listener");
    let chan = net.standard_channel(0, 1, "eq-burst-reactor", 100_000, 1);
    let pendings: Vec<_> = (0..50).map(|_| net.submit_pay(0, chan, 7)).collect();
    let mut delivered = 0u64;
    for p in pendings {
        delivered += net.wait(p, LIVE_WAIT).expect("burst payment").amount;
    }
    assert_eq!(delivered, 350);
    let nodes = net.shutdown();
    let c = nodes[0]
        .enclave
        .program()
        .and_then(|p| p.channel(&chan))
        .expect("channel");
    assert_eq!((c.my_bal, c.remote_bal), (100_000 - 350, 350));
}
