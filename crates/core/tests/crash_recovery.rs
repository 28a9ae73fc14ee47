//! Crash/restart fault injection against the §6.2 persistence stack:
//! WAL + sealed snapshots + monotonic-counter roll-back detection,
//! exercised end-to-end through the simulator.

use teechain::enclave::Command;
use teechain::ops::OpError;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{DurabilityBackend, PersistPolicy, ProtocolError};

fn persist_cluster(n: usize, snapshot_every: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        n,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every }),
        ..ClusterConfig::default()
    })
}

#[test]
fn killed_mid_payment_recovers_from_wal_and_snapshot() {
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "crash", 10_000, 1);
    for _ in 0..5 {
        c.pay(0, chan, 100).unwrap();
    }
    let before = c.balances(1, chan);
    assert_eq!(before, (500, 9_500));
    // The snapshot cadence (4) must have both compacted at least once and
    // left live WAL records — recovery below exercises snapshot + replay.
    let stats = c.store(1).unwrap().lock().stats();
    assert!(stats.compactions >= 1, "snapshot taken: {stats:?}");
    assert!(
        stats.commits > stats.compactions,
        "WAL records written: {stats:?}"
    );

    // Kill the payee with a payment in flight: the payer has issued it,
    // the message is on the wire, the payee never processes it.
    let inflight = c.submit(
        0,
        Command::Pay {
            id: chan,
            amount: 77,
            count: 1,
        },
    );
    c.crash_node(1);
    c.settle_network();
    assert!(c.node(1).enclave.is_crashed());
    // The in-flight payment's operation is typed-dead, not silently gone.
    let err = c
        .wait::<teechain::ops::Payment>(c.pending(inflight))
        .unwrap_err();
    assert!(matches!(err, OpError::Timeout { .. }), "{err:?}");

    let recovery = c.recover_node(1).unwrap();
    assert_eq!(recovery.channels, 1, "{recovery:?}");
    // Balances are exactly the last durably committed state; the
    // in-flight payment was never applied and never acked.
    assert_eq!(c.balances(1, chan), before, "recovered balances intact");
    // Identity survived the crash (it is in the durable state).
    assert_eq!(
        c.node(1).enclave.program().unwrap().identity_pk(),
        Some(c.ids[1])
    );

    // Session keys are volatile by design: the recovered node
    // re-handshakes, after which payments flow again.
    c.connect(1, 0);
    c.pay(0, chan, 100).unwrap();
    assert_eq!(c.balances(1, chan).0, 600);
}

#[test]
fn recovered_node_settles_on_chain_with_correct_balances() {
    let mut c = persist_cluster(2, 3);
    let chan = c.standard_channel(0, 1, "settle", 10_000, 1);
    for _ in 0..3 {
        c.pay(0, chan, 150).unwrap();
    }
    c.crash_node(1);
    c.settle_network();
    c.recover_node(1).unwrap();
    c.connect(1, 0);
    // The recovered enclave settles unilaterally; its on-chain payout
    // must equal its perceived balance (balance correctness across a
    // crash).
    let my_settle = {
        let p = c.node(1).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    c.settle_channel(1, chan).unwrap();
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 450);
}

#[test]
fn forged_stale_storage_rejected_and_enclave_freezes() {
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "forge", 10_000, 1);
    c.pay(0, chan, 100).unwrap();
    c.pay(0, chan, 100).unwrap();
    // A malicious host copies the storage now...
    let (old_snapshot, old_log) = c.store(0).unwrap().lock().raw_dump().unwrap();
    // ...lets two more payments commit (counter advances)...
    c.pay(0, chan, 100).unwrap();
    c.pay(0, chan, 100).unwrap();
    // ...then crashes the node and restores the stale copy.
    c.crash_node(0);
    c.store(0)
        .unwrap()
        .lock()
        .restore_raw(old_snapshot, old_log)
        .unwrap();
    let err = c.recover_node(0).unwrap_err();
    assert!(
        matches!(
            err,
            OpError::Rejected(ProtocolError::StaleState { found, expected }) if found < expected
        ),
        "stale storage must be detected: {err:?}"
    );
    // The enclave froze itself: nothing runs on rolled-back state.
    let refused = c.op(
        0,
        Command::Pay {
            id: chan,
            amount: 1,
            count: 1,
        },
    );
    assert!(
        matches!(refused, Err(OpError::Rejected(ProtocolError::Frozen))),
        "{refused:?}"
    );
}

#[test]
fn torn_wal_tail_is_treated_as_rollback() {
    // Snapshot cadence high enough that every payment lives in the WAL.
    let mut c = persist_cluster(2, 100);
    let chan = c.standard_channel(0, 1, "torn", 10_000, 1);
    c.pay(0, chan, 100).unwrap();
    c.pay(0, chan, 100).unwrap();
    // Host crash tears the tail off the last append: the final commit is
    // gone but the hardware counter proves it happened.
    c.crash_node(0);
    c.store(0).unwrap().lock().tear_tail(4).unwrap();
    let err = c.recover_node(0).unwrap_err();
    assert!(
        matches!(err, OpError::Rejected(ProtocolError::StaleState { .. })),
        "torn tail is indistinguishable from roll-back: {err:?}"
    );
}

#[test]
fn group_commit_batches_concurrent_receipts() {
    // Three spokes pay one hub inside a single counter-throttle window:
    // the first receipt commits alone, the other two are stashed and
    // then group-committed — one counter increment, one WAL append.
    let mut c = persist_cluster(4, 1_000);
    let chans: Vec<_> = (1..4)
        .map(|i| c.standard_channel(i, 0, &format!("spoke{i}"), 10_000, 1))
        .collect();
    // Let every node's counter throttle expire, then freeze a baseline.
    let t = c.sim.now_ns() + 300_000_000;
    c.sim.run_until(t);
    let base = c.store(0).unwrap().lock().stats().commits;
    // Submit all three spoke payments at the same instant (no wait in
    // between), so the receipts land inside one hub throttle window.
    let pends: Vec<_> = (0..chans.len())
        .map(|k| {
            c.submit(
                1 + k,
                Command::Pay {
                    id: chans[k],
                    amount: 100,
                    count: 1,
                },
            )
        })
        .collect();
    c.settle_network();
    for p in pends {
        c.wait::<teechain::ops::Payment>(c.pending(p))
            .expect("spoke payment acked");
    }
    for chan in &chans {
        assert_eq!(c.balances(0, *chan).0, 100, "every payment applied");
    }
    let commits = c.store(0).unwrap().lock().stats().commits - base;
    assert_eq!(
        commits, 2,
        "3 receipts cost 2 commits: 1 immediate + 1 group commit"
    );
}

#[test]
fn recover_on_live_enclave_rejected() {
    // A malicious host must not be able to feed the (genuine!) WAL to a
    // *running* enclave: relative Pay deltas would double-apply and
    // inflate balances. Recovery is only legal as the first ecall of a
    // fresh program instance.
    let mut c = persist_cluster(2, 100);
    let chan = c.standard_channel(0, 1, "live", 10_000, 1);
    c.pay(0, chan, 100).unwrap();
    let before = c.balances(1, chan);
    let recovery = c.store(1).unwrap().lock().recover().unwrap();
    let result = c.op(
        1,
        Command::Recover {
            snapshot: recovery.snapshot,
            log: recovery.log,
        },
    );
    assert!(result.is_err(), "live replay must be refused: {result:?}");
    assert_eq!(c.balances(1, chan), before, "no double-apply");
    // Refusal is not a freeze: the live enclave keeps working.
    c.pay(0, chan, 50).unwrap();
    assert_eq!(c.balances(1, chan).0, before.0 + 50);
}

#[test]
fn recovery_on_fresh_node_is_a_no_op() {
    let mut c = persist_cluster(1, 4);
    c.crash_node(0);
    let recovery = c.recover_node(0).unwrap();
    assert_eq!(
        (recovery.channels, recovery.deposits, recovery.commits),
        (0, 0, 0)
    );
}

/// The sealed blobs node `i`'s store holds now, keyed by the monotonic
/// counter value in their plaintext prefix — which is also their AEAD nonce.
fn sealed_blobs(c: &Cluster, i: usize) -> Vec<(u64, Vec<u8>)> {
    let recovery = c.store(i).unwrap().lock().recover().unwrap();
    recovery
        .snapshot
        .into_iter()
        .chain(recovery.log)
        .map(|blob| (u64::from_le_bytes(blob[..8].try_into().unwrap()), blob))
        .collect()
}

#[test]
fn no_seal_nonce_is_reused_across_snapshots_crash_and_recovery() {
    // The sealing key is the same before and after a crash, and Poly1305
    // makes a repeated (key, nonce) a forgery: every durable write must
    // carry a counter value no other write ever carried. `Sealer::seal`
    // panics on a repeat; this checks the same from the outside, on the
    // bytes the host stores.
    const EVERY: u32 = 4;
    let mut c = persist_cluster(2, EVERY);
    let chan = c.standard_channel(0, 1, "nonce", 100_000, 1);
    let mut seen = std::collections::BTreeMap::<u64, Vec<u8>>::new();
    let mut observe = |c: &Cluster| {
        for (counter, blob) in sealed_blobs(c, 1) {
            let first = seen.entry(counter).or_insert_with(|| blob.clone());
            assert_eq!(*first, blob, "counter {counter} sealed two blobs");
        }
        *seen
            .keys()
            .next_back()
            .expect("the channel set-up committed")
    };
    let writes = |c: &Cluster| c.store(1).unwrap().lock().stats().commits;

    let (first_counter, first_writes) = (observe(&c), writes(&c));
    for _ in 0..2 * EVERY + 1 {
        c.pay(0, chan, 10).unwrap();
        observe(&c);
    }
    let stats = c.store(1).unwrap().lock().stats();
    assert!(stats.compactions >= 2, "two snapshot rounds: {stats:?}");

    c.crash_node(1);
    c.settle_network();
    c.recover_node(1).unwrap();
    c.connect(1, 0);
    let before_crash = observe(&c);
    for _ in 0..2 * EVERY + 1 {
        c.pay(0, chan, 10).unwrap();
        assert!(observe(&c) > before_crash, "counter restarted");
    }

    // Every write since the first look spent exactly one new counter value:
    // one increment, one seal, one blob — through both snapshot rounds, the
    // crash and the recovery.
    let last_counter = observe(&c);
    assert_eq!(
        last_counter - first_counter,
        writes(&c) - first_writes,
        "writes and counter values diverged"
    );
    assert_eq!(c.balances(1, chan).0, 10 * (4 * EVERY as u64 + 2));
}

/// Dissociation destroys the counterparty's copy of a 1-of-1 deposit key
/// (Alg. 1 line 104), and the destruction is durable: with no snapshot
/// after it, WAL replay must not bring the key back.
#[test]
fn a_dissociated_deposit_key_stays_destroyed_after_wal_recovery() {
    let mut c = persist_cluster(2, 1000);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "dissociate");
    let dep = c.fund_deposit(0, 400, 1);
    c.approve_and_associate(0, 1, chan, &dep);
    let key = dep.committee.member_keys[0];
    let holds = |c: &Cluster| {
        let p = c.node(1).enclave.program().unwrap();
        p.book_ref().keys.contains_key(&key)
    };
    assert!(holds(&c), "association shares the 1-of-1 key");
    let p = c.handle(0).dissociate_deposit(chan, dep.outpoint);
    c.wait(p).unwrap();
    assert!(!holds(&c), "dissociation destroys the copy");
    assert_eq!(c.store(1).unwrap().lock().stats().compactions, 0);
    c.crash_node(1);
    c.settle_network();
    c.recover_node(1).unwrap();
    assert!(!holds(&c), "recovery does not bring the key back");
}

/// A hop that crashes in the middle of a multi-hop payment recovers its
/// route and can exit on its own. For every hop and every stage it is seen
/// at, the hop is crashed there, recovered and ejected; the chain then pays
/// each of its route channels what §5 permits: the current state before the
/// payment moved and after it completed (pre- and post-payment), τ's
/// post-payment state in between.
#[test]
fn a_hop_crashed_at_any_multihop_stage_recovers_and_ejects() {
    use teechain::{ChannelId, MultihopStage, RouteId};
    const DEPOSIT: u64 = 1000;
    const AMOUNT: u64 = 300;
    let route = RouteId([7; 32]);
    let setup = || {
        let mut c = persist_cluster(3, 8);
        let c01 = c.standard_channel(0, 1, "c01", DEPOSIT, 1);
        let c12 = c.standard_channel(1, 2, "c12", DEPOSIT, 1);
        let hops = vec![c.ids[0], c.ids[1], c.ids[2]];
        let channels = vec![c01, c12];
        c.submit(
            0,
            Command::PayMultihop {
                route,
                hops,
                channels: channels.clone(),
                amount: AMOUNT,
            },
        );
        (c, channels)
    };
    // Hop h's route channels, each with h's post-payment balance: the
    // channel in pays h, the channel out is paid by h (each funded by the
    // hop it leaves).
    let route_channels = |h: usize, chans: &[ChannelId]| -> Vec<(ChannelId, u64)> {
        let inbound = (h > 0).then(|| (chans[h - 1], AMOUNT));
        let outbound = (h < 2).then(|| (chans[h], DEPOSIT - AMOUNT));
        inbound.into_iter().chain(outbound).collect()
    };
    let stage_of = |c: &Cluster, h: usize, chan: ChannelId| {
        let p = c.node(h).enclave.program().unwrap();
        p.channel(&chan).unwrap().stage
    };
    // Where each hop is after each simulator event, up to quiescence.
    let (mut c, chans) = setup();
    let mut first_seen: Vec<(usize, MultihopStage, usize)> = Vec::new();
    let mut events = 0;
    loop {
        for h in 0..3 {
            let stage = stage_of(&c, h, route_channels(h, &chans)[0].0);
            if !first_seen.iter().any(|&(g, s, _)| g == h && s == stage) {
                first_seen.push((h, stage, events));
            }
        }
        if c.sim.run_to_idle(1) == 0 {
            break;
        }
        events += 1;
    }
    // One simulator event at a time (one shard) shows 10 of them; more
    // shards step a window at a time and may show fewer.
    let (mut ejected, mut via_tau_ejected) = (0, 0);
    for (h, stage, at) in first_seen {
        if stage == MultihopStage::Idle {
            continue; // Not in the route yet, or done with it.
        }
        let (mut c, chans) = setup();
        for _ in 0..at {
            c.sim.run_to_idle(1);
        }
        let mine = route_channels(h, &chans);
        let before: Vec<_> = mine
            .iter()
            .map(|&(chan, post)| {
                let p = c.node(h).enclave.program().unwrap();
                let ch = p.channel(&chan).unwrap();
                (ch.my_settlement, ch.my_bal, post)
            })
            .collect();
        c.crash_node(h);
        c.recover_node(h).unwrap();
        assert_eq!(
            stage_of(&c, h, mine[0].0),
            stage,
            "hop {h} recovers at {stage:?}"
        );
        c.op(h, Command::Eject { route })
            .unwrap_or_else(|e| panic!("hop {h} at {stage:?} ejects: {e:?}"));
        c.mine(1);
        let via_tau = matches!(stage, MultihopStage::PreUpdate | MultihopStage::Update);
        for (settlement, current, post) in before {
            let want = if via_tau { post } else { current };
            assert_eq!(
                c.chain_balance(&settlement),
                want,
                "hop {h} ejected at {stage:?}"
            );
        }
        ejected += 1;
        via_tau_ejected += usize::from(via_tau);
    }
    assert!(
        ejected >= 6 && via_tau_ejected >= 2,
        "ejected {ejected} times"
    );
}

/// A fresh address's key is durable from the moment it is handed out, so
/// value sent to the address before its deposit is registered is never
/// stranded: after `NewAddress`, an unrelated commit and a crash, the
/// recovered enclave registers a deposit to the address. Checked with a
/// snapshot at every commit and with WAL replay alone.
#[test]
fn a_handed_out_address_survives_a_crash_before_its_deposit() {
    use teechain::{CommitteeSpec, Deposit};
    for snapshot_every in [1, 1000] {
        let mut c = persist_cluster(2, snapshot_every);
        let chan = c.standard_channel(0, 1, "unrelated", 1000, 1);
        let pk = c.new_address(0);
        c.pay(0, chan, 10).unwrap();
        c.crash_node(0);
        c.settle_network();
        c.recover_node(0).unwrap();
        let script = teechain_blockchain::ScriptPubKey::multisig(1, vec![pk]);
        let outpoint = c.chain.lock().mint(script, 500);
        let deposit = Deposit {
            outpoint,
            value: 500,
            committee: CommitteeSpec {
                m: 1,
                member_keys: vec![pk],
            },
        };
        c.op(0, Command::NewDeposit { deposit })
            .unwrap_or_else(|e| panic!("snapshot every {snapshot_every}: {e:?}"));
    }
}
