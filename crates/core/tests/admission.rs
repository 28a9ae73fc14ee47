//! The admission layer end-to-end: per-channel op queues, batched
//! drains, lock-aware rerouting over parallel temporary channels, and
//! the crash semantics that make batch commits exactly-once.
//!
//! Companion to the unit tests in `admit.rs` and the queue/drain tests
//! in `protocol.rs` — here every property is exercised through the
//! simulator with real locks (in-flight multihops) holding the channel.

use teechain::enclave::Command;
use teechain::ops::OpError;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::{ChannelId, DurabilityBackend, PersistPolicy, ProtocolError, RouteId};

fn persist_cluster(n: usize, snapshot_every: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        n,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every }),
        ..ClusterConfig::default()
    })
}

/// Locks `c01` by submitting a multihop 0→1→2 and NOT running the
/// network: the origin locks its outgoing channel synchronously at
/// submission.
fn lock_first_hop(c: &mut Cluster, c01: ChannelId, c12: ChannelId, tag: u8) -> teechain::ops::OpId {
    let hops = vec![c.ids[0], c.ids[1], c.ids[2]];
    c.submit(
        0,
        Command::PayMultihop {
            route: RouteId([tag; 32]),
            hops,
            channels: vec![c01, c12],
            amount: 10,
        },
    )
}

#[test]
fn queued_pays_complete_in_submission_order_with_their_own_amounts() {
    let mut c = Cluster::functional(3);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let mh = lock_first_hop(&mut c, c01, c12, 1);
    // Three distinct pays park behind the lock (one channel, no sibling
    // to reroute over).
    let amounts = [5u64, 7, 11];
    let pends: Vec<_> = amounts
        .iter()
        .map(|&amount| {
            c.submit(
                0,
                Command::Pay {
                    id: c01,
                    amount,
                    count: 1,
                },
            )
        })
        .collect();
    let stats = c.node(0).enclave.program().unwrap().admit_stats();
    assert!(stats.enqueued >= 3, "all three parked: {}", stats.enqueued);
    c.wait::<teechain::ops::Delivered>(c.pending(mh)).unwrap();
    // FIFO fan-out: each op completes with exactly the amount it
    // submitted, in submission order (the ack fan-out group preserves
    // the queue order).
    for (pend, &amount) in pends.into_iter().zip(amounts.iter()) {
        let p = c.wait::<teechain::ops::Payment>(c.pending(pend)).unwrap();
        assert_eq!(p.amount, amount, "op got its own amount back");
    }
    // Balance conservation: 10 (multihop) + 5 + 7 + 11 left node 0.
    assert_eq!(c.balances(0, c01), (1000 - 10 - 23, 10 + 23));
    let stats = c.node(0).enclave.program().unwrap().admit_stats();
    assert!(stats.batches >= 1, "drain batched the queue");
    assert_eq!(stats.batched_payments, 3, "all three applied via batches");
    assert!(
        stats.max_batch >= 2,
        "neighbours merged: {}",
        stats.max_batch
    );
}

#[test]
fn batch_drain_joins_the_unlock_commit() {
    // The queued pays must not cost their own WAL commits: the drain
    // runs inside the ecall that releases the lock, so the whole batch
    // joins that ecall's group commit. Baseline: the identical multihop
    // with nothing queued.
    let commits_for = |queued: &[u64]| -> u64 {
        let mut c = persist_cluster(3, 1_000);
        let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
        let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
        // Let every counter throttle window expire before measuring.
        let t = c.sim.now_ns() + 300_000_000;
        c.sim.run_until(t);
        let base = c.store(0).unwrap().lock().stats().commits;
        let mh = lock_first_hop(&mut c, c01, c12, 2);
        let pends: Vec<_> = queued
            .iter()
            .map(|&amount| {
                c.submit(
                    0,
                    Command::Pay {
                        id: c01,
                        amount,
                        count: 1,
                    },
                )
            })
            .collect();
        c.wait::<teechain::ops::Delivered>(c.pending(mh)).unwrap();
        for p in pends {
            c.wait::<teechain::ops::Payment>(c.pending(p)).unwrap();
        }
        c.store(0).unwrap().lock().stats().commits - base
    };
    let alone = commits_for(&[]);
    let with_batch = commits_for(&[5, 7, 11]);
    assert!(
        with_batch <= alone + 1,
        "3 queued pays cost at most one extra commit \
         (batch may ride the unlock ecall): {alone} -> {with_batch}"
    );
}

#[test]
fn crash_with_queued_ops_is_exactly_once() {
    // Queued-but-undrained ops are volatile by design: they are in no
    // sealed batch record, so a crash drops them — the host resolves
    // them as dead, recovery replays only committed state, and nothing
    // is half-applied.
    let mut c = persist_cluster(3, 1_000);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let before = c.balances(0, c01);
    let mh = lock_first_hop(&mut c, c01, c12, 3);
    let pay = c.submit(
        0,
        Command::Pay {
            id: c01,
            amount: 5,
            count: 1,
        },
    );
    // (In persist mode the pay may park in the counter-throttle stash
    // rather than the admission queue — both are volatile, which is the
    // property under test.)
    c.crash_node(0);
    c.settle_network();
    // Both in-flight ops are typed-dead, not silently gone.
    for pend in [mh, pay] {
        let err = c
            .wait::<teechain::ops::OpOutput>(c.pending(pend))
            .unwrap_err();
        assert!(matches!(err, OpError::Timeout { .. }), "{err:?}");
    }
    c.recover_node(0).unwrap();
    // Exactly-once: neither the multihop debit nor the queued pay
    // survived — they never reached a sealed record. Both ends agree.
    assert_eq!(c.balances(0, c01), before, "no partial application");
    assert_eq!(c.balances(1, c01), (before.1, before.0), "peer agrees");
    // (Node 1 still holds the dead route's lock — releasing that is the
    // eject path's job, exercised in the eject suite.)
}

#[test]
fn torn_batch_record_is_detected_as_rollback() {
    // Commit a drained batch, then tear the WAL tail: the monotonic
    // counter already covers the batch record, so recovery must refuse
    // the truncated log as state roll-back — a batch is all-or-nothing.
    let mut c = persist_cluster(3, 1_000);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let mh = lock_first_hop(&mut c, c01, c12, 4);
    let pay = c.submit(
        0,
        Command::Pay {
            id: c01,
            amount: 5,
            count: 1,
        },
    );
    c.wait::<teechain::ops::Delivered>(c.pending(mh)).unwrap();
    c.wait::<teechain::ops::Payment>(c.pending(pay)).unwrap();
    c.crash_node(0);
    c.store(0).unwrap().lock().tear_tail(4).unwrap();
    let err = c.recover_node(0).unwrap_err();
    assert!(
        matches!(err, OpError::Rejected(ProtocolError::StaleState { .. })),
        "torn batch tail must be refused: {err:?}"
    );
}

#[test]
fn queued_pay_expires_with_channel_locked_when_the_route_stalls() {
    // A crashed terminal hop never answers the lock pass, so the origin's
    // channel stays locked. The parked pay must not wait forever: at its
    // admission deadline it fails with the typed `ChannelLocked`.
    let mut c = Cluster::functional(3);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    c.crash_node(2);
    let _mh = lock_first_hop(&mut c, c01, c12, 5);
    let pay = c.submit(
        0,
        Command::Pay {
            id: c01,
            amount: 5,
            count: 1,
        },
    );
    // Run past the 30s admission deadline; the host pump timer fires the
    // expiry sweep.
    let t = c.sim.now_ns() + teechain::admit::ADMIT_DEADLINE_NS + 1_000_000_000;
    c.sim.run_until(t);
    let err = c
        .wait::<teechain::ops::Payment>(c.pending(pay))
        .unwrap_err();
    assert_eq!(err, OpError::Rejected(ProtocolError::ChannelLocked));
    let stats = c.node(0).enclave.program().unwrap().admit_stats();
    assert!(stats.expired >= 1, "deadline sweep counted the entry");
    // Nothing was debited for the expired op.
    assert_eq!(c.balances(0, c01).0 + c.balances(0, c01).1, 1000);
}

#[test]
fn locked_channel_pay_reroutes_over_parallel_channel() {
    // Lock-aware selection: with a parallel (temporary) channel to the
    // same peer open and funded, a pay against the locked channel is
    // carried immediately instead of queueing — and still completes
    // under the op id and channel the caller submitted.
    let mut c = Cluster::functional(3);
    let c01a = c.standard_channel(0, 1, "par-a", 1000, 1);
    let c01b = c.standard_channel(0, 1, "par-b", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let mh = lock_first_hop(&mut c, c01a, c12, 6);
    let pay = c.submit(
        0,
        Command::Pay {
            id: c01a,
            amount: 5,
            count: 1,
        },
    );
    let stats = c.node(0).enclave.program().unwrap().admit_stats();
    assert_eq!(stats.rerouted, 1, "pay took the unlocked sibling");
    assert_eq!(stats.enqueued, 0, "nothing needed to queue");
    c.wait::<teechain::ops::Delivered>(c.pending(mh)).unwrap();
    let p = c.wait::<teechain::ops::Payment>(c.pending(pay)).unwrap();
    assert_eq!(p.amount, 5);
    // The value moved over the sibling; the locked channel carried only
    // the multihop.
    assert_eq!(c.balances(0, c01b), (995, 5));
    assert_eq!(c.balances(0, c01a), (990, 10));
}

#[test]
fn multihop_origination_reroutes_first_hop_over_parallel_channel() {
    // Two routes name the same (locked) first-hop channel; the second
    // origination swaps in the unlocked sibling instead of queueing, so
    // both proceed concurrently from the origin.
    let mut c = Cluster::functional(3);
    let c01a = c.standard_channel(0, 1, "par-a", 1000, 1);
    let c01b = c.standard_channel(0, 1, "par-b", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    let mh1 = lock_first_hop(&mut c, c01a, c12, 7);
    let mh2 = c.submit(
        0,
        Command::PayMultihop {
            route: RouteId([8; 32]),
            hops: vec![c.ids[0], c.ids[1], c.ids[2]],
            channels: vec![c01a, c12],
            amount: 20,
        },
    );
    let stats = c.node(0).enclave.program().unwrap().admit_stats();
    assert!(stats.rerouted >= 1, "second route took the sibling");
    c.wait::<teechain::ops::Delivered>(c.pending(mh1)).unwrap();
    c.wait::<teechain::ops::Delivered>(c.pending(mh2)).unwrap();
    // Both delivered in full to the terminal hop.
    assert_eq!(c.balances(2, c12).0, 30);
    // The reroute spread the debits across the siblings.
    assert_eq!(c.balances(0, c01a).0 + c.balances(0, c01b).0, 2000 - 30);
}
