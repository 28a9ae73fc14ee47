//! Replication, committee and persistence tests (§6).

use teechain::enclave::Command;
use teechain::ops::{OpError, OpOutput};
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::ProtocolError;

#[test]
fn backup_attachment_builds_committee() {
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 1); // 0 → 1
    c.attach_backup(1, 2); // chain: 0 → 1 → 2
                           // The head's typed attach completed, and it also learned of the
                           // second chain member (an unsolicited notification on its stream).
    let attached = c
        .node(0)
        .events
        .iter()
        .filter(|(_, e)| matches!(e, teechain::HostEvent::BackupAttached(_)))
        .count();
    assert_eq!(attached, 2, "head learns of both chain members");
}

#[test]
fn replicated_payments_reach_backup() {
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 150).unwrap();
    assert_eq!(c.balances(0, chan), (850, 150));
    // The backup's replica mirrors the channel.
    let replica_bal = {
        let p = c.node(2).enclave.program().unwrap();
        let chan_replica = p.replica_channel(&chan).expect("replicated channel");
        (chan_replica.my_bal, chan_replica.remote_bal)
    };
    assert_eq!(replica_bal, (850, 150));
}

#[test]
fn payment_ack_gated_on_replication() {
    // With a backup attached, the Pay message must not leave the primary
    // before the backup acks — so a dead backup stalls payments without
    // losing funds (liveness sacrificed, never safety).
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    // Crash the backup's enclave: updates will go unacknowledged.
    c.node_mut(2).enclave.crash();
    // Force-freeze replication holds the Pay message at the primary: no
    // terminal response ever arrives, so the operation is declared dead
    // at quiescence — the typed form of "the ack never came".
    let err = c.pay(0, chan, 100).unwrap_err();
    assert!(matches!(err, OpError::Timeout { .. }), "{err:?}");
    assert_eq!(c.balances(1, chan), (0, 1000), "receiver saw nothing");
}

#[test]
fn crash_failover_settles_from_replica() {
    // Primary crashes; the user reads the backup (force-freeze) and
    // settles every replicated channel on chain — balance correctness
    // under crash faults.
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 400).unwrap();
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    // Primary is gone.
    c.node_mut(0).enclave.crash();
    // Failover via the backup: the replica read reports typed state.
    let out = c.exec(2, Command::ReadReplica);
    assert!(
        matches!(out, OpOutput::ReplicaState { channels: 1, .. }),
        "{out:?}"
    );
    c.exec(2, Command::SettleFromReplica);
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 600);
}

#[test]
fn frozen_backup_rejects_further_updates() {
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 100).unwrap();
    // Freeze via a replica read.
    c.exec(2, Command::ReadReplica);
    c.settle_network();
    assert!(c.node(2).enclave.program().unwrap().is_frozen());
    // The freeze propagated up the chain to the primary.
    assert!(c.node(0).enclave.program().unwrap().is_frozen());
    // Frozen primary refuses new payments (roll-back defence, §6).
    assert_eq!(
        c.pay(0, chan, 10).unwrap_err(),
        OpError::Rejected(ProtocolError::Frozen)
    );
}

#[test]
fn committee_two_of_two_settlement() {
    // A 2-of-2 committee deposit: settlement needs the backup's signature.
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "c1");
    let dep = c.fund_deposit(0, 800, 2); // m=2, n=2 (self + backup)
    assert_eq!(dep.committee.m, 2);
    assert_eq!(dep.committee.n(), 2);
    c.approve_and_associate(0, 1, chan, &dep);
    c.pay(0, chan, 300).unwrap();
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    // The settle operation's completion spans the whole co-sign round
    // trip: it resolves only once the threshold is met and the
    // settlement is broadcast.
    let s = c.settle_channel(0, chan).unwrap();
    assert!(matches!(s.kind, teechain::SettleKind::OnChain(_)));
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 500);
}

#[test]
fn byzantine_primary_cannot_inflate_settlement() {
    // Compromise the primary TEE and try to settle the channel at a stale
    // (pre-payment) state. The committee member's replica knows the true
    // balances and refuses to co-sign, so the theft fails.
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "c1");
    let dep = c.fund_deposit(0, 800, 2);
    c.approve_and_associate(0, 1, chan, &dep);
    c.pay(0, chan, 300).unwrap(); // Honest state: (500, 300).
                                  // Attacker extracts the channel and rolls back the payment.
    let forged_tx = {
        let (program, _env) = c.node_mut(0).enclave.compromise().unwrap();
        let mut stale = program.channel(&chan).unwrap().clone();
        stale.my_bal = 800; // Pretend the payment never happened.
        stale.remote_bal = 0;
        teechain::settle::current_settlement_tx(&stale)
    };
    // The attacker asks the committee member to co-sign the stale
    // settlement directly; the refusal is the operation's typed output.
    let out = c.exec(
        2,
        Command::CoSign {
            req_id: 99,
            tx: forged_tx.clone(),
        },
    );
    assert_eq!(
        out,
        OpOutput::CoSigned {
            req_id: 99,
            refused: true
        },
        "committee member must refuse the stale settlement"
    );
    // And the chain rejects the forged tx outright (1 of 2 signatures).
    let submit = {
        let mut tx = forged_tx;
        // The attacker signs with every key it extracted.
        let (program, _env) = c.node_mut(0).enclave.compromise().unwrap();
        teechain::settle::sign_with_book(&mut tx, program.book_ref());
        c.chain.lock().submit(tx)
    };
    assert!(submit.is_err(), "chain must reject sub-threshold witness");
}

#[test]
fn one_of_two_committee_tolerates_crash_but_not_byzantine() {
    // m=1, n=2: crash tolerant (backup can settle alone) — but a
    // compromised backup could steal, which is why the paper recommends
    // m ≥ 2 for Byzantine tolerance.
    let mut c = Cluster::functional(3);
    c.attach_backup(0, 2);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "c1");
    let dep = c.fund_deposit(0, 500, 1); // m=1, n=2
    assert_eq!(dep.committee.n(), 2);
    c.approve_and_associate(0, 1, chan, &dep);
    c.pay(0, chan, 200).unwrap();
    c.node_mut(0).enclave.crash();
    c.exec(2, Command::SettleFromReplica);
    c.mine(1);
    let my_settle = {
        let p = c.node(2).enclave.program().unwrap();
        p.replica_channel(&chan).unwrap().my_settlement
    };
    assert_eq!(c.chain_balance(&my_settle), 300);
}

/// A backup settling from its replica settles the channels in the order
/// its primary created them — the order their first updates reached it —
/// so two runs of one seed broadcast, and number co-sign requests, alike.
/// Eight channels: an order left to a randomly seeded hash map matches
/// creation order once in 40,320 runs.
#[test]
fn settle_from_replica_settles_in_creation_order() {
    let settled = || {
        let mut c = Cluster::functional(3);
        c.attach_backup(0, 2);
        let created: Vec<_> = (0..8)
            .map(|k| c.standard_channel(0, 1, &format!("replica-{k}"), 100 + k, 1))
            .collect();
        c.node_mut(0).enclave.crash();
        c.exec(2, Command::SettleFromReplica);
        let order: Vec<_> = c
            .node(2)
            .events
            .iter()
            .filter_map(|(_, e)| match e {
                teechain::HostEvent::SettlementBroadcast { id, .. } => Some(*id),
                _ => None,
            })
            .collect();
        (created, order)
    };
    let (created, first) = settled();
    assert_eq!(first, created);
    assert_eq!(settled(), (created, first));
}

// ---- Persistent storage mode (§6.2) ----

#[test]
fn persist_mode_throttle_is_absorbed_by_the_pump() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    // Let the setup's last counter increment age out.
    let t = c.sim.now_ns() + 300_000_000;
    c.sim.run_until(t);
    // First payment increments the counter; an immediate second payment
    // at the same instant is throttled. The throttle never surfaces as
    // an error any more: the host parks the op and the admission pump
    // re-dispatches it once the counter window opens, so both resolve
    // with the payment's typed success.
    let first = c.submit(
        0,
        Command::Pay {
            id: chan,
            amount: 1,
            count: 1,
        },
    );
    let second = c.submit(
        0,
        Command::Pay {
            id: chan,
            amount: 1,
            count: 1,
        },
    );
    c.settle_network();
    for op in [first, second] {
        c.wait::<teechain::ops::Payment>(c.pending(op))
            .expect("throttled payment is pumped to completion");
    }
    assert_eq!(c.balances(0, chan).0, 1000 - 2);
}

/// `(length, sha256)` of the burst's completion log below — one
/// `op|outcome|time_ns` line per payment — as the pump produced it when it
/// still re-dispatched every parked operation on every counter window,
/// every time 200 ms later: set-up commits the two keys it hands out
/// (settlement and deposit address), two more counter windows.
const BURST_COMPLETIONS: (usize, &str) = (
    14_585,
    "0f09e1dae32555bb686526faf608cd9126ebf4fddf098c2759e866725c62c0d9",
);

/// A 64-payment burst against a 100 ms counter: each window commits one
/// payment. The throttle queue is a FIFO gate — a window re-dispatches
/// parked operations only until the counter refuses one — so the burst
/// costs about one refused ecall per window instead of one per parked
/// operation per window, and every outcome lands when it did before.
#[test]
fn persist_mode_burst_redispatches_once_per_window() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "burst", 10_000, 1);
    c.node_mut(0).completions.clear();
    let before = c.node(0).registry();
    let ops: Vec<_> = (0..64u64)
        .map(|i| {
            c.submit(
                0,
                Command::Pay {
                    id: chan,
                    amount: 1 + i % 3,
                    count: 1,
                },
            )
        })
        .collect();
    c.settle_network();
    let log: String = c
        .node(0)
        .completions
        .iter()
        .map(|x| format!("{}|{:?}|{}\n", x.op, x.outcome, x.time_ns))
        .collect();
    let done = &c.node(0).completions;
    assert_eq!(done.len(), ops.len());
    assert!(done.iter().all(|x| x.outcome.is_ok()), "{log}");
    let digest = teechain_util::hex::encode(&teechain_crypto::sha256::sha256(log.as_bytes()));
    assert_eq!(
        (log.len(), digest.as_str()),
        BURST_COMPLETIONS,
        "completion log moved:\n{log}"
    );
    let after = c.node(0).registry();
    let grew = |k: &str| after.counter_value(k) - before.counter_value(k);
    let redispatched = grew("node.throttle.redispatched");
    assert!(
        redispatched <= 2 * 64,
        "{redispatched} re-dispatches for 64 payments"
    );
    assert!(grew("node.throttle.parked") >= 63, "the burst parks");
}

/// A composite whose counter-gated step is refused resumes at that step.
/// `FundDeposit` keeps the deposit it minted, so there is one mint per
/// deposit. `OpenChannel` keeps its settlement address, so there is one
/// key per channel. Every operation here is submitted inside the counter
/// window of the commit before it.
#[test]
fn persist_mode_throttled_composites_resume_at_the_gated_step() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..ClusterConfig::default()
    });
    let keys = |c: &Cluster| c.node(0).enclave.program().unwrap().book_ref().keys.len();
    c.standard_channel(0, 1, "c1", 1000, 1);
    // A settlement address for `c1` and the deposit's committee key.
    assert_eq!(keys(&c), 2);
    let dep = c.fund_deposit(0, 500, 1);
    assert_eq!(dep.value, 500);
    assert_eq!(c.chain.lock().total_minted(), 1000 + 500);
    c.open_channel(0, 1, "c2");
    assert_eq!(keys(&c), 4);
}

#[test]
fn persist_mode_emits_sealed_blobs_and_restores() {
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 50).unwrap();
    c.settle_network();
    let blob = c.node(0).sealed_store.clone().expect("sealed blob stored");
    // Crash and restore.
    c.node_mut(0).enclave.crash();
    let cfg = teechain::EnclaveConfig {
        trust_root: c.root.public_key(),
        measurement: teechain::TeechainNode::measurement(),
        durability: teechain::DurabilityBackend::eager_persist(),
    };
    c.node_mut(0)
        .enclave
        .restart(teechain::TeechainEnclave::new(cfg));
    c.exec(0, Command::RestoreSealed { blob });
    // The restored enclave can settle the channel unilaterally.
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    c.settle_channel(0, chan).unwrap();
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 950);
}

#[test]
fn stale_sealed_blob_rejected() {
    // Roll-back attack: restore an *old* sealed blob after newer state
    // was sealed. The hardware counter exposes the staleness.
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: teechain::DurabilityBackend::eager_persist(),
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 50).unwrap();
    c.settle_network();
    let old_blob = c.node(0).sealed_store.clone().unwrap();
    // Advance simulated time past the counter throttle, then pay again.
    let nid = c.nid(0);
    c.sim.call(nid, |_, ctx| ctx.set_timer(200_000_000, 1));
    c.settle_network();
    c.pay(0, chan, 50).unwrap();
    c.settle_network();
    // Crash; attacker restores the older blob.
    c.node_mut(0).enclave.crash();
    let cfg = teechain::EnclaveConfig {
        trust_root: c.root.public_key(),
        measurement: teechain::TeechainNode::measurement(),
        durability: teechain::DurabilityBackend::eager_persist(),
    };
    c.node_mut(0)
        .enclave
        .restart(teechain::TeechainEnclave::new(cfg));
    let result = c.op(0, Command::RestoreSealed { blob: old_blob });
    assert!(result.is_err(), "stale blob must be rejected");
}
