//! Cumulative acks and forwards on committee chains: bursts around the
//! bound complete exactly once and leave every replica equal to its
//! primary; a tail that crashes while it owes acks, or a middle member
//! that crashes while it owes forwards, keeps the head's effects held;
//! and a surviving member still settles on chain. A member owes past its
//! input only while its host says more messages are queued, so the
//! crash tests give the member a host that always says so
//! ([`HintedHost`]).

use super::*;
use crate::durability::DurabilityBackend;
use crate::enclave::Command;
use crate::ops::OpError;
use crate::testkit::{Cluster, ClusterConfig, ClusterNode, Harness, HintedHost};
use std::collections::BTreeMap;
use teechain_net::NodeId;
use teechain_tee::EnclaveProgram;

/// Two primaries with two backups each: 0 → 2 → 3 and 1 → 4 → 5.
const PAYER_MIDDLE: usize = 2;
const PAYER_TAIL: usize = 3;
const BACKUPS: [(usize, usize); 4] = [(2, 0), (3, 0), (4, 1), (5, 1)];

fn chained_pair() -> (Cluster, ChannelId) {
    chained_pair_with(2)
}

fn chained_pair_with<N: ClusterNode>(backups: usize) -> (Cluster<N>, ChannelId) {
    let mut c = Cluster::build(
        ClusterConfig {
            durability: DurabilityBackend::Replication { backups },
            ..ClusterConfig::default()
        },
        None,
    );
    let chan = c.standard_channel(0, 1, "acks", 1_000_000, 2);
    (c, chan)
}

/// Makes `member`'s host say "more messages" with every message from now
/// on: the member holds what it applies past its input.
fn always_more(c: &mut Cluster<HintedHost>, member: usize) {
    c.sim.node_mut(NodeId(member as u32)).more = Some(true);
}

fn rep_stats<N: ClusterNode>(c: &Cluster<N>, i: usize) -> RepStats {
    c.node(i).enclave.program().expect("running").rep_stats()
}

/// Submits `k` payments of 1 from node 0 without running the network.
fn submit_burst<N: ClusterNode>(c: &mut Cluster<N>, chan: ChannelId, k: u64) -> Vec<u64> {
    let pay = Command::Pay {
        id: chan,
        amount: 1,
        count: 1,
    };
    (0..k).map(|_| c.submit(0, pay.clone()).seq).collect()
}

#[test]
fn bursts_around_the_ack_bound_complete_once_and_replicate() {
    for burst in [1, ACK_EVERY - 1, ACK_EVERY, ACK_EVERY + 1, 200] {
        let (mut c, chan) = chained_pair();
        let before: Vec<RepStats> = (0..6).map(|i| rep_stats(&c, i)).collect();
        c.node_mut(0).completions.clear();
        let ops = submit_burst(&mut c, chan, burst);
        c.settle_network();
        let mut seen: BTreeMap<u64, usize> = BTreeMap::new();
        for done in &c.node(0).completions {
            assert!(done.outcome.is_ok(), "burst {burst}: {:?}", done.outcome);
            *seen.entry(done.op.seq).or_default() += 1;
        }
        assert_eq!(seen.len(), ops.len(), "burst {burst}: every op completes");
        assert!(
            seen.values().all(|&n| n == 1),
            "burst {burst}: exactly once"
        );
        assert_eq!(c.balances(0, chan), (1_000_000 - burst, burst));
        for (backup, primary) in BACKUPS {
            let want = c.balances(primary, chan);
            let replica = c.node(backup).enclave.program().unwrap();
            let got = replica.replica_channel(&chan).unwrap();
            assert_eq!((got.my_bal, got.remote_bal), want, "backup {backup}");
            let applied = rep_stats(&c, backup).updates_applied - before[backup].updates_applied;
            assert_eq!(applied, burst, "backup {backup}: one update per payment");
        }
        // The payer's whole burst reaches its tail at one instant: one ack
        // per `ACK_EVERY` updates, plus one for the rest once drained.
        let acks = rep_stats(&c, PAYER_TAIL).acks_sent - before[PAYER_TAIL].acks_sent;
        assert_eq!(acks, burst.div_ceil(ACK_EVERY), "burst {burst}");
        // It reaches the middle member at one instant too, which forwards
        // it the same way.
        let forwards =
            rep_stats(&c, PAYER_MIDDLE).forwards_sent - before[PAYER_MIDDLE].forwards_sent;
        assert_eq!(forwards, burst.div_ceil(ACK_EVERY), "burst {burst}");
    }
}

/// Runs the network until the payer's tail has applied `k` more updates
/// than `base`, and no further.
fn run_until_tail_applied<N: ClusterNode>(c: &mut Cluster<N>, base: u64, k: u64) {
    run_until_applied(c, PAYER_TAIL, base, k);
}

/// Runs the network until `member` has applied `k` more updates than
/// `base`, and no further.
fn run_until_applied<N: ClusterNode>(c: &mut Cluster<N>, member: usize, base: u64, k: u64) {
    for _ in 0..1_000 {
        if rep_stats(c, member).updates_applied >= base + k {
            return;
        }
        let t = c.sim.now_ns() + 1;
        c.sim.run_until(t);
    }
    panic!("member {member} never applied the burst");
}

#[test]
fn a_tail_crashed_while_owing_acks_holds_the_heads_effects() {
    let (mut c, chan) = chained_pair_with(2);
    always_more(&mut c, PAYER_TAIL);
    let base = rep_stats(&c, PAYER_TAIL);
    c.node_mut(0).completions.clear();
    submit_burst(&mut c, chan, 10);
    run_until_tail_applied(&mut c, base.updates_applied, 10);
    assert_eq!(
        rep_stats(&c, PAYER_TAIL).acks_sent,
        base.acks_sent,
        "the tail owes its acks"
    );
    c.crash_node(PAYER_TAIL);
    c.settle_network();
    // No `Pay` left the primary: the payee saw nothing, and every
    // payment was declared dead at quiescence.
    assert_eq!(c.balances(1, chan), (0, 1_000_000));
    assert_eq!(c.node(0).completions.len(), 10);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{:?}",
            done.outcome
        );
    }
}

#[test]
fn a_middle_member_crashed_while_owing_forwards_holds_the_heads_effects() {
    let (mut c, chan) = chained_pair_with(2);
    always_more(&mut c, PAYER_MIDDLE);
    let middle = rep_stats(&c, PAYER_MIDDLE);
    let tail = rep_stats(&c, PAYER_TAIL);
    c.node_mut(0).completions.clear();
    submit_burst(&mut c, chan, 10);
    run_until_applied(&mut c, PAYER_MIDDLE, middle.updates_applied, 10);
    assert_eq!(
        rep_stats(&c, PAYER_MIDDLE).forwards_sent,
        middle.forwards_sent,
        "the middle member owes its forwards"
    );
    assert_eq!(rep_stats(&c, PAYER_TAIL), tail, "the tail saw nothing");
    c.crash_node(PAYER_MIDDLE);
    c.settle_network();
    // The updates never reached the tail, so no ack released a `Pay`:
    // the payee saw nothing, and every payment was declared dead at
    // quiescence.
    assert_eq!(rep_stats(&c, PAYER_TAIL), tail);
    assert_eq!(c.balances(1, chan), (0, 1_000_000));
    assert_eq!(c.node(0).completions.len(), 10);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{:?}",
            done.outcome
        );
    }
}

#[test]
fn three_backup_chains_forward_coalesced_at_both_middle_members() {
    // 0 → 2 → 3 → 4 and 1 → 5 → 6 → 7.
    const BACKUPS3: [(usize, usize); 6] = [(2, 0), (3, 0), (4, 0), (5, 1), (6, 1), (7, 1)];
    for burst in [ACK_EVERY + 1, 200] {
        let (mut c, chan): (Cluster, _) = chained_pair_with(3);
        let before: Vec<RepStats> = (0..8).map(|i| rep_stats(&c, i)).collect();
        c.node_mut(0).completions.clear();
        let ops = submit_burst(&mut c, chan, burst);
        c.settle_network();
        assert_eq!(c.node(0).completions.len(), ops.len(), "burst {burst}");
        assert!(c.node(0).completions.iter().all(|d| d.outcome.is_ok()));
        assert_eq!(c.balances(0, chan), (1_000_000 - burst, burst));
        for (backup, primary) in BACKUPS3 {
            let want = c.balances(primary, chan);
            let replica = c.node(backup).enclave.program().unwrap();
            let got = replica.replica_channel(&chan).unwrap();
            assert_eq!((got.my_bal, got.remote_bal), want, "backup {backup}");
            let applied = rep_stats(&c, backup).updates_applied - before[backup].updates_applied;
            assert_eq!(applied, burst, "backup {backup}: one update per payment");
        }
        // The second middle member gets the first's forwards, each
        // covering up to `ACK_EVERY` head updates, and passes each on.
        let sent = |i: usize, f: fn(&RepStats) -> u64| f(&rep_stats(&c, i)) - f(&before[i]);
        let want = burst.div_ceil(ACK_EVERY);
        assert_eq!(sent(2, |s| s.forwards_sent), want, "burst {burst}");
        assert_eq!(sent(3, |s| s.forwards_sent), want, "burst {burst}");
        assert_eq!(sent(4, |s| s.acks_sent), want, "burst {burst}");
    }
}

#[test]
fn a_surviving_member_settles_every_acknowledged_payment() {
    let (mut c, chan) = chained_pair_with(2);
    c.pay(0, chan, 150).unwrap(); // Acknowledged by the whole chain.
    always_more(&mut c, PAYER_TAIL);
    let base = rep_stats(&c, PAYER_TAIL).updates_applied;
    submit_burst(&mut c, chan, 10);
    run_until_tail_applied(&mut c, base, 10);
    c.crash_node(PAYER_TAIL);
    c.settle_network();
    assert_eq!(c.balances(1, chan), (150, 1_000_000 - 150));
    // The primary is gone too; its middle member settles from its
    // replica, which holds every update it applied and forwarded: the
    // acknowledged payment and the ten the tail never acknowledged.
    c.crash_node(0);
    c.exec(2, Command::SettleFromReplica);
    c.mine(1);
    let replica = c.node(2).enclave.program().unwrap();
    let settled = replica.replica_channel(&chan).unwrap().clone();
    assert_eq!(settled.my_bal, 1_000_000 - 160);
    assert_eq!(c.chain_balance(&settled.my_settlement), settled.my_bal);
    assert_eq!(c.chain_balance(&settled.remote_settlement), 160);
}

/// Seals `msg` from node `from` to node `to` over their session and
/// delivers it there: the outcome, and whether `to`'s durable state moved.
fn deliver_from<N: ClusterNode>(
    c: &mut Cluster<N>,
    from: usize,
    to: usize,
    msg: &ProtocolMsg,
) -> (Outcome, bool) {
    let to_id = c.ids[to];
    let (p, _) = c.node_mut(from).enclave.compromise().expect("running");
    let Ok(Effect::Send { wire, .. }) = p.seal_to(&to_id, msg) else {
        panic!("a sealed frame");
    };
    let (p, env) = c.node_mut(to).enclave.compromise().expect("running");
    let before = p.durable_digest();
    let deliver = Command::Deliver { wire, more: false };
    let got = p.handle(env, deliver);
    (got, p.durable_digest() != before)
}

/// Co-sign traffic travels the chain only: a request from a peer that is
/// not the member's upstream, and an answer from a peer that is not its
/// backup, are refused with a typed error and change nothing, even when
/// they carry what the chain itself would have sent.
#[test]
fn co_sign_traffic_from_off_the_chain_is_refused() {
    let (mut c, chan) = chained_pair();
    c.pay(0, chan, 5).unwrap();
    // A request from below: the tail is the middle member's backup.
    let replica = c.node(PAYER_MIDDLE).enclave.program().unwrap();
    let tx = settle::current_settlement_tx(replica.replica_channel(&chan).unwrap());
    let ask = ProtocolMsg::SigRequest {
        req_id: 1,
        hops: 0,
        tx,
    };
    let (got, moved) = deliver_from(&mut c, PAYER_TAIL, PAYER_MIDDLE, &ask);
    assert_eq!(got.err(), Some(ProtocolError::ReplicationError));
    assert!(!moved);
    assert_eq!(rep_stats(&c, PAYER_MIDDLE).sigs_refused, 0);

    // An answer from beside: the head's channel peer, carrying the
    // signature the head's first backup would send.
    c.submit(0, Command::Settle { id: chan });
    let head = c.node(0).enclave.program().unwrap();
    let (&req_id, collect) = head.sig_collects.iter().next().expect("asking");
    let (tx, sighash) = (collect.tx.clone(), collect.tx.sighash());
    let (member, _) = c.node_mut(PAYER_MIDDLE).enclave.compromise().unwrap();
    let sig = member.rep.member.expect("committee key").sign(&sighash);
    let answer = ProtocolMsg::SigResponse {
        req_id,
        hops: 0,
        sigs: vec![(0, sig)],
        refused: false,
    };
    let (got, moved) = deliver_from(&mut c, 1, 0, &answer);
    assert_eq!(got.err(), Some(ProtocolError::ReplicationError));
    assert!(!moved);
    let head = c.node(0).enclave.program().unwrap();
    assert_eq!(head.sig_collects[&req_id].tx, tx);
}
