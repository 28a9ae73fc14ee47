//! Cumulative acks and forwards on committee chains, and the head's held
//! updates: bursts around the bound complete exactly once and leave every
//! replica equal to its primary; a tail that crashes while it owes acks,
//! or a middle member that crashes while it owes forwards, keeps the
//! head's effects held; a surviving member still settles on chain; a
//! payee head that crashes while it holds deltas acknowledges none of
//! them, and one that cannot seal them loses no output; and any mix of input hints ends in the state of the run without
//! hints. A node owes past its input only while its host says more
//! messages are queued, so the crash tests give it a host that always
//! says so ([`HintedHost`]).

use super::*;
use crate::deposit::DepositStatus;
use crate::durability::DurabilityBackend;
use crate::enclave::Command;
use crate::ops::OpError;
use crate::testkit::{Cluster, ClusterConfig, ClusterNode, Harness, HintedHost};
use proptest::prelude::*;
use std::collections::BTreeMap;
use teechain_blockchain::OutPoint;
use teechain_net::{NodeAction, NodeId};
use teechain_tee::EnclaveProgram;

/// Two primaries with two backups each: 0 → 2 → 3 and 1 → 4 → 5.
const PAYER_MIDDLE: usize = 2;
const PAYER_TAIL: usize = 3;
const PAYEE_MIDDLE: usize = 4;
const PAYEE_TAIL: usize = 5;
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

/// Head updates a backup of `primary` applies for a burst of `burst`
/// payments from node 0: the payer's head commits each payment as its own
/// update. Its chain acknowledges them `ACK_EVERY` at a time, and each ack
/// releases that many payments as one wire `Pay`. Those `Pay`s reach the
/// payee's head as one run of queued messages; the head holds the run's
/// deltas and commits up to `ACK_EVERY` of them as one update. So
/// `ACK_EVERY` bounds messages and updates, not payments: the payee's
/// chain applies one update for every `ACK_EVERY` wire `Pay`s.
fn head_updates(primary: usize, burst: u64) -> u64 {
    match primary {
        0 => burst,
        _ => burst.div_ceil(ACK_EVERY).div_ceil(ACK_EVERY),
    }
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
            assert_eq!(applied, head_updates(primary, burst), "backup {backup}");
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
            assert_eq!(applied, head_updates(primary, burst), "backup {backup}");
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

/// Runs the network a nanosecond at a time until the payee's balance on
/// `chan` reads `bal`.
fn run_until_payee_has<N: ClusterNode>(c: &mut Cluster<N>, chan: ChannelId, bal: u64) {
    for _ in 0..1_000 {
        if c.balances(1, chan).0 == bal {
            return;
        }
        let t = c.sim.now_ns() + 1;
        c.sim.run_until(t);
    }
}

/// A head whose session to its backup is gone fails the ecall that would
/// commit its held deltas, and leaves nothing behind for a later ecall:
/// no staged delta, no co-sign request. The ecall's output is not
/// dropped: it waits behind the update that could not be sealed, as a
/// committing ecall's output does.
#[test]
fn a_head_that_cannot_seal_its_held_update_keeps_the_ecalls_output() {
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(1);
    c.pay(0, chan, 150).unwrap();
    always_more(&mut c, 1);
    submit_burst(&mut c, chan, 10);
    run_until_payee_has(&mut c, chan, 160);
    let (p, env) = c.node_mut(1).enclave.compromise().expect("running");
    assert!(!p.rep.held.is_empty(), "the head holds the run");
    let backup = p.rep.backup.expect("a backup").slot;
    let session = p.peers.at_mut(backup).and_then(Option::as_mut).unwrap();
    session.established = false;
    let got = p.handle(env, Command::GetIdentity);
    assert_eq!(got.err(), Some(ProtocolError::NoSession));
    assert!(p.rep.staged.is_empty() && p.rep.asks.is_empty());
    let (_, waiting) = p.rep.pending.last_key_value().expect("the update's entry");
    assert!(
        matches!(
            waiting.effects[..],
            [Effect::Done {
                key: MatchKey::Identity,
                ..
            }]
        ),
        "{waiting:?}"
    );
}

#[test]
fn a_payee_head_crashed_while_holding_deltas_acknowledges_none_of_them() {
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(2);
    c.pay(0, chan, 150).unwrap(); // Acknowledged by both chains.
    always_more(&mut c, 1);
    let head = rep_stats(&c, 1);
    let acks = c.node(1).enclave.program().unwrap().pay_stats().acks_sent;
    c.node_mut(0).completions.clear();
    submit_burst(&mut c, chan, 10);
    run_until_payee_has(&mut c, chan, 160);
    // The payee applied the burst, and holds its deltas: no update went
    // down its chain, and it owes the ack.
    assert_eq!(c.balances(1, chan), (160, 1_000_000 - 160));
    let p = c.node(1).enclave.program().unwrap();
    assert!(!p.rep.held.is_empty(), "the head holds the run");
    assert_eq!(rep_stats(&c, 1), head, "no update left the head");
    assert_eq!(p.pay_stats().acks_sent, acks, "the ack is owed");
    c.crash_node(1);
    c.settle_network();
    // No `PayAck` for the held `Pay`s left: every payment timed out.
    assert_eq!(c.node(0).completions.len(), 10);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{:?}",
            done.outcome
        );
    }
    // The payee's backup settles the last balances its chain
    // acknowledged, and the settlement pays out the whole deposit.
    let (p, env) = c.node_mut(PAYEE_MIDDLE).enclave.compromise().unwrap();
    let asked = p.handle(env, Command::SettleFromReplica).expect("accepted");
    let settled = p.replica_channel(&chan).unwrap();
    assert_eq!((settled.my_bal, settled.remote_bal), (150, 1_000_000 - 150));
    let [collect] = p.sig_collects.values().collect::<Vec<_>>()[..] else {
        panic!("one settlement asking for co-signatures");
    };
    let want = settle::current_settlement_tx(settled);
    assert_eq!(collect.tx.outputs, want.outputs);
    let paid: u64 = want.outputs.iter().map(|o| o.value).sum();
    assert_eq!(paid, 1_000_000);
    // The deposit is the payer's, so only its committee can co-sign: the
    // request walks the payee's chain, comes back once, short, and the
    // settlement fails with a typed error instead of waiting forever.
    let answered = hand_over(&mut c, asked, PAYEE_TAIL);
    let outcomes: Vec<_> = hand_over(&mut c, answered, PAYEE_MIDDLE)
        .into_iter()
        .filter_map(|e| match e {
            Effect::Done { key, outcome } => Some((key, outcome)),
            _ => None,
        })
        .collect();
    let short = Err(OpError::Remote(ProtocolError::ReplicationError));
    assert_eq!(outcomes, [(MatchKey::Settle(chan), short)]);
    let member = c.node(PAYEE_MIDDLE).enclave.program().unwrap();
    assert!(member.sig_collects.is_empty(), "nothing waits");
}

/// Hands every frame in `effects` addressed to node `to` over to it, in
/// order, as its host would; returns what it answered.
fn hand_over<N: ClusterNode>(c: &mut Cluster<N>, effects: Vec<Effect>, to: usize) -> Vec<Effect> {
    let to_id = c.ids[to];
    let (p, env) = c.node_mut(to).enclave.compromise().expect("running");
    let mut out = Vec::new();
    for effect in effects {
        if let Effect::Send { to, wire, .. } = effect {
            if to == to_id {
                let deliver = Command::Deliver { wire, more: false };
                out.extend(p.handle(env, deliver).expect("accepted"));
            }
        }
    }
    out
}

fn pay_stats<N: ClusterNode>(c: &Cluster<N>, i: usize) -> crate::channel::PayStats {
    c.node(i).enclave.program().expect("running").pay_stats()
}

/// The payer's head seals what one chain ack releases as one wire `Pay`
/// per channel: its chain acknowledges a burst `ACK_EVERY` updates at a
/// time, so a burst of `k` leaves as `k / ACK_EVERY` rounded up `Pay`s.
/// The payee's cumulative `PayAck`s fan back out to one completion per
/// op, in submission order.
#[test]
fn a_payer_head_seals_one_pay_per_channel_per_release() {
    for burst in [1, ACK_EVERY - 1, ACK_EVERY, ACK_EVERY + 1, 200] {
        let (mut c, chan) = chained_pair();
        let (before, tail) = (pay_stats(&c, 0), rep_stats(&c, PAYER_TAIL));
        c.node_mut(0).completions.clear();
        let ops = submit_burst(&mut c, chan, burst);
        c.settle_network();
        let releases = rep_stats(&c, PAYER_TAIL).acks_sent - tail.acks_sent;
        assert_eq!(releases, burst.div_ceil(ACK_EVERY), "burst {burst}");
        let sent = pay_stats(&c, 0).pays_sent - before.pays_sent;
        assert_eq!(sent, releases, "burst {burst}: one Pay per release");
        let done: Vec<u64> = c.node(0).completions.iter().map(|d| d.op.seq).collect();
        assert_eq!(done, ops, "burst {burst}: once each, in submission order");
        assert!(c.node(0).completions.iter().all(|d| d.outcome.is_ok()));
        assert!((0..6).all(|i| c.node(i).delivery_errors.is_empty()));
        assert_eq!(c.balances(1, chan), (burst, 1_000_000 - burst));
    }
}

/// Payments on two channels to one peer never merge with each other, and
/// leave in the order the release holds them: a burst that switches
/// channel twice is three `Pay`s, each run its own.
#[test]
fn pays_on_two_channels_to_one_peer_stay_apart_and_in_order() {
    let (mut c, a) = chained_pair();
    let b = c.standard_channel(0, 1, "acks-b", 1_000_000, 2);
    let (before, tail) = (pay_stats(&c, 0), rep_stats(&c, PAYER_TAIL));
    c.node_mut(0).completions.clear();
    let pay = |id| Command::Pay {
        id,
        amount: 1,
        count: 1,
    };
    let ops: Vec<(ChannelId, u64)> = [a, a, a, b, b, a]
        .into_iter()
        .map(|id| (id, c.submit(0, pay(id)).seq))
        .collect();
    c.settle_network();
    assert_eq!(rep_stats(&c, PAYER_TAIL).acks_sent - tail.acks_sent, 1);
    assert_eq!(pay_stats(&c, 0).pays_sent - before.pays_sent, 3);
    // Each channel's ops complete once each, in submission order.
    for chan in [a, b] {
        let on = |seq: &u64| ops.contains(&(chan, *seq));
        let done: Vec<u64> = c.node(0).completions.iter().map(|d| d.op.seq).collect();
        let want: Vec<u64> = ops.iter().map(|&(_, seq)| seq).filter(on).collect();
        assert_eq!(done.into_iter().filter(on).collect::<Vec<_>>(), want);
    }
    assert_eq!(c.node(0).completions.len(), ops.len());
    assert!(c.node(0).completions.iter().all(|d| d.outcome.is_ok()));
    assert!((0..6).all(|i| c.node(i).delivery_errors.is_empty()));
    assert_eq!(c.balances(1, a), (4, 1_000_000 - 4));
    assert_eq!(c.balances(1, b), (2, 1_000_000 - 2));

    // The order: the payer's tail holds its ack, so the burst waits; an
    // ack sealed by hand as its middle member releases it, and the
    // `Pay`s that leave reach the payee one at a time.
    let (mut c, a): (Cluster<HintedHost>, _) = chained_pair_with(2);
    let b = c.standard_channel(0, 1, "acks-b", 1_000_000, 2);
    always_more(&mut c, PAYER_TAIL);
    let base = rep_stats(&c, PAYER_TAIL).updates_applied;
    for (id, amount) in [(a, 1), (a, 2), (a, 3), (b, 10), (b, 20), (a, 100)] {
        let count = 1;
        c.submit(0, Command::Pay { id, amount, count });
    }
    run_until_tail_applied(&mut c, base, 6);
    let seq = c.node(0).enclave.program().unwrap().rep.send_seq - 1;
    let payer = c.ids[0];
    let (member, _) = c.node_mut(PAYER_MIDDLE).enclave.compromise().unwrap();
    let Ok(Effect::Send { wire, .. }) = member.seal_to(&payer, &ProtocolMsg::RepAck { seq }) else {
        panic!("a sealed frame");
    };
    let from = NodeId(PAYER_MIDDLE as u32);
    let (_, actions) = c.drive_node(0, false, |n, ctx| n.handle_wire(ctx, from, wire));
    let mut seen = Vec::new();
    for action in actions {
        if let NodeAction::Send { to: NodeId(1), msg } = action {
            c.drive_node(1, false, |n, ctx| n.handle_wire(ctx, NodeId(0), msg));
            seen.push((c.balances(1, a).0, c.balances(1, b).0));
        }
    }
    assert_eq!(seen, [(6, 0), (6, 30), (106, 30)]);
}

/// A head that owes its peer acks and makes a payment to it in one ecall
/// seals the payment first, and sends it first: the acks are sealed
/// after the handler, so the payment, made before them, goes before them
/// in the ecall's output.
#[test]
fn a_pay_made_while_acks_are_owed_to_its_peer_goes_before_them() {
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(2);
    c.pay(0, chan, 150).unwrap();
    always_more(&mut c, 0);
    let acks = pay_stats(&c, 0).acks_sent;
    let back = Command::Pay {
        id: chan,
        amount: 1,
        count: 1,
    };
    let ops: Vec<_> = (0..5).map(|_| c.submit(1, back.clone())).collect();
    for _ in 0..1_000 {
        if c.balances(0, chan).0 == 1_000_000 - 145 {
            break;
        }
        let t = c.sim.now_ns() + 1;
        c.sim.run_until(t);
    }
    assert_eq!(c.balances(0, chan).0, 1_000_000 - 145);
    assert_eq!(pay_stats(&c, 0).acks_sent, acks, "the acks are owed");
    let pay = c.submit(0, back.clone());
    c.settle_network();
    assert!((0..6).all(|i| c.node(i).delivery_errors.is_empty()));
    for op in ops.into_iter().chain([pay]) {
        assert!(matches!(c.outcome(op), Some(Ok(_))), "{:?}", c.outcome(op));
    }
    assert_eq!(c.balances(1, chan), (146, 1_000_000 - 146));
}

/// A `PayNack` of a merged `Pay` fails every op the `Pay` carried and
/// rolls the whole sum back. The payee's host holds its ack, and a
/// compromised payee enclave refuses the `Pay` instead.
#[test]
fn a_nack_of_a_merged_pay_fails_every_op_it_carried() {
    const BURST: u64 = 10;
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(2);
    always_more(&mut c, 1);
    let before = pay_stats(&c, 0);
    c.node_mut(0).completions.clear();
    let ops = submit_burst(&mut c, chan, BURST);
    run_until_payee_has(&mut c, chan, BURST);
    assert_eq!(pay_stats(&c, 0).pays_sent - before.pays_sent, 1);
    let nack = ProtocolMsg::PayNack {
        id: chan,
        amount: BURST,
        count: BURST as u32,
        reason: ProtocolError::ChannelLocked.abort_code(),
    };
    let payer = c.ids[0];
    let (p, _) = c.node_mut(1).enclave.compromise().expect("running");
    let Ok(Effect::Send { wire, .. }) = p.seal_to(&payer, &nack) else {
        panic!("a sealed frame");
    };
    c.crash_node(1);
    c.sim.call(NodeId(0), |h, ctx| {
        h.host.node.handle_wire(ctx, NodeId(1), wire)
    });
    c.settle_network();
    let done: Vec<u64> = c.node(0).completions.iter().map(|d| d.op.seq).collect();
    assert_eq!(done, ops, "once each, in submission order");
    for d in &c.node(0).completions {
        let refused = Err(OpError::Remote(ProtocolError::ChannelLocked));
        assert_eq!(d.outcome, refused);
    }
    assert_eq!(c.balances(0, chan), (1_000_000, 0), "the sum rolled back");
}

/// A payer head that crashes while its owed `Pay`s wait for the chain's
/// ack sends none of them: the payee is not credited and the ops time
/// out. Its backup settles every update it applied, the unacknowledged
/// payments included, and the settlement conserves value.
#[test]
fn a_payer_head_crashed_while_owing_pays_sends_none_of_them() {
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(2);
    c.pay(0, chan, 150).unwrap(); // Acknowledged by both chains.
    always_more(&mut c, PAYER_TAIL);
    let (pays, tail) = (pay_stats(&c, 0), rep_stats(&c, PAYER_TAIL));
    c.node_mut(0).completions.clear();
    submit_burst(&mut c, chan, 10);
    run_until_tail_applied(&mut c, tail.updates_applied, 10);
    let p = c.node(0).enclave.program().unwrap();
    let owed: usize = p.rep.pending.values().map(|e| e.owed_pays.len()).sum();
    assert_eq!(owed, 10, "the pays wait, unsealed");
    assert_eq!(pay_stats(&c, 0), pays, "no Pay left");
    c.crash_node(0);
    c.settle_network();
    assert_eq!(c.balances(1, chan), (150, 1_000_000 - 150));
    assert_eq!(c.node(0).completions.len(), 10);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{:?}",
            done.outcome
        );
    }
    c.exec(PAYER_MIDDLE, Command::SettleFromReplica);
    c.mine(1);
    let member = c.node(PAYER_MIDDLE).enclave.program().unwrap();
    let settled = member.replica_channel(&chan).unwrap().clone();
    assert_eq!(settled.remote_bal, 160);
    let (mine, theirs) = (
        c.chain_balance(&settled.my_settlement),
        c.chain_balance(&settled.remote_settlement),
    );
    assert_eq!((mine, theirs), (1_000_000 - 160, 160));
}

/// A primary's or a backup's view of the channel: balances and the
/// statuses of the deposits it holds.
type View = ((u64, u64), Vec<(OutPoint, DepositStatus)>);

/// Runs `rounds` of payments of 1 over two chains of two backups: in
/// each, node 0 submits `.0` payments to node 1 and node 1 submits `.1`
/// back, interleaved, and the network runs until idle. Each node's host
/// passes `hints[i]` as its input hint, and after each round every node
/// makes one more ecall that is not a delivery after the network idles,
/// until nothing moves. Every delivered message must open, and every
/// payment complete exactly once, successfully. Returns every primary's
/// and backup's view at quiescence.
fn views_after(rounds: &[(u64, u64)], hints: &[Option<bool>]) -> Vec<View> {
    let (mut c, chan): (Cluster<HintedHost>, _) = chained_pair_with(2);
    c.pay(0, chan, 1_000).unwrap();
    for (i, &more) in hints.iter().enumerate() {
        c.sim.node_mut(NodeId(i as u32)).more = more;
    }
    let pay = Command::Pay {
        id: chan,
        amount: 1,
        count: 1,
    };
    let mut ops = BTreeMap::new();
    for &(there, back) in rounds {
        for k in 0..there.max(back) {
            for (from, n) in [(0, there), (1, back)] {
                if k < n {
                    ops.insert(c.submit(from, pay.clone()), 0);
                }
            }
        }
        c.sim.run_to_idle(u64::MAX);
        // A host that always says "more" holds what its node owes until
        // the node's next other ecall.
        for _ in 0..16 {
            for i in 0..hints.len() {
                c.submit(i, Command::GetIdentity);
            }
            if c.sim.run_to_idle(u64::MAX) == 0 {
                break;
            }
        }
    }
    for i in 0..hints.len() {
        let errors = &c.node(i).delivery_errors;
        assert!(errors.is_empty(), "node {i}: {errors:?}");
    }
    for done in c.completion_log() {
        if let Some(n) = ops.get_mut(&done.op) {
            assert!(done.outcome.is_ok(), "{:?}", done.outcome);
            *n += 1;
        }
    }
    assert!(ops.values().all(|&n| n == 1), "every payment once: {ops:?}");
    let statuses = |book: &crate::deposit::DepositBook| {
        let mut s: Vec<_> = book.mine.iter().map(|(op, (_, st))| (*op, *st)).collect();
        s.sort_by_key(|(op, _)| *op);
        s
    };
    let mut views = Vec::new();
    for i in 0..hints.len() {
        let p = c.node(i).enclave.program().unwrap();
        let (chan, book) = match p.rep.upstream {
            None => (p.channel(&chan), p.book_ref()),
            Some(_) => (p.replica_channel(&chan), p.replica_book()),
        };
        let chan = chan.expect("the channel");
        views.push(((chan.my_bal, chan.remote_bal), statuses(book)));
    }
    views
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever hint each host passes (always "more", never, or the
    /// engine's), every primary and every backup ends a run of bursts
    /// with the balances and deposit statuses of the run without hints.
    #[test]
    fn prop_any_hint_pattern_reaches_the_hintless_state(
        bursts in proptest::collection::vec(0u64..300, 1..4),
        hints in proptest::collection::vec(0usize..3, 6),
    ) {
        // Bursts of 1 to 150, from node 0 (below 150) or node 1.
        let bursts: Vec<_> = bursts
            .iter()
            .map(|&b| if b < 150 { (b % 150 + 1, 0) } else { (0, b % 150 + 1) })
            .collect();
        let hints: Vec<_> = hints.iter().map(|&h| [Some(true), Some(false), None][h]).collect();
        let want = views_after(&bursts, &[Some(false); 6]);
        prop_assert_eq!(views_after(&bursts, &hints), want);
    }

    /// Two chained heads paying each other at once, each owing the other
    /// pays and acks: whatever hint each host passes, every delivered
    /// message opens (sequence order is send order), every payment
    /// completes exactly once, and every primary and backup ends in the
    /// state of the run without hints. This checks per-object state at
    /// quiescence, not linearizability.
    #[test]
    fn prop_two_way_bursts_between_chained_heads_keep_session_order(
        rounds in proptest::collection::vec(0u64..150 * 150, 1..4),
        hints in proptest::collection::vec(0usize..3, 6),
    ) {
        // 0 to 149 payments each way in every round.
        let rounds: Vec<_> = rounds.iter().map(|&r| (r / 150, r % 150)).collect();
        let hints: Vec<_> = hints.iter().map(|&h| [Some(true), Some(false), None][h]).collect();
        let want = views_after(&rounds, &[Some(false); 6]);
        prop_assert_eq!(views_after(&rounds, &hints), want);
    }
}
