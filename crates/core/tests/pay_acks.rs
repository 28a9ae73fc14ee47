//! Cumulative payment acks: a payee seals one `PayAck` for every `Pay`
//! its queued input delivered on a channel, at most `ACK_EVERY` of them.
//! Bursts around the bound complete exactly once; a nack sealed while
//! acks are owed (a multihop locked the channel midway through a burst)
//! does not overtake them, nor does a settlement; and a replicated
//! payee's acks wait for its chain, so a tail that crashed while the
//! acks were owed keeps them in. Only a host that says more messages are
//! queued leaves a node owing past its input, so that test gives the tail
//! a host that always says so ([`HintedHost`]).

use std::collections::BTreeMap;
use teechain::enclave::Command;
use teechain::ops::{OpError, OpOutput};
use teechain::replication::ACK_EVERY;
use teechain::testkit::{Cluster, ClusterConfig, ClusterNode, HintedHost};
use teechain::{ChannelId, DurabilityBackend, ProtocolError, RouteId};
use teechain_net::{NodeAction, NodeId};

const FUNDS: u64 = 1_000_000;

fn counter<N: ClusterNode>(c: &Cluster<N>, i: usize, name: &str) -> u64 {
    let snap = c.node(i).registry().snapshot();
    snap.counters.get(name).copied().unwrap_or(0)
}

fn pay(chan: ChannelId, amount: u64) -> Command {
    Command::Pay {
        id: chan,
        amount,
        count: 1,
    }
}

/// Completions per op sequence number on node `i`: each must be there
/// exactly once.
fn completed_once(c: &Cluster, i: usize) -> BTreeMap<u64, Result<OpOutput, OpError>> {
    let mut by_seq = BTreeMap::new();
    for done in c.completions(i) {
        let dup = by_seq.insert(done.op.seq, done.outcome.clone());
        assert!(dup.is_none(), "op {} completed twice", done.op.seq);
    }
    by_seq
}

fn applied(outcome: &Result<OpOutput, OpError>) -> Option<u64> {
    match outcome {
        Ok(OpOutput::PaymentApplied(p)) => Some(p.amount),
        _ => None,
    }
}

#[test]
fn bursts_around_the_bound_complete_once_and_ack_cumulatively() {
    for burst in [1, ACK_EVERY - 1, ACK_EVERY, ACK_EVERY + 1, 200] {
        let mut c = Cluster::functional(2);
        let chan = c.standard_channel(0, 1, "burst", FUNDS, 1);
        c.node_mut(0).completions.clear();
        let acks = counter(&c, 1, "pay.acks_sent");
        // The whole burst leaves the payer at one instant and reaches the
        // payee at the next, so every delivery but the last has more
        // input behind it.
        let ops: Vec<u64> = (0..burst).map(|_| c.submit(0, pay(chan, 1)).seq).collect();
        c.settle_network();
        let done = completed_once(&c, 0);
        assert_eq!(done.len(), ops.len(), "burst {burst}");
        assert!(
            done.values().all(|o| applied(o) == Some(1)),
            "burst {burst}"
        );
        assert_eq!(c.balances(0, chan), (FUNDS - burst, burst));
        assert_eq!(c.balances(1, chan), (burst, FUNDS - burst));
        assert_eq!(
            counter(&c, 1, "pay.acks_sent") - acks,
            burst.div_ceil(ACK_EVERY),
            "burst {burst}"
        );
    }
}

#[test]
fn a_nack_sealed_midway_through_a_burst_does_not_overtake_the_owed_ack() {
    // Node 0 pays node 1 over c01; node 2's multihop 2 → 1 → 0 locks c01
    // at node 1 in the middle of the burst. Node 1 is busy meanwhile, so
    // the burst's head, the lock and the burst's tail all queue in its
    // inbox and are handled as one run of input: the head's acks are
    // owed when the lock arrives, and the tail overflows the deferral
    // queue, which refuses its oldest pays, in order, to make room.
    const HEAD: u64 = 5;
    const OVERFLOW: u64 = 3;
    let tail = teechain::admit::ADMIT_QUEUE_CAP as u64 + OVERFLOW;
    let mut c = Cluster::functional(3);
    let c01 = c.standard_channel(0, 1, "c01", FUNDS, 1);
    let c21 = c.standard_channel(2, 1, "c21", 1_000, 1);
    c.node_mut(0).completions.clear();
    c.node_mut(2).completions.clear();
    c.sim.call(NodeId(1), |_, ctx| ctx.busy(1_000_000));
    // Distinct amounts: an outcome fanned out to the wrong op shows.
    let mut amounts = BTreeMap::new();
    let mut submit = |c: &mut Cluster, k: u64| {
        for _ in 0..k {
            let amount = amounts.len() as u64 + 1;
            amounts.insert(c.submit(0, pay(c01, amount)).seq, amount);
        }
    };
    submit(&mut c, HEAD);
    let t = c.sim.now_ns();
    c.sim.run_until(t + 10);
    let hops = vec![c.ids[2], c.ids[1], c.ids[0]];
    let mh = c.submit(
        2,
        Command::PayMultihop {
            route: RouteId([7; 32]),
            hops,
            channels: vec![c21, c01],
            amount: 1,
        },
    );
    c.sim.run_until(t + 20);
    submit(&mut c, tail);
    c.settle_network();

    assert!(matches!(c.outcome(mh), Some(Ok(_))), "{:?}", c.outcome(mh));
    assert_eq!(counter(&c, 1, "admit.deferred"), tail);
    let done = completed_once(&c, 0);
    assert_eq!(done.len(), amounts.len());
    let mut paid = 0;
    for (i, (seq, amount)) in amounts.iter().enumerate() {
        let outcome = &done[seq];
        let refused = (HEAD..HEAD + OVERFLOW).contains(&(i as u64));
        if !refused {
            assert_eq!(applied(outcome), Some(*amount), "op {i}: {outcome:?}");
            paid += amount;
        } else {
            assert!(
                matches!(outcome, Err(OpError::Remote(ProtocolError::ChannelLocked))),
                "op {i}: {outcome:?}"
            );
        }
    }
    assert!(c.node(0).delivery_errors.is_empty());
    // The multihop moved 1 from node 1 to node 0 on c01.
    assert_eq!(c.balances(0, c01), (FUNDS - paid + 1, paid - 1));
    assert_eq!(c.balances(1, c01), (paid - 1, FUNDS - paid + 1));
}

/// The frames a handler sent, with their destinations, in order.
fn sent(actions: Vec<NodeAction>) -> Vec<(NodeId, Vec<u8>)> {
    actions
        .into_iter()
        .filter_map(|a| match a {
            NodeAction::Send { to, msg } => Some((to, msg)),
            _ => None,
        })
        .collect()
}

#[test]
fn a_settlement_in_the_same_instant_as_owed_acks_goes_after_them() {
    const BURST: u64 = 3;
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "settle", FUNDS, 1);
    c.node_mut(0).completions.clear();
    // The test plays both hosts: the payer's burst, then the payee's
    // deliveries with more input behind each, then a settlement the
    // payee's host issues in the same instant.
    let pays: Vec<Vec<u8>> = (0..BURST)
        .flat_map(|_| {
            let (_, actions) = c.drive_node(0, false, |n, ctx| {
                n.submit_op(ctx, pay(chan, 1), None);
            });
            sent(actions).into_iter().map(|(_, msg)| msg)
        })
        .collect();
    assert_eq!(pays.len() as u64, BURST);
    for msg in pays {
        let (_, actions) = c.drive_node(1, true, |n, ctx| n.handle_wire(ctx, NodeId(0), msg));
        assert!(sent(actions).is_empty(), "the acks are owed");
    }
    let (_, actions) = c.drive_node(1, false, |n, ctx| {
        n.submit_op(ctx, Command::Settle { id: chan }, None);
    });
    let frames = sent(actions);
    assert!(frames.len() >= 2, "an ack and the settlement's notice");
    // The first frame alone completes the whole burst: it is the ack.
    let mut frames = frames.into_iter();
    let (to, first) = frames.next().unwrap();
    assert_eq!(to, NodeId(0));
    c.drive_node(0, false, |n, ctx| n.handle_wire(ctx, NodeId(1), first));
    let done = completed_once(&c, 0);
    assert_eq!(done.len() as u64, BURST);
    assert!(done.values().all(|o| applied(o) == Some(1)), "{done:?}");
    for (to, msg) in frames {
        c.drive_node(to.0 as usize, false, |n, ctx| {
            n.handle_wire(ctx, NodeId(1), msg)
        });
    }
    assert!(c.node(0).delivery_errors.is_empty());
    assert_eq!(completed_once(&c, 0).len() as u64, BURST);
}

#[test]
fn a_payee_tail_crashed_while_acks_are_owed_holds_them() {
    // The payee's host passes the engine's hint, so the last delivery
    // commits the run as one update, seals the ack and holds it with that
    // update; or says "more messages" with every message, so the payee
    // holds the run and owes the ack until its next other ecall, which
    // commits the run as its own update and adds the ack to it.
    for more in [None, Some(true)] {
        tail_crash_holds_the_acks(more);
    }
}

/// Runs the network one nanosecond at a time until `done` holds.
fn run_until<N: ClusterNode>(c: &mut Cluster<N>, done: impl Fn(&Cluster<N>) -> bool) {
    for _ in 0..1_000 {
        if done(c) {
            return;
        }
        let t = c.sim.now_ns() + 1;
        c.sim.run_until(t);
    }
    panic!("the network never got there");
}

fn tail_crash_holds_the_acks(more: Option<bool>) {
    // Primaries 0 and 1 with two backups each: 0 → 2 → 3 and 1 → 4 → 5.
    const PAYEE_TAIL: usize = 5;
    const BURST: u64 = 10;
    let cfg = ClusterConfig {
        durability: DurabilityBackend::Replication { backups: 2 },
        ..ClusterConfig::default()
    };
    let mut c: Cluster<HintedHost> = Cluster::build(cfg, None);
    let chan = c.standard_channel(0, 1, "held", FUNDS, 2);
    c.node_mut(0).completions.clear();
    c.sim.node_mut(NodeId(1)).more = more;
    c.sim.node_mut(NodeId(PAYEE_TAIL as u32)).more = Some(true);
    let base = counter(&c, PAYEE_TAIL, "repl.updates_applied");
    let tail_acks = counter(&c, PAYEE_TAIL, "repl.acks_sent");
    for _ in 0..BURST {
        c.submit(0, pay(chan, 1));
    }
    // Run until the payee has applied the burst.
    run_until(&mut c, |c| c.balances(1, chan).0 == BURST);
    if more == Some(true) {
        // The payee's head holds the run's deltas and owes its ack: its
        // next other ecall commits them as one update, seals the ack and
        // holds it with that update.
        assert_eq!(counter(&c, 1, "pay.acks_sent"), 0, "the ack is owed");
        let applied = counter(&c, PAYEE_TAIL, "repl.updates_applied");
        assert_eq!(applied, base, "the head holds the run");
        c.submit(1, Command::GetIdentity);
    }
    // Run until the payee's tail has applied the run's one head update,
    // and no further: the tail owes its chain ack, so the payee's
    // cumulative `PayAck` is still held.
    run_until(&mut c, |c| {
        counter(c, PAYEE_TAIL, "repl.updates_applied") > base
    });
    assert_eq!(
        counter(&c, PAYEE_TAIL, "repl.updates_applied"),
        base + 1,
        "{more:?}: the run is one head update"
    );
    assert_eq!(counter(&c, PAYEE_TAIL, "repl.acks_sent"), tail_acks);
    assert_eq!(
        counter(&c, 1, "pay.acks_sent"),
        1,
        "{more:?}: one ack sealed"
    );
    c.crash_node(PAYEE_TAIL);
    c.settle_network();
    // The payee was credited, but no ack left it: every payment was
    // declared dead at quiescence.
    assert_eq!(c.balances(1, chan), (BURST, FUNDS - BURST));
    assert_eq!(c.node(0).completions.len() as u64, BURST);
    for done in &c.node(0).completions {
        assert!(
            matches!(done.outcome, Err(OpError::Timeout { .. })),
            "{more:?}: {:?}",
            done.outcome
        );
    }
}

/// The frames of `k` payments of 1 the payer seals, driven by hand.
fn pays_by_hand(c: &mut Cluster, chan: ChannelId, k: u64) -> Vec<Vec<u8>> {
    (0..k)
        .flat_map(|_| {
            let (_, actions) = c.drive_node(0, false, |n, ctx| {
                n.submit_op(ctx, pay(chan, 1), None);
            });
            sent(actions).into_iter().map(|(_, msg)| msg)
        })
        .collect()
}

#[test]
fn a_held_run_whose_last_message_makes_no_ecall_still_releases_the_ack() {
    // The run's last message reaches no successful ecall: the enclave
    // refuses it, whether it does not parse or is a replayed `Pay`. Its
    // host pumps the enclave at once, which seals the owed ack in the same
    // turn.
    const BURST: u64 = 3;
    for last in ["unparseable", "refused"] {
        let mut c = Cluster::functional(2);
        let chan = c.standard_channel(0, 1, "no-ecall", FUNDS, 1);
        c.node_mut(0).completions.clear();
        let pays = pays_by_hand(&mut c, chan, BURST);
        let last_frame = match last {
            "unparseable" => Vec::new(),
            _ => pays[0].clone(),
        };
        for msg in pays {
            let (_, actions) = c.drive_node(1, true, |n, ctx| n.handle_wire(ctx, NodeId(0), msg));
            assert!(sent(actions).is_empty(), "{last}: the acks are owed");
        }
        let (_, actions) =
            c.drive_node(1, false, |n, ctx| n.handle_wire(ctx, NodeId(0), last_frame));
        assert_eq!(c.node(1).delivery_errors.len(), 1, "{last}");
        let frames = sent(actions);
        assert_eq!(frames.len(), 1, "{last}: the ack");
        let (to, ack) = frames.into_iter().next().unwrap();
        assert_eq!(to, NodeId(0));
        c.drive_node(0, false, |n, ctx| n.handle_wire(ctx, NodeId(1), ack));
        let done = completed_once(&c, 0);
        assert_eq!(done.len() as u64, BURST, "{last}");
        assert!(done.values().all(|o| applied(o) == Some(1)), "{last}");
    }
}

#[test]
fn garbage_behind_a_burst_releases_the_ack_at_its_arrival() {
    // Through the simulator's own host: the garbage follows the burst on
    // the same link, so it reaches the payee at the same instant, last.
    const BURST: u64 = 3;
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "garbage", FUNDS, 1);
    c.node_mut(0).completions.clear();
    let acks = counter(&c, 1, "pay.acks_sent");
    for _ in 0..BURST {
        c.submit(0, pay(chan, 1));
    }
    c.sim
        .call(NodeId(0), |_, ctx| ctx.send(NodeId(1), Vec::new()));
    let arrival = c.sim.now_ns() + 1;
    c.sim.run_until(arrival);
    assert_eq!(counter(&c, 1, "pay.acks_sent") - acks, 1);
    c.settle_network();
    let done = completed_once(&c, 0);
    assert_eq!(done.len() as u64, BURST);
    assert!(done.values().all(|o| applied(o) == Some(1)));
}
