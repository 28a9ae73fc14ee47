//! End-to-end protocol tests over the simulated network and blockchain,
//! driven through the typed operation API (submit → `Completion`).

use teechain::enclave::Command;
use teechain::ops::{OpError, OpOutput, SettleKind};
use teechain::testkit::{Cluster, Harness};
use teechain::types::MultihopStage;
use teechain::{ChannelId, ProtocolError};

#[test]
fn session_establishment() {
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    assert_eq!(c.node(0).enclave.program().unwrap().session_count(), 1);
    assert_eq!(c.node(1).enclave.program().unwrap().session_count(), 1);
}

#[test]
fn channel_opens_in_both_directions() {
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    let id = c.open_channel(0, 1, "c1");
    for i in [0, 1] {
        let chan = c.node(i).enclave.program().unwrap().channel(&id).unwrap();
        assert!(chan.is_open);
        assert_eq!(chan.my_bal, 0);
    }
}

#[test]
fn deposit_approval_and_association() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    assert_eq!(c.balances(0, chan), (1000, 0));
    assert_eq!(c.balances(1, chan), (0, 1000));
}

#[test]
fn simple_payments_move_balances() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    // The completion IS the acknowledgement (the paper's latency
    // endpoint): typed, exactly once.
    let receipt = c.pay(0, chan, 300).unwrap();
    assert_eq!(
        (receipt.chan, receipt.amount, receipt.count),
        (chan, 300, 1)
    );
    assert_eq!(c.balances(0, chan), (700, 300));
    assert_eq!(c.balances(1, chan), (300, 700));
    // Pay back.
    let receipt = c.pay(1, chan, 100).unwrap();
    assert_eq!(receipt.amount, 100);
    assert_eq!(c.balances(0, chan), (800, 200));
}

#[test]
fn overspend_rejected() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 100, 1);
    assert_eq!(
        c.pay(0, chan, 101).unwrap_err(),
        OpError::Rejected(ProtocolError::InsufficientBalance)
    );
    assert_eq!(c.balances(0, chan), (100, 0));
}

#[test]
fn bidirectional_funding() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 500, 1);
    // Node 1 funds its side too.
    let dep = c.fund_deposit(1, 700, 1);
    c.approve_and_associate(1, 0, chan, &dep);
    assert_eq!(c.balances(0, chan), (500, 700));
    assert_eq!(c.balances(1, chan), (700, 500));
}

#[test]
fn dissociation_returns_deposit() {
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    let chan = c.open_channel(0, 1, "c1");
    let dep = c.fund_deposit(0, 400, 1);
    c.approve_and_associate(0, 1, chan, &dep);
    assert_eq!(c.balances(0, chan), (400, 0));
    let p = c.handle(0).dissociate_deposit(chan, dep.outpoint);
    let out = c.wait(p).unwrap();
    assert_eq!(
        out,
        OpOutput::DepositDissociated {
            chan,
            outpoint: dep.outpoint
        }
    );
    assert_eq!(c.balances(0, chan), (0, 0));
}

#[test]
fn dissociation_blocked_when_balance_spent() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 400, 1);
    c.pay(0, chan, 350).unwrap();
    // Our balance (50) no longer covers the 400 deposit: double-spend guard.
    let outpoint = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_deps[0]
    };
    assert_eq!(
        c.op(0, Command::DissociateDeposit { id: chan, outpoint })
            .unwrap_err(),
        OpError::Rejected(ProtocolError::InsufficientBalance)
    );
}

#[test]
fn deposit_rebalancing_between_channels() {
    // §4.1 payment deposit rebalancing: move a deposit from one channel
    // to another without touching the blockchain.
    let mut c = Cluster::functional(3);
    c.connect(0, 1);
    c.connect(0, 2);
    let c01 = c.open_channel(0, 1, "c01");
    let c02 = c.open_channel(0, 2, "c02");
    let dep = c.fund_deposit(0, 500, 1);
    c.approve_and_associate(0, 1, c01, &dep);
    assert_eq!(c.balances(0, c01), (500, 0));
    let p = c.handle(0).dissociate_deposit(c01, dep.outpoint);
    c.wait(p).unwrap();
    // Now associate the same deposit with the other channel.
    c.approve_and_associate(0, 2, c02, &dep);
    assert_eq!(c.balances(0, c02), (500, 0));
    // No blockchain transactions beyond the original funding mint.
    assert_eq!(c.node(0).broadcasts.len(), 0);
}

#[test]
fn on_chain_settlement_pays_correct_balances() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    c.pay(0, chan, 250).unwrap();
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    let their_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().remote_settlement
    };
    let s = c.settle_channel(0, chan).unwrap();
    assert!(
        matches!(s.kind, SettleKind::OnChain(_)),
        "moved balances settle on chain: {s:?}"
    );
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 750);
    assert_eq!(c.chain_balance(&their_settle), 250);
    // Exactly one settlement transaction was broadcast.
    assert_eq!(c.node(0).broadcasts.len(), 1);
}

#[test]
fn neutral_channel_settles_off_chain() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 1000, 1);
    // Pay and pay back: balances return to neutral.
    c.pay(0, chan, 400).unwrap();
    c.pay(1, chan, 400).unwrap();
    let s = c.settle_channel(0, chan).unwrap();
    assert_eq!(s.kind, SettleKind::OffChain, "neutral channel: {s:?}");
    // No blockchain writes: termination was purely off-chain (§4.1),
    // placing 0 transactions instead of a settlement.
    assert_eq!(c.node(0).broadcasts.len(), 0);
    assert_eq!(c.node(1).broadcasts.len(), 0);
    assert_eq!(c.balances(0, chan), (0, 0));
}

#[test]
fn unilateral_settlement_without_counterparty() {
    // Balance correctness: node 0 reclaims funds even if node 1 vanishes.
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 600, 1);
    c.pay(0, chan, 100).unwrap();
    // Node 1's host dies (we simply stop delivering to it: settle runs
    // locally and broadcasts without any cooperation).
    let my_settle = {
        let p = c.node(0).enclave.program().unwrap();
        p.channel(&chan).unwrap().my_settlement
    };
    // The settle operation completes on the local broadcast — no
    // counterparty cooperation involved.
    let s = c.settle_channel(0, chan).unwrap();
    assert!(matches!(s.kind, SettleKind::OnChain(_)));
    c.mine(1);
    assert_eq!(c.chain_balance(&my_settle), 500);
}

#[test]
fn payments_after_settle_rejected() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "c1", 100, 1);
    // Neutral balances (nothing was ever paid): the settle terminates
    // off-chain, leaving an empty channel that can no longer pay.
    let s = c.settle_channel(0, chan).unwrap();
    assert_eq!(s.kind, SettleKind::OffChain);
    assert_eq!(
        c.pay(0, chan, 10).unwrap_err(),
        OpError::Rejected(ProtocolError::InsufficientBalance)
    );
}

// ---- Multi-hop payments ----

fn three_hop_cluster() -> (Cluster, ChannelId, ChannelId) {
    let mut c = Cluster::functional(3);
    let c01 = c.standard_channel(0, 1, "c01", 1000, 1);
    let c12 = c.standard_channel(1, 2, "c12", 1000, 1);
    (c, c01, c12)
}

#[test]
fn multihop_payment_completes() {
    let (mut c, c01, c12) = three_hop_cluster();
    // The typed completion reports end-to-end delivery at p1.
    let d = c.pay_multihop(&[0, 1, 2], &[c01, c12], 250, "r1").unwrap();
    assert_eq!(d.amount, 250);
    // p1 paid, p2 forwarded, p3 received.
    assert_eq!(c.balances(0, c01), (750, 250));
    assert_eq!(c.balances(1, c01), (250, 750));
    assert_eq!(c.balances(1, c12), (750, 250));
    assert_eq!(c.balances(2, c12), (250, 750));
    // Channels unlocked again.
    for (i, ch) in [(0usize, c01), (1, c01), (1, c12), (2, c12)] {
        let stage = c
            .node(i)
            .enclave
            .program()
            .unwrap()
            .channel(&ch)
            .unwrap()
            .stage;
        assert_eq!(stage, MultihopStage::Idle);
    }
}

#[test]
fn multihop_insufficient_balance_aborts_cleanly() {
    let (mut c, c01, c12) = three_hop_cluster();
    // Drain the middle hop's forwarding balance.
    c.pay(1, c12, 950).unwrap();
    // The abort unwinds backward carrying the intermediary's real
    // refusal reason, which becomes the operation's typed error.
    assert_eq!(
        c.pay_multihop(&[0, 1, 2], &[c01, c12], 500, "r2")
            .unwrap_err(),
        OpError::Remote(ProtocolError::InsufficientBalance)
    );
    // Balances unchanged and channels unlocked.
    assert_eq!(c.balances(0, c01), (1000, 0));
    let stage = c
        .node(0)
        .enclave
        .program()
        .unwrap()
        .channel(&c01)
        .unwrap()
        .stage;
    assert_eq!(stage, MultihopStage::Idle);
}

#[test]
fn multihop_sequential_payments_share_channels() {
    let (mut c, c01, c12) = three_hop_cluster();
    for k in 0..5 {
        c.pay_multihop(&[0, 1, 2], &[c01, c12], 50, &format!("r{k}"))
            .unwrap();
    }
    assert_eq!(c.balances(0, c01), (750, 250));
    assert_eq!(c.balances(2, c12), (250, 750));
}

#[test]
fn single_channel_pay_queued_while_locked() {
    // A channel in an in-flight multi-hop payment no longer refuses
    // ordinary pays: the enclave parks them on the per-channel admission
    // queue and applies them when the lock releases.
    let (mut c, c01, c12) = three_hop_cluster();
    // Start a multihop but do NOT resolve it yet: the lock is applied
    // synchronously at submission, so the channel is already locked.
    let route = teechain::RouteId([9; 32]);
    let hops = vec![c.ids[0], c.ids[1], c.ids[2]];
    let mh = c.submit(
        0,
        Command::PayMultihop {
            route,
            hops,
            channels: vec![c01, c12],
            amount: 10,
        },
    );
    // The racing direct pay queues inside the enclave...
    let pay = c.submit(
        0,
        Command::Pay {
            id: c01,
            amount: 5,
            count: 1,
        },
    );
    let enqueued = c
        .node(0)
        .enclave
        .program()
        .map(|p| p.admit_stats().enqueued)
        .unwrap();
    assert!(enqueued >= 1, "direct pay parked on the admission queue");
    // ...and both operations resolve with their typed success once the
    // network runs: the lock release drains the queue.
    c.wait::<teechain::ops::Delivered>(c.pending(mh)).unwrap();
    c.wait::<teechain::ops::Payment>(c.pending(pay)).unwrap();
    assert_eq!(c.balances(0, c01), (985, 15));
}

#[test]
fn longer_path_multihop() {
    let mut c = Cluster::functional(5);
    let mut chans = Vec::new();
    for i in 0..4 {
        chans.push(c.standard_channel(i, i + 1, &format!("c{i}"), 1000, 1));
    }
    c.pay_multihop(&[0, 1, 2, 3, 4], &chans, 123, "long")
        .unwrap();
    assert_eq!(c.balances(4, chans[3]), (123, 877));
    assert_eq!(c.balances(0, chans[0]), (877, 123));
    // Intermediate nodes net zero: +123 on the inbound channel, -123 on
    // the outbound one, against 1000 of own collateral in the outbound.
    for i in 1..4 {
        let (in_my, _) = c.balances(i, chans[i - 1]);
        let (out_my, _) = c.balances(i, chans[i]);
        assert_eq!(in_my, 123);
        assert_eq!(out_my, 877);
    }
}
