//! Cross-chain HTLC atomic swap conformance: adversarial schedules,
//! crash injection at phase boundaries with WAL-replay recovery, and a
//! property-based interleaving fuzz asserting the two-chain conservation
//! invariant.
//!
//! The protocol under test is [`teechain::swap`]: an initiator trades
//! Teechain channel balance against an HTLC locked on a second,
//! independent chain. The suite drives it through the public operation
//! API only — adversarial behaviour is injected via the host knobs
//! (`swap_withhold_funding`, `swap_withhold_verify`), crash/recover, and
//! explicit mining of the alternate chain.

use proptest::prelude::*;
use proptest::TestCaseError;
use teechain::enclave::Command;
use teechain::ops::OpError;
use teechain::swap::SwapPhase;
use teechain::testkit::{Cluster, ClusterConfig, Harness};
use teechain::types::SwapId;
use teechain::{DurabilityBackend, PersistPolicy, ProtocolError};

fn persist_cluster(n: usize, snapshot_every: u32) -> Cluster {
    Cluster::new(ClusterConfig {
        n,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every }),
        ..ClusterConfig::default()
    })
}

/// The swap phase node `i` records for `swap`, if it knows the swap.
fn phase(c: &Cluster, i: usize, swap: &SwapId) -> Option<SwapPhase> {
    c.node(i)
        .enclave
        .program()
        .and_then(|p| p.swap_state(swap))
        .map(|s| s.phase)
}

/// How many swaps node `i`'s enclave resolved (`swap.resolved`) — the
/// exactly-once observable: the host's counter survives enclave crashes,
/// and each cluster below drives one swap.
fn resolved_count(c: &Cluster, i: usize) -> u64 {
    c.node(i).registry().counter_value("swap.resolved")
}

/// Steps the simulation in 10 ms increments until `pred` holds, up to
/// `max_ms`. Needed in persist clusters: the monotonic-counter throttle
/// can park an operation for 100 ms+ before the enclave accepts it, so
/// phase transitions have no fixed wall-clock offset from submission.
fn run_until_true(c: &mut Cluster, max_ms: u64, mut pred: impl FnMut(&Cluster) -> bool) -> bool {
    for _ in 0..max_ms.div_ceil(10) {
        if pred(c) {
            return true;
        }
        let t = c.sim.now_ns() + 10_000_000;
        c.sim.run_until(t);
    }
    pred(c)
}

#[test]
fn happy_path_redeems_on_both_chains() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-happy", 1_000, 1);
    let out = c.swap(0, chan, "happy", 250, 500, 5).unwrap();
    assert!(out.redeemed, "cooperative swap redeems");
    // Channel side: the initiator's debit is the responder's credit.
    assert_eq!(c.balances(0, chan), (750, 250));
    assert_eq!(c.balances(1, chan), (250, 750));
    // Alternate chain side: the claim pays the initiator's identity key.
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[0]), 500);
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[1]), 0);
    // Both parties reached a terminal phase, exactly once.
    let swap = SwapId::from_label("happy");
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Redeemed));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Redeemed));
    assert_eq!(resolved_count(&c, 0), 1);
    assert_eq!(resolved_count(&c, 1), 1);
    // The channel is fully usable afterwards.
    c.pay(0, chan, 100).unwrap();
    assert_eq!(c.balances(0, chan), (650, 350));
}

#[test]
fn secret_withheld_past_timeout_refunds_both_sides() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-withhold", 1_000, 1);
    // The initiator's host never verifies the HTLC, so the enclave never
    // reveals the secret: the canonical griefing attempt.
    c.node_mut(0).swap_withhold_verify = true;
    let out = c.swap(0, chan, "withheld", 250, 500, 5).unwrap();
    assert!(!out.redeemed, "withheld secret ends in refund");
    let swap = SwapId::from_label("withheld");
    // Initiator refunded locally at its deadline; the responder waited
    // out the HTLC timelock and reclaimed on-chain.
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Refunded));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    // Channel balances are untouched...
    assert_eq!(c.balances(0, chan), (1_000, 0));
    assert_eq!(c.balances(1, chan), (0, 1_000));
    // ...and the responder's alternate-chain funds came back to it.
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[0]), 0);
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[1]), 500);
    assert_eq!(resolved_count(&c, 0), 1);
    assert_eq!(resolved_count(&c, 1), 1);
    // The channel unfreezes for normal use.
    c.pay(0, chan, 40).unwrap();
    assert_eq!(c.balances(0, chan), (960, 40));
}

#[test]
fn responder_never_funds_refunds_both_sides_locally() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-nofund", 1_000, 1);
    c.node_mut(1).swap_withhold_funding = true;
    let out = c.swap(0, chan, "nofund", 250, 500, 5).unwrap();
    assert!(!out.redeemed);
    let swap = SwapId::from_label("nofund");
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Refunded));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    assert_eq!(c.balances(0, chan), (1_000, 0));
    // Nothing ever reached the alternate chain.
    assert_eq!(c.chain2.lock().utxo_total(), 0);
}

/// The HTLC script the responder on node `i` committed to for `swap`.
fn responder_script(c: &Cluster, i: usize, swap: &SwapId) -> teechain_blockchain::ScriptPubKey {
    c.node(i)
        .enclave
        .program()
        .and_then(|p| p.swap_state(swap))
        .map(|s| s.htlc_script(&c.ids[i]))
        .expect("responder staged the swap")
}

#[test]
fn mature_htlc_delivered_late_is_refused_and_both_refund() {
    // A malicious responder host funds the HTLC but sits on the funding
    // report until the refund timelock has matured, hoping the initiator
    // debits the channel and reveals the secret while the responder can
    // already win the claim-vs-refund race on the alternate chain. The
    // enclave must refuse: confirmations are reported with the
    // verification, and a lock without timelock headroom never extracts
    // the secret.
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-late", 1_000, 1);
    let swap = SwapId::from_label("late");
    c.node_mut(1).swap_withhold_funding = true;
    let p = c.handle(0).swap(chan, "late", 250, 500, 5);
    assert!(
        run_until_true(&mut c, 1_000, |c| phase(c, 0, &swap)
            == Some(SwapPhase::Init)
            && phase(c, 1, &swap) == Some(SwapPhase::Init)),
        "swap parked at Init on both sides"
    );
    // Fund exactly the committed script, then let the refund path mature
    // before the responder's enclave ever hears about the funding.
    let outpoint = c.chain2.lock().mint(responder_script(&c, 1, &swap), 500);
    c.chain2.lock().mine_blocks(5);
    c.submit(1, Command::SwapFunded { swap, outpoint });
    let out = c.wait(p).unwrap();
    assert!(!out.redeemed, "late mature lock must not redeem");
    // No channel movement, no claim, and the secret never left the
    // initiator's enclave; the responder reclaimed its HTLC on-chain.
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Refunded));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    assert_eq!(c.balances(0, chan), (1_000, 0));
    assert_eq!(c.balances(1, chan), (0, 1_000));
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[0]), 0, "no claim");
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[1]), 500, "refund");
    assert_eq!(resolved_count(&c, 0), 1);
    assert_eq!(resolved_count(&c, 1), 1);
}

#[test]
fn late_funding_after_refund_reclaims_stranded_htlc() {
    // The stranded-funding race: the responder aborts at its deadline
    // with no outpoint on record (the funding report was delayed — e.g.
    // a counter-throttled replay after a crash in the funding window),
    // yet the HTLC is already minted on-chain. The late SwapFunded must
    // not be dropped: the enclave adopts the outpoint and its chain
    // watch drives the timelocked reclaim.
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-stranded", 1_000, 1);
    let swap = SwapId::from_label("stranded");
    c.node_mut(1).swap_withhold_funding = true;
    let out = c.swap(0, chan, "stranded", 250, 500, 5).unwrap();
    assert!(!out.redeemed);
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    // The delayed funding report lands only now, on an already-refunded
    // swap backed by a real on-chain lock.
    let outpoint = c.chain2.lock().mint(responder_script(&c, 1, &swap), 500);
    c.submit(1, Command::SwapFunded { swap, outpoint });
    c.settle_network();
    // The minted value is not stranded: the responder waited out the
    // timelock and reclaimed it, and the late adoption did not
    // re-resolve the already-terminal swap.
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[1]), 500);
    assert_eq!(c.chain2.lock().utxo_total(), 500);
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    assert_eq!(resolved_count(&c, 1), 1);
    assert_eq!(c.balances(1, chan), (0, 1_000), "no channel movement");
}

#[test]
fn premature_settle_while_swap_pending_is_rejected() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-grief", 1_000, 1);
    // Submit the swap but do not run the network: the initiator's swap
    // entry is staged synchronously, so a settle racing it must bounce.
    let p = c.handle(0).swap(chan, "grief", 250, 500, 5);
    let refused = c.op_now(0, Command::Settle { id: chan });
    assert!(
        matches!(refused, Err(OpError::Rejected(ProtocolError::SwapPending))),
        "settle during a pending swap must be refused: {refused:?}"
    );
    // The swap itself is unharmed by the settle attempt...
    let out = c.wait(p).unwrap();
    assert!(out.redeemed);
    // ...and once it is terminal, settlement proceeds normally.
    c.settle_channel(0, chan).unwrap();
}

#[test]
fn remote_settle_request_while_swap_pending_is_rejected() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-grief2", 1_000, 1);
    let swap = SwapId::from_label("grief2");
    // Stage a swap at the initiator only (no network has run), then have
    // the *responder* — which has not yet heard of the swap — push a
    // settlement. Its SettleRequest reaches an enclave with a pending
    // swap and is refused at the door; the swap still reaches a terminal
    // phase on its own.
    let p = c.handle(0).swap(chan, "grief2", 250, 500, 5);
    let settle_op = c.submit(1, Command::Settle { id: chan });
    c.settle_network();
    assert!(
        c.node(0)
            .delivery_errors
            .iter()
            .any(|e| matches!(e, ProtocolError::SwapPending)),
        "initiator's enclave refused the remote settle request"
    );
    // The responder's settle never completed: no terminal event arrived.
    let settled = c.wait::<teechain::ops::OpOutput>(c.pending(settle_op));
    assert!(
        matches!(settled, Err(OpError::Timeout { .. })),
        "remote-rejected settle must not report success: {settled:?}"
    );
    // The swap itself reached a terminal phase — it was not stranded by
    // the settle attempt racing it.
    c.wait(p).unwrap();
    assert!(!phase(&c, 0, &swap).unwrap().pending());
    assert_eq!(resolved_count(&c, 0), 1);
}

#[test]
fn crash_at_init_boundary_recovers_and_refunds_exactly_once() {
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "swap-crash-init", 1_000, 1);
    let swap = SwapId::from_label("crash-init");
    // Hold the responder at Init (it stores the swap, host never funds),
    // then kill the initiator with the swap staged and WAL-committed.
    c.node_mut(1).swap_withhold_funding = true;
    let p = c.handle(0).swap(chan, "crash-init", 250, 500, 5);
    assert!(
        run_until_true(&mut c, 1_000, |c| phase(c, 0, &swap)
            == Some(SwapPhase::Init)
            && phase(c, 1, &swap) == Some(SwapPhase::Init)),
        "swap parked at Init on both sides"
    );
    c.crash_node(0);
    c.settle_network();
    // The swap operation died with the enclave; the *swap* did not.
    assert!(matches!(c.wait(p), Err(OpError::Timeout { .. }) | Ok(_)));
    c.recover_node(0).unwrap();
    // Recovery replayed the WAL: the Init-phase swap is back, and the
    // recovered enclave re-armed its own deadline check.
    c.settle_network();
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Refunded));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    assert_eq!(c.balances(0, chan), (1_000, 0), "no value moved");
    assert_eq!(resolved_count(&c, 0), 1, "exactly-once on 0");
    assert_eq!(resolved_count(&c, 1), 1, "exactly-once on 1");
}

#[test]
fn crash_at_locked_boundary_recovers_and_refunds_on_chain() {
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "swap-crash-lock", 1_000, 1);
    let swap = SwapId::from_label("crash-lock");
    // Hold the initiator at Locked (host never verifies), then kill the
    // responder with its HTLC live on the alternate chain.
    c.node_mut(0).swap_withhold_verify = true;
    let p = c.handle(0).swap(chan, "crash-lock", 250, 500, 5);
    assert!(
        run_until_true(&mut c, 1_000, |c| phase(c, 0, &swap)
            == Some(SwapPhase::Locked)
            && phase(c, 1, &swap) == Some(SwapPhase::Locked)),
        "swap parked at Locked on both sides"
    );
    assert_eq!(c.chain2.lock().utxo_total(), 500, "HTLC is live");
    c.crash_node(1);
    let t = c.sim.now_ns() + 50_000_000;
    c.sim.run_until(t);
    c.recover_node(1).unwrap();
    c.settle_network();
    c.wait(p).unwrap();
    // Initiator aborted locally at its deadline; the recovered responder
    // watched the chain, waited out the timelock and reclaimed.
    assert_eq!(phase(&c, 0, &swap), Some(SwapPhase::Refunded));
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Refunded));
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[1]), 500);
    assert_eq!(c.balances(0, chan), (1_000, 0));
    assert_eq!(resolved_count(&c, 1), 1, "exactly-once on 1");
}

#[test]
fn crash_at_redeemed_boundary_responder_learns_secret_from_chain() {
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "swap-crash-redeem", 1_000, 1);
    let swap = SwapId::from_label("crash-redeem");
    // Park both sides at Locked, crash the responder, then let the
    // initiator commit: the claim lands on the alternate chain but the
    // SwapSecret message is lost with the dead responder.
    c.node_mut(0).swap_withhold_verify = true;
    let p = c.handle(0).swap(chan, "crash-redeem", 250, 500, 5);
    assert!(
        run_until_true(&mut c, 1_000, |c| phase(c, 1, &swap)
            == Some(SwapPhase::Locked)),
        "responder parked at Locked"
    );
    c.crash_node(1);
    let t = c.sim.now_ns() + 10_000_000;
    c.sim.run_until(t);
    // The host-side verification the adversary withheld, re-driven
    // explicitly: the initiator redeems while its peer is dead.
    c.node_mut(0).swap_withhold_verify = false;
    let outpoint = c
        .node(0)
        .enclave
        .program()
        .and_then(|p| p.swap_state(&swap))
        .and_then(|s| s.htlc_outpoint)
        .expect("locked swap records its outpoint");
    let confirmations = c.chain2.lock().confirmations(&outpoint.txid);
    c.submit(
        0,
        Command::SwapHtlcVerified {
            swap,
            valid: true,
            confirmations,
        },
    );
    assert!(
        run_until_true(&mut c, 1_000, |c| phase(c, 0, &swap)
            == Some(SwapPhase::Redeemed)),
        "initiator committed while its peer is dead"
    );
    assert_eq!(c.chain2.lock().balance_p2pk(&c.ids[0]), 500, "claim landed");
    c.wait(p).unwrap();
    // Recovery replays the WAL to Locked; the chain-watch tick finds the
    // confirmed claim, extracts the preimage and credits the channel —
    // the exactly-once redeem on the responder side.
    c.recover_node(1).unwrap();
    c.settle_network();
    assert_eq!(phase(&c, 1, &swap), Some(SwapPhase::Redeemed));
    assert_eq!(c.balances(1, chan), (250, 750), "responder credited once");
    assert_eq!(c.balances(0, chan), (750, 250));
    assert_eq!(resolved_count(&c, 1), 1, "exactly-once on 1");
}

#[test]
fn recovery_is_idempotent_across_double_crash() {
    // Crash, recover, crash again before anything new commits, recover
    // again: WAL replay must not double-apply the swap's Pay delta.
    let mut c = persist_cluster(2, 4);
    let chan = c.standard_channel(0, 1, "swap-double", 1_000, 1);
    let out = c.swap(0, chan, "double", 300, 600, 5).unwrap();
    assert!(out.redeemed);
    for _ in 0..2 {
        c.crash_node(0);
        c.settle_network();
        c.recover_node(0).unwrap();
        c.settle_network();
        assert_eq!(c.balances(0, chan), (700, 300), "no double-apply");
        assert_eq!(
            phase(&c, 0, &SwapId::from_label("double")),
            Some(SwapPhase::Redeemed)
        );
    }
    // The recovered state is live: re-handshake and keep paying.
    c.connect(0, 1);
    c.pay(0, chan, 100).unwrap();
    assert_eq!(c.balances(0, chan), (600, 400));
}

#[test]
fn duplicate_swap_id_and_concurrent_swap_on_channel_rejected() {
    let mut c = Cluster::functional(2);
    let chan = c.standard_channel(0, 1, "swap-dup", 1_000, 1);
    let out = c.swap(0, chan, "dup", 100, 200, 5).unwrap();
    assert!(out.redeemed);
    // Same SwapId again: refused outright.
    let again = c.swap(0, chan, "dup", 100, 200, 5);
    assert!(
        matches!(again, Err(OpError::Rejected(ProtocolError::BadMessage))),
        "{again:?}"
    );
    // Two swaps racing on one channel: the second is refused while the
    // first is pending.
    let _p1 = c.handle(0).swap(chan, "race-a", 100, 200, 5);
    let p2 = c.handle(0).swap(chan, "race-b", 100, 200, 5);
    let err = c.wait(p2).unwrap_err();
    assert!(
        matches!(err, OpError::Rejected(ProtocolError::SwapPending)),
        "{err:?}"
    );
}

// ---- Property-based interleaving fuzz ----
//
// A randomized schedule: adversarial withholding on either side,
// optional crash of either party at a random early instant, recovery,
// then run to quiescence. Whatever happened, the two-chain conservation
// invariant must hold: channel value is conserved, the responder redeems
// only if the initiator committed, no swap stays pending, and the
// alternate-chain HTLC resolves to exactly one owner.

#[derive(Debug, Clone)]
struct Schedule {
    amount: u64,
    alt_amount: u64,
    timeout_blocks: u64,
    withhold_verify: bool,
    withhold_funding: bool,
    /// 0 = none, 1 = crash initiator, 2 = crash responder.
    crash: u8,
    /// When to crash, in ms after submission (before the 2s deadline).
    crash_at_ms: u64,
    seed: u64,
}

fn run_schedule(s: &Schedule) -> Result<(), TestCaseError> {
    const FUNDING: u64 = 1_000;
    let mut c = Cluster::new(ClusterConfig {
        n: 2,
        durability: DurabilityBackend::Persist(PersistPolicy { snapshot_every: 4 }),
        seed: s.seed,
        ..ClusterConfig::default()
    });
    let chan = c.standard_channel(0, 1, "swap-fuzz", FUNDING, 1);
    c.node_mut(0).swap_withhold_verify = s.withhold_verify;
    c.node_mut(1).swap_withhold_funding = s.withhold_funding;
    let swap = SwapId::from_label("fuzz");
    let _p = c
        .handle(0)
        .swap(chan, "fuzz", s.amount, s.alt_amount, s.timeout_blocks);
    if s.crash > 0 {
        let t = c.sim.now_ns() + s.crash_at_ms * 1_000_000;
        c.sim.run_until(t);
        let victim = if s.crash == 1 { 0 } else { 1 };
        c.crash_node(victim);
        c.sim.run_until(t + 100_000_000);
        c.recover_node(victim)
            .map_err(|e| TestCaseError::Fail(format!("recovery failed: {e:?}")))?;
    }
    c.settle_network();
    // Drain any refund/chain-watch tail the first quiescence left armed.
    c.settle_network();

    let init = phase(&c, 0, &swap);
    let resp = phase(&c, 1, &swap);
    if init.is_none() {
        // An initiator crash destroyed the operation before the enclave
        // accepted it (the command was parked on the host's counter
        // throttle, which does not survive a crash): the swap never
        // existed anywhere, so nothing may have moved.
        prop_assert!(
            resp.is_none(),
            "responder knows a swap the initiator never staged"
        );
        prop_assert_eq!(c.balances(0, chan), (FUNDING, 0));
        prop_assert_eq!(c.chain2.lock().utxo_total(), 0);
        return Ok(());
    }
    for (who, p) in [("initiator", init), ("responder", resp)] {
        if let Some(p) = p {
            prop_assert!(!p.pending(), "{} still pending: {:?}", who, p);
        }
    }
    if resp == Some(SwapPhase::Redeemed) {
        prop_assert_eq!(init, Some(SwapPhase::Redeemed));
    }
    // Channel conservation, from both views.
    let (my0, remote0) = c.balances(0, chan);
    let (my1, remote1) = c.balances(1, chan);
    prop_assert_eq!(my0 + remote0, FUNDING);
    prop_assert_eq!(my1 + remote1, FUNDING);
    // Atomicity: the initiator's debit tracks its recorded outcome, and
    // each party's channel movement matches its terminal phase.
    match init {
        Some(SwapPhase::Redeemed) => prop_assert_eq!(my0, FUNDING - s.amount),
        _ => prop_assert_eq!(my0, FUNDING),
    }
    match resp {
        Some(SwapPhase::Redeemed) => prop_assert_eq!(my1, s.amount),
        _ => prop_assert_eq!(my1, 0),
    }
    // Alternate-chain conservation: whatever was minted into the HTLC is
    // owned by exactly one party (or still locked under an unspendable
    // orphan if the swap aborted pre-Lock — never both).
    let claimed = c.chain2.lock().balance_p2pk(&c.ids[0]);
    let refunded = c.chain2.lock().balance_p2pk(&c.ids[1]);
    prop_assert!(
        !(claimed > 0 && refunded > 0),
        "HTLC resolved to both parties: claimed={} refunded={}",
        claimed,
        refunded
    );
    if init == Some(SwapPhase::Redeemed) {
        prop_assert_eq!(claimed, s.alt_amount);
    }
    if resp == Some(SwapPhase::Refunded) {
        // A responder that locked an HTLC reclaims it; one that never
        // funded has nothing on chain. Either way it never loses value.
        prop_assert!(refunded == s.alt_amount || c.chain2.lock().utxo_total() == 0 || claimed > 0);
    }
    // Exactly-once resolution on every party that knows the swap.
    prop_assert!(resolved_count(&c, 0) <= 1);
    prop_assert!(resolved_count(&c, 1) <= 1);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_holds_under_random_schedules(
        amount in 1u64..401,
        alt_amount in 1u64..401,
        timeout_blocks in 1u64..7,
        withhold_verify in any::<bool>(),
        withhold_funding in any::<bool>(),
        crash in 0u8..3,
        crash_at_ms in 0u64..301,
        seed in 1u64..100_000,
    ) {
        run_schedule(&Schedule {
            amount,
            alt_amount,
            timeout_blocks,
            withhold_verify,
            withhold_funding,
            crash,
            crash_at_ms,
            seed,
        })?;
    }
}
