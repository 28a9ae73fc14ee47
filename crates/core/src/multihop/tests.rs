//! The work and the bytes of a multi-hop payment's τ: how many
//! signatures and sighashes a payment costs, the τ every hop ends up
//! holding, and what a PreUpdate may attach to it.

use super::*;
use crate::enclave::Command;
use crate::ops::{MatchKey, OpError, OpId, OpOutput};
use crate::settle::SIGN_WORK;
use crate::testkit::{Cluster, ClusterConfig, Harness};
use crate::DurabilityBackend;
use proptest::prelude::*;
use teechain_blockchain::ScriptPubKey;
use teechain_crypto::schnorr::{self, Keypair};
use teechain_net::EngineKind;
use teechain_tee::EnclaveProgram;
use teechain_util::codec::Encode;
use teechain_util::hex;

const AMOUNT: u64 = 100;

/// A line p1 – p2 – p3 – p4 of channels each funded with 1,000 by its
/// left end under an `m`-of-n committee. One shard, so every enclave runs
/// on the test's thread and [`SIGN_WORK`] sees all of it.
fn line(durability: DurabilityBackend, m: u8) -> (Cluster, Vec<ChannelId>) {
    funded_line(durability, m, [1000; 3])
}

/// The same line, channel `i` funded with `funds[i]`.
fn funded_line(durability: DurabilityBackend, m: u8, funds: [u64; 3]) -> (Cluster, Vec<ChannelId>) {
    let mut c = Cluster::new(ClusterConfig {
        n: 4,
        durability,
        engine: EngineKind::Seq,
        ..ClusterConfig::default()
    });
    let chans = (0..3)
        .map(|i| c.standard_channel(i, i + 1, &format!("tau-{i}"), funds[i], m))
        .collect();
    (c, chans)
}

/// Starts a 3-hop payment of [`AMOUNT`] from p1 to p4 without running
/// the network, and returns its route and operation.
fn start(c: &mut Cluster, chans: &[ChannelId]) -> (RouteId, OpId) {
    let route = RouteId::from_label("tau");
    let op = c.submit(
        0,
        Command::PayMultihop {
            route,
            hops: c.ids[..4].to_vec(),
            channels: chans.to_vec(),
            amount: AMOUNT,
        },
    );
    (route, op)
}

fn program(c: &Cluster, i: usize) -> &TeechainEnclave {
    c.node(i).enclave.program().expect("enclave running")
}

/// Node `i`'s stored τ and stage for `route`.
fn tau_at(c: &Cluster, i: usize, route: &RouteId) -> (Option<Transaction>, MultihopStage) {
    let p = program(c, i);
    let tau = p.state.routes.get(route).and_then(|r| r.tau.clone());
    (tau, p.route_stage(route))
}

/// One 3-hop payment over 1-of-1 deposits signs each of τ's three inputs
/// once, hashes τ once per signing hop, and leaves every hop holding the
/// τ the clone-and-re-sign code produced, byte for byte. Lock and sign
/// are six messages; after three PreUpdates every hop holds the full τ.
#[test]
fn a_three_hop_payment_signs_each_input_once() {
    let (mut c, chans) = line(DurabilityBackend::None, 1);
    SIGN_WORK.with(|w| w.set((0, 0)));
    let (route, op) = start(&mut c, &chans);
    c.sim.run_to_idle(9);
    let (tau, stage) = tau_at(&c, 3, &route);
    let tau = tau.expect("p4 holds τ");
    assert_eq!(stage, MultihopStage::Update);
    for i in 0..3 {
        assert_eq!(tau_at(&c, i, &route).0.as_ref(), Some(&tau), "p{}", i + 1);
    }
    // Captured from the code that signed every input at every hop (6
    // signatures, 4 sighashes) and sent the whole τ in PreUpdate.
    assert_eq!(
        tau.txid().to_string(),
        "6c4205b720e865088e3e5837bb234f20b061c4433175a1ac466963420a556104"
    );
    assert!(tau.inputs.iter().all(|i| i.witness.len() == 1));
    let witnesses: Vec<u8> = tau
        .inputs
        .iter()
        .flat_map(|i| i.witness.encode_to_vec())
        .collect();
    assert_eq!(
        hex::encode(&teechain_crypto::sha256::sha256(&witnesses)),
        "60dfcd2392e1296a1cd0febd88569962ec61bacd290c0b794e4eb7f5b179879e"
    );
    c.settle_network();
    assert!(matches!(
        c.outcome(op),
        Some(Ok(OpOutput::MultihopDelivered(_)))
    ));
    // (signatures, sighashes): p4, p3 and p2 each sign one input; p1
    // finds every input signed and hashes nothing.
    assert_eq!(SIGN_WORK.with(|w| w.get()), (3, 3));
}

/// A PreUpdate whose witness lists do not match τ's inputs one for one
/// is refused and changes nothing; the real one then completes the
/// payment.
#[test]
fn a_pre_update_with_the_wrong_witness_count_is_refused() {
    let (mut c, chans) = line(DurabilityBackend::None, 1);
    let (route, _) = start(&mut c, &chans);
    // Lock and sign: p1 has sent the PreUpdate, p2 waits for it.
    c.sim.run_to_idle(6);
    let p1 = c.ids[0];
    let (p, _) = c.node_mut(1).enclave.compromise().expect("running");
    assert_eq!(p.route_stage(&route), MultihopStage::Sign);
    let before = p.durable_digest();
    for n in [0, 2, 4] {
        let got = p.on_mh_pre_update(p1, route, vec![vec![]; n]);
        assert_eq!(got.err(), Some(ProtocolError::BadMessage), "{n} lists");
        assert_eq!(p.durable_digest(), before, "{n} lists changed state");
        assert!(p.rep.staged.is_empty(), "{n} lists staged deltas");
    }
    c.settle_network();
    assert_eq!(c.balances(3, chans[2]), (AMOUNT, 1000 - AMOUNT));
}

/// A hop holding τ assembled from PreUpdate witnesses can eject with it,
/// and the chain accepts it: the intermediate p3 at PreUpdate, and the
/// terminal p4 as soon as it credited the payment and later in the
/// update pass. τ settles every channel of the path at post-payment
/// balances.
#[test]
fn a_hop_ejects_with_the_tau_it_assembled_from_witnesses() {
    for (hop, events, stage) in [
        (2, 8, MultihopStage::PreUpdate),
        (3, 9, MultihopStage::Update),
        (3, 11, MultihopStage::Update),
    ] {
        let (mut c, chans) = line(DurabilityBackend::None, 1);
        let (route, _) = start(&mut c, &chans);
        c.sim.run_to_idle(events);
        assert_eq!(tau_at(&c, hop, &route).1, stage, "p{}", hop + 1);
        let settlements: Vec<_> = (0..3)
            .map(|i| {
                let left = program(&c, i).channel(&chans[i]).unwrap();
                (left.my_settlement, left.remote_settlement)
            })
            .collect();
        c.op_now(hop, Command::Eject { route }).unwrap();
        c.mine(1);
        for (payer, payee) in settlements {
            assert_eq!(c.chain_balance(&payer), 1000 - AMOUNT, "p{}", hop + 1);
            assert_eq!(c.chain_balance(&payee), AMOUNT, "p{}", hop + 1);
        }
    }
}

/// A 3-hop payment over 2-of-3 committee deposits (replication mode, two
/// backups per hop). No hop holds two keys of a committee, so each payer
/// hop's committee co-signs its input before τ moves on; at p1 every
/// input carries exactly its threshold, the chain would accept τ, and the
/// payment completes.
#[test]
fn a_three_hop_payment_over_committee_deposits_completes() {
    let (mut c, chans) = line(DurabilityBackend::Replication { backups: 2 }, 2);
    let (route, op) = start(&mut c, &chans);
    while program(&c, 0).route_stage(&route) != MultihopStage::PreUpdate {
        assert_eq!(c.sim.run_to_idle(1), 1, "the sign pass stalled");
    }
    let tau = tau_at(&c, 0, &route).0.expect("p1 holds τ");
    {
        let chain = c.chain.lock();
        for input in &tau.inputs {
            let script = &chain.utxo(&input.prevout).expect("unspent").script;
            assert!(matches!(script, ScriptPubKey::Multisig { m: 2, keys } if keys.len() == 3));
            assert_eq!(input.witness.len(), 2);
        }
        chain.validate(&tau).expect("τ meets every threshold");
    }
    c.settle_network();
    assert!(matches!(
        c.outcome(op),
        Some(Ok(OpOutput::MultihopDelivered(_)))
    ));
    assert_eq!(c.balances(3, chans[2]), (AMOUNT, 1000 - AMOUNT));
}

/// Runs a 2-of-3 committee payment until p3 has signed its own deposit's
/// input and waits for its committee. Returns the co-sign request, the τ
/// it waits on, and the index of p3's input.
fn parked_at_p3(c: &mut Cluster, chans: &[ChannelId]) -> (u64, Transaction, usize) {
    start(c, chans);
    while program(c, 2).sig_collects.is_empty() {
        assert_eq!(c.sim.run_to_idle(1), 1, "p3 never asked to co-sign");
    }
    let (&req_id, collect) = program(c, 2).sig_collects.iter().next().unwrap();
    let tau = collect.tx.clone();
    let own = tau
        .inputs
        .iter()
        .position(|i| program(c, 2).state.book.mine.contains_key(&i.prevout))
        .expect("τ spends p3's deposit");
    (req_id, tau, own)
}

/// A co-signature on `tau` from p3's first backup: node 4 + 2 * 2
/// (primaries first, then two backups per primary).
fn backup_sig(c: &mut Cluster, tau: &Transaction) -> Signature {
    let (backup, _) = c.node_mut(8).enclave.compromise().expect("running");
    backup
        .rep
        .member
        .expect("committee member")
        .sign(&tau.sighash())
}

/// Delivers `sigs` to the chain head `p` as the `SigResponse` its backup
/// answers co-sign request `req_id` with.
fn answer(
    p: &mut TeechainEnclave,
    env: &mut EnclaveEnv,
    req_id: u64,
    sigs: Vec<(u32, Signature)>,
) -> Outcome {
    let backup = p.rep.backup.expect("a backup");
    let msg = ProtocolMsg::SigResponse {
        req_id,
        hops: 0,
        sigs,
        refused: false,
    };
    let effects = p.dispatch_protocol(env, backup, msg)?;
    p.finalize(env, effects)
}

/// A frozen hop refuses to continue a sign pass its committee co-signed:
/// continuing commits, so the answer passes the `Mutating` gate first.
#[test]
fn a_frozen_hop_does_not_continue_the_sign_pass() {
    let (mut c, chans) = line(DurabilityBackend::Replication { backups: 2 }, 2);
    let (req_id, tau, own) = parked_at_p3(&mut c, &chans);
    let sig = backup_sig(&mut c, &tau);
    let (p, env) = c.node_mut(2).enclave.compromise().expect("running");
    p.frozen = true;
    let before = p.durable_digest();
    let got = answer(p, env, req_id, vec![(own as u32, sig)]);
    assert_eq!(got.err(), Some(ProtocolError::Frozen));
    assert_eq!(p.durable_digest(), before);
    assert!(p.sig_collects.contains_key(&req_id));
}

/// A co-signature that no committee member made over τ is dropped: it neither moves the sign
/// pass on nor ends the wait, and the real co-signature still does.
#[test]
fn a_forged_co_signature_does_not_advance_the_sign_pass() {
    let (mut c, chans) = line(DurabilityBackend::Replication { backups: 2 }, 2);
    let (req_id, tau, own) = parked_at_p3(&mut c, &chans);
    let member = backup_sig(&mut c, &tau);
    let (backup, _) = c.node_mut(8).enclave.compromise().expect("running");
    let other_msg = backup.rep.member.unwrap().sign(b"not tau");
    let outsider = Keypair::from_seed(&[0x5a; 32]).sign(&tau.sighash());
    let (p, env) = c.node_mut(2).enclave.compromise().expect("running");
    let before = p.durable_digest();
    let forged = vec![(own as u32, outsider), (own as u32, other_msg)];
    let got = answer(p, env, req_id, forged);
    assert!(got.expect("accepted").is_empty());
    assert_eq!(p.durable_digest(), before);
    assert_eq!(p.sig_collects[&req_id].tx, tau);
    assert_eq!(
        p.route_stage(&RouteId::from_label("tau")),
        MultihopStage::Sign
    );
    let got = answer(p, env, req_id, vec![(own as u32, member)]);
    assert!(!got.expect("continues").is_empty());
    assert!(!p.sig_collects.contains_key(&req_id));
    assert_ne!(p.durable_digest(), before);
}

/// Ejecting while the sign pass waits for co-signatures ends the wait: a
/// late answer finds nothing to continue.
#[test]
fn an_eject_ends_the_co_sign_wait() {
    let (mut c, chans) = line(DurabilityBackend::Replication { backups: 2 }, 2);
    let (req_id, tau, own) = parked_at_p3(&mut c, &chans);
    let sig = backup_sig(&mut c, &tau);
    let route = RouteId::from_label("tau");
    let (p, env) = c.node_mut(2).enclave.compromise().expect("running");
    p.handle(env, Command::Eject { route }).expect("ejects");
    assert!(!p
        .sig_collects
        .values()
        .any(|c| matches!(c.then, CoSigned::SignPass { .. })));
    let got = answer(p, env, req_id, vec![(own as u32, sig)]);
    assert_eq!(got.err(), Some(ProtocolError::BadMessage));
}

/// The committee key of backup node `i`, read out of its compromised
/// enclave.
fn member_key(c: &mut Cluster, i: usize) -> Keypair {
    let (backup, _) = c.node_mut(i).enclave.compromise().expect("running");
    backup.rep.member.expect("committee member")
}

/// `key`'s two valid signatures over `msg`: the one [`Keypair::sign`]
/// makes, and one with another nonce — which only a compromised signer
/// makes, since an honest one signs deterministically.
fn sign_twice(key: &Keypair, msg: &[u8; 32]) -> [Signature; 2] {
    use teechain_crypto::{modarith::fn_order, point::base_mul, sha256::tagged_hash};
    let f = fn_order();
    let k = f.from_bytes(&tagged_hash("test/another-nonce", &[msg]));
    let r = base_mul(&k).to_affine().expect("a nonzero nonce");
    let e = tagged_hash(
        "teechain/challenge",
        &[&r.to_bytes(), &key.pk.to_bytes(), msg],
    );
    let x = f.from_bytes(&key.sk.to_bytes());
    let again = Signature {
        r,
        s: f.add(&k, &f.mul(&f.from_bytes(&e), &x)),
    };
    let sigs = [key.sign(msg), again];
    assert!(sigs[0] != sigs[1] && sigs.iter().all(|s| schnorr::verify(&key.pk, msg, s)));
    sigs
}

/// A committee member that signs one transaction twice, with two nonces,
/// counts once toward the threshold, as the chain's multisig counts it.
/// On 3-of-4 committee deposits the hop's own signature and one member's
/// two are three signatures from two keys, and the chain refuses them:
/// the sign pass keeps waiting on τ, and a settlement, whose request the
/// chain answers once, fails instead of being broadcast.
#[test]
fn a_member_that_signs_twice_counts_once() {
    let backups = DurabilityBackend::Replication { backups: 3 };
    // τ at p3, whose first backup is node 4 + 2 * 3.
    let (mut c, chans) = line(backups, 3);
    let (req_id, tau, own) = parked_at_p3(&mut c, &chans);
    let sighash = tau.sighash();
    let twice = sign_twice(&member_key(&mut c, 10), &sighash);
    let script = c
        .chain
        .lock()
        .utxo(&tau.inputs[own].prevout)
        .unwrap()
        .script
        .clone();
    let mut witness = tau.inputs[own].witness.clone();
    witness.extend(twice);
    assert_eq!((witness.len(), script.required_sigs()), (3, 3));
    assert!(!script.verify_witness_at(&sighash, &witness, u64::MAX));
    let (p, env) = c.node_mut(2).enclave.compromise().expect("running");
    let sigs = twice.map(|sig| (own as u32, sig)).to_vec();
    let got = answer(p, env, req_id, sigs);
    assert!(got.expect("accepted").is_empty(), "τ passed on");
    assert_eq!(p.sig_collects[&req_id].tx.inputs[own].witness.len(), 2);
    assert_eq!(
        p.route_stage(&RouteId::from_label("tau")),
        MultihopStage::Sign
    );

    // A settlement at p1, whose first backup is node 4.
    let (mut c, chans) = line(backups, 3);
    c.pay(0, chans[0], AMOUNT).unwrap();
    c.submit(0, Command::Settle { id: chans[0] });
    let (&req_id, collect) = program(&c, 0)
        .sig_collects
        .iter()
        .next()
        .expect("co-signing");
    let mut forged = collect.tx.clone();
    let twice = sign_twice(&member_key(&mut c, 4), &forged.sighash());
    forged.inputs[0].witness.extend(twice);
    assert_eq!(forged.inputs[0].witness.len(), 3);
    assert!(c.chain.lock().validate(&forged).is_err());
    let (p, env) = c.node_mut(0).enclave.compromise().expect("running");
    let sigs = twice.map(|sig| (0, sig)).to_vec();
    let got = answer(p, env, req_id, sigs).expect("accepted");
    // The chain's one answer left the settlement short: it fails, typed,
    // and nothing is broadcast.
    assert!(
        matches!(
            got[..],
            [Effect::Done {
                key: MatchKey::Settle(id),
                outcome: Err(OpError::Remote(ProtocolError::ReplicationError)),
            }] if id == chans[0]
        ),
        "{got:?}"
    );
    assert!(!p.sig_collects.contains_key(&req_id));
}

// ---- Queued multihops on one path share one route ----

/// Submits at p1, without running the network, a payment of `amount`
/// from p1 over `hops` hops, routed by id `label`.
fn pay_over(c: &mut Cluster, chans: &[ChannelId], hops: usize, label: &str, amount: u64) -> OpId {
    c.submit(
        0,
        Command::PayMultihop {
            route: RouteId::from_label(label),
            hops: c.ids[..=hops].to_vec(),
            channels: chans[..hops].to_vec(),
            amount,
        },
    )
}

/// What each of p1's `ops` ended with: the amount it delivered, or its
/// failure. Panics unless each completed exactly once, and a delivery
/// names its own route.
fn ended_once(c: &Cluster, ops: &[(OpId, &str)]) -> Vec<Result<u64, OpError>> {
    ops.iter()
        .map(|&(op, label)| {
            let done: Vec<_> = c.completions(0).iter().filter(|d| d.op == op).collect();
            assert_eq!(done.len(), 1, "{label} completed {} times", done.len());
            match &done[0].outcome {
                Ok(OpOutput::MultihopDelivered(d)) => {
                    assert_eq!(d.route, RouteId::from_label(label));
                    Ok(d.amount)
                }
                Ok(other) => panic!("{label} completed with {other:?}"),
                Err(e) => Err(e.clone()),
            }
        })
        .collect()
}

/// Both ends' balances of every channel of the line.
fn hop_balances(c: &Cluster, chans: &[ChannelId]) -> Vec<[(u64, u64); 2]> {
    (0..3)
        .map(|i| [c.balances(i, chans[i]), c.balances(i + 1, chans[i])])
        .collect()
}

/// What a run of payments left behind.
struct Ran {
    /// Each payment's end: `Some(amount)` delivered, `None` failed.
    ends: Vec<Option<u64>>,
    /// Every hop's balances.
    balances: Vec<[(u64, u64); 2]>,
    /// The most payments one route carried.
    max_batch: u64,
}

/// Runs `pays` (hops, amount) from p1 over a line funded with `funds`,
/// as one burst or one payment per `settle_network`.
fn run_pays(funds: [u64; 3], pays: &[(usize, u64)], burst: bool) -> Ran {
    let (mut c, chans) = funded_line(DurabilityBackend::None, 1, funds);
    let labels: Vec<String> = (0..pays.len()).map(|k| format!("pay-{k}")).collect();
    let mut ops = Vec::new();
    for (&(hops, amount), label) in pays.iter().zip(&labels) {
        ops.push((
            pay_over(&mut c, &chans, hops, label, amount),
            label.as_str(),
        ));
        if !burst {
            c.settle_network();
        }
    }
    c.settle_network();
    Ran {
        ends: ended_once(&c, &ops).into_iter().map(Result::ok).collect(),
        balances: hop_balances(&c, &chans),
        max_batch: program(&c, 0).admit.stats.max_batch,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// 1–12 multihops of 1–8 from p1, most to p4 and about one in six to
    /// p3 (a different path, which ends a shared run), end the same
    /// whether they arrive as one burst, which the drain shares out, or
    /// one at a time: the same payments are delivered, each exactly
    /// once, and every hop holds the same balances. p1 and p2 cannot
    /// cover every burst, so some payments fail, at p1 or at p2.
    #[test]
    fn prop_a_burst_ends_as_one_payment_at_a_time(
        pays in proptest::collection::vec(0u64..48, 1..13),
    ) {
        let pays: Vec<(usize, u64)> = pays
            .iter()
            .map(|&p| (if p < 8 { 2 } else { 3 }, p % 8 + 1))
            .collect();
        let funds = [60, 40, 1000];
        let burst = run_pays(funds, &pays, true);
        let one = run_pays(funds, &pays, false);
        prop_assert_eq!(one.max_batch, 0);
        prop_assert_eq!(burst.ends, one.ends);
        prop_assert_eq!(burst.balances, one.balances);
    }
}

/// p2 covers each queued payment but not their sum: the shared route
/// aborts at p2, splits back into payments that run alone, and each ends
/// as it does unbatched — the first two delivered, the third refused.
#[test]
fn a_hop_that_cannot_cover_the_sum_ends_each_member_as_unbatched() {
    let pays = [(3, 4), (3, 3), (3, 3), (3, 3)];
    let funds = [1000, 10, 1000];
    let burst = run_pays(funds, &pays, true);
    assert_eq!(
        burst.max_batch, 3,
        "the three queued payments shared a route"
    );
    assert_eq!(burst.ends, [Some(4), Some(3), Some(3), None]);
    let one = run_pays(funds, &pays, false);
    assert_eq!((burst.ends, burst.balances), (one.ends, one.balances));
}

/// A shared route that loses wait-die at p2 is re-queued whole, and the
/// drain that restarts it extends it with the payments queued behind
/// it: every member is delivered exactly once, with its own amount.
#[test]
fn a_requeued_shared_route_is_extended_and_every_member_completes_once() {
    let (mut c, chans) = line(DurabilityBackend::None, 1);
    // p2's own route over c1 holds it for twelve messages; its id is the
    // oldest, so routes arriving at p2 meanwhile abort.
    let older = c.submit(
        1,
        Command::PayMultihop {
            route: RouteId([0; 32]),
            hops: c.ids[1..4].to_vec(),
            channels: chans[1..].to_vec(),
            amount: 50,
        },
    );
    // A one-hop route holds c0 for six, while three payments queue.
    let mut ops = vec![(pay_over(&mut c, &chans, 1, "hold-0", 1), "hold-0")];
    for (k, label) in ["a-1", "a-2", "a-3"].into_iter().enumerate() {
        ops.push((pay_over(&mut c, &chans, 3, label, k as u64 + 2), label));
    }
    while program(&c, 0).admit.stats.requeued == 0 {
        assert_eq!(c.sim.run_to_idle(1), 1, "no route was re-queued");
    }
    let shared = RouteId::from_label("a-1");
    assert_eq!(program(&c, 0).admit.shared[&shared].len(), 3);
    // While it backs off, c0 is held again and two more payments queue
    // behind it.
    ops.push((pay_over(&mut c, &chans, 1, "hold-1", 1), "hold-1"));
    for (k, label) in ["a-4", "a-5"].into_iter().enumerate() {
        ops.push((pay_over(&mut c, &chans, 3, label, k as u64 + 5), label));
    }
    c.settle_network();
    let ends = ended_once(&c, &ops);
    assert_eq!(ends, [1, 2, 3, 4, 1, 5, 6].map(Ok));
    assert!(matches!(
        c.outcome(older),
        Some(Ok(OpOutput::MultihopDelivered(_)))
    ));
    let stats = &program(&c, 0).admit.stats;
    assert_eq!((stats.requeued, stats.max_batch), (1, 5));
    assert!(program(&c, 0).admit.shared.is_empty());
    assert_eq!(c.balances(3, chans[2]), (50 + 20, 1000 - 70));
}

/// Runs a burst of four 3-hop payments until the three queued behind the
/// first share a route at p1 that has reached `stage`. Returns the
/// operations and the shared route's id.
fn shared_in_flight(
    c: &mut Cluster,
    chans: &[ChannelId],
    stage: MultihopStage,
) -> (Vec<(OpId, &'static str)>, RouteId) {
    let ops: Vec<_> = [("b-1", 10), ("b-2", 20), ("b-3", 30), ("b-4", 40)]
        .into_iter()
        .map(|(label, amount)| (pay_over(c, chans, 3, label, amount), label))
        .collect();
    let route = RouteId::from_label("b-2");
    while program(c, 0).route_stage(&route) != stage {
        assert_eq!(c.sim.run_to_idle(1), 1, "the shared route stalled");
    }
    assert_eq!(program(c, 0).admit.shared[&route].len(), 3);
    (ops, route)
}

/// A payment that names a member of a shared route in flight is refused
/// as one naming a live route is, and changes nothing.
#[test]
fn a_payment_reusing_a_members_id_is_refused() {
    let (mut c, chans) = line(DurabilityBackend::None, 1);
    let (ops, _) = shared_in_flight(&mut c, &chans, MultihopStage::Lock);
    let before = program(&c, 0).durable_digest();
    let got = c.op_now(
        0,
        Command::PayMultihop {
            route: RouteId::from_label("b-3"),
            hops: c.ids[..4].to_vec(),
            channels: chans.clone(),
            amount: 1,
        },
    );
    assert_eq!(got.err(), Some(OpError::Rejected(ProtocolError::BadStage)));
    assert_eq!(program(&c, 0).durable_digest(), before);
    c.settle_network();
    assert_eq!(ended_once(&c, &ops), [10, 20, 30, 40].map(Ok));
}

/// p1 crashes in persist mode while a shared route holds τ: each member
/// resolves once, as dead, and the recovered p1 ejects with τ, which the
/// chain accepts and which settles every channel of the path with the
/// members' sum paid.
#[test]
fn a_crash_mid_shared_route_resolves_each_member_once_and_ejects_the_sum() {
    let persist = DurabilityBackend::Persist(crate::PersistPolicy {
        snapshot_every: 1000,
    });
    let (mut c, chans) = line(persist, 1);
    let (ops, route) = shared_in_flight(&mut c, &chans, MultihopStage::PreUpdate);
    c.crash_node(0);
    c.settle_network();
    let ends = ended_once(&c, &ops);
    assert_eq!(ends[0], Ok(10));
    for (end, (_, label)) in ends.iter().zip(&ops).skip(1) {
        assert!(
            matches!(end, Err(OpError::Timeout { .. })),
            "{label}: {end:?}"
        );
    }
    c.recover_node(0).unwrap();
    let tau = tau_at(&c, 0, &route).0.expect("p1 holds τ");
    c.chain.lock().validate(&tau).expect("the chain accepts τ");
    let settlements: Vec<_> = (0..3)
        .map(|i| {
            let left = program(&c, i).channel(&chans[i]).unwrap();
            (left.my_settlement, left.remote_settlement)
        })
        .collect();
    c.op_now(0, Command::Eject { route }).unwrap();
    c.mine(1);
    // The first payment (10) was delivered before the crash; τ moves the
    // members' 20 + 30 + 40 on top of it, on every channel.
    for (payer, payee) in settlements {
        assert_eq!(c.chain_balance(&payer), 1000 - 100);
        assert_eq!(c.chain_balance(&payee), 100);
    }
    // The recovery and the eject completed no member a second time.
    ended_once(&c, &ops);
}

/// A queued shared route expires member by member: only the member past
/// its own deadline fails, and the entry that carries the rest is keyed
/// by the oldest remaining member, with their sum and earliest deadline.
#[test]
fn a_queued_shared_route_expires_member_by_member() {
    let (mut c, chans) = line(DurabilityBackend::None, 1);
    // Hold c0, so the pump expires the queue and drains nothing.
    pay_over(&mut c, &chans, 1, "hold", 1);
    let hops = c.ids[..4].to_vec();
    let (p, env) = c.node_mut(0).enclave.compromise().expect("running");
    let now = env.now_ns();
    let member = |label, amount, deadline_ns| crate::admit::Member {
        route: RouteId::from_label(label),
        amount,
        deadline_ns,
    };
    let members = vec![
        member("m-1", 1, now - 1),
        member("m-2", 2, now + 2_000),
        member("m-3", 3, now + 1_000),
    ];
    let entry = p
        .shared_entry(members, hops, chans.clone(), false, 0)
        .unwrap();
    assert_eq!(entry.deadline_ns, now - 1);
    p.admit.queues.entry(chans[0]).or_default().push_back(entry);
    let got = p.cmd_pump_admission(env).expect("pumped");
    let failed: Vec<_> = got
        .iter()
        .filter_map(|e| match e {
            Effect::Done { key, outcome } => Some((*key, outcome.clone())),
            _ => None,
        })
        .collect();
    let locked = Err(OpError::Remote(ProtocolError::ChannelLocked));
    assert_eq!(
        failed,
        [(MatchKey::Multihop(RouteId::from_label("m-1")), locked)]
    );
    assert_eq!(p.admit.stats.expired, 1);
    let rest = &p.admit.queues[&chans[0]][0];
    assert_eq!(rest.deadline_ns, now + 1_000);
    let crate::admit::QueuedOp::Multihop { route, amount, .. } = rest.op else {
        panic!("a multihop entry");
    };
    assert_eq!((route, amount), (RouteId::from_label("m-2"), 5));
    assert_eq!(p.admit.shared[&route].len(), 2);
}
