//! The work and the bytes of a multi-hop payment's τ: how many
//! signatures and sighashes a payment costs, the τ every hop ends up
//! holding, and what a PreUpdate may attach to it.

use super::*;
use crate::enclave::Command;
use crate::ops::{MatchKey, OpError, OpId, OpOutput};
use crate::settle::SIGN_WORK;
use crate::testkit::{Cluster, ClusterConfig, Harness};
use crate::DurabilityBackend;
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
    let mut c = Cluster::new(ClusterConfig {
        n: 4,
        durability,
        engine: EngineKind::Seq,
        ..ClusterConfig::default()
    });
    let chans = (0..3)
        .map(|i| c.standard_channel(i, i + 1, &format!("tau-{i}"), 1000, m))
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
