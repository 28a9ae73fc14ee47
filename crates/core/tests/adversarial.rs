//! Adversarial inputs: malformed wire bytes, cross-session replay, and
//! the §5.2 temporary-channel lifecycle.

use proptest::prelude::*;
use teechain::enclave::Command;
use teechain::ops::{OpError, SettleKind};
use teechain::testkit::{Cluster, Harness};

#[test]
fn junk_wire_bytes_never_panic() {
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    // Deliver assorted garbage straight into the enclave.
    for len in [0usize, 1, 2, 16, 64, 300] {
        let junk: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
        let _ = c.op_now(0, Command::Deliver { wire: junk, at: 0 });
    }
    // The enclave still works.
    let chan = c.standard_channel(0, 1, "after-junk", 100, 1);
    c.pay(0, chan, 10).unwrap();
    assert_eq!(c.balances(0, chan), (90, 10));
}

#[test]
fn cross_session_replay_rejected() {
    // A message sealed for the A↔B session must not be accepted by C,
    // even though C runs the identical enclave build (state-forking
    // defence, §4.1).
    let mut c = Cluster::functional(3);
    c.connect(0, 1);
    c.connect(0, 2);
    let chan = c.standard_channel(0, 1, "ab", 100, 1);
    // Capture the wire bytes of a payment from A to B by replaying the
    // effect: easiest via a fresh payment whose Send effect we intercept.
    // Here we simply deliver B-bound traffic to C by asking A's enclave
    // for the message and handing it to C's enclave directly.
    let msg_for_b = {
        let node0 = c.node_mut(0);
        let outcome = node0
            .enclave
            .call(
                0,
                Command::Pay {
                    id: chan,
                    amount: 5,
                    count: 1,
                },
            )
            .unwrap()
            .unwrap();
        outcome
            .into_iter()
            .find_map(|e| match e {
                teechain::Effect::Send { wire, .. } => Some(wire),
                _ => None,
            })
            .expect("payment message")
    };
    // C cannot decrypt or accept it: a typed local rejection.
    let err = c
        .op_now(
            2,
            Command::Deliver {
                wire: msg_for_b,
                at: 0,
            },
        )
        .unwrap_err();
    assert!(matches!(
        err.protocol_error(),
        Some(teechain::ProtocolError::NoSession | teechain::ProtocolError::BadMessage)
    ));
}

#[test]
fn duplicate_delivery_rejected_once_consumed() {
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    let chan = c.standard_channel(0, 1, "dup", 100, 1);
    let msg_for_b = {
        let node0 = c.node_mut(0);
        let outcome = node0
            .enclave
            .call(
                0,
                Command::Pay {
                    id: chan,
                    amount: 5,
                    count: 1,
                },
            )
            .unwrap()
            .unwrap();
        outcome
            .into_iter()
            .find_map(|e| match e {
                teechain::Effect::Send { wire, .. } => Some(wire),
                _ => None,
            })
            .expect("payment message")
    };
    // First delivery applies; replaying it is rejected (strict seq).
    c.op_now(
        1,
        Command::Deliver {
            wire: msg_for_b.clone(),
            at: 0,
        },
    )
    .unwrap();
    let err = c
        .op_now(
            1,
            Command::Deliver {
                wire: msg_for_b,
                at: 0,
            },
        )
        .unwrap_err();
    assert_eq!(err, OpError::Rejected(teechain::ProtocolError::BadMessage));
    // The balance moved exactly once.
    assert_eq!(c.balances(1, chan).0, 5);
}

#[test]
fn hostile_sealed_headers_are_typed_errors_and_change_nothing() {
    // The enclave reads a sealed envelope's header where it lies. Whatever
    // the header claims — a sender that is no curve point, a length past the
    // end, an offset outside the buffer — the answer is a typed error, the
    // session's sequence number stays put and the genuine message still
    // applies afterwards.
    let mut c = Cluster::functional(2);
    c.connect(0, 1);
    let chan = c.standard_channel(0, 1, "hdr", 100, 1);
    let genuine = {
        let outcome = c
            .node_mut(0)
            .enclave
            .call(
                0,
                Command::Pay {
                    id: chan,
                    amount: 5,
                    count: 1,
                },
            )
            .unwrap()
            .unwrap();
        outcome
            .into_iter()
            .find_map(|e| match e {
                teechain::Effect::Send { wire, .. } => Some(wire),
                _ => None,
            })
            .expect("payment message")
    };
    let rejected = |c: &mut Cluster, wire: Vec<u8>, at: usize| {
        let err = c.op_now(1, Command::Deliver { wire, at }).unwrap_err();
        err.protocol_error().cloned().expect("a typed rejection")
    };
    use teechain::ProtocolError::{BadMessage, NoSession};
    // `from` is bytes 1..65. Not a curve point: no session is keyed by it.
    let mut off_curve = genuine.clone();
    off_curve[1..65].copy_from_slice(&[3; 64]);
    assert_eq!(rejected(&mut c, off_curve, 0), NoSession);
    // A curve point, but nobody this enclave shook hands with.
    let mut stranger = genuine.clone();
    let pk = teechain_crypto::schnorr::Keypair::from_seed(&[0x77; 32]).pk;
    stranger[1..65].copy_from_slice(&pk.to_bytes());
    assert_eq!(rejected(&mut c, stranger, 0), NoSession);
    // The ciphertext's length (bytes 79..83) claims more, or less.
    for delta in [1u32, 0x100, u32::MAX / 2] {
        for claim in [delta.wrapping_neg(), delta] {
            let mut bad = genuine.clone();
            let len = u32::from_le_bytes(bad[79..83].try_into().unwrap());
            bad[79..83].copy_from_slice(&len.wrapping_add(claim).to_le_bytes());
            assert_eq!(rejected(&mut c, bad, 0), BadMessage);
        }
    }
    // Unknown tag, every truncation, an offset at and past the end.
    let mut bad_tag = genuine.clone();
    bad_tag[0] = 9;
    assert_eq!(rejected(&mut c, bad_tag, 0), BadMessage);
    for len in 0..genuine.len() {
        assert_eq!(rejected(&mut c, genuine[..len].to_vec(), 0), BadMessage);
    }
    for at in [genuine.len(), genuine.len() + 1, usize::MAX] {
        assert_eq!(rejected(&mut c, genuine.clone(), at), BadMessage);
    }
    assert_eq!(c.balances(1, chan), (0, 100));
    // The genuine message, behind a host envelope of any length.
    let mut framed = vec![0xaa; 7];
    framed.extend_from_slice(&genuine);
    c.op_now(
        1,
        Command::Deliver {
            wire: framed,
            at: 7,
        },
    )
    .unwrap();
    assert_eq!(c.balances(1, chan), (5, 95));
}

#[test]
fn temporary_channel_merge_cycle() {
    // §5.2: a temporary channel is drained back to neutral by paying a
    // cycle to yourself over the primary channel, then closed off-chain.
    let mut c = Cluster::functional(2);
    let primary = c.standard_channel(0, 1, "primary", 1_000, 1);
    // Temporary channel from spare deposits, instantly.
    let temp = c.open_channel(0, 1, "temp");
    let dep = c.fund_deposit(0, 500, 1);
    c.approve_and_associate(0, 1, temp, &dep);
    // Traffic flows over the temporary channel...
    c.pay(0, temp, 200).unwrap();
    assert_eq!(c.balances(0, temp), (300, 200));
    // ...then Alice merges: she routes the 200 back to herself by paying
    // over the primary channel in the opposite direction (the two-party
    // degenerate case of the paper's cycle payment).
    c.pay(1, temp, 200).unwrap(); // Bob returns over temp...
    c.pay(0, primary, 200).unwrap(); // ...Alice compensates over primary.
    assert_eq!(c.balances(0, temp), (500, 0), "temp back to neutral");
    // Off-chain close of the temporary channel: zero blockchain writes.
    let s = c.settle_channel(0, temp).unwrap();
    assert_eq!(s.kind, SettleKind::OffChain);
    assert_eq!(c.node(0).broadcasts.len(), 0);
    // The freed deposit can fund something else immediately.
    let p = c.node(0).enclave.program().unwrap();
    assert_eq!(p.book_ref().free_deposits().len(), 1);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random mutations of a legitimate sealed message are always rejected
    /// and never panic the enclave.
    #[test]
    fn prop_mutated_wire_rejected(flip_at in 0usize..200, xor in 1u8..255) {
        let mut c = Cluster::functional(2);
        c.connect(0, 1);
        let chan = c.standard_channel(0, 1, "fuzz", 100, 1);
        let mut wire = {
            let node0 = c.node_mut(0);
            let outcome = node0
                .enclave
                .call(0, Command::Pay { id: chan, amount: 1, count: 1 })
                .unwrap()
                .unwrap();
            outcome
                .into_iter()
                .find_map(|e| match e {
                    teechain::Effect::Send { wire, .. } => Some(wire),
                    _ => None,
                })
                .expect("payment message")
        };
        let idx = flip_at % wire.len();
        wire[idx] ^= xor;
        let before = c.balances(1, chan);
        let result = c.op_now(1, Command::Deliver { wire, at: 0 });
        // Either rejected outright, or (if only the cost-class byte was
        // flipped, which is outside the AEAD) accepted identically — but
        // never a divergent state.
        match result {
            Err(_) => prop_assert_eq!(c.balances(1, chan), before),
            Ok(_) => prop_assert_eq!(c.balances(1, chan).0, before.0 + 1),
        }
    }
}
