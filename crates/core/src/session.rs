//! Secure network channels between enclaves (Alg. 1, `newNetworkChannel`).
//!
//! The handshake performs mutual remote attestation and an authenticated
//! ephemeral Diffie-Hellman exchange. Each side proves: (i) it runs the
//! expected Teechain enclave build on a genuine TEE (the quote binds the
//! identity and ephemeral keys); and (ii) it owns its identity key and is
//! talking to the intended peer (the transcript signature covers both
//! identities), which prevents messages from being relayed between enclave
//! instances — the state-forking defence of §4.1.
//!
//! After the handshake, all traffic is AEAD-sealed under per-direction keys
//! with strictly increasing sequence numbers as nonces (freshness). The
//! sequence number is the only nonce source of a session key: `seal`
//! increments it every time, and the keys die with the enclave instance, so
//! no `(key, nonce)` pair ever seals twice (`teechain_crypto::aead`, *Nonce
//! uniqueness*).

use crate::msg::{
    begin_sealed, finish_sealed, CostClass, Handshake, ProtocolMsg, WireMsg, SEALED_HEADER,
};
use crate::types::ProtocolError;
use teechain_crypto::aead::Aead;
use teechain_crypto::ecdh;
use teechain_crypto::schnorr::{self, Keypair, PrivateKey, PublicKey};
use teechain_crypto::sha256::{hkdf, tagged_hash};
use teechain_tee::attest::report_data_from;
use teechain_tee::Quote;
use teechain_util::codec::{Decode, Encode};

/// An established (or half-open) secure session with a remote enclave.
pub struct Session {
    /// Remote enclave identity key.
    pub remote: PublicKey,
    send: Aead,
    recv: Aead,
    send_seq: u64,
    recv_seq: u64,
    /// True once the handshake completed.
    pub established: bool,
}

/// Initial capacity of a sealed message: an encoded `Pay` is 45 bytes and its
/// tag 16.
const SEALED_RESERVE: usize = 96;

/// Initial capacity of a sealed frame: the envelope header, a payment, and
/// the few bytes the host's own envelope puts in front of it on the way to
/// the network, so that a payment is allocated once between here and the
/// socket.
const FRAME_RESERVE: usize = SEALED_HEADER + SEALED_RESERVE + 8;

impl Session {
    /// Derives directional session keys from the DH secret. Both sides
    /// derive identical keys; direction is disambiguated by canonical key
    /// order so the two directions never share an AEAD nonce space.
    pub fn derive(secret: &[u8; 32], me: &PublicKey, remote: &PublicKey) -> Session {
        let (lo, hi) = if me.to_bytes() <= remote.to_bytes() {
            (me, remote)
        } else {
            (remote, me)
        };
        let mut info = Vec::with_capacity(128);
        info.extend_from_slice(&lo.to_bytes());
        info.extend_from_slice(&hi.to_bytes());
        let okm = hkdf(b"teechain-session-v2", secret, &info, 64);
        let key_lo_hi: [u8; 32] = okm[..32].try_into().unwrap();
        let key_hi_lo: [u8; 32] = okm[32..].try_into().unwrap();
        let i_am_lo = me.to_bytes() <= remote.to_bytes();
        let (send_key, recv_key) = if i_am_lo {
            (key_lo_hi, key_hi_lo)
        } else {
            (key_hi_lo, key_lo_hi)
        };
        Session {
            remote: *remote,
            send: Aead::new(&send_key),
            recv: Aead::new(&recv_key),
            send_seq: 0,
            recv_seq: 0,
            established: false,
        }
    }

    /// Seals a protocol message into a wire envelope.
    pub fn seal(&mut self, me: &PublicKey, msg: &ProtocolMsg) -> WireMsg {
        let mut ct = Vec::with_capacity(SEALED_RESERVE);
        let seq = self.seal_onto(&me.to_bytes(), msg, &mut ct);
        WireMsg::Sealed {
            from: *me,
            seq,
            class: CostClass::of(msg) as u8,
            ct,
        }
    }

    /// [`Session::seal`] and `WireMsg::encode_to_vec` in one buffer: writes
    /// the envelope's header, encodes `msg` behind it and seals it there.
    /// The bytes are those of the encoded [`WireMsg::Sealed`].
    pub fn seal_frame(&mut self, me: &PublicKey, msg: &ProtocolMsg) -> Vec<u8> {
        let me = me.to_bytes();
        let mut frame = Vec::with_capacity(FRAME_RESERVE);
        begin_sealed(&mut frame, &me, self.send_seq, CostClass::of(msg) as u8);
        self.seal_onto(&me, msg, &mut frame);
        finish_sealed(&mut frame);
        frame
    }

    /// Appends `msg` to `buf`, encrypted where it was encoded and tagged,
    /// under the next sequence number, which it returns.
    fn seal_onto(&mut self, me: &[u8; 64], msg: &ProtocolMsg, buf: &mut Vec<u8>) -> u64 {
        let seq = self.send_seq;
        self.send_seq += 1;
        let start = buf.len();
        msg.encode(buf);
        let tag = self.send.seal_slice_in_place(seq, me, &mut buf[start..]);
        buf.extend_from_slice(&tag);
        seq
    }

    /// Opens a sealed envelope, enforcing strict sequence ordering (replay,
    /// reorder and drop all surface as authentication failures).
    pub fn open(&mut self, seq: u64, ct: &[u8]) -> Result<ProtocolMsg, ProtocolError> {
        self.open_in_place(seq, &mut ct.to_vec())
    }

    /// [`Session::open`] without the copy: authenticates `ct`, decrypts it
    /// where it lies — in the buffer it arrived in — and decodes the message
    /// from there. No rejected envelope moves the expected sequence number,
    /// and one that fails authentication leaves `ct` as it was.
    pub fn open_in_place(&mut self, seq: u64, ct: &mut [u8]) -> Result<ProtocolMsg, ProtocolError> {
        if seq != self.recv_seq {
            return Err(ProtocolError::BadMessage);
        }
        let plain = self
            .recv
            .open_slice_in_place(seq, &self.remote.to_bytes(), ct)
            .map_err(|_| ProtocolError::BadMessage)?;
        let msg = ProtocolMsg::decode_exact(plain).map_err(|_| ProtocolError::BadMessage)?;
        self.recv_seq += 1;
        Ok(msg)
    }
}

fn transcript_digest(role: &str, me: &PublicKey, eph: &PublicKey, peer: &PublicKey) -> [u8; 32] {
    tagged_hash(role, &[&me.to_bytes(), &eph.to_bytes(), &peer.to_bytes()])
}

fn quote_binding(identity: &PublicKey, eph: &PublicKey) -> [u8; 64] {
    report_data_from(&tagged_hash(
        "teechain/quote-binding",
        &[&identity.to_bytes(), &eph.to_bytes()],
    ))
}

/// Builds a handshake message (either direction).
pub fn make_handshake(
    role: &str,
    identity: &Keypair,
    eph: &Keypair,
    peer: &PublicKey,
    quote: Quote,
) -> Handshake {
    let digest = transcript_digest(role, &identity.pk, &eph.pk, peer);
    Handshake {
        identity: identity.pk,
        eph: eph.pk,
        quote,
        sig: identity.sign(&digest),
    }
}

/// Verifies a peer's handshake: attestation (root + measurement + binding)
/// and transcript signature. `me` is the verifier's identity (the signature
/// must name us as the intended peer).
pub fn verify_handshake(
    role: &str,
    hs: &Handshake,
    me: &PublicKey,
    trust_root: &PublicKey,
    expected_measurement: &teechain_tee::Measurement,
) -> Result<(), ProtocolError> {
    if !hs.quote.verify_for(trust_root, expected_measurement) {
        return Err(ProtocolError::AttestationFailed);
    }
    if hs.quote.report_data != quote_binding(&hs.identity, &hs.eph) {
        return Err(ProtocolError::AttestationFailed);
    }
    let digest = transcript_digest(role, &hs.identity, &hs.eph, me);
    if !schnorr::verify(&hs.identity, &digest, &hs.sig) {
        return Err(ProtocolError::AttestationFailed);
    }
    Ok(())
}

/// Computes the session secret from our ephemeral private key and the
/// peer's ephemeral public key.
pub fn session_secret(my_eph: &PrivateKey, peer_eph: &PublicKey) -> [u8; 32] {
    ecdh::shared_secret(my_eph, peer_eph)
}

/// The report data a handshake quote must carry for (identity, eph).
pub fn expected_quote_binding(identity: &PublicKey, eph: &PublicKey) -> [u8; 64] {
    quote_binding(identity, eph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::WireView;
    use crate::types::ChannelId;
    use proptest::prelude::*;
    use teechain_tee::{Measurement, TrustRoot};

    const M: (&str, u32) = ("teechain", 1);

    fn quote_for(root: &TrustRoot, dev_seed: u64, identity: &Keypair, eph: &Keypair) -> Quote {
        let dev = root.issue_device(dev_seed);
        dev.quote(
            Measurement::of_program(M.0, M.1),
            expected_quote_binding(&identity.pk, &eph.pk),
        )
    }

    fn pair() -> (Keypair, Keypair, Keypair, Keypair, TrustRoot) {
        let a_id = Keypair::from_seed(&[1; 32]);
        let a_eph = Keypair::from_seed(&[2; 32]);
        let b_id = Keypair::from_seed(&[3; 32]);
        let b_eph = Keypair::from_seed(&[4; 32]);
        (a_id, a_eph, b_id, b_eph, TrustRoot::new(9))
    }

    #[test]
    fn handshake_verifies() {
        let (a_id, a_eph, b_id, _b_eph, root) = pair();
        let q = quote_for(&root, 1, &a_id, &a_eph);
        let hs = make_handshake("hello", &a_id, &a_eph, &b_id.pk, q);
        let m = Measurement::of_program(M.0, M.1);
        assert!(verify_handshake("hello", &hs, &b_id.pk, &root.public_key(), &m).is_ok());
        // Wrong intended peer: signature check fails.
        let c = Keypair::from_seed(&[7; 32]);
        assert_eq!(
            verify_handshake("hello", &hs, &c.pk, &root.public_key(), &m),
            Err(ProtocolError::AttestationFailed)
        );
        // Wrong role string: cross-protocol confusion rejected.
        assert_eq!(
            verify_handshake("hello-ack", &hs, &b_id.pk, &root.public_key(), &m),
            Err(ProtocolError::AttestationFailed)
        );
    }

    #[test]
    fn quote_must_bind_ephemeral() {
        let (a_id, a_eph, b_id, _b, root) = pair();
        // Quote binds a *different* ephemeral key (MitM key substitution).
        let evil_eph = Keypair::from_seed(&[99; 32]);
        let q = quote_for(&root, 1, &a_id, &evil_eph);
        let hs = make_handshake("hello", &a_id, &a_eph, &b_id.pk, q);
        let m = Measurement::of_program(M.0, M.1);
        assert_eq!(
            verify_handshake("hello", &hs, &b_id.pk, &root.public_key(), &m),
            Err(ProtocolError::AttestationFailed)
        );
    }

    #[test]
    fn sessions_agree_and_transfer() {
        let (a_id, a_eph, b_id, b_eph, _) = pair();
        let sa = session_secret(&a_eph.sk, &b_eph.pk);
        let sb = session_secret(&b_eph.sk, &a_eph.pk);
        assert_eq!(sa, sb);
        let mut alice = Session::derive(&sa, &a_id.pk, &b_id.pk);
        let mut bob = Session::derive(&sb, &b_id.pk, &a_id.pk);
        let msg = ProtocolMsg::RepAck { seq: 42 };
        let wire = alice.seal(&a_id.pk, &msg);
        let WireMsg::Sealed { seq, ct, .. } = wire else {
            panic!("expected sealed");
        };
        match bob.open(seq, &ct).unwrap() {
            ProtocolMsg::RepAck { seq: 42 } => {}
            _ => panic!("wrong message"),
        }
    }

    #[test]
    fn replay_rejected() {
        let (a_id, a_eph, b_id, b_eph, _) = pair();
        let secret = session_secret(&a_eph.sk, &b_eph.pk);
        let mut alice = Session::derive(&secret, &a_id.pk, &b_id.pk);
        let mut bob = Session::derive(&secret, &b_id.pk, &a_id.pk);
        let WireMsg::Sealed { seq, ct, .. } = alice.seal(&a_id.pk, &ProtocolMsg::RepAck { seq: 1 })
        else {
            panic!();
        };
        assert!(bob.open(seq, &ct).is_ok());
        // Replaying the same envelope fails the strict-ordering check.
        assert!(matches!(bob.open(seq, &ct), Err(ProtocolError::BadMessage)));
    }

    #[test]
    fn directions_use_distinct_keys() {
        let (a_id, a_eph, b_id, b_eph, _) = pair();
        let secret = session_secret(&a_eph.sk, &b_eph.pk);
        let mut alice = Session::derive(&secret, &a_id.pk, &b_id.pk);
        let mut bob = Session::derive(&secret, &b_id.pk, &a_id.pk);
        // A message sealed by Alice cannot be "reflected" back to her.
        let WireMsg::Sealed { seq, ct, .. } = alice.seal(&a_id.pk, &ProtocolMsg::RepAck { seq: 1 })
        else {
            panic!();
        };
        assert!(matches!(
            alice.open(seq, &ct),
            Err(ProtocolError::BadMessage)
        ));
        // But Bob reads it fine.
        assert!(bob.open(seq, &ct).is_ok());
    }

    #[test]
    fn tampered_ciphertext_rejected() {
        let (a_id, a_eph, b_id, b_eph, _) = pair();
        let secret = session_secret(&a_eph.sk, &b_eph.pk);
        let mut alice = Session::derive(&secret, &a_id.pk, &b_id.pk);
        let mut bob = Session::derive(&secret, &b_id.pk, &a_id.pk);
        let WireMsg::Sealed { seq, mut ct, .. } =
            alice.seal(&a_id.pk, &ProtocolMsg::RepAck { seq: 1 })
        else {
            panic!();
        };
        ct[0] ^= 1;
        assert!(matches!(bob.open(seq, &ct), Err(ProtocolError::BadMessage)));
    }

    fn established_pair() -> (PublicKey, Session, Session) {
        let (a_id, a_eph, b_id, b_eph, _) = pair();
        let secret = session_secret(&a_eph.sk, &b_eph.pk);
        (
            a_id.pk,
            Session::derive(&secret, &a_id.pk, &b_id.pk),
            Session::derive(&secret, &b_id.pk, &a_id.pk),
        )
    }

    fn pay(amount: u64) -> ProtocolMsg {
        ProtocolMsg::Pay {
            id: ChannelId::from_label("hostile"),
            amount,
            count: 1,
        }
    }

    fn sealed(session: &mut Session, me: &PublicKey, msg: &ProtocolMsg) -> (u64, Vec<u8>) {
        match session.seal(me, msg) {
            WireMsg::Sealed { seq, ct, .. } => (seq, ct),
            _ => panic!("expected sealed"),
        }
    }

    #[test]
    fn a_sealed_payment_fits_the_reservation() {
        let (me, mut alice, _) = established_pair();
        let (_, ct) = sealed(&mut alice, &me, &pay(u64::MAX));
        assert!(
            ct.len() <= SEALED_RESERVE,
            "payment + tag is {} B",
            ct.len()
        );
        // And its frame leaves the host's envelope its room.
        let frame = alice.seal_frame(&me, &pay(u64::MAX));
        assert_eq!(frame.capacity(), FRAME_RESERVE);
        assert!(frame.len() + 5 <= FRAME_RESERVE);
    }

    #[test]
    fn a_frame_is_the_encoded_envelope() {
        // Twin senders: one seals and encodes in two steps, one in place.
        let (me, mut two_step, mut bob) = established_pair();
        let (_, mut in_place, _) = established_pair();
        let msgs = [
            pay(0),
            pay(u64::MAX),
            ProtocolMsg::RepAck { seq: 9 },
            ProtocolMsg::RepFreeze,
            ProtocolMsg::SwapSecret {
                swap: crate::types::SwapId([4; 32]),
                secret: [0xee; 32],
            },
            // Longer than the reservation: the frame grows while it encodes.
            ProtocolMsg::SigResponse {
                req_id: 1,
                sigs: vec![(3, Keypair::from_seed(&[8; 32]).sign(b"x")); 4],
                refused: false,
            },
        ];
        for msg in &msgs {
            let frame = in_place.seal_frame(&me, msg);
            assert_eq!(frame, two_step.seal(&me, msg).encode_to_vec());
            // The receiver opens it where it lies, behind its header.
            let Ok(WireView::Sealed { from, seq, ct, .. }) = WireView::parse(&frame) else {
                panic!("not a sealed envelope");
            };
            assert_eq!(from, &me.to_bytes());
            assert_eq!(ct.start, SEALED_HEADER);
            let mut arrived = frame.clone();
            let opened = bob.open_in_place(seq, &mut arrived[ct]).unwrap();
            assert_eq!(opened.encode_to_vec(), msg.encode_to_vec());
            assert_eq!(arrived[..SEALED_HEADER], frame[..SEALED_HEADER]);
        }
    }

    #[test]
    fn hostile_envelopes_are_rejected_and_do_not_advance_the_sequence() {
        let (me, mut alice, mut bob) = established_pair();
        let (seq, ct) = sealed(&mut alice, &me, &pay(5));
        let rejected = |bob: &mut Session, seq: u64, ct: &[u8]| {
            assert!(matches!(bob.open(seq, ct), Err(ProtocolError::BadMessage)));
            // In place, the rejected bytes stay as they arrived.
            let mut arrived = ct.to_vec();
            assert!(matches!(
                bob.open_in_place(seq, &mut arrived),
                Err(ProtocolError::BadMessage)
            ));
            assert_eq!(arrived, ct);
            assert_eq!(bob.recv_seq, 0);
        };
        // Every truncation, the empty envelope included.
        for len in 0..ct.len() {
            rejected(&mut bob, seq, &ct[..len]);
        }
        // Every single flipped bit of ciphertext and tag.
        for bit in 0..ct.len() * 8 {
            let mut bad = ct.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            rejected(&mut bob, seq, &bad);
        }
        // Extended.
        let mut longer = ct.clone();
        longer.push(0);
        rejected(&mut bob, seq, &longer);
        // The right bytes under any other sequence number.
        for bit in 0..64 {
            rejected(&mut bob, seq ^ (1 << bit), &ct);
        }
        // None of that moved `recv_seq`: the genuine envelope still opens
        // in the buffer it arrived in, and only once.
        let mut arrived = ct.clone();
        assert!(matches!(
            bob.open_in_place(seq, &mut arrived),
            Ok(ProtocolMsg::Pay { amount: 5, .. })
        ));
        assert_eq!(bob.recv_seq, 1);
        assert!(matches!(bob.open(seq, &ct), Err(ProtocolError::BadMessage)));
        assert!(matches!(
            bob.open_in_place(seq, &mut ct.clone()),
            Err(ProtocolError::BadMessage)
        ));
        assert_eq!(bob.recv_seq, 1);
    }

    #[test]
    fn authentic_bytes_that_are_not_a_message_are_rejected() {
        // A peer with the key but a broken encoder: the AEAD accepts, the
        // decoder does not, and the sequence number stays put.
        let (me, mut alice, mut bob) = established_pair();
        let garbage = alice.send.seal(alice.send_seq, &me.to_bytes(), &[0xff; 10]);
        alice.send_seq += 1;
        assert!(matches!(
            bob.open(0, &garbage),
            Err(ProtocolError::BadMessage)
        ));
        assert!(matches!(
            bob.open_in_place(0, &mut garbage.clone()),
            Err(ProtocolError::BadMessage)
        ));
        assert_eq!(bob.recv_seq, 0);
        // Bob still waits for sequence number 0, so Alice's next one is early.
        let (seq, ct) = sealed(&mut alice, &me, &pay(1));
        assert_eq!(seq, 1);
        assert!(matches!(bob.open(seq, &ct), Err(ProtocolError::BadMessage)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_arbitrary_bytes_never_open(
            seq in 0u64..3,
            junk in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            let (me, mut alice, mut bob) = established_pair();
            prop_assert!(matches!(bob.open(seq, &junk), Err(ProtocolError::BadMessage)));
            let (seq, ct) = sealed(&mut alice, &me, &pay(9));
            prop_assert!(bob.open(seq, &ct).is_ok());
        }

        #[test]
        fn prop_corrupted_envelope_never_opens(
            amounts in proptest::collection::vec(any::<u64>(), 1..4),
            at in any::<usize>(),
            xor in any::<u8>(),
        ) {
            prop_assume!(xor != 0);
            let (me, mut alice, mut bob) = established_pair();
            // Corrupt the last of a few messages: earlier ones open in order.
            let mut envelopes: Vec<_> =
                amounts.iter().map(|a| sealed(&mut alice, &me, &pay(*a))).collect();
            let (last_seq, last) = envelopes.pop().unwrap();
            for (seq, ct) in &envelopes {
                prop_assert!(bob.open(*seq, ct).is_ok());
            }
            let mut bad = last.clone();
            bad[at % last.len()] ^= xor;
            prop_assert!(matches!(bob.open(last_seq, &bad), Err(ProtocolError::BadMessage)));
            prop_assert!(bob.open(last_seq, &last).is_ok());
        }
    }
}
