//! Known-answer tests: signature, public-key and ECDH bytes pinned before the
//! kernel rewrite, and the RFC 8439 ChaCha20 vectors pinned before the AEAD
//! rewrite (see `known_answers.txt` for provenance and format).

use teechain_crypto::chacha20::ChaCha20;
use teechain_crypto::ecdh::shared_secret;
use teechain_crypto::schnorr::{verify, Keypair, PublicKey, Signature};
use teechain_util::hex;

const VECTORS: &str = include_str!("known_answers.txt");

fn seed(h: &str) -> [u8; 32] {
    hex::decode_array(h).expect("32-byte hex seed")
}

#[test]
fn signatures_and_public_keys_are_unchanged() {
    let mut seen = 0;
    for line in VECTORS.lines().filter(|l| l.starts_with("sig ")) {
        let f: Vec<&str> = line.split(' ').collect();
        let msg = if f[2] == "-" {
            Vec::new()
        } else {
            hex::decode(f[2]).expect("hex msg")
        };
        let kp = Keypair::from_seed(&seed(f[1]));
        assert_eq!(hex::encode(&kp.pk.to_bytes()), f[3], "public key of {line}");
        let sig = kp.sign(&msg);
        assert_eq!(hex::encode(&sig.to_bytes()), f[4], "signature of {line}");
        // The pinned bytes also parse back and verify.
        let pk = PublicKey::from_bytes(&hex::decode_array(f[3]).unwrap()).unwrap();
        let parsed = Signature::from_bytes(&hex::decode_array(f[4]).unwrap()).unwrap();
        assert!(verify(&pk, &msg, &parsed));
        seen += 1;
    }
    assert!(seen >= 16, "only {seen} signature vectors");
}

#[test]
fn ecdh_shared_secrets_are_unchanged() {
    let mut seen = 0;
    for line in VECTORS.lines().filter(|l| l.starts_with("ecdh ")) {
        let f: Vec<&str> = line.split(' ').collect();
        let a = Keypair::from_seed(&seed(f[1]));
        let b = Keypair::from_seed(&seed(f[2]));
        assert_eq!(hex::encode(&shared_secret(&a.sk, &b.pk)), f[3]);
        assert_eq!(hex::encode(&shared_secret(&b.sk, &a.pk)), f[3]);
        seen += 1;
    }
    assert!(seen >= 2, "only {seen} ECDH vectors");
}

/// The fields of every row tagged `kind`.
fn rows(kind: &str) -> impl Iterator<Item = Vec<&'static str>> + '_ {
    VECTORS
        .lines()
        .map(|l| l.split(' ').collect::<Vec<_>>())
        .filter(move |f| f[0] == kind)
}

#[test]
fn chacha20_block_matches_rfc8439() {
    let mut seen = 0;
    for f in rows("chacha20-block") {
        let cipher = ChaCha20::new(
            &hex::decode_array(f[1]).expect("key"),
            &hex::decode_array(f[2]).expect("nonce"),
        );
        let counter: u32 = f[3].parse().expect("counter");
        assert_eq!(hex::encode(&cipher.block(counter)), f[4]);
        seen += 1;
    }
    assert!(seen >= 1, "no ChaCha20 block vector");
}

#[test]
fn chacha20_encryption_matches_rfc8439() {
    let mut seen = 0;
    for f in rows("chacha20-encrypt") {
        let cipher = ChaCha20::new(
            &hex::decode_array(f[1]).expect("key"),
            &hex::decode_array(f[2]).expect("nonce"),
        );
        let counter: u32 = f[3].parse().expect("counter");
        let mut data = hex::decode(f[4]).expect("plaintext");
        cipher.apply_keystream(counter, &mut data);
        assert_eq!(hex::encode(&data), f[5]);
        seen += 1;
    }
    assert!(seen >= 1, "no ChaCha20 encryption vector");
}
