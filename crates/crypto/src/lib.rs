#![warn(missing_docs)]

//! Cryptographic substrate for the Teechain reproduction.
//!
//! The original system links libsecp256k1, a side-channel-resistant ECDH and
//! AES-GCM from the SGX SDK. This offline reproduction implements the same
//! algebraic functionality from scratch:
//!
//! * [`sha256`](mod@sha256) — SHA-256, and HMAC-SHA256 for HKDF.
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439).
//! * `poly1305` (crate-private) — the Poly1305 one-time authenticator.
//! * [`aead`] — authenticated encryption: ChaCha20-Poly1305 exactly as
//!   RFC 8439 §2.8, sealing in place or into a copy (substituted for the
//!   paper's AES-GCM, see `docs/ARCHITECTURE.md`, *Substitutions and
//!   deviations* and *The symmetric path*).
//! * [`u256`] — 256-bit integers with 512-bit products.
//! * [`field`] — the base field `F_p`, specialised for
//!   `p = 2^256 − 0x1000003D1`: one-limb fold, dedicated squaring,
//!   addition-chain inversion.
//! * [`modarith`] — generic `2^256 − t` modular arithmetic, used for scalars
//!   modulo the group order (and as the tests' reference for [`field`]).
//! * [`point`] — secp256k1 group operations: mixed addition, an affine
//!   fixed-base table, wNAF and double-scalar multiplication.
//! * [`schnorr`] — Schnorr signatures over secp256k1 (the signature scheme
//!   used for enclave identities, attestation quotes and blockchain
//!   transactions): one fixed-base multiplication and one inversion to sign,
//!   one double multiplication and no inversion to verify.
//! * [`ecdh`] — authenticated Diffie-Hellman key agreement for the secure
//!   network channels of Alg. 1.
//!
//! The secp256k1 kernel does not attempt constant-time execution — windows,
//! wNAF digits and table look-ups all depend on secrets. The Teechain
//! protocol logic needs the algebra, and side-channel resistance of the
//! substrate is out of scope for a simulator (the paper's committee chains
//! exist exactly because TEE compromises — e.g. via side channels — are
//! assumed possible). ChaCha20 and Poly1305 have no secret-dependent branch
//! or index to begin with, and tags are compared in constant shape.
//! `docs/ARCHITECTURE.md`, *The secp256k1 kernel* and *The symmetric path*,
//! has the design. The crate is safe, portable Rust throughout, with no CPU
//! intrinsics; CI greps `src/` for the keywords, this sentence included.

pub mod aead;
pub mod chacha20;
pub mod ecdh;
pub mod field;
pub mod modarith;
pub mod point;
pub(crate) mod poly1305;
pub mod schnorr;
pub mod sha256;
pub mod u256;
pub mod wire;

pub use aead::{Aead, AeadError};
pub use ecdh::shared_secret;
pub use schnorr::{Keypair, PrivateKey, PublicKey, Signature};
pub use sha256::{hkdf, hmac_sha256, sha256, Sha256};
pub use u256::U256;

/// The rows of `tests/known_answers.txt` tagged `kind`, split into fields:
/// for the unit tests of vectors that need crate-private entry points.
#[cfg(test)]
pub(crate) fn known_answers(kind: &str) -> impl Iterator<Item = Vec<&'static str>> + '_ {
    include_str!("../tests/known_answers.txt")
        .lines()
        .map(|line| line.split(' ').collect::<Vec<_>>())
        .filter(move |fields| fields[0] == kind)
}
