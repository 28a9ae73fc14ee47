//! Sealed storage: authenticated encryption of enclave state to untrusted
//! media, keyed by (device, measurement).
//!
//! Matches SGX `MRENCLAVE` sealing policy: only the same program on the
//! same CPU can unseal. Sealing alone does **not** protect against
//! roll-back — an attacker can replay an old sealed blob — which is why
//! Teechain pairs it with monotonic counters (§6.2); the counter value is
//! embedded in the blob and checked on unseal.
//!
//! # The counter is the AEAD nonce
//!
//! The counter value is also the nonce of the ChaCha20-Poly1305 seal, and a
//! nonce may seal one blob only (`teechain_crypto::aead`, *Nonce uniqueness*:
//! a repeat is a forgery, not just a leak). The sealing key outlives the
//! program — it is the same before and after a crash — so uniqueness has to
//! come from the hardware counter: `TeechainEnclave::finalize` increments it
//! and seals exactly one blob, a WAL record or a snapshot, under the new
//! value, and a recovered enclave carries on with the device's counter 0
//! instead of creating a fresh one. [`Sealer::seal`] enforces the order: it
//! panics on a counter value that is not above the last one it sealed.

use crate::attest::DeviceIdentity;
use crate::measurement::Measurement;
use std::sync::atomic::{AtomicU64, Ordering};
use teechain_crypto::aead::{Aead, AeadError};
use teechain_crypto::sha256::hkdf;

/// Sealing context derived from a device and a program measurement.
pub struct Sealer {
    aead: Aead,
    /// One more than the last counter value sealed; 0 before the first.
    next_counter: AtomicU64,
}

/// The plaintext counter prefix of a blob.
const PREFIX_LEN: usize = 8;
/// The AEAD tag at its end.
const TAG_LEN: usize = 16;

/// Unsealing failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SealError {
    /// Authentication failed: wrong device, wrong program, or corruption.
    BadSeal,
    /// The blob's embedded counter is older than the expected value —
    /// a roll-back (replay of stale state) was attempted.
    RolledBack {
        /// Counter value inside the blob.
        found: u64,
        /// Minimum acceptable value.
        expected: u64,
    },
}

impl std::fmt::Display for SealError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SealError::BadSeal => write!(f, "sealed blob failed authentication"),
            SealError::RolledBack { found, expected } => {
                write!(
                    f,
                    "stale sealed state: counter {found} < expected {expected}"
                )
            }
        }
    }
}

impl std::error::Error for SealError {}

impl From<AeadError> for SealError {
    fn from(_: AeadError) -> Self {
        SealError::BadSeal
    }
}

impl Sealer {
    /// Derives the sealing key for `measurement` on `device`.
    pub fn new(device: &DeviceIdentity, measurement: &Measurement) -> Self {
        let okm = hkdf(
            b"teechain-seal-v1",
            device.sealing_root(),
            &measurement.0,
            32,
        );
        let key: [u8; 32] = okm.try_into().unwrap();
        Self {
            aead: Aead::new(&key),
            next_counter: AtomicU64::new(0),
        }
    }

    /// Seals `state`, embedding `counter` (a monotonic counter value) for
    /// roll-back detection.
    ///
    /// # Panics
    ///
    /// If `counter` is not greater than every value sealed before: the
    /// counter is the AEAD nonce and must never repeat (module docs).
    pub fn seal(&self, counter: u64, state: &[u8]) -> Vec<u8> {
        let last = self
            .next_counter
            .fetch_max(counter.saturating_add(1), Ordering::Relaxed);
        assert!(
            last <= counter,
            "seal nonce reuse: counter {counter} after {}",
            last - 1
        );
        let prefix = counter.to_le_bytes();
        let mut blob = Vec::with_capacity(PREFIX_LEN + state.len() + TAG_LEN);
        blob.extend_from_slice(state);
        self.aead.seal_in_place(counter, &prefix, &mut blob);
        // One buffer: the prefix goes on the end and is rotated to the front.
        blob.extend_from_slice(&prefix);
        blob.rotate_right(PREFIX_LEN);
        blob
    }

    /// Unseals a blob, requiring its embedded counter to be at least
    /// `min_counter`.
    pub fn unseal(&self, min_counter: u64, blob: &[u8]) -> Result<(u64, Vec<u8>), SealError> {
        let Some((prefix, sealed)) = blob.split_first_chunk::<PREFIX_LEN>() else {
            return Err(SealError::BadSeal);
        };
        let counter = u64::from_le_bytes(*prefix);
        let mut state = sealed.to_vec();
        self.aead.open_in_place(counter, prefix, &mut state)?;
        if counter < min_counter {
            return Err(SealError::RolledBack {
                found: counter,
                expected: min_counter,
            });
        }
        Ok((counter, state))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::TrustRoot;
    use proptest::prelude::*;

    fn sealer(dev_seed: u64, program: &str) -> Sealer {
        let root = TrustRoot::new(1);
        let dev = root.issue_device(dev_seed);
        Sealer::new(&dev, &Measurement::of_program(program, 1))
    }

    #[test]
    fn roundtrip() {
        let s = sealer(1, "teechain");
        let blob = s.seal(5, b"enclave state");
        let (counter, state) = s.unseal(5, &blob).unwrap();
        assert_eq!(counter, 5);
        assert_eq!(state, b"enclave state");
    }

    #[test]
    fn other_device_cannot_unseal() {
        let a = sealer(1, "teechain");
        let b = sealer(2, "teechain");
        let blob = a.seal(1, b"secret");
        assert_eq!(b.unseal(1, &blob), Err(SealError::BadSeal));
    }

    #[test]
    fn other_program_cannot_unseal() {
        let root = TrustRoot::new(1);
        let dev = root.issue_device(1);
        let a = Sealer::new(&dev, &Measurement::of_program("teechain", 1));
        let b = Sealer::new(&dev, &Measurement::of_program("teechain", 2));
        let blob = a.seal(1, b"secret");
        assert_eq!(b.unseal(1, &blob), Err(SealError::BadSeal));
    }

    #[test]
    fn rollback_detected() {
        let s = sealer(1, "teechain");
        let old = s.seal(3, b"old state");
        let _new = s.seal(4, b"new state");
        // Replaying the old blob when the counter says 4 must fail.
        assert_eq!(
            s.unseal(4, &old),
            Err(SealError::RolledBack {
                found: 3,
                expected: 4
            })
        );
    }

    #[test]
    fn tampered_counter_prefix_detected() {
        let s = sealer(1, "teechain");
        let mut blob = s.seal(3, b"state");
        // Bumping the plaintext counter prefix without re-encrypting breaks
        // the AEAD binding (counter is both nonce and associated data).
        blob[0] = blob[0].wrapping_add(1);
        assert_eq!(s.unseal(0, &blob), Err(SealError::BadSeal));
    }

    #[test]
    fn truncated_blob_rejected() {
        let s = sealer(1, "teechain");
        assert_eq!(s.unseal(0, &[1, 2, 3]), Err(SealError::BadSeal));
    }

    #[test]
    fn any_single_bit_flip_rejected() {
        // Exhaustive corruption sweep: flipping any single bit anywhere
        // in the blob — counter prefix, ciphertext or MAC — must fail
        // authentication (or, for the plaintext counter prefix, break
        // the AEAD binding). A seal/unseal roundtrip must never yield
        // modified state.
        let s = sealer(1, "teechain");
        let blob = s.seal(7, b"wal-record: pay 100 on channel 3");
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                match s.unseal(0, &bad) {
                    Err(SealError::BadSeal) => {}
                    Ok((counter, state)) => panic!(
                        "flip at byte {i} bit {bit} accepted: counter {counter}, state {state:?}"
                    ),
                    Err(other) => panic!("flip at byte {i} bit {bit}: unexpected {other:?}"),
                }
            }
        }
        // The pristine blob still unseals.
        assert!(s.unseal(7, &blob).is_ok());
    }

    #[test]
    fn bit_flipped_payload_never_leaks_plaintext() {
        // Truncations at every length are rejected too (a torn snapshot
        // is not a valid snapshot).
        let s = sealer(3, "teechain");
        let blob = s.seal(1, b"secret channel state");
        for len in 0..blob.len() {
            assert_eq!(
                s.unseal(0, &blob[..len]),
                Err(SealError::BadSeal),
                "len {len}"
            );
        }
    }

    #[test]
    fn blob_is_prefix_ciphertext_tag() {
        let s = sealer(1, "teechain");
        let blob = s.seal(0x0102, b"state");
        assert_eq!(blob.len(), PREFIX_LEN + 5 + TAG_LEN);
        assert_eq!(blob[..PREFIX_LEN], 0x0102u64.to_le_bytes());
        assert_ne!(&blob[PREFIX_LEN..PREFIX_LEN + 5], b"state");
    }

    #[test]
    #[should_panic(expected = "seal nonce reuse")]
    fn sealing_a_counter_twice_panics() {
        let s = sealer(1, "teechain");
        s.seal(5, b"one");
        s.seal(5, b"two");
    }

    #[test]
    #[should_panic(expected = "seal nonce reuse")]
    fn sealing_an_older_counter_panics() {
        let s = sealer(1, "teechain");
        s.seal(5, b"one");
        s.seal(4, b"two");
    }

    #[test]
    fn extended_and_empty_blobs_rejected() {
        let s = sealer(1, "teechain");
        let blob = s.seal(2, b"state");
        let mut longer = blob.clone();
        longer.push(0);
        assert_eq!(s.unseal(0, &longer), Err(SealError::BadSeal));
        longer.extend_from_slice(&blob);
        assert_eq!(s.unseal(0, &longer), Err(SealError::BadSeal));
        assert_eq!(s.unseal(0, &[]), Err(SealError::BadSeal));
        // A counter prefix and nothing else, or a tag short of a byte.
        assert_eq!(s.unseal(0, &blob[..PREFIX_LEN]), Err(SealError::BadSeal));
        assert_eq!(
            s.unseal(0, &blob[..PREFIX_LEN + TAG_LEN - 1]),
            Err(SealError::BadSeal)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn prop_roundtrip(
            counter in any::<u64>(),
            state in proptest::collection::vec(any::<u8>(), 0..301),
        ) {
            let s = sealer(1, "teechain");
            let blob = s.seal(counter, &state);
            prop_assert_eq!(blob.len(), PREFIX_LEN + state.len() + TAG_LEN);
            prop_assert_eq!(s.unseal(counter, &blob), Ok((counter, state)));
        }

        #[test]
        fn prop_arbitrary_bytes_never_unseal(
            junk in proptest::collection::vec(any::<u8>(), 0..200),
        ) {
            prop_assert_eq!(sealer(1, "teechain").unseal(0, &junk), Err(SealError::BadSeal));
        }

        #[test]
        fn prop_corrupted_blob_never_unseals(
            state in proptest::collection::vec(any::<u8>(), 0..301),
            at in any::<usize>(),
            xor in any::<u8>(),
        ) {
            prop_assume!(xor != 0);
            let s = sealer(1, "teechain");
            let mut blob = s.seal(9, &state);
            let at = at % blob.len();
            blob[at] ^= xor;
            prop_assert_eq!(s.unseal(0, &blob), Err(SealError::BadSeal));
        }
    }
}
