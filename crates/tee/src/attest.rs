//! Remote attestation: a simulated manufacturer PKI.
//!
//! Real SGX attestation involves EPID group signatures and Intel's
//! attestation service; the property consumed by Teechain is much simpler
//! (Alg. 1 line 17: "remote attestation ensures TEE validity"): a verifier
//! holding the manufacturer's public key can check that a *quote* was
//! produced by a genuine device running a specific program and binding
//! specific report data (here: the enclave's identity public key).

use crate::measurement::Measurement;
use teechain_crypto::schnorr::{self, Keypair, PublicKey, Signature};
use teechain_crypto::sha256::tagged_hash;

/// The simulated CPU manufacturer: the root of trust for all attestation.
pub struct TrustRoot {
    keypair: Keypair,
}

/// A per-CPU attestation key endorsed by the manufacturer.
#[derive(Clone)]
pub struct DeviceIdentity {
    keypair: Keypair,
    /// Manufacturer signature over the device public key.
    cert: Signature,
    /// Per-device sealing root (unique, never leaves the CPU).
    sealing_root: [u8; 32],
}

/// An attestation quote: proof that a genuine enclave with `measurement`
/// bound `report_data`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    /// The attested program.
    pub measurement: Measurement,
    /// Caller-chosen data bound into the quote (64 bytes, like SGX).
    pub report_data: [u8; 64],
    /// The quoting device's public key.
    pub device_pk: PublicKey,
    /// Manufacturer endorsement of `device_pk`.
    pub device_cert: Signature,
    /// Device signature over (measurement, report_data).
    pub sig: Signature,
}

teechain_util::impl_wire_struct!(Quote {
    measurement,
    report_data,
    device_pk,
    device_cert,
    sig,
});

impl TrustRoot {
    /// Creates a manufacturer root from a seed.
    pub fn new(seed: u64) -> Self {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&seed.to_le_bytes());
        s[8..16].copy_from_slice(b"trustrt\0");
        Self {
            keypair: Keypair::from_seed(&s),
        }
    }

    /// The manufacturer's public verification key. Distributed out-of-band
    /// to every participant (as Intel's root certificates are).
    pub fn public_key(&self) -> PublicKey {
        self.keypair.pk
    }

    /// Provisions a new device ("CPU") with an endorsed attestation key.
    pub fn issue_device(&self, seed: u64) -> DeviceIdentity {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&seed.to_le_bytes());
        s[8..16].copy_from_slice(b"device\0\0");
        let keypair = Keypair::from_seed(&s);
        let cert = self.keypair.sign(&device_cert_msg(&keypair.pk));
        let sealing_root = tagged_hash("teechain/sealing-root", &[&s]);
        DeviceIdentity {
            keypair,
            cert,
            sealing_root,
        }
    }
}

fn device_cert_msg(pk: &PublicKey) -> Vec<u8> {
    let mut msg = b"teechain/device-cert".to_vec();
    msg.extend_from_slice(&pk.to_bytes());
    msg
}

fn quote_msg(measurement: &Measurement, report_data: &[u8; 64]) -> Vec<u8> {
    let mut msg = b"teechain/quote".to_vec();
    msg.extend_from_slice(&measurement.0);
    msg.extend_from_slice(report_data);
    msg
}

impl DeviceIdentity {
    /// Produces a quote for an enclave with `measurement` binding
    /// `report_data`.
    pub fn quote(&self, measurement: Measurement, report_data: [u8; 64]) -> Quote {
        Quote {
            measurement,
            report_data,
            device_pk: self.keypair.pk,
            device_cert: self.cert,
            sig: self.keypair.sign(&quote_msg(&measurement, &report_data)),
        }
    }

    /// The device sealing root; key material derived from it never leaves
    /// the enclave boundary (used by [`crate::sealing`]).
    pub(crate) fn sealing_root(&self) -> &[u8; 32] {
        &self.sealing_root
    }
}

impl Quote {
    /// Verifies the quote against the manufacturer key, checking both the
    /// device endorsement and the quote signature.
    pub fn verify(&self, manufacturer: &PublicKey) -> bool {
        self.signatures(manufacturer)
            .iter()
            .all(|(pk, msg, sig)| schnorr::verify(pk, msg, sig))
    }

    /// The quote's two signature checks as `(key, message, signature)`:
    /// the manufacturer's endorsement of the device key, then the device's
    /// signature over (measurement, report data). [`Quote::verify`] checks
    /// them one by one; a verifier with more signatures to check passes
    /// them to [`schnorr::verify_batch`] with its own.
    pub fn signatures(&self, manufacturer: &PublicKey) -> [(PublicKey, Vec<u8>, Signature); 2] {
        [
            (
                *manufacturer,
                device_cert_msg(&self.device_pk),
                self.device_cert,
            ),
            (
                self.device_pk,
                quote_msg(&self.measurement, &self.report_data),
                self.sig,
            ),
        ]
    }

    /// Verifies the quote and additionally pins the expected measurement.
    /// (A Teechain handshake makes the same checks, with the two
    /// signatures batched together with its transcript signature.)
    pub fn verify_for(&self, manufacturer: &PublicKey, expected: &Measurement) -> bool {
        self.measurement == *expected && self.verify(manufacturer)
    }
}

/// Packs a 32-byte value into SGX-style 64-byte report data.
pub fn report_data_from(bytes32: &[u8; 32]) -> [u8; 64] {
    let mut out = [0u8; 64];
    out[..32].copy_from_slice(bytes32);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use teechain_util::codec::{Decode, Encode};

    fn setup() -> (TrustRoot, DeviceIdentity) {
        let root = TrustRoot::new(1);
        let dev = root.issue_device(7);
        (root, dev)
    }

    #[test]
    fn valid_quote_verifies() {
        let (root, dev) = setup();
        let m = Measurement::of_program("teechain", 1);
        let q = dev.quote(m, [9u8; 64]);
        assert!(q.verify(&root.public_key()));
        assert!(q.verify_for(&root.public_key(), &m));
    }

    #[test]
    fn wrong_measurement_rejected() {
        let (root, dev) = setup();
        let q = dev.quote(Measurement::of_program("malware", 1), [9u8; 64]);
        assert!(!q.verify_for(&root.public_key(), &Measurement::of_program("teechain", 1)));
    }

    #[test]
    fn forged_device_rejected() {
        let (root, _) = setup();
        let rogue_root = TrustRoot::new(99);
        let rogue_dev = rogue_root.issue_device(1);
        let q = rogue_dev.quote(Measurement::of_program("teechain", 1), [0u8; 64]);
        // The rogue manufacturer's devices do not verify under the real root.
        assert!(!q.verify(&root.public_key()));
    }

    #[test]
    fn tampered_report_data_rejected() {
        let (root, dev) = setup();
        let mut q = dev.quote(Measurement::of_program("teechain", 1), [9u8; 64]);
        q.report_data[0] ^= 1;
        assert!(!q.verify(&root.public_key()));
    }

    #[test]
    fn tampered_measurement_rejected() {
        let (root, dev) = setup();
        let mut q = dev.quote(Measurement::of_program("teechain", 1), [9u8; 64]);
        q.measurement = Measurement::of_program("teechain", 2);
        assert!(!q.verify(&root.public_key()));
    }

    #[test]
    fn a_batch_of_the_quote_signatures_agrees_with_verify() {
        let (root, dev) = setup();
        let q = dev.quote(Measurement::of_program("teechain", 1), [9u8; 64]);
        assert!(schnorr::verify_batch(&q.signatures(&root.public_key())));
        let rogue = TrustRoot::new(99).issue_device(1);
        let mut forged_cert = q.clone();
        forged_cert.device_cert = rogue.quote(q.measurement, q.report_data).device_cert;
        let mut tampered = q.clone();
        tampered.report_data[0] ^= 1;
        for bad in [forged_cert, tampered] {
            assert!(!bad.verify(&root.public_key()));
            assert!(!schnorr::verify_batch(&bad.signatures(&root.public_key())));
        }
    }

    #[test]
    fn quote_codec_roundtrip() {
        let (_, dev) = setup();
        let q = dev.quote(Measurement::of_program("teechain", 1), [3u8; 64]);
        let decoded = Quote::decode_exact(&q.encode_to_vec()).unwrap();
        assert_eq!(decoded, q);
    }
}
