//! Enclave measurements: the identity of the *code* running in a TEE.

use teechain_crypto::sha256::tagged_hash;
use teechain_util::hex;

/// A digest identifying an enclave program (SGX's `MRENCLAVE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Measurement(pub [u8; 32]);

impl Measurement {
    /// Computes the measurement of a program from its name and version.
    /// In real SGX this is a hash of the loaded pages; name+version is the
    /// simulation equivalent (two enclaves agree iff they run the same
    /// build of the same program).
    pub fn of_program(name: &str, version: u32) -> Self {
        Measurement(tagged_hash(
            "teechain/measurement",
            &[name.as_bytes(), &version.to_le_bytes()],
        ))
    }

    /// Short printable fingerprint.
    pub fn fingerprint(&self) -> String {
        hex::encode(&self.0[..4])
    }
}

teechain_util::impl_wire_struct!(Measurement { 0 });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_program_same_measurement() {
        assert_eq!(
            Measurement::of_program("teechain", 1),
            Measurement::of_program("teechain", 1)
        );
    }

    #[test]
    fn version_changes_measurement() {
        assert_ne!(
            Measurement::of_program("teechain", 1),
            Measurement::of_program("teechain", 2)
        );
    }

    #[test]
    fn name_changes_measurement() {
        assert_ne!(
            Measurement::of_program("teechain", 1),
            Measurement::of_program("malware", 1)
        );
    }
}
