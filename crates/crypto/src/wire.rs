//! Wire-codec implementations for cryptographic types.
//!
//! These live here (rather than in consumer crates) because Rust's orphan
//! rules require the impl to be in the crate of either the trait or the type.

use crate::point::Affine;
use crate::schnorr::{PublicKey, Signature};
use crate::u256::U256;
use teechain_util::codec::{Decode, Encode, Reader, WireError};

impl Encode for U256 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_be_bytes().encode(out);
    }
}

impl Decode for U256 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(U256::from_be_bytes(&r.read::<[u8; 32]>()?))
    }
}

impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bytes().encode(out);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read::<[u8; 64]>()?;
        PublicKey::from_bytes(&bytes).ok_or(WireError::InvalidValue("public key not on curve"))
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bytes().encode(out);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read::<[u8; 96]>()?;
        Signature::from_bytes(&bytes).ok_or(WireError::InvalidValue(
            "signature not canonical (R off curve or s out of range)",
        ))
    }
}

impl Encode for Affine {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bytes().encode(out);
    }
}

impl Decode for Affine {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.read::<[u8; 64]>()?;
        Affine::from_bytes(&bytes).ok_or(WireError::InvalidValue("point not on curve"))
    }
}

#[cfg(test)]
mod tests {
    use crate::schnorr::Keypair;
    use teechain_util::codec::{Decode, Encode};

    #[test]
    fn pubkey_roundtrip() {
        use crate::schnorr::PublicKey;
        let k = Keypair::from_seed(&[1; 32]);
        let decoded = PublicKey::decode_exact(&k.pk.encode_to_vec()).unwrap();
        assert_eq!(decoded, k.pk);
    }

    #[test]
    fn bad_point_rejected() {
        use crate::schnorr::PublicKey;
        let junk = [3u8; 64].encode_to_vec();
        assert!(PublicKey::decode_exact(&junk).is_err());
    }

    #[test]
    fn signature_roundtrip() {
        use crate::schnorr::Signature;
        let k = Keypair::from_seed(&[2; 32]);
        let sig = k.sign(b"wire");
        let decoded = Signature::decode_exact(&sig.encode_to_vec()).unwrap();
        assert_eq!(decoded, sig);
    }

    #[test]
    fn vec_of_indexed_signatures_is_the_concatenation_of_its_elements() {
        // `SigResponse.sigs`: the slice paths of `teechain_util::codec` must
        // produce the element-wise format, and read it back.
        use crate::schnorr::Signature;
        let sigs: Vec<(u32, Signature)> = (0u8..5)
            .map(|i| {
                let k = Keypair::from_seed(&[i + 1; 32]);
                (u32::from(i) * 7, k.sign(&[i; 9]))
            })
            .collect();
        let mut expect = (sigs.len() as u32).encode_to_vec();
        for (i, sig) in &sigs {
            i.encode(&mut expect);
            sig.encode(&mut expect);
        }
        let bytes = sigs.encode_to_vec();
        assert_eq!(bytes, expect);
        assert_eq!(bytes.len(), 4 + 5 * 100);
        assert_eq!(Vec::<(u32, Signature)>::decode_exact(&bytes).unwrap(), sigs);
        for len in 0..bytes.len() {
            assert!(Vec::<(u32, Signature)>::decode_exact(&bytes[..len]).is_err());
        }
    }

    #[test]
    fn non_canonical_signature_is_a_codec_error() {
        use crate::schnorr::Signature;
        let k = Keypair::from_seed(&[2; 32]);
        let mut bytes = k.sign(b"wire").to_bytes();
        bytes[64..].copy_from_slice(&[0xff; 32]); // s = 2^256 − 1 ≥ n
        assert!(Signature::decode_exact(&bytes.encode_to_vec()).is_err());
    }
}
