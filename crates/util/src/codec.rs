//! A small, bit-stable binary wire codec.
//!
//! Transaction identifiers and enclave state digests are SHA-256 hashes of
//! serialized bytes, so serialization must be deterministic and stable. All
//! integers are little-endian; variable-length collections are prefixed with
//! a `u32` length.

use std::collections::BTreeMap;

/// Errors produced while decoding wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof,
    /// A length prefix or tag was outside the permitted range.
    InvalidValue(&'static str),
    /// Trailing bytes remained after decoding a top-level value.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Sequential reader over a byte slice.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes a `u32` length and that many bytes: the encoding of a
    /// `Vec<u8>`, borrowed from the input instead of copied out of it.
    pub fn take_prefixed(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.read::<u32>()? as usize;
        self.take(len)
    }

    /// Offset of the next unread byte from the start of the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Decodes a value of type `T` from the current position.
    pub fn read<T: Decode>(&mut self) -> Result<T, WireError> {
        T::decode(self)
    }
}

/// Types that can be serialized to the wire format.
pub trait Encode {
    /// Appends the serialized form of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Appends the serialized forms of `items`, one after another and with
    /// no length prefix. A `Vec<T>` encodes its elements through this, so a
    /// type whose slice is already its wire form (`u8`) overrides it with
    /// one copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>)
    where
        Self: Sized,
    {
        for item in items {
            item.encode(out);
        }
    }

    /// Serializes `self` into a fresh buffer.
    fn encode_to_vec(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Types that can be deserialized from the wire format.
pub trait Decode: Sized {
    /// Decodes a value from `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decodes `len` consecutive values: the elements of a `Vec<Self>`
    /// after its length prefix. `len` comes from the input, so it bounds
    /// nothing by itself: space is set aside only for as many elements as
    /// the unread bytes could fill in memory, and `push` grows the rest.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, WireError> {
        let mut out = Vec::with_capacity(prealloc::<Self>(len, r.remaining()));
        for _ in 0..len {
            out.push(r.read::<Self>()?);
        }
        Ok(out)
    }

    /// Decodes a value that must consume the entire input.
    fn decode_exact(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

/// Elements to set aside for a claimed `len` with `remaining` bytes unread:
/// never more memory than the input that is supposed to fill it.
fn prealloc<T>(len: usize, remaining: usize) -> usize {
    len.min(remaining / std::mem::size_of::<T>().max(1))
}

macro_rules! impl_int {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().unwrap()))
            }
        }
    )*};
}

impl_int!(u16, u32, u64, u128, i64);

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }

    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(1)?[0])
    }

    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<u8>, WireError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read::<u8>()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("bool")),
        }
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.take(N)?.try_into().unwrap())
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.read::<u32>()? as usize;
        // Every element takes at least a byte: a longer claim is corrupt.
        if len > r.remaining() {
            return Err(WireError::InvalidValue("vec length"));
        }
        T::decode_vec(r, len)
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read::<u8>()? {
            0 => Ok(None),
            1 => Ok(Some(r.read::<T>()?)),
            _ => Err(WireError::InvalidValue("option tag")),
        }
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let bytes = r.take_prefixed()?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidValue("utf8"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((r.read()?, r.read()?))
    }
}

impl<K: Encode + Ord, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = r.read::<u32>()? as usize;
        let mut out = BTreeMap::new();
        for _ in 0..len {
            let k = r.read::<K>()?;
            let v = r.read::<V>()?;
            out.insert(k, v);
        }
        Ok(out)
    }
}

/// Implements `Encode`/`Decode` for a struct field-by-field.
#[macro_export]
macro_rules! impl_wire_struct {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::codec::Encode for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }
        }
        impl $crate::codec::Decode for $ty {
            fn decode(r: &mut $crate::codec::Reader<'_>) -> Result<Self, $crate::codec::WireError> {
                Ok(Self { $($field: r.read()?),+ })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ints_roundtrip() {
        let mut buf = Vec::new();
        42u8.encode(&mut buf);
        7u32.encode(&mut buf);
        u64::MAX.encode(&mut buf);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read::<u8>().unwrap(), 42);
        assert_eq!(r.read::<u32>().unwrap(), 7);
        assert_eq!(r.read::<u64>().unwrap(), u64::MAX);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_detected() {
        let buf = [1u8, 2];
        let mut r = Reader::new(&buf);
        assert_eq!(r.read::<u32>(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn bool_rejects_junk() {
        assert_eq!(
            bool::decode_exact(&[2]),
            Err(WireError::InvalidValue("bool"))
        );
    }

    #[test]
    fn option_roundtrip() {
        let v: Option<u32> = Some(9);
        assert_eq!(Option::<u32>::decode_exact(&v.encode_to_vec()).unwrap(), v);
        let n: Option<u32> = None;
        assert_eq!(Option::<u32>::decode_exact(&n.encode_to_vec()).unwrap(), n);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = 1u8.encode_to_vec();
        buf.push(0);
        assert_eq!(u8::decode_exact(&buf), Err(WireError::TrailingBytes));
    }

    #[test]
    fn vec_length_guard() {
        // Claims 2^32-1 elements with 0 bytes of payload.
        let buf = u32::MAX.encode_to_vec();
        assert!(Vec::<u8>::decode_exact(&buf).is_err());
    }

    #[test]
    fn a_length_claim_does_not_size_the_allocation() {
        // 4 KiB elements: a claim the guard lets through (one byte of body
        // per element) used to reserve `len * 4096` bytes up front.
        assert_eq!(prealloc::<[u8; 4096]>(1 << 20, 1 << 20), 256);
        assert_eq!(prealloc::<[u8; 4096]>(3, 1 << 20), 3);
        assert_eq!(prealloc::<u64>(u32::MAX as usize, 7), 0);
        let mut buf = (1u32 << 20).encode_to_vec();
        buf.resize(4 + (1 << 20), 0);
        assert_eq!(
            Vec::<[u8; 4096]>::decode_exact(&buf[..buf.len() - 1]),
            Err(WireError::InvalidValue("vec length"))
        );
        buf[..4].copy_from_slice(&((1u32 << 20) - 4095).to_le_bytes());
        assert_eq!(
            Vec::<[u8; 4096]>::decode_exact(&buf),
            Err(WireError::UnexpectedEof)
        );
        // The byte path stops at the same guard.
        assert_eq!(
            Vec::<u8>::decode_exact(&buf[..buf.len() - 4096]),
            Err(WireError::InvalidValue("vec length"))
        );
    }

    #[test]
    fn take_prefixed_borrows_what_a_byte_vector_decodes() {
        let mut buf = vec![9u8, 8, 7].encode_to_vec();
        buf.push(0xee);
        let mut r = Reader::new(&buf);
        assert_eq!(r.take_prefixed().unwrap(), &[9, 8, 7]);
        assert_eq!(r.position(), 7);
        assert_eq!(r.remaining(), 1);
        // A length past the end is an error, not a short slice.
        assert_eq!(
            Reader::new(&buf[..6]).take_prefixed(),
            Err(WireError::UnexpectedEof)
        );
        assert_eq!(
            Reader::new(&buf[..3]).take_prefixed(),
            Err(WireError::UnexpectedEof)
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert(3u32, "three".to_string());
        m.insert(1u32, "one".to_string());
        let decoded = BTreeMap::<u32, String>::decode_exact(&m.encode_to_vec()).unwrap();
        assert_eq!(decoded, m);
    }

    /// The element-wise vector codec every `Vec<T>` went through before
    /// `encode_slice` / `decode_vec`: the wire format's definition, and what
    /// the slice paths are compared against.
    fn reference_encode<T: Encode>(v: &[T]) -> Vec<u8> {
        let mut out = Vec::new();
        (v.len() as u32).encode(&mut out);
        for item in v {
            item.encode(&mut out);
        }
        out
    }

    fn reference_decode<T: Decode>(buf: &[u8]) -> Result<Vec<T>, WireError> {
        let mut r = Reader::new(buf);
        let len = r.read::<u32>()? as usize;
        if len > r.remaining() {
            return Err(WireError::InvalidValue("vec length"));
        }
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(r.read::<T>()?);
        }
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes);
        }
        Ok(out)
    }

    /// Byte-for-byte agreement with the reference on `v`, on every
    /// truncation of its encoding and on every bit of its length prefix.
    fn assert_matches_reference<T>(v: &Vec<T>) -> Result<(), proptest::TestCaseError>
    where
        T: Encode + Decode + PartialEq + std::fmt::Debug,
    {
        let bytes = v.encode_to_vec();
        prop_assert_eq!(&bytes, &reference_encode(v));
        prop_assert_eq!(Vec::<T>::decode_exact(&bytes).as_ref(), Ok(v));
        prop_assert_eq!(reference_decode::<T>(&bytes).as_ref(), Ok(v));
        for len in 0..bytes.len() {
            prop_assert_eq!(
                Vec::<T>::decode_exact(&bytes[..len]),
                reference_decode(&bytes[..len])
            );
        }
        for bit in 0..32 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            prop_assert_eq!(Vec::<T>::decode_exact(&bad), reference_decode(&bad));
        }
        Ok(())
    }

    proptest! {
        #[test]
        fn prop_vec_u8_matches_reference(v in proptest::collection::vec(any::<u8>(), 0..300)) {
            assert_matches_reference(&v)?;
        }

        #[test]
        fn prop_vec_u64_matches_reference(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            assert_matches_reference(&v)?;
        }

        #[test]
        fn prop_vec_of_pairs_matches_reference(
            // The shape of `Vec<(u32, Signature)>`; the real thing is
            // checked where `Signature` lives, in `teechain_crypto::wire`.
            v in proptest::collection::vec(any::<[u8; 36]>(), 0..16),
        ) {
            let pairs: Vec<(u32, [u8; 32])> = v
                .iter()
                .map(|b| (u32::from_le_bytes([b[0], b[1], b[2], b[3]]), b[4..].try_into().unwrap()))
                .collect();
            assert_matches_reference(&pairs)?;
        }

        #[test]
        fn prop_nested_and_optional_byte_vectors_match_reference(
            v in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..40), 0..8),
        ) {
            assert_matches_reference(&v)?;
            // A leading zero byte stands for `None`.
            let v: Vec<Option<Vec<u8>>> = v
                .into_iter()
                .map(|b| (b.first() != Some(&0)).then_some(b))
                .collect();
            assert_matches_reference(&v)?;
            for item in &v {
                let bytes = item.encode_to_vec();
                let mut expect = vec![u8::from(item.is_some())];
                if let Some(inner) = item {
                    expect.extend(reference_encode(inner));
                }
                prop_assert_eq!(&bytes, &expect);
                prop_assert_eq!(&Option::<Vec<u8>>::decode_exact(&bytes).unwrap(), item);
            }
        }

        #[test]
        fn prop_vec_u64_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..64)) {
            let decoded = Vec::<u64>::decode_exact(&v.encode_to_vec()).unwrap();
            prop_assert_eq!(decoded, v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            let decoded = String::decode_exact(&s.encode_to_vec()).unwrap();
            prop_assert_eq!(decoded, s);
        }

        #[test]
        fn prop_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Decoding arbitrary junk must fail gracefully, never panic.
            let _ = Vec::<u32>::decode_exact(&bytes);
            let _ = String::decode_exact(&bytes);
            let _ = Option::<u64>::decode_exact(&bytes);
        }
    }
}
