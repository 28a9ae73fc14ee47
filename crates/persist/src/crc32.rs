//! CRC32 (IEEE 802.3, reflected) for WAL record framing, slice-by-8.
//!
//! Eight bytes per step through eight lookup tables: `TABLES[0]` is the
//! classic byte-at-a-time table, and `TABLES[k][b]` is the CRC state after
//! byte `b` followed by `k` zero bytes, so one step XORs eight independent
//! look-ups instead of chaining eight dependent ones. Every value is
//! bit-identical to the byte-at-a-time loop (kept as the test reference).

/// Reflected polynomial of the IEEE CRC32.
const POLY: u32 = 0xEDB8_8320;

/// The slice-by-8 tables, built at compile time.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = u32::MAX;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The byte-at-a-time loop slice-by-8 replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_any_flip() {
        let base = crc32(b"teechain-wal-record");
        let mut data = b"teechain-wal-record".to_vec();
        for i in 0..data.len() {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// Every length 0..=1,024 at every alignment 0..8 inside a larger
        /// buffer: the 8-byte steps, the tail loop and their seam.
        #[test]
        fn slice_by_8_matches_bytewise(buf in proptest::collection::vec(any::<u8>(), 1_032)) {
            for start in 0..8 {
                for len in 0..=1_024 {
                    let bytes = &buf[start..start + len];
                    prop_assert_eq!(crc32(bytes), crc32_bytewise(bytes));
                }
            }
        }
    }
}
