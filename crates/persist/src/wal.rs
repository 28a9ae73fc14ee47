//! WAL record framing: `len(u32 LE) | crc32(u32 LE) | payload`.
//!
//! A scan walks frames from the start of the log and stops at the first
//! frame that is truncated or whose CRC does not match — the torn tail of
//! an append interrupted by a crash. Everything before the tear is
//! returned; the tear itself is reported so the store can surface it.

use crate::crc32::crc32;

/// Bytes of framing per record.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single record (defensive: a corrupt length field must
/// not make a scan attempt a multi-gigabyte allocation).
pub const MAX_RECORD_LEN: usize = 64 << 20;

/// Frames `payload` onto the end of `out`, growing it at most once.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.reserve(HEADER_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Frames `payload` into a fresh buffer.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    frame_into(&mut out, payload);
    out
}

/// Result of scanning a log region.
pub struct Scan {
    /// Intact record payloads, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes covered by intact records (the valid prefix length).
    pub valid_len: usize,
    /// True if trailing bytes after the valid prefix were discarded
    /// (a torn append or corruption).
    pub torn_tail: bool,
}

/// Scans `log`, returning every intact record and whether a torn tail was
/// discarded.
pub fn scan(log: &[u8]) -> Scan {
    let mut records = Vec::new();
    let mut at = 0usize;
    while log.len() - at >= HEADER_LEN {
        let len = u32::from_le_bytes(log[at..at + 4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(log[at + 4..at + 8].try_into().unwrap());
        let start = at + HEADER_LEN;
        if len > MAX_RECORD_LEN || start + len > log.len() {
            break; // Truncated mid-record.
        }
        let payload = &log[start..start + len];
        if crc32(payload) != crc {
            break; // Corrupt frame: stop, do not resync.
        }
        records.push(payload.to_vec());
        at = start + len;
    }
    Scan {
        records,
        valid_len: at,
        torn_tail: at != log.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_multiple_records() {
        let mut log = Vec::new();
        frame_into(&mut log, b"first");
        frame_into(&mut log, b"");
        frame_into(&mut log, b"third record");
        let s = scan(&log);
        assert!(!s.torn_tail);
        assert_eq!(s.valid_len, log.len());
        assert_eq!(
            s.records,
            vec![b"first".to_vec(), vec![], b"third record".to_vec()]
        );
    }

    #[test]
    fn torn_tail_detected_and_prefix_kept() {
        let mut log = Vec::new();
        frame_into(&mut log, b"keep me");
        frame_into(&mut log, b"torn away");
        let keep_len = HEADER_LEN + 7;
        log.truncate(log.len() - 4); // Crash mid-append of record 2.
        let s = scan(&log);
        assert!(s.torn_tail);
        assert_eq!(s.valid_len, keep_len);
        assert_eq!(s.records, vec![b"keep me".to_vec()]);
    }

    #[test]
    fn corrupt_crc_stops_scan() {
        let mut log = Vec::new();
        frame_into(&mut log, b"good");
        frame_into(&mut log, b"bad!");
        frame_into(&mut log, b"unreachable");
        let flip_at = HEADER_LEN + 4 + HEADER_LEN; // First byte of "bad!".
        log[flip_at] ^= 0x01;
        let s = scan(&log);
        assert!(s.torn_tail);
        assert_eq!(s.records, vec![b"good".to_vec()]);
    }

    #[test]
    fn insane_length_field_rejected() {
        let mut log = (u32::MAX).to_le_bytes().to_vec();
        log.extend_from_slice(&[0; 4]);
        log.extend_from_slice(&[0xAB; 64]);
        let s = scan(&log);
        assert!(s.records.is_empty());
        assert!(s.torn_tail);
    }

    #[test]
    fn partial_header_is_a_clean_tear() {
        let mut log = frame(b"ok");
        log.extend_from_slice(&[1, 2, 3]); // 3 bytes of a next header.
        let s = scan(&log);
        assert_eq!(s.records.len(), 1);
        assert!(s.torn_tail);
    }
}
