//! Durable host-side storage for Teechain's persistent-storage fault
//! tolerance (§6.2 of the paper).
//!
//! The paper offers two interchangeable defences against TEE failure:
//! committee-chain replication (Alg. 3, implemented in
//! `teechain::replication`) and *persistent storage backed by monotonic
//! counters*. This crate is the storage engine behind the second: an
//! append-only write-ahead log of sealed state deltas, a sealed full-state
//! snapshot with log compaction, and a recovery read that hands both back
//! to a restarted enclave.
//!
//! Trust model: everything stored here is **untrusted**. Blobs are sealed
//! (authenticated-encrypted) by the enclave before they reach this crate,
//! and every commit embeds a monotonic-counter value, so a malicious host
//! can at worst *lose* suffixes of the log — which the enclave detects on
//! recovery as a roll-back and refuses (`ProtocolError::StaleState`). The
//! CRC32 framing below is *not* a security mechanism; it distinguishes the
//! benign torn tail of a crashed append from a clean end-of-log, exactly
//! like a database WAL.
//!
//! Layout:
//!
//! * [`crc32`] — the IEEE CRC32 used by the record framing, computed
//!   slice-by-8 (eight compile-time tables, eight bytes per step).
//! * [`media`] — byte-level storage backends: [`MemMedia`] for
//!   simulations (with torn-write fault injection) and [`FileMedia`] for
//!   real disks.
//! * [`wal`] — length + CRC32 record framing and torn-tail-aware scans.
//! * [`store`] — [`PersistentStore`]: group-committed appends, snapshot
//!   installation with compaction, and [`PersistentStore::recover`].

pub mod crc32;
pub mod media;
pub mod store;
pub mod wal;

pub use media::{FileMedia, Media, MemMedia};
pub use store::{PersistentStore, Recovery, SharedStore, StoreStats};
