//! The persistent store: group-committed WAL appends, snapshot
//! installation with log compaction, and crash recovery.

use crate::media::{Media, MemMedia};
use crate::wal;
use parking_lot::Mutex;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Write/compaction counters, for the paper's Table 1/2 cost analysis.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreStats {
    /// Durability barriers performed (WAL appends *and* snapshot
    /// installs each end in one fsync equivalent; with group commit,
    /// one barrier covers a whole delta batch).
    pub commits: u64,
    /// WAL records appended.
    pub records: u64,
    /// Payload bytes appended to the WAL (excluding framing).
    pub wal_bytes: u64,
    /// Snapshots installed (each truncates the log).
    pub compactions: u64,
    /// Snapshot bytes written.
    pub snapshot_bytes: u64,
}

/// Everything a restarted enclave needs to rebuild its state.
pub struct Recovery {
    /// The most recent sealed snapshot, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Sealed WAL records appended after that snapshot, oldest first.
    pub log: Vec<Vec<u8>>,
    /// True if a torn append was discarded from the end of the log. The
    /// enclave will see the missing commit as a counter gap and refuse
    /// recovery — a torn tail is indistinguishable from a roll-back and
    /// is treated with the same severity.
    pub torn_tail: bool,
}

/// Host-side durable storage for one node: WAL + snapshot slot.
///
/// All content is sealed by the enclave before it gets here; the store
/// never interprets payloads. Every write returns `io::Result`: a
/// failed append or sync means the node must stop acknowledging state
/// changes (the enclave has already spent the counter increment), so
/// callers treat `Err` as fatal for the node.
pub struct PersistentStore {
    media: Box<dyn Media>,
    stats: StoreStats,
    /// Reused framing buffer: a commit frames its record here, so once it
    /// has grown to the largest record, appends allocate nothing.
    frame: Vec<u8>,
}

/// A store shared between the simulation harness (which keeps it alive
/// across node crashes — it models the disk, not the process) and the
/// node's effect handler.
pub type SharedStore = Arc<Mutex<PersistentStore>>;

impl PersistentStore {
    /// A store over the given media.
    pub fn new(media: Box<dyn Media>) -> Self {
        PersistentStore {
            media,
            stats: StoreStats::default(),
            frame: Vec::new(),
        }
    }

    /// An in-memory store (simulations; survives enclave crashes because
    /// the harness owns it).
    pub fn in_memory() -> Self {
        Self::new(Box::new(MemMedia::new()))
    }

    /// A file-backed store under `dir` (survives process crashes).
    pub fn on_disk(dir: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(Box::new(crate::media::FileMedia::open(dir)?)))
    }

    /// Wraps the store for sharing with a node.
    pub fn into_shared(self) -> SharedStore {
        Arc::new(Mutex::new(self))
    }

    /// Appends one sealed commit record and syncs. The record is the
    /// group-commit unit: the enclave packs every delta of a batch into
    /// one sealed record, so one durability barrier covers them all.
    pub fn append_commit(&mut self, record: &[u8]) -> io::Result<()> {
        self.frame.clear();
        wal::frame_into(&mut self.frame, record);
        self.media.log_append(&self.frame)?;
        self.media.sync()?;
        self.stats.commits += 1;
        self.stats.records += 1;
        self.stats.wal_bytes += record.len() as u64;
        Ok(())
    }

    /// Installs a sealed snapshot and compacts: the WAL is truncated,
    /// since the snapshot supersedes every record before it.
    pub fn install_snapshot(&mut self, blob: &[u8]) -> io::Result<()> {
        self.media.snapshot_write(blob)?;
        self.media.log_reset(&[])?;
        self.media.sync()?;
        self.stats.commits += 1;
        self.stats.compactions += 1;
        self.stats.snapshot_bytes += blob.len() as u64;
        Ok(())
    }

    /// Reads everything back for a restarted enclave.
    pub fn recover(&mut self) -> io::Result<Recovery> {
        let scan = wal::scan(&self.media.log_read()?);
        Ok(Recovery {
            // Normalize: an empty slot means "no snapshot".
            snapshot: self.media.snapshot_read()?.filter(|s| !s.is_empty()),
            log: scan.records,
            torn_tail: scan.torn_tail,
        })
    }

    /// Write counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    // ---- Fault injection (tests, adversarial experiments) ----

    /// Dumps the raw media contents (snapshot slot, log region). An
    /// attacker controlling the host can always copy these.
    pub fn raw_dump(&mut self) -> io::Result<(Option<Vec<u8>>, Vec<u8>)> {
        Ok((self.media.snapshot_read()?, self.media.log_read()?))
    }

    /// Replaces the media contents wholesale — models a malicious host
    /// restoring stale storage for a roll-back attack.
    pub fn restore_raw(&mut self, snapshot: Option<Vec<u8>>, log: Vec<u8>) -> io::Result<()> {
        match snapshot {
            Some(s) => self.media.snapshot_write(&s)?,
            None => self.media.snapshot_clear()?,
        }
        self.media.log_reset(&log)?;
        self.media.sync()
    }

    /// Tears `n` bytes off the end of the log — models a host crash in
    /// the middle of an append.
    pub fn tear_tail(&mut self, n: usize) -> io::Result<()> {
        let mut log = self.media.log_read()?;
        log.truncate(log.len().saturating_sub(n));
        self.media.log_reset(&log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_then_recover_roundtrip() {
        let mut s = PersistentStore::in_memory();
        s.append_commit(b"rec-1").unwrap();
        s.append_commit(b"rec-2").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.log, vec![b"rec-1".to_vec(), b"rec-2".to_vec()]);
        assert!(r.snapshot.is_none());
        assert!(!r.torn_tail);
        assert_eq!(s.stats().commits, 2);
    }

    #[test]
    fn snapshot_compacts_the_log() {
        let mut s = PersistentStore::in_memory();
        s.append_commit(b"old-1").unwrap();
        s.append_commit(b"old-2").unwrap();
        s.install_snapshot(b"snap@2").unwrap();
        s.append_commit(b"new-3").unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"snap@2"[..]));
        assert_eq!(r.log, vec![b"new-3".to_vec()]);
        assert_eq!(s.stats().compactions, 1);
        // Barrier accounting: 3 appends + 1 snapshot install.
        assert_eq!(s.stats().commits, 4);
    }

    #[test]
    fn torn_tail_reported() {
        let mut s = PersistentStore::in_memory();
        s.append_commit(b"whole").unwrap();
        s.append_commit(b"will be torn").unwrap();
        s.tear_tail(3).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.log, vec![b"whole".to_vec()]);
        assert!(r.torn_tail);
    }

    #[test]
    fn raw_restore_rolls_back_contents() {
        let mut s = PersistentStore::in_memory();
        s.append_commit(b"a").unwrap();
        s.install_snapshot(b"snap-a").unwrap();
        let (snap, log) = s.raw_dump().unwrap();
        s.append_commit(b"b").unwrap();
        s.install_snapshot(b"snap-b").unwrap();
        s.restore_raw(snap, log).unwrap();
        let r = s.recover().unwrap();
        assert_eq!(r.snapshot.as_deref(), Some(&b"snap-a"[..]));
        assert!(r.log.is_empty());
    }

    #[test]
    fn restore_raw_without_snapshot_clears_the_slot() {
        let mut s = PersistentStore::in_memory();
        s.append_commit(b"pre-snapshot era").unwrap();
        let (snap, log) = s.raw_dump().unwrap();
        assert!(snap.is_none());
        s.install_snapshot(b"later").unwrap();
        s.restore_raw(snap, log).unwrap();
        let r = s.recover().unwrap();
        assert!(r.snapshot.is_none(), "no phantom empty snapshot");
        assert_eq!(r.log, vec![b"pre-snapshot era".to_vec()]);
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join(format!(
            "teechain-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut s = PersistentStore::on_disk(&dir).unwrap();
            s.install_snapshot(b"disk-snap").unwrap();
            s.append_commit(b"disk-rec").unwrap();
        }
        {
            let mut s = PersistentStore::on_disk(&dir).unwrap();
            let r = s.recover().unwrap();
            assert_eq!(r.snapshot.as_deref(), Some(&b"disk-snap"[..]));
            assert_eq!(r.log, vec![b"disk-rec".to_vec()]);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
