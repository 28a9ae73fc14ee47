//! Byte-level storage backends for the WAL and snapshot.
//!
//! A [`Media`] holds two regions: an append-only *log* and a
//! single-slot *snapshot*. The store layers framing, compaction and
//! recovery on top; media implementations only move bytes.
//!
//! Every operation reports I/O failure. Swallowing a failed append or
//! sync would be fatal in slow motion: the enclave has already bound
//! the commit to a monotonic-counter increment, so a commit that the
//! host believes durable but is not becomes an undetectable-until-
//! restart roll-back. Callers must treat any `Err` as "this node can
//! no longer acknowledge state changes".

use std::fs;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Raw storage: an append-only log region plus a snapshot slot.
pub trait Media: Send {
    /// Reads the entire log region.
    fn log_read(&mut self) -> io::Result<Vec<u8>>;

    /// Appends bytes to the log region.
    fn log_append(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Replaces the log region wholesale (compaction, fault injection).
    fn log_reset(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Reads the snapshot slot (`None` if no snapshot was ever taken).
    fn snapshot_read(&mut self) -> io::Result<Option<Vec<u8>>>;

    /// Replaces the snapshot slot atomically.
    fn snapshot_write(&mut self, bytes: &[u8]) -> io::Result<()>;

    /// Empties the snapshot slot (back to `None`).
    fn snapshot_clear(&mut self) -> io::Result<()>;

    /// Durability barrier — the fsync equivalent. Everything written
    /// before this call survives a crash after it.
    fn sync(&mut self) -> io::Result<()>;
}

/// In-memory media for simulations. Survives *enclave* crashes by
/// construction (the simulation owns it outside the node), and offers
/// torn-write injection for host-crash experiments.
#[derive(Default)]
pub struct MemMedia {
    log: Vec<u8>,
    snapshot: Option<Vec<u8>>,
    /// Bytes of the log that have been covered by a [`Media::sync`];
    /// a simulated host crash loses everything beyond this point.
    synced_len: usize,
}

impl MemMedia {
    /// Fresh empty media.
    pub fn new() -> Self {
        Self::default()
    }

    /// Simulates a host crash that tears the last `n` bytes off the log
    /// (a partially persisted append).
    pub fn tear_tail(&mut self, n: usize) {
        let keep = self.log.len().saturating_sub(n);
        self.log.truncate(keep);
        self.synced_len = self.synced_len.min(keep);
    }

    /// Simulates a host crash: unsynced log bytes are lost.
    pub fn drop_unsynced(&mut self) {
        self.log.truncate(self.synced_len);
    }
}

impl Media for MemMedia {
    fn log_read(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.log.clone())
    }

    fn log_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log.extend_from_slice(bytes);
        Ok(())
    }

    fn log_reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        // In place: a compacted log keeps its capacity for the appends
        // that follow.
        self.log.clear();
        self.log.extend_from_slice(bytes);
        self.synced_len = 0;
        Ok(())
    }

    fn snapshot_read(&mut self) -> io::Result<Option<Vec<u8>>> {
        Ok(self.snapshot.clone())
    }

    fn snapshot_write(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.snapshot = Some(bytes.to_vec());
        Ok(())
    }

    fn snapshot_clear(&mut self) -> io::Result<()> {
        self.snapshot = None;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.synced_len = self.log.len();
        Ok(())
    }
}

/// File-backed media: `wal.log` and `snapshot.bin` under a directory.
/// Snapshot replacement goes through a temp file + rename so a crash
/// mid-write never destroys the previous snapshot.
pub struct FileMedia {
    dir: PathBuf,
    log: fs::File,
}

impl FileMedia {
    /// Opens (creating if needed) media under `dir`.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let log = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(dir.join("wal.log"))?;
        Ok(FileMedia { dir, log })
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.bin")
    }
}

impl Media for FileMedia {
    fn log_read(&mut self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        self.log.seek(SeekFrom::Start(0))?;
        self.log.read_to_end(&mut out)?;
        Ok(out)
    }

    fn log_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log.seek(SeekFrom::End(0))?;
        self.log.write_all(bytes)
    }

    fn log_reset(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.log.set_len(0)?;
        self.log.seek(SeekFrom::Start(0))?;
        self.log.write_all(bytes)?;
        self.log.sync_all()
    }

    fn snapshot_read(&mut self) -> io::Result<Option<Vec<u8>>> {
        match fs::read(self.snapshot_path()) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn snapshot_write(&mut self, bytes: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join("snapshot.tmp");
        fs::write(&tmp, bytes)?;
        fs::rename(&tmp, self.snapshot_path())
    }

    fn snapshot_clear(&mut self) -> io::Result<()> {
        match fs::remove_file(self.snapshot_path()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        self.log.sync_all()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_roundtrip() {
        let mut m = MemMedia::new();
        m.log_append(b"abc").unwrap();
        m.log_append(b"def").unwrap();
        m.sync().unwrap();
        assert_eq!(m.log_read().unwrap(), b"abcdef");
        m.snapshot_write(b"snap").unwrap();
        assert_eq!(m.snapshot_read().unwrap().as_deref(), Some(&b"snap"[..]));
        m.snapshot_clear().unwrap();
        assert_eq!(m.snapshot_read().unwrap(), None);
        m.log_reset(b"").unwrap();
        assert!(m.log_read().unwrap().is_empty());
    }

    #[test]
    fn mem_media_torn_tail_and_unsynced_loss() {
        let mut m = MemMedia::new();
        m.log_append(b"durable").unwrap();
        m.sync().unwrap();
        m.log_append(b"lost").unwrap();
        m.drop_unsynced();
        assert_eq!(m.log_read().unwrap(), b"durable");
        m.tear_tail(3);
        assert_eq!(m.log_read().unwrap(), b"dura");
    }

    #[test]
    fn file_media_roundtrip() {
        let dir = std::env::temp_dir().join(format!(
            "teechain-persist-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut m = FileMedia::open(&dir).unwrap();
            assert_eq!(m.snapshot_read().unwrap(), None, "fresh media is empty");
            m.log_append(b"hello ").unwrap();
            m.log_append(b"wal").unwrap();
            m.sync().unwrap();
            m.snapshot_write(b"snapshot-bytes").unwrap();
        }
        {
            // Reopen: contents must have survived.
            let mut m = FileMedia::open(&dir).unwrap();
            assert_eq!(m.log_read().unwrap(), b"hello wal");
            assert_eq!(
                m.snapshot_read().unwrap().as_deref(),
                Some(&b"snapshot-bytes"[..])
            );
            m.snapshot_clear().unwrap();
            assert_eq!(m.snapshot_read().unwrap(), None);
            m.log_reset(b"x").unwrap();
            assert_eq!(m.log_read().unwrap(), b"x");
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
