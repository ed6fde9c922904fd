//! A single append-only CRC-framed log file.

use std::fs::{File, OpenOptions};
use std::io::{Read, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use tetrabft_types::FsyncPolicy;
use tetrabft_wire::{Reader, Writer};

use crate::crc::crc32;
use crate::record::{frame_into_writer, frame_with, scan, MAX_RECORD_BYTES};
use crate::StoreError;

/// One write-ahead log file: append-only CRC-framed records, torn-tail
/// truncation on open, optional atomic rewrite (compaction), and the
/// [`FsyncPolicy`] deciding when appended records are forced to media.
///
/// # Examples
///
/// [`crate::NodeStore`] keeps its vote book in one: what it appends
/// survives a reopen, and a torn tail is cut back to the last whole record.
///
/// ```
/// use tetrabft_store::{record::scan, NodeStore};
/// use tetrabft_types::{FsyncPolicy, Phase, Slot, Value, View, VoteBook};
/// let dir = std::env::temp_dir().join(format!("tetrabft-wal-doc-{}", std::process::id()));
/// # let _ = std::fs::remove_dir_all(&dir);
/// let mut book = VoteBook::new();
/// book.record(Phase::VOTE1, View(0), Value::from_u64(7));
/// let mut store = NodeStore::open(&dir, FsyncPolicy::Always)?;
/// store.record_votes(Slot(1), View(0), Slot(0), &book)?;
/// drop(store);
/// let path = dir.join("votes.wal");
/// let bytes = std::fs::read(&path)?;
/// let (records, valid) = scan(&bytes);
/// assert!(!records.is_empty());
/// assert_eq!(valid, bytes.len());
/// let mut torn = bytes.clone();
/// torn.extend_from_slice(&[0x05, b'h', b'a']);
/// std::fs::write(&path, &torn)?;
/// let store = NodeStore::open(&dir, FsyncPolicy::Always)?;
/// assert_eq!(std::fs::read(&path)?, bytes);
/// assert_eq!(store.restored_votes()[&1].view, View(0));
/// # drop(store);
/// # std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), tetrabft_store::StoreError>(())
/// ```
#[derive(Debug)]
pub(crate) struct Wal {
    path: PathBuf,
    file: File,
    /// Length of the valid (scanned or appended) prefix.
    len: u64,
    records: u64,
    pending: u32,
    policy: FsyncPolicy,
    /// Retained framing buffer: [`Wal::append`] is on the consensus
    /// persist path, so the frame is built in reused capacity instead of
    /// a fresh allocation per record.
    scratch: Writer,
}

impl Wal {
    /// Opens (creating if absent) the log at `path`, scans its records,
    /// and truncates any torn tail. Hands `restore` every payload that
    /// survived the scan, in append order, by reference into the one read
    /// of the file: a caller that needs only a record's header copies
    /// nothing. The first error `restore` returns fails the open.
    pub(crate) fn open(
        path: impl AsRef<Path>,
        policy: FsyncPolicy,
        mut restore: impl FnMut(&[u8]) -> Result<(), StoreError>,
    ) -> Result<Wal, StoreError> {
        let path = path.as_ref().to_path_buf();
        // truncate(false): existing records are the whole point — the scan
        // below decides how much of the tail survives.
        let mut file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;
        let (records, valid) = scan(&bytes);
        if valid < bytes.len() {
            // A torn or corrupt tail: cut back to the last valid record so
            // future appends extend known-good state, never garbage.
            file.set_len(valid as u64)?;
            file.sync_data()?;
        }
        for record in &records {
            restore(record)?;
        }
        Ok(Wal {
            path,
            file,
            len: valid as u64,
            records: records.len() as u64,
            pending: 0,
            policy,
            scratch: Writer::new(),
        })
    }

    /// Appends one record, returning the file offset its frame starts at.
    pub(crate) fn append(&mut self, payload: &[u8]) -> Result<u64, StoreError> {
        self.append_with(payload.len(), |w| w.put_slice(payload))
    }

    /// Appends the `len`-byte record `encode` writes, encoded straight
    /// into the retained frame buffer ([`frame_with`]): the one copy of
    /// its bytes between the caller's values and the file. Returns the
    /// file offset the frame starts at.
    ///
    /// # Panics
    ///
    /// If `encode` writes other than `len` bytes.
    pub(crate) fn append_with(
        &mut self,
        len: usize,
        encode: impl FnOnce(&mut Writer),
    ) -> Result<u64, StoreError> {
        debug_assert!((len as u64) <= MAX_RECORD_BYTES);
        self.scratch.clear();
        frame_with(&mut self.scratch, len, encode);
        // Positional write at the tracked end of the valid prefix: one
        // syscall per record, and nothing (the open-time scan, a catch-up
        // read) can leave a cursor pointing elsewhere.
        let offset = self.len;
        self.file.write_all_at(self.scratch.as_bytes(), offset)?;
        self.len += self.scratch.len() as u64;
        self.records += 1;
        self.pending = self.pending.saturating_add(1);
        if self.policy.sync_due(self.pending) {
            self.sync()?;
        }
        Ok(offset)
    }

    /// Forces everything appended so far to stable media (no-op when
    /// nothing is pending).
    pub(crate) fn sync(&mut self) -> Result<(), StoreError> {
        if self.pending > 0 {
            self.file.sync_data()?;
            self.pending = 0;
        }
        Ok(())
    }

    /// Reads back the record whose frame starts at `offset` (as returned
    /// by [`Wal::append`]), re-verifying its CRC.
    pub(crate) fn read_at(&self, offset: u64) -> Result<Vec<u8>, StoreError> {
        if offset >= self.len {
            return Err(StoreError::Corrupt("record offset beyond valid prefix"));
        }
        // Frame header is at most 10 varint bytes; probe those (or what
        // the valid prefix holds), then read payload + CRC exactly.
        let mut head = [0u8; 10];
        let probe = (self.len - offset).min(head.len() as u64) as usize;
        self.file.read_exact_at(&mut head[..probe], offset)?;
        let mut r = Reader::new(&head[..probe]);
        let len = r.get_varint_u64().map_err(|_| StoreError::Corrupt("torn record header"))?;
        if len > MAX_RECORD_BYTES {
            return Err(StoreError::Corrupt("record length out of bounds"));
        }
        let header = probe - r.remaining();
        let mut body = vec![0u8; len as usize + 4];
        self.file.read_exact_at(&mut body, offset + header as u64)?;
        let crc_bytes: [u8; 4] = body[len as usize..].try_into().expect("4 trailing bytes");
        body.truncate(len as usize);
        if u32::from_be_bytes(crc_bytes) != crc32(&body) {
            return Err(StoreError::Corrupt("stored record failed its checksum"));
        }
        Ok(body)
    }

    /// Atomically replaces the log's content with `records` (compaction):
    /// the replacement is written to a sibling temp file, synced, and
    /// renamed over the log, so a crash leaves either the old or the new
    /// log — never a hybrid; the rename is synced before anything can be
    /// appended to the new log.
    pub(crate) fn rewrite<I, B>(&mut self, records: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        let tmp = self.path.with_extension("tmp");
        let mut bytes = Writer::new();
        let mut count = 0u64;
        for record in records {
            frame_into_writer(&mut bytes, record.as_ref());
            count += 1;
        }
        {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes.as_bytes())?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        // The rename lives in the directory, not in either file. Until the
        // directory is synced a power loss can bring the old log back, and
        // with it drop every record appended (and synced) to the new one
        // from here on: a restarted node could contradict a vote it sent.
        sync_dir_of(&self.path)?;
        self.file = OpenOptions::new().read(true).write(true).open(&self.path)?;
        self.len = bytes.len() as u64;
        self.records = count;
        self.pending = 0;
        Ok(())
    }

    /// Byte length of the valid log.
    #[inline]
    pub(crate) fn len_bytes(&self) -> u64 {
        self.len
    }

    /// Number of records in the log.
    #[inline]
    pub(crate) fn records(&self) -> u64 {
        self.records
    }

    /// Records appended since the last sync: what a power loss could
    /// still take. Bounded by the [`FsyncPolicy`]'s batch size; under
    /// `Never` it only grows.
    #[cfg(test)]
    pub(crate) fn unsynced(&self) -> u32 {
        self.pending
    }
}

/// Forces the directory entry of `path` to stable media: what makes a
/// rename onto `path` durable.
pub(crate) fn sync_dir_of(path: &Path) -> Result<(), StoreError> {
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty()).unwrap_or(Path::new("."));
    File::open(dir)?.sync_all()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tetrabft-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.wal"))
    }

    /// Opens the log, collecting what it restores.
    fn open(path: &Path, policy: FsyncPolicy) -> (Wal, Vec<Vec<u8>>) {
        let mut restored = Vec::new();
        let wal = Wal::open(path, policy, |record| {
            restored.push(record.to_vec());
            Ok(())
        })
        .unwrap();
        (wal, restored)
    }

    #[test]
    fn append_reopen_restores_in_order() {
        let path = temp_path("reopen");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = open(&path, FsyncPolicy::Never);
        for i in 0..10u8 {
            wal.append(&[i; 3]).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        let (wal, restored) = open(&path, FsyncPolicy::Never);
        assert_eq!(restored.len(), 10);
        assert_eq!(wal.records(), 10);
        for (i, r) in restored.iter().enumerate() {
            assert_eq!(r, &vec![i as u8; 3]);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn read_at_returns_the_exact_record() {
        let path = temp_path("read-at");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = open(&path, FsyncPolicy::Always);
        let mut offsets = Vec::new();
        for i in 0..5u64 {
            offsets.push(wal.append(&i.to_be_bytes()).unwrap());
        }
        // Interleave reads and appends: neither direction may disturb
        // where the other lands.
        for (i, off) in offsets.iter().enumerate() {
            assert_eq!(wal.read_at(*off).unwrap(), (i as u64).to_be_bytes());
            wal.append(b"interleaved").unwrap();
        }
        assert!(wal.read_at(wal.len_bytes()).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = temp_path("torn");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = open(&path, FsyncPolicy::Always);
        wal.append(b"keep me").unwrap();
        let keep = wal.len_bytes();
        wal.append(b"torn away").unwrap();
        drop(wal);
        // Tear the final record by one byte.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 1]).unwrap();
        let (wal, restored) = open(&path, FsyncPolicy::Always);
        assert_eq!(restored, vec![b"keep me".to_vec()]);
        assert_eq!(wal.len_bytes(), keep, "file physically truncated to the valid prefix");
        assert_eq!(std::fs::metadata(&path).unwrap().len(), keep);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let path = temp_path("rewrite");
        let _ = std::fs::remove_file(&path);
        let (mut wal, _) = open(&path, FsyncPolicy::Always);
        for i in 0..100u32 {
            wal.append(&i.to_be_bytes()).unwrap();
        }
        let before = wal.len_bytes();
        wal.rewrite([b"only".as_slice(), b"two".as_slice()]).unwrap();
        assert!(wal.len_bytes() < before);
        assert_eq!(wal.records(), 2);
        // Appends keep working on the fresh handle.
        wal.append(b"three").unwrap();
        drop(wal);
        let (_, restored) = open(&path, FsyncPolicy::Always);
        assert_eq!(restored, vec![b"only".to_vec(), b"two".to_vec(), b"three".to_vec()]);
        std::fs::remove_file(&path).unwrap();
    }
}
