//! The per-node durable store: vote WAL + chain log + mempool journal +
//! incarnation counter, under one directory.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::path::Path;

use tetrabft_types::{FsyncPolicy, Slot, View, VoteBook, VoteInfo};
use tetrabft_wire::{varint_len, Reader, Wire, Writer};

use crate::crc::crc32;
use crate::record::MAX_RECORD_BYTES;
use crate::wal::{sync_dir_of, Wal};
use crate::StoreError;

/// Compaction slack for the vote WAL: the log is rewritten down to one
/// record per live slot once it holds this many records beyond that
/// minimum. The bound makes the *file* constant-size: at most
/// `live slots + COMPACT_SLACK` records ever exist on disk.
const COMPACT_SLACK: u64 = 64;

/// Compaction slack for the mempool journal, in transactions: the file is
/// rewritten down to the live queue once this many of the entries it holds
/// have been drained, so at most `live + MEMPOOL_COMPACT_SLACK` entries
/// ever exist on disk and a rewrite is paid once per that many drains.
const MEMPOOL_COMPACT_SLACK: u64 = 8192;

const META_MAGIC: &[u8; 8] = b"TBFTMETA";
const VOTE_VERSION: u8 = 1;
const CHAIN_VERSION: u8 = 1;
const MEMPOOL_VERSION: u8 = 1;

/// One restored live-slot record: the slot's current view and this node's
/// [`VoteBook`] for it — exactly the paper's constant persistent state,
/// plus the view needed to not regress after restart.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotVotes {
    /// The slot the record belongs to.
    pub slot: Slot,
    /// The slot's view at the time of the last persist.
    pub view: View,
    /// The six vote registers.
    pub book: VoteBook,
}

#[derive(Debug, Clone, Copy)]
struct ChainEntry {
    hash: u64,
    offset: u64,
}

/// Durable state of one TetraBFT node, rooted at a directory:
///
/// * `votes.wal` — CRC-framed write-ahead records of each live slot's
///   [`VoteBook`] (+ current view), compacted so the file size is bounded
///   by a constant regardless of chain length;
/// * `chain.wal` — the append-only finalized-chain log (slot, hash, raw
///   block bytes), never rewritten, growing linearly with the chain; an
///   in-memory slot index built at open serves peer catch-up reads;
/// * `mempool.wal` — append-only journal of the mempool queue: one record
///   per seal (what that seal admitted, drained off the front and put back
///   at the front), replayed into the same FIFO order on restart and
///   compacted to the live queue once it outgrows it by 8,192 entries;
/// * `meta` — the incarnation counter, incremented on every open, which
///   the TCP handshake exchanges so peers drop frames buffered for a
///   previous incarnation.
///
/// Torn tails (a crash mid-append) are detected by the CRC framing and
/// truncated on open; a record is either fully restored or not at all.
#[derive(Debug)]
pub struct NodeStore {
    incarnation: u64,
    votes: Wal,
    chain: Wal,
    mempool: Wal,
    /// Latest encoded vote record per slot (the compaction working set).
    latest_votes: BTreeMap<u64, Vec<u8>>,
    /// Retained vote-record encode buffer ([`NodeStore::record_votes`] is
    /// on the consensus persist path; steady state re-records the same
    /// slots, so both this buffer and the `latest_votes` entries reuse
    /// their capacity instead of allocating per record).
    vote_scratch: Writer,
    /// Retained mempool-record encode buffer, same pattern.
    mempool_scratch: Writer,
    /// Transaction entries in the journal that later records drained: what
    /// a compaction would shed.
    mempool_dead: u64,
    /// Vote state restored at open, for the consumer to take once.
    restored: BTreeMap<u64, SlotVotes>,
    /// Mempool queue replayed from the journal at open.
    restored_mempool: Vec<Vec<u8>>,
    chain_index: BTreeMap<u64, ChainEntry>,
    last_finalized: u64,
}

impl NodeStore {
    /// Opens (creating if needed) the store under `dir`, replays its logs
    /// — truncating any torn tails — and bumps the incarnation counter.
    pub fn open(dir: impl AsRef<Path>, policy: FsyncPolicy) -> Result<NodeStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let incarnation = bump_incarnation(&dir)?;

        let mut latest_votes: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
        let mut restored: BTreeMap<u64, SlotVotes> = BTreeMap::new();
        let votes = Wal::open(dir.join("votes.wal"), policy, |payload| {
            let (sv, _) = decode_votes(payload)?;
            latest_votes.insert(sv.slot.0, payload.to_vec());
            restored.insert(sv.slot.0, sv);
            Ok(())
        })?;

        // Only each block's header is read: the index keeps where the
        // record starts, and the body stays on disk until a peer asks.
        // Offsets replay the scan arithmetic: rewrite is never used on the
        // chain log, so they are stable.
        let mut chain_index = BTreeMap::new();
        let mut offset = 0u64;
        let mut expected: Option<u64> = None;
        let mut chain = Wal::open(dir.join("chain.wal"), policy, |payload| {
            let (slot, hash) = decode_chain_header(payload)?;
            if expected.is_some_and(|want| slot != want) {
                return Err(StoreError::Corrupt("chain log slots are not contiguous"));
            }
            expected = Some(slot + 1);
            chain_index.insert(slot, ChainEntry { hash, offset });
            offset += frame_len(payload.len());
            Ok(())
        })?;
        debug_assert_eq!(offset, chain.len_bytes());
        chain.sync()?;

        let mut queue = VecDeque::new();
        let mut mempool_dead = 0;
        let mempool = Wal::open(dir.join("mempool.wal"), policy, |seal| {
            mempool_dead += replay_seal(seal, &mut queue)?;
            Ok(())
        })?;
        let restored_mempool = Vec::from(queue);

        let last_finalized = chain_index.keys().next_back().copied().unwrap_or(0);
        // Live state restored from disk never includes finalized slots.
        restored.retain(|slot, _| *slot > last_finalized);
        latest_votes.retain(|slot, _| *slot > last_finalized);

        Ok(NodeStore {
            incarnation,
            votes,
            chain,
            mempool,
            latest_votes,
            vote_scratch: Writer::new(),
            mempool_scratch: Writer::new(),
            mempool_dead,
            restored,
            restored_mempool,
            chain_index,
            last_finalized,
        })
    }

    /// The restart counter: 1 on the first open of a directory, +1 on
    /// every subsequent open. Exchanged in the TCP handshake.
    #[inline]
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    // ---- live-slot vote state -------------------------------------------

    /// Write-ahead record of `slot`'s current view and vote book. Called
    /// before the corresponding messages leave the process; compaction
    /// keeps the file bounded by `live slots + COMPACT_SLACK` records.
    pub fn record_votes(
        &mut self,
        slot: Slot,
        view: View,
        finalized: Slot,
        book: &VoteBook,
    ) -> Result<(), StoreError> {
        self.vote_scratch.clear();
        encode_votes_into(&mut self.vote_scratch, slot, view, finalized, book);
        let payload = self.vote_scratch.as_bytes();
        self.votes.append(payload)?;
        match self.latest_votes.entry(slot.0) {
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let buf = e.get_mut();
                buf.clear();
                buf.extend_from_slice(payload);
            }
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(payload.to_vec());
            }
        }
        self.last_finalized = self.last_finalized.max(finalized.0);
        self.latest_votes.retain(|s, _| *s > finalized.0);
        if self.votes.records() > self.latest_votes.len() as u64 + COMPACT_SLACK {
            let live: Vec<&Vec<u8>> = self.latest_votes.values().collect();
            self.votes.rewrite(live)?;
        }
        Ok(())
    }

    /// The live-slot vote state restored at open (slots above the chain
    /// tip only), keyed by slot.
    pub fn restored_votes(&self) -> &BTreeMap<u64, SlotVotes> {
        &self.restored
    }

    /// Bytes currently occupied by the live-slot WAL — the paper's
    /// "constant persistent storage" claim, measurable: bounded by a
    /// constant however long the chain grows.
    pub fn live_bytes(&self) -> u64 {
        self.votes.len_bytes()
    }

    // ---- finalized chain -------------------------------------------------

    /// Appends a finalized block (`slot`, its `hash`, and its encoded
    /// bytes) to the chain log. Appends are strictly sequential:
    /// re-appending an already-stored slot is an idempotent no-op, a gap
    /// is an error (finalization is in slot order by construction).
    pub fn append_block(&mut self, slot: Slot, hash: u64, block: &[u8]) -> Result<(), StoreError> {
        self.append_chain(slot, hash, block.len(), |w| w.put_slice(block))
    }

    /// [`NodeStore::append_block`] for a block not yet encoded: it is
    /// encoded once, straight into the chain log's frame, so its bytes are
    /// copied once on the way to the file. [`Wire::wire_len`] must be
    /// cheap for `B` (it is asked for the frame's length prefix first).
    pub fn append_encoded<B: Wire>(
        &mut self,
        slot: Slot,
        hash: u64,
        block: &B,
    ) -> Result<(), StoreError> {
        self.append_chain(slot, hash, block.wire_len(), |w| block.encode(w))
    }

    fn append_chain(
        &mut self,
        slot: Slot,
        hash: u64,
        body_len: usize,
        body: impl FnOnce(&mut Writer),
    ) -> Result<(), StoreError> {
        let tip = self.chain_tip().map(|(s, _)| s.0);
        match tip {
            Some(t) if slot.0 <= t => return Ok(()),
            Some(t) if slot.0 != t + 1 => {
                return Err(StoreError::Corrupt("chain append out of order"))
            }
            _ => {}
        }
        let len = 1 + varint_len(slot.0) + 8 + body_len;
        let offset = self.chain.append_with(len, |w| {
            w.put_u8(CHAIN_VERSION);
            w.put_varint(slot.0);
            w.put_u64(hash);
            body(w);
        })?;
        self.chain_index.insert(slot.0, ChainEntry { hash, offset });
        self.last_finalized = self.last_finalized.max(slot.0);
        Ok(())
    }

    /// Highest stored block, as `(slot, hash)`.
    pub fn chain_tip(&self) -> Option<(Slot, u64)> {
        self.chain_index.iter().next_back().map(|(s, e)| (Slot(*s), e.hash))
    }

    /// Number of blocks in the chain log.
    pub fn chain_len(&self) -> u64 {
        self.chain_index.len() as u64
    }

    /// Bytes occupied by the chain log (grows linearly with the chain).
    pub fn chain_bytes(&self) -> u64 {
        self.chain.len_bytes()
    }

    /// Hash of the stored block at `slot`, if any (index only, no I/O).
    pub fn chain_hash(&self, slot: Slot) -> Option<u64> {
        self.chain_index.get(&slot.0).map(|e| e.hash)
    }

    /// Reads back the block stored at `slot` from disk: `(hash, block
    /// bytes)`. This is what serves peer catch-up requests — the in-memory
    /// block store prunes old blocks, the chain log never does.
    pub fn block_record(&mut self, slot: Slot) -> Result<Option<(u64, Vec<u8>)>, StoreError> {
        let Some(entry) = self.chain_index.get(&slot.0).copied() else { return Ok(None) };
        let payload = self.chain.read_at(entry.offset)?;
        let (got_slot, hash) = decode_chain_header(&payload)?;
        if got_slot != slot.0 || hash != entry.hash {
            return Err(StoreError::Corrupt("chain index does not match the stored record"));
        }
        let mut r = Reader::new(&payload);
        let _ = r.get_u8();
        let _ = r.get_varint_u64();
        let _ = r.get_u64();
        let body_start = payload.len() - r.remaining();
        let mut body = payload;
        body.drain(..body_start);
        Ok(Some((hash, body)))
    }

    // ---- mempool journal -------------------------------------------------

    /// Appends one seal's change to the mempool queue, in the form a
    /// restart replays: drop `drained` transactions off the front, put
    /// `requeued` back at the front (keeping their order), add `admitted`
    /// at the back. The record is appended to the journal and synced as the
    /// [`FsyncPolicy`] says, like a vote record.
    ///
    /// `live` is the whole queue as it stands after the change. It is read
    /// only when the journal is compacted ([`NodeStore::save_mempool`]):
    /// once 8,192 of the file's entries are drained
    /// ones, or when this one record would not fit a frame.
    pub fn journal_mempool<'a, R, A, L>(
        &mut self,
        drained: usize,
        requeued: R,
        admitted: A,
        live: L,
    ) -> Result<(), StoreError>
    where
        R: IntoIterator<Item = &'a [u8]>,
        R::IntoIter: ExactSizeIterator,
        A: IntoIterator<Item = &'a [u8]>,
        A::IntoIter: ExactSizeIterator,
        L: IntoIterator<Item = &'a [u8]>,
    {
        self.mempool_scratch.clear();
        encode_seal(
            &mut self.mempool_scratch,
            drained as u64,
            requeued.into_iter(),
            admitted.into_iter(),
        );
        if self.mempool_scratch.len() as u64 > MAX_RECORD_BYTES {
            return self.save_mempool(live);
        }
        self.mempool.append(self.mempool_scratch.as_bytes())?;
        self.mempool_dead += drained as u64;
        if self.mempool_dead > MEMPOOL_COMPACT_SLACK {
            self.save_mempool(live)?;
        }
        Ok(())
    }

    /// Atomically replaces the journal with `txs`, the live queue in FIFO
    /// order — the journal's compaction, and how a restarted node re-bases
    /// it on what it actually restored. One record per transaction, so no
    /// record outgrows a frame however long the queue; bounded by the
    /// mempool's own admission capacity.
    pub fn save_mempool<I, B>(&mut self, txs: I) -> Result<(), StoreError>
    where
        I: IntoIterator<Item = B>,
        B: AsRef<[u8]>,
    {
        self.mempool.rewrite(txs.into_iter().map(|tx| {
            let mut w = Writer::with_capacity(tx.as_ref().len() + 8);
            encode_seal(&mut w, 0, std::iter::empty(), std::iter::once(tx.as_ref()));
            w.into_bytes()
        }))?;
        self.mempool_dead = 0;
        Ok(())
    }

    /// The mempool queue restored at open, in FIFO order.
    pub fn restored_mempool(&self) -> &[Vec<u8>] {
        &self.restored_mempool
    }

    /// Bytes occupied by the mempool journal.
    pub fn mempool_bytes(&self) -> u64 {
        self.mempool.len_bytes()
    }

    /// Forces every log to stable media (used on shutdown and by tests;
    /// appends already sync per the [`FsyncPolicy`]).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.votes.sync()?;
        self.chain.sync()?;
        self.mempool.sync()
    }
}

/// Length of a framed record holding a `payload_len`-byte payload.
fn frame_len(payload_len: usize) -> u64 {
    tetrabft_wire::varint_len(payload_len as u64) as u64 + payload_len as u64 + 4
}

fn bump_incarnation(dir: &Path) -> Result<u64, StoreError> {
    let path = dir.join("meta");
    let previous = match fs::read(&path) {
        Ok(bytes) => parse_meta(&bytes).unwrap_or(0),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => 0,
        Err(e) => return Err(e.into()),
    };
    let incarnation = previous + 1;
    let mut bytes = Vec::with_capacity(20);
    bytes.extend_from_slice(META_MAGIC);
    bytes.extend_from_slice(&incarnation.to_be_bytes());
    let crc = crc32(&bytes);
    bytes.extend_from_slice(&crc.to_be_bytes());
    // Write-temp-then-rename: a crash mid-update leaves the old meta.
    let tmp = dir.join("meta.tmp");
    fs::write(&tmp, &bytes)?;
    let f = fs::File::open(&tmp)?;
    f.sync_data()?;
    drop(f);
    fs::rename(&tmp, &path)?;
    // Until the directory is synced a power loss can bring the old meta
    // back: the next open would hand out this incarnation a second time,
    // and peers would take frames of the dead one for the live one's.
    sync_dir_of(&path)?;
    Ok(incarnation)
}

/// `None` (treated as a fresh store) when the meta file is torn/corrupt.
fn parse_meta(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != 20 || &bytes[..8] != META_MAGIC {
        return None;
    }
    let crc = u32::from_be_bytes(bytes[16..20].try_into().ok()?);
    if crc != crc32(&bytes[..16]) {
        return None;
    }
    Some(u64::from_be_bytes(bytes[8..16].try_into().ok()?))
}

fn encode_votes_into(w: &mut Writer, slot: Slot, view: View, finalized: Slot, book: &VoteBook) {
    w.put_u8(VOTE_VERSION);
    w.put_varint(slot.0);
    w.put_varint(view.0);
    w.put_varint(finalized.0);
    for reg in book.registers() {
        match reg {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                w.put_varint(v.view.0);
                w.put_slice(v.value.as_bytes());
            }
        }
    }
}

/// Decodes a vote record into `(slot state, finalized-at-write)`.
fn decode_votes(payload: &[u8]) -> Result<(SlotVotes, Slot), StoreError> {
    let mut r = Reader::new(payload);
    if r.get_u8()? != VOTE_VERSION {
        return Err(StoreError::Corrupt("unknown vote record version"));
    }
    let slot = Slot(r.get_varint_u64()?);
    let view = View(r.get_varint_u64()?);
    let finalized = Slot(r.get_varint_u64()?);
    let mut regs: [Option<VoteInfo>; 6] = [None; 6];
    for reg in regs.iter_mut() {
        if r.get_u8()? == 1 {
            let v = View(r.get_varint_u64()?);
            let value = tetrabft_types::Value(r.get_array::<8>()?);
            *reg = Some(VoteInfo::new(v, value));
        }
    }
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt("trailing bytes in vote record"));
    }
    Ok((SlotVotes { slot, view, book: VoteBook::from_registers(regs) }, finalized))
}

/// One mempool journal record: `[version][drained][n][tx]*n [m][tx]*m`,
/// the requeued transactions first, each `tx` length-prefixed.
fn encode_seal<'a>(
    w: &mut Writer,
    drained: u64,
    requeued: impl ExactSizeIterator<Item = &'a [u8]>,
    admitted: impl ExactSizeIterator<Item = &'a [u8]>,
) {
    fn put_txs<'a>(w: &mut Writer, txs: impl ExactSizeIterator<Item = &'a [u8]>) {
        w.put_varint(txs.len() as u64);
        for tx in txs {
            w.put_varint(tx.len() as u64);
            w.put_slice(tx);
        }
    }
    w.put_u8(MEMPOOL_VERSION);
    w.put_varint(drained);
    put_txs(w, requeued);
    put_txs(w, admitted);
}

/// Applies one journal record to `queue`; returns how many transactions
/// it drained.
fn replay_seal(payload: &[u8], queue: &mut VecDeque<Vec<u8>>) -> Result<u64, StoreError> {
    fn get_txs(r: &mut Reader<'_>) -> Result<Vec<Vec<u8>>, StoreError> {
        let count = r.get_varint_u64()?;
        let mut txs = Vec::new();
        for _ in 0..count {
            let len = usize::try_from(r.get_varint_u64()?)
                .map_err(|_| StoreError::Corrupt("mempool transaction length out of bounds"))?;
            txs.push(r.get_slice(len)?.to_vec());
        }
        Ok(txs)
    }
    let mut r = Reader::new(payload);
    if r.get_u8()? != MEMPOOL_VERSION {
        return Err(StoreError::Corrupt("unknown mempool record version"));
    }
    let drained = r.get_varint_u64()?;
    if drained > queue.len() as u64 {
        return Err(StoreError::Corrupt("mempool journal drains more than it holds"));
    }
    let requeued = get_txs(&mut r)?;
    let admitted = get_txs(&mut r)?;
    if r.remaining() != 0 {
        return Err(StoreError::Corrupt("trailing bytes in mempool record"));
    }
    queue.drain(..drained as usize);
    for tx in requeued.into_iter().rev() {
        queue.push_front(tx);
    }
    queue.extend(admitted);
    Ok(drained)
}

fn decode_chain_header(payload: &[u8]) -> Result<(u64, u64), StoreError> {
    let mut r = Reader::new(payload);
    if r.get_u8()? != CHAIN_VERSION {
        return Err(StoreError::Corrupt("unknown chain record version"));
    }
    let slot = r.get_varint_u64()?;
    let hash = r.get_u64()?;
    Ok((slot, hash))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use tetrabft_types::Phase;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tetrabft-store-{}", std::process::id())).join(tag);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn book(seed: u64) -> VoteBook {
        let mut b = VoteBook::new();
        b.record(Phase::VOTE1, View(seed), tetrabft_types::Value::from_u64(seed));
        b.record(Phase::VOTE1, View(seed + 1), tetrabft_types::Value::from_u64(seed + 9));
        b.record(Phase::VOTE2, View(seed), tetrabft_types::Value::from_u64(seed));
        b
    }

    #[test]
    fn incarnation_increments_per_open() {
        let dir = temp_dir("incarnation");
        for want in 1..=4u64 {
            let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
            assert_eq!(store.incarnation(), want);
        }
        // A torn meta file resets to a fresh counter rather than failing.
        fs::write(dir.join("meta"), b"garbage").unwrap();
        assert_eq!(NodeStore::open(&dir, FsyncPolicy::Never).unwrap().incarnation(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn votes_survive_reopen_latest_record_wins() {
        let dir = temp_dir("votes");
        {
            let mut store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
            store.record_votes(Slot(3), View(0), Slot(0), &book(1)).unwrap();
            store.record_votes(Slot(3), View(2), Slot(0), &book(5)).unwrap();
            store.record_votes(Slot(4), View(0), Slot(0), &book(2)).unwrap();
        }
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        let restored = store.restored_votes();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored[&3].view, View(2));
        assert_eq!(restored[&3].book, book(5));
        assert_eq!(restored[&4].book, book(2));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn vote_wal_stays_constant_size_under_unbounded_traffic() {
        let dir = temp_dir("constant");
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut high_water = 0u64;
        // 8 live slots sliding forward forever, one record per vote: the
        // file must stay bounded by (live + COMPACT_SLACK) records of the
        // worst-case (all-varints-maximal) record size.
        let fat = 1u64 << 60;
        let mut w = Writer::new();
        encode_votes_into(&mut w, Slot(fat), View(fat), Slot(fat), &book(fat));
        let record_size = frame_len(w.len());
        let bound = (8 + COMPACT_SLACK + 1) * record_size;
        for finalized in 0..2_000u64 {
            for live in 1..=8 {
                let slot = Slot(finalized + live);
                store.record_votes(slot, View(0), Slot(finalized), &book(slot.0)).unwrap();
            }
            high_water = high_water.max(store.live_bytes());
        }
        assert!(
            high_water <= bound,
            "vote WAL must stay constant-bounded: high water {high_water} > bound {bound}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_appends_are_sequential_idempotent_and_indexed() {
        let dir = temp_dir("chain");
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        for s in 1..=50u64 {
            store.append_block(Slot(s), s * 7, format!("block-{s}").as_bytes()).unwrap();
        }
        // Idempotent re-append, rejected gap.
        store.append_block(Slot(10), 70, b"replay").unwrap();
        assert_eq!(store.chain_len(), 50);
        assert!(store.append_block(Slot(52), 1, b"gap").is_err());
        assert_eq!(store.chain_tip(), Some((Slot(50), 350)));
        // Disk reads reproduce every block byte-for-byte after reopen.
        drop(store);
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(store.chain_tip(), Some((Slot(50), 350)));
        for s in 1..=50u64 {
            let (hash, bytes) = store.block_record(Slot(s)).unwrap().unwrap();
            assert_eq!(hash, s * 7);
            assert_eq!(bytes, format!("block-{s}").into_bytes());
        }
        assert_eq!(store.block_record(Slot(51)).unwrap(), None);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chain_log_grows_linearly_while_votes_stay_flat() {
        let dir = temp_dir("linear");
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut chain_sizes = Vec::new();
        for s in 1..=400u64 {
            store.append_block(Slot(s), s, &[0u8; 64]).unwrap();
            store.record_votes(Slot(s + 1), View(0), Slot(s), &book(s)).unwrap();
            if s % 100 == 0 {
                chain_sizes.push(store.chain_bytes());
            }
        }
        let step = chain_sizes[1] - chain_sizes[0];
        assert!(step > 0);
        for pair in chain_sizes.windows(2) {
            // Per-100-block growth is flat up to varint-width drift (slot
            // numbers crossing a 7-bit boundary cost one extra byte each).
            let got = pair[1] - pair[0];
            assert!(
                got.abs_diff(step) <= 200,
                "chain log must grow linearly: step {got} vs {step}"
            );
        }
        assert!(store.live_bytes() < 8 * 1024, "live state is a few KiB, not chain-sized");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mempool_snapshot_roundtrips() {
        let dir = temp_dir("mempool");
        {
            let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.save_mempool([b"tx-a".as_slice(), b"tx-b".as_slice()]).unwrap();
            store.save_mempool([b"tx-b".as_slice(), b"tx-c".as_slice()]).unwrap();
        }
        let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(store.restored_mempool(), &[b"tx-b".to_vec(), b"tx-c".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Journals one seal from owned parts (`live` is only read to compact).
    fn seal(store: &mut NodeStore, drained: usize, requeued: &[&[u8]], admitted: &[&[u8]]) {
        let live: [&[u8]; 0] = [];
        store
            .journal_mempool(drained, requeued.iter().copied(), admitted.iter().copied(), live)
            .unwrap();
    }

    #[test]
    fn mempool_journal_replays_seals_in_fifo_order() {
        let dir = temp_dir("journal");
        {
            let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
            seal(&mut store, 0, &[], &[b"a", b"b", b"c"]);
            seal(&mut store, 2, &[], &[b"d"]);
            // A defeated batch returns to the head in its own order.
            seal(&mut store, 1, &[b"a", b"b"], &[b"e"]);
        }
        let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        let want: [&[u8]; 4] = [b"a", b"b", b"d", b"e"];
        assert_eq!(store.restored_mempool(), want);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mempool_journal_stays_bounded_and_replays_over_100k_seals() {
        let dir = temp_dir("journal-bound");
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        let mut model: VecDeque<Vec<u8>> = VecDeque::new();
        let mut in_flight: Vec<Vec<u8>> = Vec::new();
        let (mut high_water, mut max_live) = (0u64, 0u64);
        let mut rng = 0x9E37_79B9_7F4A_7C15u64;
        let mut draw = |below: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % below
        };
        for i in 0..100_000u64 {
            let drained = (draw(4) as usize).min(model.len());
            let lost: Vec<Vec<u8>> = model.drain(..drained).collect();
            // Now and then the batch drained a few seals ago comes back.
            let requeued = if draw(16) == 0 { std::mem::take(&mut in_flight) } else { Vec::new() };
            for tx in requeued.iter().rev() {
                model.push_front(tx.clone());
            }
            if !lost.is_empty() {
                in_flight = lost;
            }
            let admitted: Vec<Vec<u8>> =
                (0..draw(4)).map(|k| (i * 4 + k).to_be_bytes().to_vec()).collect();
            model.extend(admitted.iter().cloned());
            store
                .journal_mempool(
                    drained,
                    requeued.iter().map(Vec::as_slice),
                    admitted.iter().map(Vec::as_slice),
                    model.iter().map(Vec::as_slice),
                )
                .unwrap();
            high_water = high_water.max(store.mempool_bytes());
            max_live = max_live.max(model.len() as u64);
        }
        // After a seal at most slack drained entries are on disk beside
        // the live ones, each 8 payload bytes behind a length byte; an
        // entry is admitted by one record and drained by at most one other,
        // and a record's framing, version, drain count, two entry counts
        // and CRC take 10 bytes.
        let bound = (max_live + MEMPOOL_COMPACT_SLACK) * (9 + 2 * 10);
        assert!(high_water <= bound, "journal high water {high_water} > bound {bound}");
        assert!(high_water > store.mempool_bytes(), "the journal was compacted on the way");
        drop(store);
        let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(store.restored_mempool(), Vec::from(model));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mempool_seals_sync_only_as_the_policy_says() {
        let dir = temp_dir("journal-fsync");
        let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        for i in 1..=100 {
            seal(&mut store, 0, &[], &[b"tx"]);
            assert_eq!(store.mempool.unsynced(), i, "`Never` syncs no seal");
        }
        drop(store);
        fs::remove_dir_all(&dir).unwrap();
        let mut store = NodeStore::open(&dir, FsyncPolicy::Batch(32)).unwrap();
        for i in 1..=100 {
            seal(&mut store, 0, &[], &[b"tx"]);
            assert_eq!(store.mempool.unsynced(), i % 32, "`Batch(32)` syncs every 32nd seal");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_seal_too_large_to_frame_is_persisted_by_compaction() {
        let dir = temp_dir("journal-oversize");
        let big = vec![7u8; MAX_RECORD_BYTES as usize / 2 + 1];
        {
            let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
            seal(&mut store, 0, &[], &[b"old"]);
            let live: [&[u8]; 2] = [&big, &big];
            store.journal_mempool(1, std::iter::empty(), live, live).unwrap();
        }
        let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert_eq!(store.restored_mempool(), [big.clone(), big]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn finalized_slots_are_dropped_from_restored_votes() {
        let dir = temp_dir("finalized-drop");
        {
            let mut store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
            store.record_votes(Slot(1), View(0), Slot(0), &book(1)).unwrap();
            store.record_votes(Slot(2), View(0), Slot(0), &book(2)).unwrap();
            store.append_block(Slot(1), 11, b"b1").unwrap();
        }
        let store = NodeStore::open(&dir, FsyncPolicy::Never).unwrap();
        assert!(!store.restored_votes().contains_key(&1), "slot 1 finalized on disk");
        assert!(store.restored_votes().contains_key(&2));
        fs::remove_dir_all(&dir).unwrap();
    }
}
