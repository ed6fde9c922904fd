//! Torn-write recovery coverage (crash mid-append): truncate and corrupt
//! the WAL tail at **every byte offset of the final record** (of every
//! record, for the mempool journal) and assert recovery truncates back to
//! the last valid record — never mis-decodes, never refuses to open, and
//! rejoins with exactly the surviving state.

use std::fs;
use std::path::PathBuf;

use tetrabft_store::NodeStore;
use tetrabft_types::{FsyncPolicy, Phase, Slot, Value, View, VoteBook};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tetrabft-torn-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn book(seed: u64) -> VoteBook {
    let mut b = VoteBook::new();
    b.record(Phase::VOTE1, View(seed), Value::from_u64(seed));
    b.record(Phase::VOTE2, View(seed), Value::from_u64(seed + 1));
    b
}

/// Builds a store with two vote records (slots 5 and 6) and two chain
/// blocks, returning its directory.
fn seeded_store(tag: &str) -> PathBuf {
    let dir = temp_dir(tag);
    let mut store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
    store.append_block(Slot(1), 11, b"block-one").unwrap();
    store.append_block(Slot(2), 22, b"block-two").unwrap();
    store.record_votes(Slot(5), View(1), Slot(2), &book(5)).unwrap();
    store.record_votes(Slot(6), View(0), Slot(2), &book(6)).unwrap();
    store.sync().unwrap();
    dir
}

/// Byte length of the final record of `file`, assuming `keep` bytes of
/// earlier records.
fn tail_len(file: &PathBuf, keep: u64) -> u64 {
    fs::metadata(file).unwrap().len() - keep
}

#[test]
fn vote_wal_truncated_at_every_offset_recovers_to_slot_five() {
    // Prefix = everything up to the slot-6 record; compute it by writing
    // the same store twice, once without the final record.
    let short = {
        let dir = temp_dir("vote-short");
        let mut s = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        s.append_block(Slot(1), 11, b"block-one").unwrap();
        s.append_block(Slot(2), 22, b"block-two").unwrap();
        s.record_votes(Slot(5), View(1), Slot(2), &book(5)).unwrap();
        let len = s.live_bytes();
        fs::remove_dir_all(&dir).unwrap();
        len
    };
    let dir = seeded_store("vote-trunc");
    let wal = dir.join("votes.wal");
    let full = fs::read(&wal).unwrap();
    let tail = tail_len(&wal, short);
    assert!(tail > 0);
    for cut in 0..tail {
        fs::write(&wal, &full[..(short + cut) as usize]).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        let restored = store.restored_votes();
        assert!(restored.contains_key(&5), "cut at +{cut}: slot 5 must survive");
        assert_eq!(restored[&5].book, book(5), "cut at +{cut}");
        assert!(
            !restored.contains_key(&6),
            "cut at +{cut}: the torn slot-6 record must be dropped whole"
        );
        assert_eq!(
            fs::metadata(&wal).unwrap().len(),
            short,
            "cut at +{cut}: the file must be truncated to the valid prefix"
        );
    }
}

#[test]
fn vote_wal_corrupted_at_every_tail_offset_never_misdecodes() {
    let dir = seeded_store("vote-corrupt");
    let wal = dir.join("votes.wal");
    let full = fs::read(&wal).unwrap();
    let short = {
        // The clean prefix ends where the final record's frame begins.
        let (records, _) = tetrabft_store::record::scan(&full);
        assert_eq!(records.len(), 2);
        frame_len(records[0].len()) as u64
    };
    for i in short..full.len() as u64 {
        let mut bent = full.clone();
        bent[i as usize] ^= 0x5A;
        fs::write(&wal, &bent).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        let restored = store.restored_votes();
        // The corrupt record must vanish; the clean prefix must survive
        // bit-for-bit. It must never decode as some third state.
        assert_eq!(restored.len(), 1, "flip at {i}");
        assert_eq!(restored[&5].book, book(5), "flip at {i}");
        assert_eq!(restored[&5].view, View(1), "flip at {i}");
    }
}

#[test]
fn chain_wal_truncated_at_every_tail_offset_recovers_the_prefix() {
    let dir = seeded_store("chain-trunc");
    let wal = dir.join("chain.wal");
    let full = fs::read(&wal).unwrap();
    let (records, _) = tetrabft_store::record::scan(&full);
    assert_eq!(records.len(), 2);
    let short = frame_len(records[0].len()) as u64;
    for cut in short..full.len() as u64 {
        fs::write(&wal, &full[..cut as usize]).unwrap();
        let mut store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(store.chain_tip(), Some((Slot(1), 11)), "cut at {cut}");
        let (hash, bytes) = store.block_record(Slot(1)).unwrap().unwrap();
        assert_eq!((hash, bytes.as_slice()), (11, b"block-one".as_slice()), "cut at {cut}");
        assert_eq!(store.block_record(Slot(2)).unwrap(), None, "cut at {cut}");
        // The torn store accepts a clean re-append of the lost block.
        store.append_block(Slot(2), 22, b"block-two").unwrap();
        assert_eq!(store.chain_tip(), Some((Slot(2), 22)), "cut at {cut}");
    }
}

#[test]
fn chain_wal_corrupted_mid_tail_is_cut_not_misread() {
    let dir = seeded_store("chain-corrupt");
    let wal = dir.join("chain.wal");
    let full = fs::read(&wal).unwrap();
    let (records, _) = tetrabft_store::record::scan(&full);
    let short = frame_len(records[0].len()) as u64;
    for i in short..full.len() as u64 {
        let mut bent = full.clone();
        bent[i as usize] = bent[i as usize].wrapping_add(1);
        fs::write(&wal, &bent).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        assert_eq!(store.chain_tip(), Some((Slot(1), 11)), "flip at {i}");
        assert_eq!(store.chain_len(), 1, "flip at {i}");
    }
}

#[test]
fn torn_meta_file_restarts_the_incarnation_counter_cleanly() {
    let dir = seeded_store("meta-torn");
    let meta = dir.join("meta");
    let full = fs::read(&meta).unwrap();
    for cut in 0..full.len() {
        fs::write(&meta, &full[..cut]).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        // A torn meta cannot prove any previous incarnation; the counter
        // restarts at 1 rather than refusing to open. Chain state is
        // untouched by the meta file.
        assert_eq!(store.incarnation(), 1, "cut at {cut}");
        assert_eq!(store.chain_tip(), Some((Slot(2), 22)), "cut at {cut}");
    }
}

/// Builds a store whose mempool journal holds three seals; returns its
/// directory and the queue as it stood after 0, 1, 2 and 3 of them.
fn journaled_store(tag: &str) -> (PathBuf, [Vec<&'static [u8]>; 4]) {
    let dir = temp_dir(tag);
    let mut store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
    let none: [&[u8]; 0] = [];
    let mut seal = |drained, requeued: &[&'static [u8]], admitted: &[&'static [u8]]| {
        store
            .journal_mempool(drained, requeued.iter().copied(), admitted.iter().copied(), none)
            .unwrap();
    };
    seal(0, &[], &[b"tx-a", b"tx-b", b"tx-c"]);
    seal(1, &[], &[b"tx-d"]);
    seal(2, &[b"tx-a", b"tx-b"], &[b"tx-e"]);
    let states = [
        vec![],
        vec![b"tx-a".as_slice(), b"tx-b", b"tx-c"],
        vec![b"tx-b".as_slice(), b"tx-c", b"tx-d"],
        vec![b"tx-a".as_slice(), b"tx-b", b"tx-d", b"tx-e"],
    ];
    (dir, states)
}

/// End offset of each of the journal's records.
fn record_ends(file: &[u8]) -> Vec<usize> {
    let (records, valid) = tetrabft_store::record::scan(file);
    assert_eq!(valid, file.len());
    records
        .iter()
        .scan(0, |end, r| {
            *end += frame_len(r.len());
            Some(*end)
        })
        .collect()
}

#[test]
fn mempool_journal_truncated_at_every_offset_loses_whole_seals_only() {
    let (dir, states) = journaled_store("journal-trunc");
    let wal = dir.join("mempool.wal");
    let full = fs::read(&wal).unwrap();
    let ends = record_ends(&full);
    assert_eq!(ends.len(), 3);
    for cut in 0..=full.len() {
        fs::write(&wal, &full[..cut]).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        // Exactly the seals that fit below the cut, in FIFO order.
        let whole = ends.iter().filter(|end| **end <= cut).count();
        assert_eq!(store.restored_mempool(), states[whole], "cut at {cut}");
        let kept = if whole == 0 { 0 } else { ends[whole - 1] };
        assert_eq!(fs::metadata(&wal).unwrap().len(), kept as u64, "cut at {cut}");
    }
}

#[test]
fn mempool_journal_corrupted_at_every_offset_never_misdecodes() {
    let (dir, states) = journaled_store("journal-corrupt");
    let wal = dir.join("mempool.wal");
    let full = fs::read(&wal).unwrap();
    let ends = record_ends(&full);
    for i in 0..full.len() {
        let mut bent = full.clone();
        bent[i] ^= 0x5A;
        fs::write(&wal, &bent).unwrap();
        let store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
        // The seal holding the bent byte vanishes with all that follow
        // it; what precedes it is restored exactly, never a third state.
        let whole = ends.iter().filter(|end| **end <= i).count();
        assert_eq!(store.restored_mempool(), states[whole], "flip at {i}");
    }
}

/// Mirrors the store's internal frame arithmetic: varint length prefix +
/// payload + 4-byte CRC.
fn frame_len(payload: usize) -> usize {
    tetrabft_wire::varint_len(payload as u64) + payload + 4
}
