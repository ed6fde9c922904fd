//! On-disk compatibility: `tests/fixtures/store-v1` is a store directory
//! written by the byte-at-a-time CRC-32 this crate used before its
//! slice-by-8 kernel, through [`write_fixture`]'s calls. It must reopen to
//! exactly the state those calls describe, with every record intact, and
//! the same calls must write it again byte for byte.

use std::fs;
use std::path::{Path, PathBuf};

use tetrabft_store::NodeStore;
use tetrabft_types::{FsyncPolicy, Phase, Slot, Value, View, VoteBook};

const FILES: [&str; 4] = ["votes.wal", "chain.wal", "mempool.wal", "meta"];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/store-v1")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tetrabft-compat-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// Block bodies of lengths that leave every remainder mod 8.
fn block(slot: u64) -> Vec<u8> {
    (0..100 + 37 * slot).map(|i| (i * 31 + slot) as u8).collect()
}

fn block_hash(slot: u64) -> u64 {
    0x9E37_79B9_7F4A_7C15 ^ slot
}

fn book(seed: u64) -> VoteBook {
    let mut b = VoteBook::new();
    b.record(Phase::VOTE1, View(seed), Value::from_u64(seed * 3));
    b.record(Phase::VOTE2, View(seed), Value::from_u64(seed * 5));
    b.record(Phase::VOTE4, View(seed + 1), Value::from_u64(seed * 7));
    b
}

fn tx(k: usize) -> Vec<u8> {
    format!("fixture-tx-{k:02}-{}", "x".repeat(k)).into_bytes()
}

/// The writes the fixture holds: three finalized blocks, votes for live
/// slots 4 and 5 (slot 4 recorded twice), and three mempool seals.
fn write_fixture(dir: &Path) {
    let mut store = NodeStore::open(dir, FsyncPolicy::Always).unwrap();
    for slot in 1..=3 {
        store.append_block(Slot(slot), block_hash(slot), &block(slot)).unwrap();
    }
    store.record_votes(Slot(4), View(0), Slot(3), &book(4)).unwrap();
    store.record_votes(Slot(5), View(2), Slot(3), &book(5)).unwrap();
    store.record_votes(Slot(4), View(1), Slot(3), &book(6)).unwrap();
    let txs: Vec<Vec<u8>> = (0..6).map(tx).collect();
    let mut seal = |drained, requeued: &[Vec<u8>], admitted: &[Vec<u8>]| {
        let none: [&[u8]; 0] = [];
        let (requeued, admitted) = (requeued.iter().map(Vec::as_slice), admitted.iter());
        store.journal_mempool(drained, requeued, admitted.map(Vec::as_slice), none).unwrap();
    };
    seal(0, &[], &txs[..4]);
    seal(2, &[], &txs[4..5]);
    seal(1, &txs[..1], &txs[5..]);
}

#[test]
fn a_store_written_by_the_byte_at_a_time_crc_reopens_unchanged() {
    let dir = temp_dir("reopen");
    fs::create_dir_all(&dir).unwrap();
    for file in FILES {
        fs::copy(fixture_dir().join(file), dir.join(file)).unwrap();
    }
    let mut store = NodeStore::open(&dir, FsyncPolicy::Always).unwrap();
    assert_eq!(store.incarnation(), 2, "the fixture's meta passed its CRC");
    assert_eq!(store.chain_tip(), Some((Slot(3), block_hash(3))));
    for slot in 1..=3 {
        assert_eq!(store.block_record(Slot(slot)).unwrap(), Some((block_hash(slot), block(slot))));
    }
    let votes = store.restored_votes();
    assert_eq!(votes.len(), 2);
    assert_eq!((votes[&4].view, &votes[&4].book), (View(1), &book(6)), "the later record wins");
    assert_eq!((votes[&5].view, &votes[&5].book), (View(2), &book(5)));
    assert_eq!(store.restored_mempool(), [tx(0), tx(3), tx(4), tx(5)]);
    for file in ["votes.wal", "chain.wal", "mempool.wal"] {
        let (len, kept) = (fs::metadata(fixture_dir().join(file)).unwrap().len(), dir.join(file));
        assert_eq!(fs::metadata(kept).unwrap().len(), len, "{file}: no record was cut as torn");
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_same_writes_produce_the_fixture_byte_for_byte() {
    let dir = temp_dir("rewrite");
    write_fixture(&dir);
    for file in FILES {
        let (got, want) = (fs::read(dir.join(file)).unwrap(), fs::read(fixture_dir().join(file)));
        assert_eq!(got, want.unwrap(), "{file}");
    }
    fs::remove_dir_all(&dir).unwrap();
}
