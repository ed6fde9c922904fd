//! Restart cost as a function of history: re-opening a store is one scan
//! of the finalized-chain log plus a constant amount of live-slot state.
//! The chain log grows linearly with the chain; the vote WAL is rewritten
//! in place and stays under a constant however long the chain ran — the
//! paper's bounded-storage claim, on disk. (`benchmark/run.sh` prices the
//! scan as `store.open_ms_per_kblock`.)

use std::time::{Duration, Instant};

use tetrabft_store::NodeStore;
use tetrabft_types::{FsyncPolicy, Phase, Slot, Value, View, VoteBook};

/// The vote WAL oscillates below its compaction slack; it never tracks
/// history.
const LIVE_BOUND: u64 = 16 * 1024;

/// Writes a store shaped like a crashed node's — `len` finalized blocks of
/// four transactions, votes churning in the slot just past the tip, a
/// pending mempool — re-opens it, and returns `(live bytes, chain bytes)`.
fn reopened(len: u64) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("tetrabft-reopen-{}-{len}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = NodeStore::open(&dir, FsyncPolicy::Never).expect("store opens");
    for s in 1..=len {
        let mut book = VoteBook::new();
        for phase in Phase::ALL {
            book.record(phase, View(s), Value::from_u64(s));
        }
        store.record_votes(Slot(s + 1), View(0), Slot(s), &book).expect("votes recorded");
        let block: Vec<u8> =
            (0..4).flat_map(|t| format!("slot{s}-tx{t}-{:032}", s * 4 + t).into_bytes()).collect();
        store.append_block(Slot(s), s ^ 0x5eed, &block).expect("block appended");
    }
    store
        .save_mempool((0..8u32).map(|t| format!("pending-{t}").into_bytes()))
        .expect("mempool journal written");
    store.sync().expect("sync");
    let (live, chain) = (store.live_bytes(), store.chain_bytes());
    drop(store);

    let started = Instant::now();
    let store = NodeStore::open(&dir, FsyncPolicy::Always).expect("restart from disk");
    let elapsed = started.elapsed();
    assert_eq!(store.chain_tip(), Some((Slot(len), len ^ 0x5eed)), "the tip survives");
    assert_eq!(store.chain_len(), len, "every finalized block is recovered");
    assert_eq!(store.live_bytes(), live, "recovery must not inflate the live-slot WAL");
    assert_eq!(store.chain_bytes(), chain, "recovery must not rewrite the chain log");
    assert_eq!(store.restored_mempool().len(), 8, "the pending queue comes back");
    assert!(elapsed < Duration::from_secs(5), "re-opening {len} blocks took {elapsed:?}");
    let _ = std::fs::remove_dir_all(&dir);
    (live, chain)
}

#[test]
fn reopening_scans_a_linear_chain_log_and_a_constant_live_wal() {
    let (live_short, chain_short) = reopened(100);
    let (live_long, chain_long) = reopened(1_000);
    assert!(
        live_short <= LIVE_BOUND && live_long <= LIVE_BOUND,
        "the live-slot WAL must stay below {LIVE_BOUND} B at every chain length: \
         {live_short} B at 100 blocks, {live_long} B at 1,000"
    );
    let growth = chain_long as f64 / chain_short as f64;
    assert!(
        (growth / 10.0 - 1.0).abs() < 0.2,
        "chain log must grow linearly: 10x blocks grew bytes {growth:.2}x"
    );
}
