//! **Crash-recovery latency** — how long a durable multishot node takes
//! to come back after `kill -9`, as a function of finalized-chain length.
//!
//! The durability design splits state two ways: the per-live-slot vote WAL
//! is rewritten in place and stays **constant-size** no matter how long
//! the chain runs (the paper's bounded-storage claim, crash-real), while
//! the finalized chain is an append-only log that grows linearly.
//! Restart therefore costs one scan of the chain log to rebuild the tip
//! index plus a constant amount of live-slot and mempool restoration —
//! linear in history size on disk, far below a second even at 10k blocks,
//! and entirely independent of how much *live* voting state existed at
//! the moment of the crash.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for the CI smoke run (shorter chains;
//! every assertion still executes).

use std::path::Path;
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_bench::print_table;
use tetrabft_multishot::{Block, MultiShotNode, GENESIS_HASH};
use tetrabft_store::NodeStore;
use tetrabft_types::{Config, FsyncPolicy, NodeId, Phase, Slot, Value, View, VoteBook};
use tetrabft_wire::Wire;

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

/// Writes a store shaped exactly like a crashed node's: `len` finalized
/// blocks in the chain log, votes churning in the slot just past the tip,
/// and a pending mempool (a freshly compacted journal).
fn seed_store(dir: &Path, len: u64) -> (u64, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let mut store = NodeStore::open(dir, FsyncPolicy::Never).expect("store opens");
    let mut parent = GENESIS_HASH;
    for s in 1..=len {
        let mut book = VoteBook::new();
        for phase in Phase::ALL {
            book.record(phase, View(s), Value::from_u64(s));
        }
        store.record_votes(Slot(s + 1), View(0), Slot(s), &book).expect("votes recorded");
        let txs = (0..4).map(|t| format!("slot{s}-tx{t}-{:032}", s * 4 + t).into_bytes());
        let block = Block::new(Slot(s), parent, txs.collect());
        let hash = block.hash();
        store.append_block(Slot(s), hash.0, &block.to_bytes()).expect("block appended");
        parent = hash;
    }
    store
        .save_mempool((0..8u32).map(|t| format!("pending-{t}").into_bytes()))
        .expect("mempool journal written");
    store.sync().expect("sync");
    (store.live_bytes(), store.chain_bytes())
}

fn main() {
    let lengths: &[u64] = if smoke() { &[50, 100] } else { &[100, 1_000, 10_000] };
    let cfg = Config::new(4).unwrap();
    let params = Params::new(50).with_fsync(FsyncPolicy::Always);

    let mut rows = Vec::new();
    let mut live_sizes = Vec::new();
    let mut chain_sizes = Vec::new();
    let mut times = Vec::new();
    for &len in lengths {
        let dir = std::env::temp_dir()
            .join(format!("tetrabft-recovery-bench-{}-{len}", std::process::id()));
        let (live, chain) = seed_store(&dir, len);

        let started = Instant::now();
        let node =
            MultiShotNode::durable(cfg, params, NodeId(0), dir.clone()).expect("restart from disk");
        let elapsed = started.elapsed();

        assert_eq!(node.finalized_slot(), Slot(len), "the tip must survive the crash");
        let (live_after, chain_after, chain_len) =
            node.durable_stats().expect("restarted node is durable");
        assert_eq!(chain_len, len, "every finalized block must be recovered");
        assert_eq!(live_after, live, "recovery must not inflate the live-slot WAL");
        assert_eq!(chain_after, chain, "recovery must not rewrite the chain log");
        assert!(elapsed < Duration::from_secs(5), "recovery after {len} blocks took {elapsed:?}");

        live_sizes.push(live);
        chain_sizes.push(chain);
        times.push(elapsed);
        rows.push(vec![
            len.to_string(),
            chain.to_string(),
            live.to_string(),
            format!("{:.2}", elapsed.as_secs_f64() * 1e3),
        ]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The storage split the design promises: live state bounded by a
    // constant at every chain length (the WAL oscillates below the
    // compaction slack, it never tracks history), chain log linear in it.
    const LIVE_BOUND: u64 = 16 * 1024;
    assert!(
        live_sizes.iter().all(|&l| l <= LIVE_BOUND),
        "live-slot WAL must stay below the constant compaction bound \
         ({LIVE_BOUND} B) at every chain length: {live_sizes:?}"
    );
    for (pair, lens) in chain_sizes.windows(2).zip(lengths.windows(2)) {
        let growth = pair[1] as f64 / pair[0] as f64;
        let expected = lens[1] as f64 / lens[0] as f64;
        assert!(
            (growth / expected - 1.0).abs() < 0.2,
            "chain log must grow linearly: {}x blocks grew bytes {growth:.2}x",
            expected
        );
    }

    print_table(
        "Crash-recovery latency vs chain length (restart = chain-log scan + constant \
         live-slot and mempool restore)",
        &["chain length", "chain log (bytes)", "live WAL (bytes)", "recovery (ms)"],
        &rows,
    );

    println!(
        "\nRestart after kill -9 is a single pass over the finalized chain log plus a \
         constant-size live-slot restore: the vote WAL stayed below {} bytes at every \
         chain length above (max seen: {}), so the paper's bounded live-state claim \
         holds on disk exactly as it does in memory, and recovery latency ({:.2} ms at \
         the longest chain) stays orders of magnitude below the view timeout.",
        LIVE_BOUND,
        live_sizes.iter().max().unwrap(),
        times.last().unwrap().as_secs_f64() * 1e3
    );
}
