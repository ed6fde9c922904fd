//! **Ledger execution** — pricing the application layer the chain carries:
//! applied transfers/s through the deterministic state machine at the two
//! id distributions that bound the trie's depth, with and without a live
//! snapshot; the allocations that execution performs (a hard gate: none on
//! an unshared ledger); the benchmark's four replicas fed block by block,
//! and one ledger as its account count outgrows the cache (the size sweep
//! runs 16,384 to 1,048,576 accounts in the full run only); the per-block
//! state-root cost of the account trie against a rescan-the-world
//! baseline; the invalid-transaction rejection path; and the end-to-end
//! consensus→execution pipeline on the sim.
//!
//! Set `TETRABFT_BENCH_SMOKE=1` for a tiny CI smoke run. Every correctness
//! assertion and the allocation gate stay armed; only the timing gate
//! (trie beats rescan) needs the full run.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_bench::{print_table, CountingAlloc};
use tetrabft_ledger::{transfer_admission, AccountId, AccountMap, Ledger, LedgerReplica, Transfer};
use tetrabft_multishot::{MultiShotNode, Transaction};
use tetrabft_sim::{LinkPolicy, SimBuilder, Time};
use tetrabft_types::{Config, NodeId};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

fn smoke() -> bool {
    std::env::var_os("TETRABFT_BENCH_SMOKE").is_some()
}

/// The retained baseline: account state in a plain `HashMap`, with the
/// per-block commitment recomputed by rescanning every account in sorted
/// order — what a ledger without a persistent hashed structure must do.
/// The trie ledger keeps a digest in every node instead: a block's writes
/// go in place (or, under a live snapshot, into a copy of each shared node
/// on their paths, made once), and when the block ends each branch they
/// touched is rehashed once, children first.
struct RescanLedger {
    accounts: HashMap<u64, (u64, u64)>, // id -> (balance, nonce)
    root: u64,
}

impl RescanLedger {
    fn new(genesis: impl IntoIterator<Item = (u64, u64)>) -> Self {
        let accounts = genesis.into_iter().map(|(id, bal)| (id, (bal, 0))).collect();
        RescanLedger { accounts, root: 0 }
    }

    fn apply_block(&mut self, slot: u64, txs: &[Vec<u8>]) -> usize {
        use tetrabft_wire::Wire;
        let mut applied = 0;
        for bytes in txs {
            let Ok(t) = Transfer::from_bytes(bytes) else { continue };
            if t.amount == 0 || t.from == t.to {
                continue;
            }
            let from = self.accounts.entry(t.from.0).or_insert((0, 0));
            if t.nonce != from.1 || from.0 < t.amount {
                continue;
            }
            from.0 -= t.amount;
            from.1 += 1;
            let to = self.accounts.entry(t.to.0).or_insert((0, 0));
            let Some(credited) = to.0.checked_add(t.amount) else { continue };
            to.0 = credited;
            applied += 1;
        }
        // The full-rescan commitment: sort every account, hash the lot.
        let mut entries: Vec<_> = self.accounts.iter().map(|(id, a)| (*id, *a)).collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            for b in v.to_be_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        mix(self.root);
        mix(slot);
        for (id, (bal, nonce)) in entries {
            mix(id);
            mix(bal);
            mix(nonce);
        }
        self.root = h;
        applied
    }
}

/// How the `k`-th account is named, and whom it pays. The id distribution
/// sets the trie's depth, and with it what one write costs.
#[derive(Clone, Copy)]
struct Ids {
    label: &'static str,
    of: fn(u64) -> u64,
    /// Account `k` of `n` pays `k + n/2` instead of `k + 1`.
    pays_across: bool,
}

/// Sequential ids `1..=n`: one 13-nibble shared prefix, so every leaf sits
/// at the trie's full depth of 16 — the worst case for a path walk. Each
/// account pays its neighbour: the stream this bench's roots were first
/// recorded with.
const DENSE: Ids = Ids { label: "dense ids 1..=n (depth 16)", of: |k| k + 1, pays_across: false };
/// The repo benchmark's ids (`benchmark/src/schedule.rs`): a bijection that
/// spreads them over the key space as ids derived from public keys would
/// be, so the trie is balanced — depth ≈ log16(n), 5 at 262,144 accounts.
/// Paying across the set makes a block of 400 transfers write 800 distinct
/// leaves, as the benchmark's uniformly drawn payers and receivers do.
const HASHED: Ids = Ids {
    label: "hashed ids (depth ≈ log16 n)",
    of: |k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    pays_across: true,
};

fn genesis(ids: Ids, accounts: u64) -> impl Iterator<Item = (AccountId, u64)> {
    (0..accounts).map(move |k| (AccountId((ids.of)(k)), 1_000_000))
}

/// Pre-built valid traffic: `blocks` blocks of `per_block` transfers, the
/// first `accounts` accounts paying round-robin, nonces sequenced per
/// account.
fn valid_blocks(ids: Ids, accounts: u64, blocks: usize, per_block: usize) -> Vec<Vec<Vec<u8>>> {
    let mut nonces = vec![0u64; accounts as usize];
    let hop = if ids.pays_across { accounts / 2 } else { 1 };
    (0..blocks)
        .map(|b| {
            (0..per_block)
                .map(|i| {
                    let k = (b * per_block + i) as u64 % accounts;
                    let nonce = nonces[k as usize];
                    nonces[k as usize] += 1;
                    Transfer {
                        from: AccountId((ids.of)(k)),
                        to: AccountId((ids.of)((k + hop) % accounts)),
                        amount: 1,
                        nonce,
                    }
                    .canonical_bytes()
                })
                .collect()
        })
        .collect()
}

/// Executes `blocks` as slots `first_slot..`, asserting every transfer
/// applies, and returns the time and the allocation events it took. With
/// `snapshot_each_block` a clone of the ledger taken just before each block
/// is alive while the block executes — what a state-sync server or a
/// checkpoint holds — so each block copies every path it writes.
fn execute(
    ledger: &mut Ledger,
    first_slot: u64,
    blocks: &[Vec<Vec<u8>>],
    snapshot_each_block: bool,
) -> (Duration, u64) {
    let before = ALLOC.snapshot();
    let t0 = Instant::now();
    let mut applied = 0;
    let mut snapshot = None;
    for (b, txs) in blocks.iter().enumerate() {
        if snapshot_each_block {
            snapshot = Some(ledger.clone());
        }
        applied += ledger.apply_block(first_slot + b as u64, txs).applied;
    }
    let time = t0.elapsed();
    let allocs = before.allocs_since(&ALLOC.snapshot());
    drop(snapshot);
    let offered: usize = blocks.iter().map(Vec::len).sum();
    assert_eq!(applied, offered, "all pre-sequenced transfers must apply");
    (time, allocs)
}

fn main() {
    let (accounts, blocks, per_block) =
        if smoke() { (128u64, 40usize, 64usize) } else { (4_096u64, 1_500usize, 256usize) };
    // The repo benchmark's shape: its account count and its block size.
    let (hashed_accounts, hashed_blocks, hashed_per_block) =
        if smoke() { (4_096u64, 40usize, 64usize) } else { (262_144u64, 1_000usize, 400usize) };
    let supply = accounts as u128 * 1_000_000;
    let traffic = valid_blocks(DENSE, accounts, blocks, per_block);

    // ---- applied transfers/s by id distribution, unshared and shared ----
    let mut rows = Vec::new();
    let shapes = [
        (DENSE, accounts, blocks, per_block),
        (HASHED, hashed_accounts, hashed_blocks, hashed_per_block),
    ];
    for (ids, accounts, blocks, per_block) in shapes {
        let traffic = valid_blocks(ids, accounts, blocks, per_block);
        let txs = (blocks * per_block) as f64;
        let mut roots = Vec::new();
        for snapshot_each_block in [false, true] {
            let mut ledger = Ledger::new(genesis(ids, accounts));
            let (time, allocs) = execute(&mut ledger, 1, &traffic, snapshot_each_block);
            assert_eq!(ledger.accounts().total_balance(), accounts as u128 * 1_000_000);
            if !snapshot_each_block {
                // THE GATE. Valid transfers between existing accounts on a
                // ledger nobody else shares write leaves in place and
                // rehash branches in place: not one allocation, from the
                // first block on.
                assert_eq!(allocs, 0, "{}: unshared execution must not allocate", ids.label);
            }
            roots.push(ledger.root());
            rows.push(vec![
                format!("trie, {}", ids.label),
                format!("{accounts} × {blocks} × {per_block}"),
                if snapshot_each_block { "fresh, every block" } else { "none" }.to_string(),
                format!("{:.0}", txs / time.as_secs_f64()),
                format!("{:.0}", time.as_secs_f64() * 1e9 / txs),
                format!("{:.2}", allocs as f64 / txs),
                format!("{}", ledger.root()),
            ]);
        }
        // Same stream, sharing or not ⇒ bit-identical chained roots.
        assert_eq!(roots[0], roots[1], "execution is deterministic, snapshots or none");
    }

    let mut rescan = RescanLedger::new((1..=accounts).map(|id| (id, 1_000_000)));
    let t0 = Instant::now();
    let mut rescan_applied = 0usize;
    for (b, txs) in traffic.iter().enumerate() {
        rescan_applied += rescan.apply_block(b as u64 + 1, txs);
    }
    let rescan_time = t0.elapsed();
    assert_eq!(rescan_applied, blocks * per_block, "both executors apply the same transfers");
    rows.push(vec![
        "rescan baseline (HashMap + full rehash), dense ids".to_string(),
        format!("{accounts} × {blocks} × {per_block}"),
        "—".to_string(),
        format!("{:.0}", rescan_applied as f64 / rescan_time.as_secs_f64()),
        format!("{:.0}", rescan_time.as_secs_f64() * 1e9 / rescan_applied as f64),
        "—".to_string(),
        format!("root:{:016x}", rescan.root),
    ]);
    print_table(
        "Ledger execution — applied transfers through the account trie",
        &[
            "executor, ids",
            "accounts × blocks × transfers",
            "snapshot held",
            "applied tx/s",
            "ns/transfer (incl. root)",
            "allocs/transfer",
            "final root",
        ],
        &rows,
    );

    // ---- copy-on-write pays once per shared node -------------------------
    // One snapshot, held from the second pass on. Each pass has the same
    // window of accounts pay each other, so every pass walks the same
    // paths: the first pass after the snapshot copies each node on them,
    // once; the next finds them unshared and allocates nothing, like the
    // pass before the snapshot existed.
    let mut rows = Vec::new();
    for (ids, accounts, _, per_block) in shapes {
        let blocks_per_pass = (accounts as usize / per_block).min(4);
        let window = (blocks_per_pass * per_block) as u64;
        let passes = valid_blocks(ids, window, 3 * blocks_per_pass, per_block);
        let mut passes = passes.chunks(blocks_per_pass).zip((1u64..).step_by(blocks_per_pass));
        let mut pass = |ledger: &mut Ledger| {
            let (blocks, first_slot) = passes.next().expect("three passes");
            execute(ledger, first_slot, blocks, false).1
        };
        let mut ledger = Ledger::new(genesis(ids, accounts));
        let unshared = pass(&mut ledger);
        let snapshot = ledger.clone();
        let (snapshot_root, snapshot_digest) = (snapshot.root(), snapshot.accounts().root_hash());
        let copying = pass(&mut ledger);
        let settled = pass(&mut ledger);
        assert_eq!(unshared, 0, "{}: nothing to copy before the snapshot", ids.label);
        assert!(copying > 0, "{}: nodes the snapshot shares must be copied", ids.label);
        assert_eq!(settled, 0, "{}: each shared node is copied once, not per write", ids.label);
        assert_eq!(snapshot.root(), snapshot_root);
        assert_eq!(snapshot.accounts().root_hash(), snapshot_digest, "the snapshot never moves");
        // No allocation is only worth having with the digest still right:
        // the written-in-place trie hashes like one built from its entries.
        let mut rebuilt = AccountMap::new();
        for (id, account) in ledger.accounts().entries() {
            rebuilt.insert(id, account);
        }
        assert_eq!(
            ledger.accounts().root_hash(),
            rebuilt.root_hash(),
            "{}: stale digest",
            ids.label
        );
        rows.push(vec![
            ids.label.to_string(),
            accounts.to_string(),
            window.to_string(),
            unshared.to_string(),
            copying.to_string(),
            format!("{:.2}", copying as f64 / window as f64),
            settled.to_string(),
        ]);
    }
    print_table(
        "Allocations per pass over one window of accounts, one snapshot held from pass 2 on",
        &[
            "ids",
            "accounts",
            "window (= transfers/pass)",
            "pass 1 (unshared)",
            "pass 2 (snapshot taken)",
            "copies/transfer",
            "pass 3 (same paths)",
        ],
        &rows,
    );

    // ---- the exec thread's shape, and the trie against the cache ---------
    // The TCP benchmark's `exec` thread applies each finalized block (≈ 180
    // transfers on `loaded`) to four replicas in turn, each a hashed
    // 262,144-account trie, so a replica's paths have left the cache by
    // the time its next block comes. The one-ledger sweep over the account
    // count shows where the trie stops fitting in cache: below that,
    // execution reads ahead nothing (`state.rs`, `READ_AHEAD_MIN_ACCOUNTS`).
    let exec_per_block = 180;
    let (exec_blocks, exec_shapes): (usize, &[(u64, usize)]) = if smoke() {
        (40, &[(1_024, 1), (4_096, 1), (4_096, 4)])
    } else {
        (500, &[(16_384, 1), (65_536, 1), (262_144, 1), (1_048_576, 1), (262_144, 4)])
    };
    let mut rows = Vec::new();
    for &(accounts, replicas) in exec_shapes {
        let traffic = valid_blocks(HASHED, accounts, exec_blocks, exec_per_block);
        let mut ledgers: Vec<Ledger> =
            (0..replicas).map(|_| Ledger::new(genesis(HASHED, accounts))).collect();
        let before = ALLOC.snapshot();
        let t0 = Instant::now();
        let mut applied = 0;
        for (b, txs) in traffic.iter().enumerate() {
            for ledger in &mut ledgers {
                applied += ledger.apply_block(b as u64 + 1, txs).applied;
            }
        }
        let time = t0.elapsed();
        let allocs = before.allocs_since(&ALLOC.snapshot());
        let txs = exec_blocks * exec_per_block * replicas;
        assert_eq!(applied, txs, "all pre-sequenced transfers must apply");
        assert_eq!(
            allocs, 0,
            "{accounts} accounts × {replicas}: unshared execution must not allocate"
        );
        assert!(ledgers.iter().all(|l| l.root() == ledgers[0].root()), "replicas must agree");
        rows.push(vec![
            accounts.to_string(),
            replicas.to_string(),
            format!("{:.0}", time.as_secs_f64() * 1e9 / txs as f64),
            format!("{}", ledgers[0].root()),
        ]);
    }
    print_table(
        &format!(
            "Execution by account count and replicas — hashed ids, \
             {exec_blocks} blocks × {exec_per_block} transfers, each block to every replica in turn"
        ),
        &["accounts", "replicas", "ns/transfer/replica (0 allocs)", "final root"],
        &rows,
    );

    // ---- per-block root cost vs account-set size -------------------------
    // The trie's commitment upkeep is O(branches the block touched); the
    // rescan baseline is O(accounts). Growing the account set shows it:
    // per-block cost stays near-flat for the trie and grows linearly for
    // the rescan. Dense ids — the trie's worst case, every path 16 deep.
    let per_block_us = |t: Duration, b: usize| t.as_secs_f64() * 1e6 / b as f64;
    let root_blocks = if smoke() { 20 } else { 100 };
    let sizes: &[u64] = if smoke() { &[128, 2_048] } else { &[4_096, 65_536] };
    let mut rows = Vec::new();
    let mut costs = Vec::new();
    for &size in sizes {
        let traffic = valid_blocks(DENSE, size, root_blocks, per_block);
        let mut trie = Ledger::new(genesis(DENSE, size));
        let t0 = Instant::now();
        for (b, txs) in traffic.iter().enumerate() {
            trie.apply_block(b as u64 + 1, txs);
        }
        let trie_t = t0.elapsed();
        let mut rescan = RescanLedger::new((1..=size).map(|id| (id, 1_000_000)));
        let t0 = Instant::now();
        for (b, txs) in traffic.iter().enumerate() {
            rescan.apply_block(b as u64 + 1, txs);
        }
        let rescan_t = t0.elapsed();
        costs.push((trie_t, rescan_t));
        rows.push(vec![
            size.to_string(),
            format!("{:.1}", per_block_us(trie_t, root_blocks)),
            format!("{:.1}", per_block_us(rescan_t, root_blocks)),
            format!("{:.2}×", rescan_t.as_secs_f64() / trie_t.as_secs_f64()),
        ]);
    }
    print_table(
        &format!("Per-block root cost vs account-set size — {per_block} transfers/block"),
        &["accounts", "trie µs/block", "rescan µs/block", "rescan/trie"],
        &rows,
    );
    if !smoke() {
        // In-place writes and one rehash per touched branch per block:
        // the trie's commitment beats the full rescan outright at both
        // sizes, not only where the account set dwarfs the write set.
        for (&size, (trie_t, rescan_t)) in sizes.iter().zip(&costs) {
            assert!(
                trie_t < rescan_t,
                "trie root upkeep must beat the full rescan at {size} accounts \
                 ({trie_t:?} vs {rescan_t:?})"
            );
        }
    }

    // ---- invalid-transaction rejection path ------------------------------
    // Half the traffic is invalid (replays, overdrafts, malformed): the
    // rejection path must be cheap, exact, and leave roots untouched by
    // the rejects.
    let mut mixed = Vec::new();
    let mut nonces = vec![0u64; accounts as usize];
    for b in 0..blocks {
        let mut txs = Vec::with_capacity(per_block);
        for i in 0..per_block {
            let from = ((b * per_block + i) as u64 % accounts) + 1;
            let to = (from % accounts) + 1;
            if i % 2 == 0 {
                let nonce = nonces[(from - 1) as usize];
                nonces[(from - 1) as usize] += 1;
                txs.push(
                    Transfer { from: AccountId(from), to: AccountId(to), amount: 1, nonce }
                        .canonical_bytes(),
                );
            } else {
                match i % 6 {
                    1 => {
                        // Bad nonce: a replay once the account has moved, a
                        // far-future gap while it is still fresh — wrong
                        // either way.
                        let cur = nonces[(from - 1) as usize];
                        let nonce = if cur > 0 { cur - 1 } else { cur + 1_000_000 };
                        txs.push(
                            Transfer { from: AccountId(from), to: AccountId(to), amount: 1, nonce }
                                .canonical_bytes(),
                        );
                    }
                    3 => txs.push(
                        // Overdraft: more than the whole supply.
                        Transfer {
                            from: AccountId(from),
                            to: AccountId(to),
                            amount: u64::MAX,
                            nonce: nonces[(from - 1) as usize],
                        }
                        .canonical_bytes(),
                    ),
                    _ => txs.push(b"not a transfer".to_vec()), // malformed
                }
            }
        }
        mixed.push(txs);
    }
    let mut dirty = Ledger::new(genesis(DENSE, accounts));
    let t0 = Instant::now();
    let (mut ok, mut bad) = (0usize, 0usize);
    for (b, txs) in mixed.iter().enumerate() {
        let receipt = dirty.apply_block(b as u64 + 1, txs);
        ok += receipt.applied;
        bad += receipt.rejected.len();
    }
    let mixed_time = t0.elapsed();
    assert_eq!(ok + bad, blocks * per_block);
    assert_eq!(ok, blocks * (per_block / 2 + per_block % 2), "exactly the valid half applies");
    assert_eq!(dirty.accounts().total_balance(), supply, "rejects never move funds");
    // Identical mixed stream twice ⇒ identical root: rejection is part of
    // the deterministic state machine.
    let mut dirty2 = Ledger::new(genesis(DENSE, accounts));
    for (b, txs) in mixed.iter().enumerate() {
        dirty2.apply_block(b as u64 + 1, txs);
    }
    assert_eq!(dirty2.root(), dirty.root());
    print_table(
        "Invalid-transaction path — 50% invalid (replay / overdraft / malformed)",
        &["applied", "rejected", "rejects/s", "µs/block"],
        &[vec![
            ok.to_string(),
            bad.to_string(),
            format!("{:.0}", bad as f64 / mixed_time.as_secs_f64()),
            format!("{:.1}", per_block_us(mixed_time, blocks)),
        ]],
    );

    // ---- end to end: consensus → execution ------------------------------
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let horizon: u64 = if smoke() { 40 } else { 200 };
    let per_account = if smoke() { 8u64 } else { 32 };
    let exec_accounts = 8u64;
    let exec_genesis: Vec<(AccountId, u64)> =
        (1..=exec_accounts).map(|id| (AccountId(id), 10_000)).collect();
    let mut sim = SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build(|id| {
        let mut node =
            MultiShotNode::new(cfg, Params::new(1_000), id).with_admission(transfer_admission);
        if id == NodeId(0) {
            for from in 1..=exec_accounts {
                for t in 0..per_account {
                    let tx = Transfer {
                        from: AccountId(from),
                        to: AccountId((from % exec_accounts) + 1),
                        amount: 1,
                        nonce: t,
                    };
                    node.submit_tx(&tx).unwrap();
                }
            }
        }
        node
    });
    sim.run_until(Time(horizon));
    let t0 = Instant::now();
    let mut replica = LedgerReplica::new(exec_genesis);
    for record in sim.outputs().iter().filter(|o| o.node == NodeId(0)) {
        replica.push(0, &record.output);
    }
    let exec_time = t0.elapsed();
    let applied: usize = replica.receipts().iter().map(|r| r.applied).sum();
    assert_eq!(
        applied as u64,
        exec_accounts * per_account,
        "every submitted transfer finalizes and applies exactly once"
    );
    assert_eq!(replica.ledger().accounts().total_balance(), exec_accounts as u128 * 10_000);
    print_table(
        &format!(
            "Consensus → execution — n={n}, {exec_accounts} accounts × {per_account} transfers, \
             horizon {horizon} delays"
        ),
        &["blocks executed", "applied", "blocks/s (exec)", "final root"],
        &[vec![
            replica.height().to_string(),
            applied.to_string(),
            format!("{:.0}", replica.height() as f64 / exec_time.as_secs_f64()),
            format!("{}", replica.root()),
        ]],
    );

    println!(
        "\nExecution is deterministic (same stream ⇒ bit-identical chained roots, \
         snapshots held or not), allocates nothing on an unshared ledger and \
         copies a shared node once, invalid transactions reject without \
         touching state, and the account trie rehashes each branch a block \
         touched once instead of rescanning every account."
    );
}
