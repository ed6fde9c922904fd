//! The ledger on consensus, end to end: conservation and rejection
//! invariants under arbitrary traffic (proptests), the account trie's
//! in-place writes against a `BTreeMap` model, chunked read-ahead execution
//! against a plain one-batch reference, byte-identical state
//! roots across independently-executing replicas in both runtimes (sim
//! n=4, TCP cluster), and forged divergence surfacing as a typed
//! `StateRootMismatch` naming the offending block.

use std::collections::{BTreeMap, HashSet};
use std::mem;

use proptest::prelude::*;
use proptest::TestCaseError;
use tetrabft_suite::ledger::{AccountBatch, AccountMap, BlockReceipt, ExecError};
use tetrabft_suite::prelude::*;
use tetrabft_suite::wire::Wire;

/// Canonical bytes of one transfer.
fn pay(from: u64, to: u64, amount: u64, nonce: u64) -> Vec<u8> {
    Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }.canonical_bytes()
}

fn fin(slot: u64, txs: Vec<Vec<u8>>) -> Finalized {
    let block = Block::new(Slot(slot), GENESIS_HASH, txs);
    Finalized { slot: Slot(slot), hash: block.hash(), block }
}

// ---- property tests -----------------------------------------------------

/// An arbitrary transfer intent over a small account universe: whether it
/// is valid depends on the ledger state when it executes.
fn intent_strategy() -> impl Strategy<Value = (u64, u64, u64, u64)> {
    // (from 1..=5, to 1..=5, amount 0..=400, nonce_skew 0..=2). Self-pays,
    // zero amounts, overdrafts, and nonce gaps all occur naturally.
    (1u64..=5, 1u64..=5, 0u64..=400, 0u64..=2)
}

/// One step of the account-trie model test.
#[derive(Debug, Clone)]
enum MapOp {
    /// `AccountMap::insert`: a batch of one.
    Insert(u64, Account),
    /// One `AccountMap::batch`: each entry reads a key, then writes one.
    Batch(Vec<(u64, u64, Account)>),
    /// `clone()` the live map and keep the snapshot.
    Snapshot,
    /// Drop the held snapshot at this index (modulo how many are held),
    /// handing the nodes only it shared back to sole ownership.
    Release(usize),
}

/// Keys from three families that collide at every depth: dense small ids
/// (one 13-nibble shared prefix), the benchmark's hashed ids (spread over
/// the root's children), and ids that differ only in the last nibble or two.
fn key_strategy() -> impl Strategy<Value = u64> {
    (0u8..3, 0u64..40).prop_map(|(family, k)| match family {
        0 => k,
        1 => hashed(k),
        _ => 0xAAAA_AAAA_AAAA_AA00 | k,
    })
}

fn account_strategy() -> impl Strategy<Value = Account> {
    (0u64..1_000, 0u64..4).prop_map(|(balance, nonce)| Account { balance, nonce })
}

fn map_op_strategy() -> impl Strategy<Value = MapOp> {
    prop_oneof![
        (key_strategy(), account_strategy()).prop_map(|(k, a)| MapOp::Insert(k, a)),
        proptest::collection::vec((key_strategy(), key_strategy(), account_strategy()), 0..24)
            .prop_map(MapOp::Batch),
        Just(MapOp::Snapshot),
        (0usize..8).prop_map(MapOp::Release),
    ]
}

/// What a map reports, and what the model alone says it must: the entries,
/// and the digest of a fresh map holding exactly them.
#[derive(Debug, PartialEq)]
struct Reported {
    len: usize,
    entries: Vec<(AccountId, Account)>,
    root_hash: u64,
}

impl Reported {
    fn by(map: &AccountMap) -> Self {
        Reported { len: map.len(), entries: map.entries(), root_hash: map.root_hash() }
    }

    fn expected_of(model: &BTreeMap<u64, Account>) -> Self {
        let entries: Vec<_> = model.iter().map(|(k, a)| (AccountId(*k), *a)).collect();
        let mut rebuilt = AccountMap::new();
        for (id, account) in &entries {
            rebuilt.insert(*id, *account);
        }
        Reported { len: model.len(), entries, root_hash: rebuilt.root_hash() }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// What writing the trie in place could break: a snapshot that shares
    /// nodes with the live map must never see a later write (the write has
    /// to copy what is shared), a digest must never be left stale (every
    /// touched branch rehashes when its batch ends), and a batch must read
    /// its own writes. Random interleavings of single inserts, multi-write
    /// batches with repeated keys, snapshots and snapshot drops, checked
    /// against a `BTreeMap`.
    #[test]
    fn in_place_writes_match_a_btreemap_model(
        ops in proptest::collection::vec(map_op_strategy(), 1..40),
    ) {
        let mut live = AccountMap::new();
        let mut model: BTreeMap<u64, Account> = BTreeMap::new();
        // Each held snapshot with what it reported when taken.
        let mut held: Vec<(AccountMap, Reported)> = Vec::new();
        for op in ops {
            match op {
                MapOp::Insert(key, account) => {
                    live.insert(AccountId(key), account);
                    model.insert(key, account);
                }
                MapOp::Batch(writes) => {
                    let mut batch = live.batch();
                    for (read, key, account) in writes {
                        prop_assert_eq!(batch.get(AccountId(read)), model.get(&read).copied());
                        batch.insert(AccountId(key), account);
                        model.insert(key, account);
                        prop_assert_eq!(batch.get(AccountId(key)), Some(account));
                    }
                }
                MapOp::Snapshot => held.push((live.clone(), Reported::expected_of(&model))),
                MapOp::Release(i) => {
                    if !held.is_empty() {
                        held.swap_remove(i % held.len());
                    }
                }
            }
            // After every step the live map is the model, hashed as a map
            // built from the model alone would be (a stale digest shows
            // here), and every snapshot is still what it was when taken (a
            // write that did not copy a shared node shows here).
            prop_assert_eq!(Reported::by(&live), Reported::expected_of(&model));
            for (snapshot, taken) in &held {
                prop_assert_eq!(&Reported::by(snapshot), taken);
            }
        }
    }

    /// Total balance is conserved under arbitrary traffic — applied
    /// transfers move funds, rejected ones change nothing — and two
    /// replicas executing the same stream agree on every root.
    #[test]
    fn conservation_and_replica_agreement(
        intents in proptest::collection::vec(intent_strategy(), 0..120),
        per_block in 1usize..8,
    ) {
        let genesis: Vec<(AccountId, u64)> =
            (1..=5).map(|id| (AccountId(id), 200)).collect();
        let supply: u128 = 5 * 200;
        let mut a = LedgerReplica::new(genesis.clone());
        let mut b = LedgerReplica::new(genesis);
        // Track each account's expected nonce so *some* transfers are
        // valid; the skew re-introduces replays (skew 0 twice) and gaps.
        let mut nonces = [0u64; 6];
        for (slot, chunk) in intents.chunks(per_block).enumerate() {
            let txs: Vec<Vec<u8>> = chunk
                .iter()
                .map(|&(from, to, amount, skew)| {
                    let nonce = nonces[from as usize].saturating_sub(1).saturating_add(skew);
                    let bytes = pay(from, to, amount, nonce);
                    // Mirror the ledger's own validity rule to advance the
                    // model nonce only when the transfer will apply.
                    if from != to && amount > 0 && nonce == nonces[from as usize] {
                        nonces[from as usize] += 1; // may still overdraft; harmless over-advance is
                                                    // corrected below by re-reading the ledger
                    }
                    bytes
                })
                .collect();
            let block = fin(slot as u64 + 1, txs);
            a.push(0, &block);
            b.push(0, &block);
            // Re-sync the model nonces from the authoritative ledger (the
            // model cannot see overdrafts without duplicating the ledger).
            for id in 1..=5u64 {
                nonces[id as usize] = a.ledger().account(AccountId(id)).nonce;
            }
            prop_assert_eq!(
                a.ledger().accounts().total_balance(),
                supply,
                "conservation violated at slot {}",
                slot + 1
            );
        }
        prop_assert_eq!(a.root(), b.root());
        prop_assert!(a.cross_check(&b).is_ok());
    }

    /// Valid transfer sequences all apply: nonces advance contiguously and
    /// funds arrive exactly once.
    #[test]
    fn valid_sequences_apply_fully(amounts in proptest::collection::vec(1u64..=10, 1..40)) {
        let mut replica = LedgerReplica::new([(AccountId(1), 1_000)]);
        let txs: Vec<Vec<u8>> =
            amounts.iter().enumerate().map(|(i, amt)| pay(1, 2, *amt, i as u64)).collect();
        replica.push(0, &fin(1, txs));
        let receipt = &replica.receipts()[0];
        prop_assert_eq!(receipt.applied, amounts.len());
        prop_assert!(receipt.rejected.is_empty());
        let moved: u64 = amounts.iter().sum();
        prop_assert_eq!(replica.ledger().account(AccountId(2)).balance, moved);
        prop_assert_eq!(replica.ledger().account(AccountId(1)).nonce, amounts.len() as u64);
    }

    /// A replayed transfer and an overdraft both reject deterministically
    /// and leave the state root exactly where a clean execution put it.
    #[test]
    fn replay_and_overdraft_never_move_the_root(amount in 1u64..=100) {
        let run = |inject_invalid: bool| {
            let mut replica = LedgerReplica::new([(AccountId(1), 100)]);
            let valid = pay(1, 2, amount, 0);
            replica.push(0, &fin(1, vec![valid.clone()]));
            let mut txs = Vec::new();
            if inject_invalid {
                txs.push(valid.clone()); // replay: nonce 0 again
                txs.push(pay(1, 2, 10_000, 1)); // overdraft
            }
            replica.push(0, &fin(2, txs));
            replica
        };
        let (clean, dirty) = (run(false), run(true));
        let receipt = &dirty.receipts()[1];
        prop_assert_eq!(receipt.applied, 0);
        prop_assert_eq!(receipt.rejected.len(), 2);
        prop_assert!(matches!(receipt.rejected[0].1, tetrabft_suite::ledger::ExecError::BadNonce { expected: 1, got: 0 }));
        prop_assert!(matches!(receipt.rejected[1].1, tetrabft_suite::ledger::ExecError::Overdraft { .. }));
        // Same accounts ⇒ same account digest; the chained roots agree
        // because both executed the same two slots over the same state.
        prop_assert_eq!(clean.root(), dirty.root());
    }
}

// ---- chunked, read-ahead execution against a plain batch ----------------

/// The execution rules once more, through the public map API alone: one
/// `AccountMap::batch` per block, each transfer decoded, checked and written
/// through `AccountBatch::{get, insert}` as it comes, the root chained with
/// `StateRoot::chain`. Nothing is read ahead and nothing is chunked.
struct Reference {
    accounts: AccountMap,
    height: u64,
    root: StateRoot,
}

impl Reference {
    fn new(accounts: AccountMap) -> Self {
        let root = StateRoot::genesis(&accounts);
        Reference { accounts, height: 0, root }
    }

    fn apply_block(&mut self, txs: &[Vec<u8>]) -> BlockReceipt {
        let (mut applied, mut rejected) = (0, Vec::new());
        let mut batch = self.accounts.batch();
        for (i, bytes) in txs.iter().enumerate() {
            match Self::apply_tx(&mut batch, bytes) {
                Ok(()) => applied += 1,
                Err(e) => rejected.push((i, e)),
            }
        }
        drop(batch);
        self.height += 1;
        self.root = StateRoot::chain(self.root, self.height, self.accounts.root_hash());
        BlockReceipt { slot: self.height, applied, rejected, root: self.root }
    }

    fn apply_tx(batch: &mut AccountBatch<'_>, bytes: &[u8]) -> Result<(), ExecError> {
        let t = Transfer::from_bytes(bytes).map_err(|_| ExecError::Malformed)?;
        if t.amount == 0 {
            return Err(ExecError::ZeroAmount);
        }
        if t.from == t.to {
            return Err(ExecError::SelfTransfer);
        }
        let mut from = batch.get(t.from).unwrap_or_default();
        if t.nonce != from.nonce {
            return Err(ExecError::BadNonce { expected: from.nonce, got: t.nonce });
        }
        if from.balance < t.amount {
            return Err(ExecError::Overdraft { balance: from.balance, amount: t.amount });
        }
        let mut to = batch.get(t.to).unwrap_or_default();
        to.balance = to.balance.checked_add(t.amount).ok_or(ExecError::Overflow)?;
        from.balance -= t.amount;
        from.nonce += 1;
        batch.insert(t.from, from);
        batch.insert(t.to, to);
        Ok(())
    }
}

fn hashed(k: u64) -> u64 {
    k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Accounts `hashed(1..=n)` with 1,000 each, except `hashed(7)`, which holds
/// nearly `u64::MAX`: a credit of more than 300 to it overflows.
fn spread_genesis(n: u64) -> Vec<(AccountId, u64)> {
    let rich = (AccountId(hashed(7)), u64::MAX - 300);
    (1..=n).map(|k| (AccountId(hashed(k)), 1_000)).chain([rich]).collect()
}

/// The accounts generated blocks name: six funded, the rich one, and three
/// that do not exist yet — two whose first credit splits a funded
/// account's leaf 15 and 13 nibbles down, and one with a path of its own.
const NAMED: usize = 10;

fn named(i: usize) -> u64 {
    match i {
        0..=6 => hashed(i as u64 + 1),
        7 => hashed(1) ^ 0x1,
        8 => hashed(2) ^ 0x100,
        _ => 0x0123_4567_89AB_CDEF,
    }
}

/// One transaction of a generated block.
#[derive(Debug, Clone, Copy)]
enum TxSpec {
    /// Named account `from` pays named account `to` with the payer's
    /// current nonce, plus `skew`, minus one: a replay, the right one, or a
    /// gap.
    Pay { from: usize, to: usize, amount: u64, skew: u64 },
    /// A canonical transfer with a byte appended.
    Malformed,
}

/// Mostly payments that can apply; zero amounts, self-payments, replays,
/// gaps, overdrafts, overflows and malformed bytes all occur. `amount` is
/// drawn from `1..=1_200`: two thirds of draws pay at most 101, a quarter
/// 401–700 (enough to overflow the rich account), the rest over 11,000.
fn spec_of((kind, from, to, amount, skew): (u8, usize, usize, u64, u8)) -> TxSpec {
    let amount = match amount {
        _ if kind == 1 => 0,
        0..=800 => amount / 8 + 1,
        801..=1_100 => amount - 400,
        _ => amount * 10,
    };
    match kind {
        0 => TxSpec::Malformed,
        _ => TxSpec::Pay {
            from,
            to,
            amount,
            skew: match skew {
                0 => 0,
                5 => 2,
                _ => 1,
            },
        },
    }
}

fn tx_spec_strategy() -> impl Strategy<Value = TxSpec> {
    (0u8..16, 0..NAMED, 0..NAMED, 1u64..=1_200, 0u8..6).prop_map(spec_of)
}

/// A block's bytes, nonces taken from `state` and advanced past each
/// payment that looks valid.
fn block_bytes(specs: &[TxSpec], state: &AccountMap) -> Vec<Vec<u8>> {
    let mut nonces: BTreeMap<usize, u64> = BTreeMap::new();
    specs
        .iter()
        .map(|spec| match *spec {
            TxSpec::Malformed => {
                let mut bytes = pay(1, 2, 3, 0);
                bytes.push(0);
                bytes
            }
            TxSpec::Pay { from, to, amount, skew } => {
                let current = nonces
                    .entry(from)
                    .or_insert_with(|| state.get(AccountId(named(from))).map_or(0, |a| a.nonce));
                let nonce = (*current + skew).saturating_sub(1);
                if skew == 1 && amount > 0 && from != to {
                    *current += 1;
                }
                pay(named(from), named(to), amount, nonce)
            }
        })
        .collect()
}

/// Executes `blocks` through `ledger` and through a [`Reference`] on
/// `reference_state` (the same accounts), holding a clone of `ledger`
/// across each block when `hold`: receipts, chained roots and the final
/// accounts must be identical.
fn assert_matches_reference(
    mut ledger: Ledger,
    reference_state: AccountMap,
    blocks: &[Vec<TxSpec>],
    hold: bool,
) -> Result<Vec<BlockReceipt>, TestCaseError> {
    let mut reference = Reference::new(reference_state);
    prop_assert_eq!(ledger.root(), reference.root);
    let mut receipts = Vec::new();
    for specs in blocks {
        let txs = block_bytes(specs, &reference.accounts);
        let snapshot = hold.then(|| ledger.clone());
        let digest = ledger.accounts().root_hash();
        let receipt = ledger.apply_block(ledger.height() + 1, &txs);
        prop_assert_eq!(&receipt, &reference.apply_block(&txs));
        if let Some(snapshot) = snapshot {
            prop_assert_eq!(snapshot.accounts().root_hash(), digest);
        }
        receipts.push(receipt);
    }
    prop_assert_eq!(ledger.accounts().entries(), reference.accounts.entries());
    Ok(receipts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `Ledger::apply_block` decodes a block once, in chunks of 32, and
    /// reads each chunk's paths ahead before applying it: none of that may
    /// change a receipt or a root. Blocks of 0–100 transactions (up to four
    /// chunks) with every rejection, payees that split leaves, accounts
    /// named again and again, with a clone of the ledger held or not.
    #[test]
    fn chunked_execution_matches_a_plain_batch(
        blocks in proptest::collection::vec(
            proptest::collection::vec(tx_spec_strategy(), 0..=100),
            1..4,
        ),
        hold in any::<bool>(),
    ) {
        let genesis = spread_genesis(6);
        let mut state = AccountMap::new();
        for (id, balance) in &genesis {
            state.insert(*id, Account::with_balance(*balance));
        }
        assert_matches_reference(Ledger::new(genesis), state, &blocks, hold)?;
    }
}

/// The same comparison on a map large enough that execution reads ahead:
/// the benchmark's 262,144 accounts, and blocks drawn as above.
#[test]
fn execution_above_the_read_ahead_size_matches_a_plain_batch() {
    let ledger = Ledger::new(spread_genesis(262_144));
    // The reference starts from a snapshot, so the first block also writes
    // under a live clone.
    let state = ledger.accounts().clone();
    let mut x: u64 = 28;
    let mut draw = |n: u64| {
        x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (x >> 33) % n
    };
    let mut blocks: Vec<Vec<TxSpec>> = [100, 64, 33, 0, 100]
        .iter()
        .map(|&len| {
            (0..len)
                .map(|_| {
                    let named = NAMED as u64;
                    let (from, to) = (draw(named) as usize, draw(named) as usize);
                    spec_of((draw(16) as u8, from, to, 1 + draw(1_200), draw(6) as u8))
                })
                .collect()
        })
        .collect();
    // Every rejection in the first chunk, whatever the draws: an overflow
    // of the rich account, a self-payment, a zero amount, a nonce gap, an
    // overdraft, malformed bytes.
    let pay = |from, to, amount, skew| TxSpec::Pay { from, to, amount, skew };
    let every_reason =
        [pay(0, 6, 500, 1), pay(1, 1, 5, 1), pay(2, 3, 0, 1), pay(2, 3, 5, 2), pay(3, 4, 5_000, 1)];
    blocks[0].splice(0..0, every_reason.into_iter().chain([TxSpec::Malformed]));
    let receipts = assert_matches_reference(ledger, state, &blocks, false).unwrap();
    let reasons: HashSet<_> =
        receipts.iter().flat_map(|r| &r.rejected).map(|(_, e)| mem::discriminant(e)).collect();
    assert_eq!(reasons.len(), 6, "every rejection reason occurs");
    let applied: usize = receipts.iter().map(|r| r.applied).sum();
    assert!(applied > 50, "{applied} applied");
}

// ---- typed submission & admission through the node ----------------------

#[test]
fn admission_hook_refuses_static_failures_at_the_door() {
    let cfg = Config::new(4).unwrap();
    let mut node =
        MultiShotNode::new(cfg, Params::new(100), NodeId(0)).with_admission(transfer_admission);
    let ok = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: 0 };
    node.submit_tx(&ok).unwrap();
    assert!(matches!(
        node.submit_tx(b"free-form bytes".to_vec()),
        Err(SubmitError::Malformed { .. })
    ));
    let zero = Transfer { amount: 0, ..ok };
    assert!(matches!(node.submit_tx(&zero), Err(SubmitError::Rejected { .. })));
    let selfpay = Transfer { to: AccountId(1), nonce: 1, ..ok };
    assert!(matches!(node.submit_tx(&selfpay), Err(SubmitError::Rejected { .. })));
    // Stateful validity is not admission's business: a future nonce and an
    // absurd amount both pass (execution rejects them deterministically).
    let future = Transfer { nonce: 99, ..ok };
    node.submit_tx(&future).unwrap();
    assert_eq!(node.mempool_len(), 2);
}

#[test]
fn typed_dedup_catches_resubmission_in_either_form() {
    let cfg = Config::new(4).unwrap();
    let mut node = MultiShotNode::new(cfg, Params::new(100), NodeId(0));
    let t = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: 0 };
    node.submit_tx(&t).unwrap();
    // Typed resubmission and raw resubmission of the same canonical bytes
    // are the same identity.
    assert_eq!(node.submit_tx(&t), Err(SubmitError::Duplicate));
    assert_eq!(node.submit_tx(t.canonical_bytes()), Err(SubmitError::Duplicate));
    // A different nonce is a different transaction.
    node.submit_tx(&Transfer { nonce: 1, ..t }).unwrap();
    assert_eq!(node.mempool_len(), 2);
}

// ---- replica agreement: deterministic sim, n = 4 ------------------------

/// Runs an n=4 sim where each node submits typed transfers from its own
/// account, then executes every node's finalized stream in its own
/// replica. All roots must be byte-identical.
#[test]
fn sim_replicas_agree_on_state_roots() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let genesis: Vec<(AccountId, u64)> = (1..=n as u64).map(|id| (AccountId(id), 1_000)).collect();
    let mut sim = SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build(|id| {
        let mut node =
            MultiShotNode::new(cfg, Params::new(100), id).with_admission(transfer_admission);
        // Node i pays from account i+1: each transfer enters exactly one
        // mempool, so it finalizes exactly once.
        let from = id.0 as u64 + 1;
        for t in 0..20u64 {
            let tx =
                Transfer { from: AccountId(from), to: AccountId(100 + from), amount: 3, nonce: t };
            node.submit_tx(&tx).unwrap();
        }
        node
    });
    sim.run_until(Time(60));

    let mut replicas: Vec<LedgerReplica> =
        (0..n).map(|_| LedgerReplica::new(genesis.clone())).collect();
    for record in sim.outputs() {
        replicas[record.node.index()].push(0, &record.output);
    }
    let min_height = replicas.iter().map(|r| r.height()).min().unwrap();
    assert!(min_height > 20, "chain must make progress, got height {min_height}");
    let reference = &replicas[0];
    for (i, other) in replicas.iter().enumerate().skip(1) {
        reference.cross_check(other).unwrap_or_else(|e| panic!("replica {i} diverged: {e}"));
        let common = (min_height as usize).saturating_sub(1);
        assert_eq!(
            reference.receipts()[common].root,
            other.receipts()[common].root,
            "replica {i} root differs at common height"
        );
    }
    // The traffic executed: every node's 20 transfers applied somewhere in
    // the chain, and conservation held throughout.
    let applied: usize = reference.receipts().iter().map(|r| r.applied).sum();
    assert_eq!(applied, n * 20, "every submitted transfer applies exactly once");
    assert_eq!(reference.ledger().accounts().total_balance(), 4 * 1_000);
    for from in 1..=n as u64 {
        assert_eq!(reference.ledger().account(AccountId(100 + from)).balance, 60);
        assert_eq!(reference.ledger().account(AccountId(from)).nonce, 20);
    }
}

// ---- replica agreement: real TCP cluster --------------------------------

/// A live four-node TCP cluster with typed transfers submitted through
/// `SubmitHandle`s: every node's finalized stream executes to the same
/// per-block roots as the others — the same check as the sim tests, over
/// real sockets.
#[test]
fn tcp_cluster_replicas_agree_on_state_roots() {
    use std::time::{Duration, Instant};
    use tetrabft_suite::net::Cluster;

    let n = 4;
    let total = 12u64;
    let cfg = Config::new(n).unwrap();
    let genesis = [(AccountId(1), 1_000)];
    let (mut cluster, submitters) = Cluster::spawn_submitting(n, |id| {
        MultiShotNode::new(cfg, Params::new(300), id).with_admission(transfer_admission)
    })
    .expect("cluster spawns");
    for t in 0..total {
        let tx = Transfer { from: AccountId(1), to: AccountId(2), amount: 5, nonce: t };
        // Submit to one node only: exactly-once inclusion without relying
        // on cross-node dedup.
        submitters[0].submit(&tx).expect("cluster is running");
    }

    let mut replicas: Vec<LedgerReplica> = (0..n).map(|_| LedgerReplica::new(genesis)).collect();
    let mut applied = vec![0usize; n];
    let deadline = Instant::now() + Duration::from_secs(60);
    while applied.iter().any(|a| *a < total as usize) {
        assert!(Instant::now() < deadline, "transfers must finalize within 60s: {applied:?}");
        let Some((node, fin)) = cluster.next_output_timeout(Duration::from_secs(30)) else {
            continue;
        };
        let i = node.index();
        let before = replicas[i].receipts().len();
        replicas[i].push(0, &fin);
        applied[i] += replicas[i].receipts()[before..].iter().map(|r| r.applied).sum::<usize>();
    }
    let reference = &replicas[0];
    for (i, other) in replicas.iter().enumerate().skip(1) {
        reference.cross_check(other).unwrap_or_else(|e| panic!("node {i} diverged: {e}"));
    }
    // Every replica that executed all 12 transfers agrees on the balances.
    for replica in &replicas {
        assert_eq!(replica.ledger().account(AccountId(2)).balance, total * 5);
        assert_eq!(replica.ledger().account(AccountId(1)).nonce, total);
        assert_eq!(replica.ledger().accounts().total_balance(), 1_000);
    }
}

// ---- forged divergence --------------------------------------------------

/// A replica that executes a forged block (same chain, tampered payload)
/// is caught by the root cross-check, which names the offending block.
#[test]
fn forged_execution_is_detected_as_state_root_mismatch() {
    let genesis = [(AccountId(1), 100), (AccountId(2), 100)];
    let honest_blocks: Vec<Finalized> = vec![
        fin(1, vec![pay(1, 2, 10, 0)]),
        fin(2, vec![pay(2, 1, 5, 0)]),
        fin(3, vec![pay(1, 2, 7, 1)]),
        fin(4, vec![]),
    ];
    let mut honest = LedgerReplica::new(genesis);
    let mut forged = LedgerReplica::new(genesis);
    for (i, block) in honest_blocks.iter().enumerate() {
        honest.push(0, block);
        if i == 2 {
            // The forger inflates its own slot-3 payment.
            forged.push(0, &fin(3, vec![pay(1, 2, 70, 1)]));
        } else {
            forged.push(0, block);
        }
    }
    let err = honest.cross_check(&forged).unwrap_err();
    assert_eq!(err.slot, 3, "the first divergent block is named");
    assert_ne!(err.ours, err.theirs);
    assert!(err.to_string().contains("at slot 3:"), "error names the block: {err}");
    // Divergence is sticky: the final roots still differ though slot 4 was
    // identical on both sides.
    assert_ne!(honest.root(), forged.root());
}
