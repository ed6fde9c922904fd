//! The persistent, structurally-shared account map and the hashed state
//! roots computed from it.
//!
//! [`AccountMap`] is a 16-ary radix trie over the account id's nibbles
//! (most-significant first), in the imhamt/HAMT copy-on-write style: every
//! branch sits behind an [`Arc`], and a snapshot is a `Clone` — one atomic
//! refcount bump, however many accounts exist. What a write copies depends
//! on who else holds a branch: it descends with [`Arc::make_mut`], so a
//! branch only this map owns is written in place, and one a live snapshot
//! still shares is copied first — once; the copy is unshared from then on.
//!
//! A branch stores its 16 children's digests in one array, ahead of the 16
//! child slots, and holds each leaf inline in its slot: a leaf costs no
//! allocation of its own, and digesting a branch folds one 128-byte array
//! instead of visiting 16 children. A write marks the slots on its path
//! dirty, and the end of the batch of writes ([`AccountMap::batch`])
//! re-digests exactly the dirty slots, children first — so between batches
//! [`AccountMap::root_hash`] is O(1) to read and, because the trie's shape
//! is a pure function of the key set, canonical: two maps holding the same
//! accounts hash identically regardless of insertion order or batching.
//!
//! Every digest is a chain of [`step`]s, one per 64-bit word, from a domain
//! tag: a leaf's words are its key, balance and nonce; a branch's, each
//! present child's digest xor its nibble, in nibble order; a chained root's,
//! the previous root, the slot and the accounts' digest (DESIGN.md §9).

use std::sync::Arc;
use std::{fmt, mem};

use tetrabft_types::{step, tagged};

use crate::account::{Account, AccountId};

/// Nibbles in a 64-bit key: the trie's maximum depth.
const MAX_DEPTH: usize = 16;

/// Keys one [`AccountBatch::read_ahead`] walks at once: the payers and
/// payees of a chunk of transfers.
pub(crate) const READ_AHEAD_KEYS: usize = 64;

/// Maps smaller than this skip the read-ahead: their trie stays near the
/// core between blocks, and walking it twice only costs. It sits at the
/// break-even of `ledger_exec`'s size sweep (DESIGN.md §9 has the table).
const READ_AHEAD_MIN_ACCOUNTS: usize = 32_768;

/// The state after each domain tag, the first word of every digest: a
/// leaf, a branch and a chained root over the same words digest apart.
const LEAF: u64 = tagged(1);
const BRANCH: u64 = tagged(2);
const CHAIN: u64 = tagged(3);

/// Nibble of `key` at trie depth `depth` (most-significant first, so the
/// trie iterates in ascending key order).
#[inline]
fn nibble(key: u64, depth: usize) -> usize {
    ((key >> (60 - 4 * depth)) & 0xF) as usize
}

fn leaf_hash(key: u64, account: Account) -> u64 {
    [key, account.balance, account.nonce].into_iter().fold(LEAF, step)
}

/// One child position of a branch, or the map's root.
#[derive(Debug, Clone, Default)]
enum Slot {
    #[default]
    Empty,
    /// A key whose path is unique from this depth down sits in a leaf
    /// immediately — the trie's depth tracks key-prefix density, not key
    /// width. The leaf is stored in its parent's slot, not behind a
    /// pointer of its own.
    Leaf {
        key: u64,
        account: Account,
    },
    Branch(Arc<Branch>),
}

/// `repr(C)` keeps the declaration order: the two bitmaps and the digests a
/// rehash folds fill the branch's first 136 bytes, ahead of its 512 bytes
/// of slots.
#[derive(Debug, Clone, Default)]
#[repr(C)]
struct Branch {
    /// Bit `i` is set when `slots[i]` is not [`Slot::Empty`].
    present: u16,
    /// Bit `i` is set when a write went through `slots[i]` since
    /// `digests[i]` was computed. Only ever set while an [`AccountBatch`]
    /// holds the map.
    dirty: u16,
    /// The digest of each present, clean slot's subtree.
    digests: [u64; 16],
    slots: [Slot; 16],
}

impl Branch {
    /// Slot `i`, marked present and owing its digest: what a write to it
    /// goes through.
    fn write(&mut self, i: usize) -> &mut Slot {
        self.present |= 1 << i;
        self.dirty |= 1 << i;
        &mut self.slots[i]
    }

    /// The branch digest: one step per present child in nibble order, its
    /// digest xor its nibble the word, from the branch tag.
    fn fold(&self) -> u64 {
        let mut h = BRANCH;
        let mut present = self.present;
        while present != 0 {
            let i = present.trailing_zeros() as usize;
            h = step(h, self.digests[i] ^ i as u64);
            present &= present - 1;
        }
        h
    }

    /// Re-digests the dirty slots, children first, and returns the branch's
    /// own digest.
    fn settle(&mut self) -> u64 {
        let mut dirty = mem::take(&mut self.dirty);
        while dirty != 0 {
            let i = dirty.trailing_zeros() as usize;
            self.digests[i] = self.slots[i].settle();
            dirty &= dirty - 1;
        }
        self.fold()
    }
}

impl Slot {
    /// The digest of the subtree in this slot, re-digesting a branch's
    /// dirty slots first. The empty slot hashes to 0, which no tagged
    /// digest is but by chance; only the empty map's root has it.
    fn settle(&mut self) -> u64 {
        match self {
            Slot::Empty => 0,
            Slot::Leaf { key, account } => leaf_hash(*key, *account),
            // A dirty slot had a write come through, so its branch is
            // already unshared and this `make_mut` copies nothing.
            Slot::Branch(branch) => Arc::make_mut(branch).settle(),
        }
    }

    /// Writes `key` at or below this slot (at `depth`), copying each branch
    /// a snapshot shares first and marking every slot on the way down
    /// dirty. Returns whether the key is new.
    fn insert(&mut self, key: u64, account: Account, depth: usize) -> bool {
        match self {
            Slot::Empty => {
                *self = Slot::Leaf { key, account };
                true
            }
            Slot::Leaf { key: existing, account: old } if *existing == key => {
                *old = account;
                false
            }
            &mut Slot::Leaf { key: existing, account: old } => {
                *self = Slot::split(existing, old, key, account, depth);
                true
            }
            Slot::Branch(branch) => {
                Arc::make_mut(branch).write(nibble(key, depth)).insert(key, account, depth + 1)
            }
        }
    }

    /// What replaces the leaf (`existing`, holding `old`, at `depth`) when
    /// a distinct `key` lands on it: branches grown until the two keys'
    /// nibbles diverge — they differ, so they must within MAX_DEPTH — all
    /// owing their digests.
    fn split(existing: u64, old: Account, key: u64, account: Account, depth: usize) -> Slot {
        let mut d = depth;
        while nibble(existing, d) == nibble(key, d) {
            d += 1;
            debug_assert!(d < MAX_DEPTH, "distinct keys share all nibbles");
        }
        let mut branch = Branch::default();
        *branch.write(nibble(existing, d)) = Slot::Leaf { key: existing, account: old };
        *branch.write(nibble(key, d)) = Slot::Leaf { key, account };
        let mut grown = Slot::Branch(Arc::new(branch));
        // Wrap back up to the leaf's depth.
        for up in (depth..d).rev() {
            let mut branch = Branch::default();
            *branch.write(nibble(key, up)) = grown;
            grown = Slot::Branch(Arc::new(branch));
        }
        grown
    }

    /// The slot holding `entries` — sorted by id, no id repeated, all
    /// sharing their first `depth` nibbles — and its digest. Children are
    /// built first, so each branch is allocated once, complete, and
    /// digested once.
    fn build(entries: &[(AccountId, Account)], depth: usize) -> (Slot, u64) {
        match *entries {
            [] => (Slot::Empty, 0),
            [(AccountId(key), account)] => (Slot::Leaf { key, account }, leaf_hash(key, account)),
            _ => {
                let mut branch = Branch::default();
                let mut rest = entries;
                while let Some(&(AccountId(first), _)) = rest.first() {
                    let i = nibble(first, depth);
                    let n = rest.partition_point(|(id, _)| nibble(id.0, depth) == i);
                    let (slot, digest) = Slot::build(&rest[..n], depth + 1);
                    branch.present |= 1 << i;
                    branch.digests[i] = digest;
                    branch.slots[i] = slot;
                    rest = &rest[n..];
                }
                let digest = branch.fold();
                (Slot::Branch(Arc::new(branch)), digest)
            }
        }
    }

    /// Calls `f` on every account at or below this slot, in ascending id
    /// order (the trie branches on most-significant nibbles first).
    fn for_each(&self, f: &mut impl FnMut(u64, Account)) {
        match self {
            Slot::Empty => {}
            Slot::Leaf { key, account } => f(*key, *account),
            Slot::Branch(branch) => branch.slots.iter().for_each(|slot| slot.for_each(f)),
        }
    }
}

/// A persistent map from [`AccountId`] to [`Account`] with an O(1)
/// canonical digest and O(1) snapshots.
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{Account, AccountId, AccountMap};
///
/// let mut live = AccountMap::new();
/// live.insert(AccountId(1), Account::with_balance(100));
/// let snapshot = live.clone(); // O(1): shares the whole trie
/// live.insert(AccountId(2), Account::with_balance(50));
/// assert_eq!(snapshot.len(), 1, "snapshot is unaffected");
/// assert_eq!(live.len(), 2);
///
/// // The digest is canonical: insertion order does not matter.
/// let mut other = AccountMap::new();
/// other.insert(AccountId(2), Account::with_balance(50));
/// other.insert(AccountId(1), Account::with_balance(100));
/// assert_eq!(live.root_hash(), other.root_hash());
/// ```
#[derive(Debug, Clone, Default)]
pub struct AccountMap {
    root: Slot,
    /// The root slot's digest, brought up to date when a batch ends.
    root_digest: u64,
    len: usize,
}

impl AccountMap {
    /// The empty map.
    pub fn new() -> Self {
        AccountMap::default()
    }

    /// The map holding `entries`, which are sorted by id with no id
    /// repeated. It is built bottom-up, so each branch is allocated once
    /// and digested once, and it equals the same entries inserted in any
    /// order.
    pub(crate) fn from_sorted(entries: &[(AccountId, Account)]) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted or repeated ids");
        let (root, root_digest) = Slot::build(entries, 0);
        AccountMap { root, root_digest, len: entries.len() }
    }

    /// Number of accounts present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no accounts exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up one account.
    pub fn get(&self, id: AccountId) -> Option<Account> {
        let mut slot = &self.root;
        let mut depth = 0;
        loop {
            match slot {
                Slot::Empty => return None,
                Slot::Leaf { key, account } => return (*key == id.0).then_some(*account),
                Slot::Branch(branch) => {
                    debug_assert!(depth < MAX_DEPTH, "branch below last nibble");
                    slot = &branch.slots[nibble(id.0, depth)];
                    depth += 1;
                }
            }
        }
    }

    /// Inserts or replaces one account: a [batch](AccountMap::batch) of
    /// one, so the digest is current again when this returns. Untouched
    /// subtrees stay shared with every snapshot.
    pub fn insert(&mut self, id: AccountId, account: Account) {
        self.batch().insert(id, account);
    }

    /// Opens a batch of writes: the exclusive borrow through which a whole
    /// block's writes (and the reads between them) go, so that each branch
    /// they touch is rehashed once when the batch ends, not once per write.
    ///
    /// While the handle lives the map cannot be read, hashed or cloned —
    /// the borrow checker, not a runtime flag, keeps a half-hashed trie
    /// unobservable.
    pub fn batch(&mut self) -> AccountBatch<'_> {
        AccountBatch { map: self }
    }

    /// The canonical digest of the whole account state — O(1): each branch
    /// stores its children's digests and the map its root's, brought up to
    /// date when the batch that wrote below them ended.
    pub fn root_hash(&self) -> u64 {
        self.root_digest
    }

    /// Sum of every balance, wide enough that it cannot overflow
    /// (2^64 accounts × u64 balances fit in u128) — the conservation
    /// invariant tests check against the genesis supply.
    pub fn total_balance(&self) -> u128 {
        let mut sum = 0;
        self.root.for_each(&mut |_, account| sum += u128::from(account.balance));
        sum
    }

    /// Every `(id, account)` pair in ascending id order.
    pub fn entries(&self) -> Vec<(AccountId, Account)> {
        let mut out = Vec::with_capacity(self.len);
        self.root.for_each(&mut |key, account| out.push((AccountId(key), account)));
        out
    }

    /// Loads what writing `keys` (sorted here, at most [`READ_AHEAD_KEYS`])
    /// and then rehashing will read, and changes nothing: each branch on
    /// their paths, its digest array, and the slot each path takes out of
    /// it — a leaf's account included.
    ///
    /// The walk goes level by level across all the paths at once, so the
    /// loads of one level depend only on the level above: where the trie
    /// is out of cache, the CPU keeps the misses of different paths in
    /// flight together instead of paying them one by one. Safe Rust has no
    /// prefetch, so each load is real, and what it read is folded into a
    /// value the optimizer must keep (DESIGN.md §9).
    fn walk_paths(&self, keys: &mut [u64]) {
        let Slot::Branch(root) = &self.root else { return };
        keys.sort_unstable();
        let mut cursors = [Some(&**root); READ_AHEAD_KEYS];
        let cursors = &mut cursors[..keys.len()];
        let mut read = 0u64;
        for depth in 0..MAX_DEPTH {
            // Sorted keys reach a shared branch one after another, so
            // comparing with the last branch visited reads each one's
            // digests once.
            let mut last: Option<&Branch> = None;
            let mut deeper = false;
            for (cursor, &key) in cursors.iter_mut().zip(keys.iter()) {
                let Some(branch) = *cursor else { continue };
                if !last.is_some_and(|last| std::ptr::eq(last, branch)) {
                    read ^= branch.digests.iter().fold(0, |acc, d| acc ^ d);
                    last = Some(branch);
                }
                *cursor = match &branch.slots[nibble(key, depth)] {
                    Slot::Branch(child) => Some(child),
                    Slot::Leaf { key: at, account } => {
                        read ^= at ^ account.balance;
                        None
                    }
                    Slot::Empty => None,
                };
                deeper |= cursor.is_some();
            }
            if !deeper {
                break;
            }
        }
        std::hint::black_box(read);
    }
}

/// A batch of writes to an [`AccountMap`], from [`AccountMap::batch`].
///
/// Each [`insert`](AccountBatch::insert) writes the trie in place where
/// this map is a branch's only owner and copies exactly the branches a live
/// snapshot still shares; it leaves the slots on its path owing a digest.
/// [`get`](AccountBatch::get) sees the batch's own writes. Dropping the
/// handle ends the batch: the dirty slots are re-digested, children first,
/// each once — so a block that writes 800 leaves under the same root hashes
/// that root once, not 800 times.
///
/// (Leaking the handle with [`std::mem::forget`] skips that rehash and
/// leaves [`AccountMap::root_hash`] stale until the map's next batch ends;
/// nothing else depends on it.)
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{Account, AccountId, AccountMap};
///
/// let mut live = AccountMap::new();
/// live.insert(AccountId(1), Account::with_balance(100));
/// let snapshot = live.clone();
///
/// let mut batch = live.batch();
/// let mut payer = batch.get(AccountId(1)).unwrap();
/// payer.balance -= 30;
/// batch.insert(AccountId(1), payer);
/// batch.insert(AccountId(2), Account::with_balance(30));
/// assert_eq!(batch.get(AccountId(2)), Some(Account::with_balance(30)), "reads its own writes");
/// drop(batch); // digests settle here
///
/// // The snapshot kept the branches it shared; the live map hashes exactly
/// // like the same accounts inserted one at a time.
/// assert_eq!(snapshot.get(AccountId(1)), Some(Account::with_balance(100)));
/// let mut one_by_one = AccountMap::new();
/// one_by_one.insert(AccountId(2), Account::with_balance(30));
/// one_by_one.insert(AccountId(1), Account::with_balance(70));
/// assert_eq!(live.root_hash(), one_by_one.root_hash());
/// ```
#[derive(Debug)]
pub struct AccountBatch<'a> {
    map: &'a mut AccountMap,
}

impl AccountBatch<'_> {
    /// Looks up one account, this batch's writes included.
    pub fn get(&self, id: AccountId) -> Option<Account> {
        self.map.get(id)
    }

    /// Warms the cache for the writes to `keys` that come next, on a map
    /// large enough to be out of it (see [`AccountMap::walk_paths`]).
    pub(crate) fn read_ahead(&self, keys: &mut [u64]) {
        if self.map.len >= READ_AHEAD_MIN_ACCOUNTS {
            self.map.walk_paths(keys);
        }
    }

    /// Inserts or replaces one account.
    pub fn insert(&mut self, id: AccountId, account: Account) {
        if self.map.root.insert(id.0, account, 0) {
            self.map.len += 1;
        }
    }
}

impl Drop for AccountBatch<'_> {
    fn drop(&mut self) {
        let map = &mut *self.map;
        // A root branch no write went through keeps its digest, and stays
        // shared with every snapshot that shares it.
        if !matches!(&map.root, Slot::Branch(root) if root.dirty == 0) {
            map.root_digest = map.root.settle();
        }
    }
}

/// The chained per-block state commitment: genesis is a constant, and the
/// root after block `b` is `H(prev_root, slot, accounts_root)`.
///
/// Chaining makes divergence *sticky*: once two replicas disagree on any
/// block's execution, every later root differs too, so a cross-check at
/// any height ≥ the divergence catches it — and walking the per-block root
/// history names the exact offending block
/// ([`crate::LedgerReplica::cross_check`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateRoot(pub u64);

impl StateRoot {
    /// The pre-execution root (height 0, no blocks applied): slot 0
    /// chained over a zero root, so two chains with different initial
    /// allocations never share roots.
    pub fn genesis(accounts: &AccountMap) -> Self {
        StateRoot::chain(StateRoot(0), 0, accounts.root_hash())
    }

    /// The root after executing the block at `slot` on top of `prev`,
    /// leaving the accounts at `accounts_root`.
    pub fn chain(prev: StateRoot, slot: u64, accounts_root: u64) -> Self {
        StateRoot([prev.0, slot, accounts_root].into_iter().fold(CHAIN, step))
    }
}

impl fmt::Display for StateRoot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::{HashMap, HashSet};

    use super::*;

    fn acct(balance: u64, nonce: u64) -> Account {
        Account { balance, nonce }
    }

    #[test]
    fn get_insert_replace() {
        let mut map = AccountMap::new();
        assert_eq!(map.get(AccountId(1)), None);
        map.insert(AccountId(1), acct(10, 0));
        map.insert(AccountId(2), acct(20, 0));
        assert_eq!(map.get(AccountId(1)), Some(acct(10, 0)));
        assert_eq!(map.get(AccountId(2)), Some(acct(20, 0)));
        assert_eq!(map.len(), 2);
        map.insert(AccountId(1), acct(5, 3));
        assert_eq!(map.get(AccountId(1)), Some(acct(5, 3)));
        assert_eq!(map.len(), 2, "replace does not grow the map");
    }

    #[test]
    fn deep_collisions_split_correctly() {
        // Keys sharing 15 nibbles force the maximum-depth split.
        let a = 0xAAAA_AAAA_AAAA_AAA0;
        let b = 0xAAAA_AAAA_AAAA_AAA7;
        let mut map = AccountMap::new();
        map.insert(AccountId(a), acct(1, 0));
        map.insert(AccountId(b), acct(2, 0));
        assert_eq!(map.get(AccountId(a)), Some(acct(1, 0)));
        assert_eq!(map.get(AccountId(b)), Some(acct(2, 0)));
        assert_eq!(map.get(AccountId(a + 1)), None);
        assert_eq!(map.len(), 2);
    }

    #[test]
    fn batched_deep_split_hashes_like_one_at_a_time() {
        // `deep_collisions_split_correctly`'s keys: the second write splits
        // the first's leaf 15 nibbles down, growing a chain of fifteen
        // single-child branches — all of it inside one batch, hashed once
        // at its end, with a repeated key and a read on the way.
        let a = 0xAAAA_AAAA_AAAA_AAA0;
        let b = 0xAAAA_AAAA_AAAA_AAA7;
        let mut one_by_one = AccountMap::new();
        one_by_one.insert(AccountId(a), acct(1, 0));
        one_by_one.insert(AccountId(b), acct(2, 0));
        one_by_one.insert(AccountId(3), acct(3, 0));

        let mut batched = AccountMap::new();
        let mut batch = batched.batch();
        batch.insert(AccountId(a), acct(9, 9));
        batch.insert(AccountId(b), acct(2, 0));
        assert_eq!(batch.get(AccountId(a)), Some(acct(9, 9)), "a batch reads its own writes");
        batch.insert(AccountId(3), acct(3, 0));
        batch.insert(AccountId(a), acct(1, 0));
        drop(batch);
        assert_eq!(batched.len(), 3);
        assert_eq!(batched.entries(), one_by_one.entries());
        assert_eq!(batched.root_hash(), one_by_one.root_hash());

        // The same split under a live snapshot: the root leaf it shares is
        // copied down into the grown branches, and the snapshot does not
        // notice.
        let mut live = AccountMap::new();
        live.insert(AccountId(a), acct(1, 0));
        let snapshot = live.clone();
        let mut batch = live.batch();
        batch.insert(AccountId(b), acct(2, 0));
        batch.insert(AccountId(3), acct(3, 0));
        drop(batch);
        assert_eq!(live.root_hash(), one_by_one.root_hash());
        assert_eq!(snapshot.entries(), vec![(AccountId(a), acct(1, 0))]);
        let mut alone = AccountMap::new();
        alone.insert(AccountId(a), acct(1, 0));
        assert_eq!(snapshot.root_hash(), alone.root_hash());
    }

    #[test]
    fn root_hash_is_insertion_order_independent() {
        let ids = [3u64, 0x8000_0000_0000_0000, 17, 0xFFFF_FFFF_FFFF_FFFF, 4, 5];
        let mut fwd = AccountMap::new();
        for (i, id) in ids.iter().enumerate() {
            fwd.insert(AccountId(*id), acct(i as u64 + 1, i as u64));
        }
        let mut rev = AccountMap::new();
        for (i, id) in ids.iter().enumerate().rev() {
            rev.insert(AccountId(*id), acct(i as u64 + 1, i as u64));
        }
        assert_eq!(fwd.root_hash(), rev.root_hash());
        assert_eq!(fwd.entries(), rev.entries());
    }

    #[test]
    fn root_hash_is_content_sensitive() {
        let mut a = AccountMap::new();
        a.insert(AccountId(1), acct(10, 0));
        let mut b = a.clone();
        assert_eq!(a.root_hash(), b.root_hash());
        b.insert(AccountId(1), acct(10, 1));
        assert_ne!(a.root_hash(), b.root_hash(), "nonce bump changes the digest");
        let empty = AccountMap::new();
        assert_ne!(a.root_hash(), empty.root_hash());
        assert_eq!(empty.root_hash(), AccountMap::new().root_hash());
        // Every single bit of a leaf's key, balance and nonce.
        let (key, account) = (0x0123_4567_89AB_CDEF, acct(1_000, 7));
        let leaf = leaf_hash(key, account);
        for flip in (0..64).map(|bit| 1u64 << bit) {
            assert_ne!(leaf_hash(key ^ flip, account), leaf, "key ^ {flip:#x}");
            assert_ne!(leaf_hash(key, acct(1_000 ^ flip, 7)), leaf, "balance ^ {flip:#x}");
            assert_ne!(leaf_hash(key, acct(1_000, 7 ^ flip)), leaf, "nonce ^ {flip:#x}");
        }
    }

    #[test]
    fn snapshots_share_structure() {
        let mut live = AccountMap::new();
        for id in 0..100u64 {
            live.insert(AccountId(id), acct(id, 0));
        }
        let snap = live.clone();
        let snap_root = snap.root_hash();
        for id in 0..100u64 {
            live.insert(AccountId(id), acct(id * 2, 1));
        }
        assert_eq!(snap.root_hash(), snap_root, "snapshot is immutable");
        assert_ne!(live.root_hash(), snap_root);
        assert_eq!(snap.total_balance(), (0..100u64).map(u128::from).sum::<u128>());
    }

    #[test]
    fn entries_are_sorted_by_id() {
        let mut map = AccountMap::new();
        for id in [9u64, 1, 0xF000_0000_0000_0000, 42, 3] {
            map.insert(AccountId(id), acct(1, 0));
        }
        let ids: Vec<u64> = map.entries().iter().map(|(id, _)| id.0).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn a_slot_is_32_bytes_and_digests_precede_slots() {
        use std::mem::{offset_of, size_of};
        assert_eq!(size_of::<Slot>(), 32, "a leaf sits inline: key, balance, nonce and a tag");
        assert_eq!(offset_of!(Branch, digests), 8, "the bitmaps, then the digests");
        assert_eq!(offset_of!(Branch, slots), 8 + 16 * 8, "the slots come after every digest");
        assert_eq!(size_of::<Branch>(), 8 + 16 * 8 + 16 * 32);
    }

    /// Every branch's `Arc` strong count, in pre-order.
    fn strong_counts(map: &AccountMap) -> Vec<usize> {
        fn walk(slot: &Slot, out: &mut Vec<usize>) {
            if let Slot::Branch(branch) = slot {
                out.push(Arc::strong_count(branch));
                branch.slots.iter().for_each(|child| walk(child, out));
            }
        }
        let mut out = Vec::new();
        walk(&map.root, &mut out);
        out
    }

    #[test]
    fn the_read_ahead_changes_nothing() {
        // Hashed ids (a balanced trie), dense ones (a 16-deep chain) and a
        // pair split 15 nibbles down; keys present, absent, and repeated,
        // so several paths share each branch. A clone of any branch's `Arc`
        // would show in its strong count, and would make the next write
        // copy.
        let mut map = AccountMap::new();
        let hashed = (0..300u64).map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        for (i, id) in hashed.chain(1..=40).chain([0xAAAA_AAAA_AAAA_AAA0]).enumerate() {
            map.insert(AccountId(id), acct(i as u64, 0));
        }
        let (entries, root_hash, counts) = (map.entries(), map.root_hash(), strong_counts(&map));
        let mut keys: Vec<u64> = entries.iter().step_by(6).map(|(id, _)| id.0).collect();
        let deep = [0xAAAA_AAAA_AAAA_AAA0, 0xAAAA_AAAA_AAAA_AAA7];
        keys.extend(deep.into_iter().chain([7, 7, 7, u64::MAX, 0]));
        assert_eq!(keys.len(), READ_AHEAD_KEYS);
        map.walk_paths(&mut keys);
        assert_eq!(map.len(), 341);
        assert_eq!(map.entries(), entries);
        assert_eq!(map.root_hash(), root_hash);
        assert_eq!(strong_counts(&map), counts);
        AccountMap::new().walk_paths(&mut [1, 2]);
    }

    #[test]
    fn inline_leaves_overwritten_and_split_under_a_snapshot_leave_it_be() {
        // Leaves live in their parent's slot, so a snapshot shares them
        // only through the branch around them: the write must copy that
        // branch before it touches the leaf. One batch overwrites a leaf,
        // splits another 15 nibbles down and adds a key beside a third;
        // a later batch overwrites a leaf the split moved down.
        let a = 0xAAAA_AAAA_AAAA_AAA0;
        let b = 0xAAAA_AAAA_AAAA_AAA7;
        let mut live = AccountMap::new();
        for id in [1, 2, a, 0x5000_0000_0000_0000] {
            live.insert(AccountId(id), acct(id % 1_000, 0));
        }
        let snapshot = live.clone();
        let (entries, root_hash, len) = (snapshot.entries(), snapshot.root_hash(), snapshot.len());

        let mut batch = live.batch();
        batch.insert(AccountId(1), acct(7, 1));
        batch.insert(AccountId(b), acct(3, 0));
        batch.insert(AccountId(0x5100_0000_0000_0000), acct(4, 0));
        drop(batch);
        live.insert(AccountId(a), acct(5, 2));

        assert_eq!(snapshot.entries(), entries);
        assert_eq!(snapshot.root_hash(), root_hash);
        assert_eq!(snapshot.len(), len);
        assert_eq!(snapshot.get(AccountId(1)), Some(acct(1, 0)));
        assert_eq!(snapshot.get(AccountId(b)), None);
        assert_eq!(live.get(AccountId(a)), Some(acct(5, 2)));
        assert_eq!(live.len(), 6);
        let rebuilt = AccountMap::from_sorted(&live.entries());
        assert_eq!(live.root_hash(), rebuilt.root_hash());
        assert_eq!(snapshot.root_hash(), AccountMap::from_sorted(&entries).root_hash());
    }

    #[test]
    fn chained_roots_are_sticky() {
        let genesis = StateRoot::genesis(&AccountMap::new());
        let a1 = StateRoot::chain(genesis, 1, 100);
        let b1 = StateRoot::chain(genesis, 1, 101);
        assert_ne!(a1, b1);
        // Same accounts from here on: the divergence persists anyway.
        let a2 = StateRoot::chain(a1, 2, 500);
        let b2 = StateRoot::chain(b1, 2, 500);
        assert_ne!(a2, b2, "one divergent block poisons every later root");
    }

    #[test]
    fn a_child_moved_to_another_nibble_moves_the_branch_digest() {
        let digest = leaf_hash(5, acct(1, 0));
        let mut folds = HashSet::new();
        for (i, j) in (0..16).flat_map(|i| (0..16).map(move |j| (i, j))).filter(|(i, j)| i != j) {
            let mut branch = Branch { present: 1 << i | 1 << j, ..Branch::default() };
            (branch.digests[i], branch.digests[j]) = (digest, 0);
            assert!(folds.insert(branch.fold()), "children at {i} and {j}");
        }
    }

    #[test]
    fn swapping_the_domain_tags_moves_the_digest() {
        let words = [0x0123_4567_89AB_CDEF, 1_000, 7];
        let tagged = [LEAF, BRANCH, CHAIN].map(|tag| words.into_iter().fold(tag, step));
        assert_eq!(tagged[0], leaf_hash(words[0], acct(words[1], words[2])));
        assert_eq!(tagged[2], StateRoot::chain(StateRoot(words[0]), 1_000, 7).0);
        let branch = Branch { present: 1, digests: [words[0]; 16], ..Branch::default() };
        assert_eq!(branch.fold(), step(BRANCH, words[0]));
        assert!(tagged[0] != tagged[1] && tagged[1] != tagged[2] && tagged[0] != tagged[2]);
    }

    #[test]
    fn ten_thousand_small_maps_do_not_collide() {
        // Up to six accounts each, with ids, balances and nonces from small
        // ranges, so many maps differ in one field by one.
        let mut x: u64 = 46;
        let mut draw = |n: u64| {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) % n
        };
        let mut seen = HashMap::new();
        for _ in 0..10_000 {
            let mut map = AccountMap::new();
            for _ in 0..=draw(6) {
                map.insert(AccountId(draw(64)), acct(draw(8), draw(3)));
            }
            let entries = seen.entry(map.root_hash()).or_insert_with(|| map.entries());
            assert_eq!(*entries, map.entries(), "two maps share {:#x}", map.root_hash());
        }
    }
}
