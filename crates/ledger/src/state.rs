//! The persistent, structurally-shared account map and the hashed state
//! roots computed from it.
//!
//! [`AccountMap`] is a 16-ary radix trie over the account id's nibbles
//! (most-significant first), in the imhamt/HAMT copy-on-write style: every
//! node sits behind an [`Arc`], and a snapshot is a `Clone` — one atomic
//! refcount bump, however many accounts exist. What a write copies depends
//! on who else holds the node: it descends with [`Arc::make_mut`], so a
//! node only this map owns is written in place, and a node a live snapshot
//! still shares is copied first — once; the copy is unshared from then on.
//! Each node carries its subtree digest. A write leaves the branches on its
//! path owing theirs, and the end of the batch of writes
//! ([`AccountMap::batch`]) pays the debt once per touched branch, children
//! first — so between batches [`AccountMap::root_hash`] is O(1) to read
//! and, because the trie's shape is a pure function of the key set,
//! canonical: two maps holding the same accounts hash identically
//! regardless of insertion order or batching.

use std::fmt;
use std::sync::Arc;

use crate::account::{Account, AccountId};

/// Nibbles in a 64-bit key: the trie's maximum depth.
const MAX_DEPTH: usize = 16;

/// FNV-1a step, the repository's digest primitive.
#[inline]
fn fnv(h: u64, byte: u8) -> u64 {
    (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
}

#[inline]
fn fnv_u64(mut h: u64, v: u64) -> u64 {
    for b in v.to_be_bytes() {
        h = fnv(h, b);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Domain tags keep a leaf digest from colliding with a branch digest over
/// the same bytes.
const TAG_LEAF: u8 = 1;
const TAG_BRANCH: u8 = 2;

/// Nibble of `key` at trie depth `depth` (most-significant first, so the
/// trie iterates in ascending key order).
#[inline]
fn nibble(key: u64, depth: usize) -> usize {
    ((key >> (60 - 4 * depth)) & 0xF) as usize
}

#[derive(Debug, Clone)]
enum TrieNode {
    /// A key whose path is unique from this depth down sits in a leaf
    /// immediately — the trie's depth tracks key-prefix density, not key
    /// width.
    Leaf { key: u64, account: Account, hash: u64 },
    Branch {
        children: [Option<Arc<TrieNode>>; 16],
        hash: u64,
        /// A write passed through since `hash` was computed. Only ever set
        /// while an [`AccountBatch`] holds the map.
        stale: bool,
    },
}

fn leaf_hash(key: u64, account: Account) -> u64 {
    let mut h = fnv(FNV_OFFSET, TAG_LEAF);
    h = fnv_u64(h, key);
    h = fnv_u64(h, account.balance);
    fnv_u64(h, account.nonce)
}

impl TrieNode {
    fn leaf(key: u64, account: Account) -> Arc<TrieNode> {
        Arc::new(TrieNode::Leaf { key, account, hash: leaf_hash(key, account) })
    }

    /// A branch that owes its digest: [`TrieNode::rehash`] settles it.
    fn stale_branch(children: [Option<Arc<TrieNode>>; 16]) -> Arc<TrieNode> {
        Arc::new(TrieNode::Branch { children, hash: 0, stale: true })
    }

    /// The subtree that replaces `leaf` (holding `existing`, at `depth`)
    /// when a distinct `key` lands on it: branches grown until the two
    /// keys' nibbles diverge — they differ, so they must within MAX_DEPTH
    /// — all owing their digest. The old leaf moves down as it is, shared
    /// with a snapshot or not.
    fn split(
        leaf: Arc<TrieNode>,
        existing: u64,
        key: u64,
        account: Account,
        depth: usize,
    ) -> Arc<TrieNode> {
        let mut d = depth;
        while nibble(existing, d) == nibble(key, d) {
            d += 1;
            debug_assert!(d < MAX_DEPTH, "distinct keys share all nibbles");
        }
        let mut children: [Option<Arc<TrieNode>>; 16] = Default::default();
        children[nibble(existing, d)] = Some(leaf);
        children[nibble(key, d)] = Some(TrieNode::leaf(key, account));
        let mut grown = TrieNode::stale_branch(children);
        // Wrap back up to the leaf's depth.
        for up in (depth..d).rev() {
            let mut children: [Option<Arc<TrieNode>>; 16] = Default::default();
            children[nibble(key, up)] = Some(grown);
            grown = TrieNode::stale_branch(children);
        }
        grown
    }

    /// Writes `key` at or below `slot` (a node at `depth`), copying `slot`
    /// first if a snapshot shares it and marking every branch on the way
    /// down stale. Returns whether the key is new.
    fn insert_at(slot: &mut Arc<TrieNode>, key: u64, account: Account, depth: usize) -> bool {
        match **slot {
            TrieNode::Leaf { key: existing, .. } if existing != key => {
                *slot = Self::split(slot.clone(), existing, key, account, depth);
                return true;
            }
            _ => {}
        }
        match Arc::make_mut(slot) {
            TrieNode::Leaf { account: old, hash, .. } => {
                *old = account;
                *hash = leaf_hash(key, account);
                false
            }
            TrieNode::Branch { children, stale, .. } => {
                *stale = true;
                match &mut children[nibble(key, depth)] {
                    Some(child) => Self::insert_at(child, key, account, depth + 1),
                    empty => {
                        *empty = Some(TrieNode::leaf(key, account));
                        true
                    }
                }
            }
        }
    }

    /// The digest of the subtree at `slot`, recomputing — children first,
    /// each once — exactly the branches a write went through.
    fn rehash(slot: &mut Arc<TrieNode>) -> u64 {
        if let TrieNode::Leaf { hash, .. } | TrieNode::Branch { hash, stale: false, .. } = **slot {
            return hash;
        }
        // Stale means a write came through here, so the node is already
        // unshared and this `make_mut` copies nothing.
        let TrieNode::Branch { children, hash, stale } = Arc::make_mut(slot) else {
            unreachable!("anything but a stale branch returned above")
        };
        let mut h = fnv(FNV_OFFSET, TAG_BRANCH);
        for (i, child) in children.iter_mut().enumerate() {
            if let Some(c) = child {
                h = fnv(h, i as u8);
                h = fnv_u64(h, Self::rehash(c));
            }
        }
        *hash = h;
        *stale = false;
        h
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
    root: Option<Arc<TrieNode>>,
    len: usize,
}

impl AccountMap {
    /// The empty map.
    pub fn new() -> Self {
        AccountMap::default()
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
        let mut node = self.root.as_deref()?;
        for depth in 0..=MAX_DEPTH {
            match node {
                TrieNode::Leaf { key, account, .. } => {
                    return (*key == id.0).then_some(*account);
                }
                TrieNode::Branch { children, .. } => {
                    debug_assert!(depth < MAX_DEPTH, "branch below last nibble");
                    node = children[nibble(id.0, depth)].as_deref()?;
                }
            }
        }
        None
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

    /// The canonical digest of the whole account state — O(1): every node
    /// carries its subtree's digest, brought up to date when the batch
    /// that wrote below it ended.
    pub fn root_hash(&self) -> u64 {
        // The empty map hashes to the bare offset basis, distinct from any
        // tagged node digest.
        match self.root.as_deref() {
            None => FNV_OFFSET,
            Some(TrieNode::Leaf { hash, .. } | TrieNode::Branch { hash, .. }) => *hash,
        }
    }

    /// Sum of every balance, wide enough that it cannot overflow
    /// (2^64 accounts × u64 balances fit in u128) — the conservation
    /// invariant tests check against the genesis supply.
    pub fn total_balance(&self) -> u128 {
        fn walk(node: &TrieNode, sum: &mut u128) {
            match node {
                TrieNode::Leaf { account, .. } => *sum += u128::from(account.balance),
                TrieNode::Branch { children, .. } => {
                    for child in children.iter().flatten() {
                        walk(child, sum);
                    }
                }
            }
        }
        let mut sum = 0;
        if let Some(root) = &self.root {
            walk(root, &mut sum);
        }
        sum
    }

    /// Every `(id, account)` pair in ascending id order (the trie branches
    /// on most-significant nibbles first, so in-order traversal is sorted).
    pub fn entries(&self) -> Vec<(AccountId, Account)> {
        fn walk(node: &TrieNode, out: &mut Vec<(AccountId, Account)>) {
            match node {
                TrieNode::Leaf { key, account, .. } => out.push((AccountId(*key), *account)),
                TrieNode::Branch { children, .. } => {
                    for child in children.iter().flatten() {
                        walk(child, out);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.len);
        if let Some(root) = &self.root {
            walk(root, &mut out);
        }
        out
    }
}

/// A batch of writes to an [`AccountMap`], from [`AccountMap::batch`].
///
/// Each [`insert`](AccountBatch::insert) writes the trie in place where
/// this map is a node's only owner and copies exactly the nodes a live
/// snapshot still shares; it leaves the branches above the written leaf
/// owing a digest. [`get`](AccountBatch::get) sees the batch's own writes.
/// Dropping the handle ends the batch: the stale branches are rehashed,
/// children first, each once — so a block that writes 800 leaves under the
/// same root hashes that root once, not 800 times.
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
/// // The snapshot kept the nodes it shared; the live map hashes exactly
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

    /// Inserts or replaces one account.
    pub fn insert(&mut self, id: AccountId, account: Account) {
        let added = match &mut self.map.root {
            Some(root) => TrieNode::insert_at(root, id.0, account, 0),
            empty => {
                *empty = Some(TrieNode::leaf(id.0, account));
                true
            }
        };
        if added {
            self.map.len += 1;
        }
    }
}

impl Drop for AccountBatch<'_> {
    fn drop(&mut self) {
        if let Some(root) = &mut self.map.root {
            TrieNode::rehash(root);
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
    /// The pre-execution root (height 0, no blocks applied); folds the
    /// genesis account digest so two chains with different initial
    /// allocations never share roots.
    pub fn genesis(accounts: &AccountMap) -> Self {
        let mut h = fnv(FNV_OFFSET, TAG_BRANCH);
        h = fnv_u64(h, 0);
        h = fnv_u64(h, accounts.root_hash());
        StateRoot(h)
    }

    /// The root after executing the block at `slot` on top of `prev`,
    /// leaving the accounts at `accounts_root`.
    pub fn chain(prev: StateRoot, slot: u64, accounts_root: u64) -> Self {
        let mut h = fnv_u64(FNV_OFFSET, prev.0);
        h = fnv_u64(h, slot);
        h = fnv_u64(h, accounts_root);
        StateRoot(h)
    }
}

impl fmt::Display for StateRoot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "root:{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
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

        // The same split under a live snapshot: the leaf it shares moves
        // down uncopied, and the snapshot does not notice.
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
}
