//! Windowed block storage with ancestor resolution.

use std::collections::HashMap;
use std::sync::Arc;

use tetrabft_types::Slot;

use crate::block::{Block, BlockHash, GENESIS_HASH};

/// Stores the blocks a node currently needs: everything in the active
/// pipeline window plus a short finalized tail (parents of in-flight votes).
///
/// Pruning keeps the store O(window) — multi-shot TetraBFT's protocol state
/// stays bounded; only the *application* (the output chain) grows.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockStore {
    blocks: HashMap<BlockHash, Block>,
}

impl BlockStore {
    /// Inserts `block`, returning its hash. Idempotent. A block held
    /// here already — the same `txs` allocation at the same slot on the
    /// same parent, as a leader's own proposal is when loopback brings it
    /// back — is found without hashing it again: the store holds a
    /// window's worth of blocks, so the search costs less than the digest.
    /// (The held clone keeps the allocation alive and shared, so the
    /// pointer cannot have been reused and the bytes cannot have changed.)
    pub(crate) fn insert(&mut self, block: Block) -> BlockHash {
        let held = self.blocks.iter().find(|(_, b)| {
            Arc::ptr_eq(&b.txs, &block.txs) && b.slot == block.slot && b.parent == block.parent
        });
        if let Some((hash, _)) = held {
            return *hash;
        }
        let hash = block.hash();
        self.insert_hashed(hash, block);
        hash
    }

    /// Inserts `block` under `hash`, its [`Block::hash`] as the caller
    /// already computed it (minting it, or vouching for it in catch-up):
    /// each block is hashed once per node. Idempotent.
    pub(crate) fn insert_hashed(&mut self, hash: BlockHash, block: Block) {
        self.blocks.entry(hash).or_insert(block);
    }

    /// Looks up a block. The genesis hash is always known (slot 0).
    pub(crate) fn get(&self, hash: BlockHash) -> Option<&Block> {
        self.blocks.get(&hash)
    }

    /// `true` if the hash names the genesis block or a stored block.
    pub(crate) fn contains(&self, hash: BlockHash) -> bool {
        hash == GENESIS_HASH || self.blocks.contains_key(&hash)
    }

    /// The slot of `hash` (genesis is slot 0), if known.
    pub(crate) fn slot_of(&self, hash: BlockHash) -> Option<Slot> {
        if hash == GENESIS_HASH {
            Some(Slot::GENESIS)
        } else {
            self.blocks.get(&hash).map(|b| b.slot)
        }
    }

    /// Walks `k` parent links up from `hash`.
    ///
    /// Returns `None` when the walk leaves the store or would pass the
    /// genesis block.
    pub(crate) fn ancestor(&self, hash: BlockHash, k: usize) -> Option<BlockHash> {
        let mut current = hash;
        for _ in 0..k {
            if current == GENESIS_HASH {
                return None; // nothing above genesis
            }
            current = self.blocks.get(&current)?.parent;
        }
        Some(current)
    }

    /// Drops every block with a slot strictly below `floor` (genesis is
    /// implicit and never dropped).
    pub(crate) fn prune_below(&mut self, floor: Slot) {
        self.blocks.retain(|_, b| b.slot >= floor);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(len: u64) -> (BlockStore, Vec<BlockHash>) {
        let mut store = BlockStore::default();
        let mut hashes = vec![GENESIS_HASH];
        for s in 1..=len {
            let block = Block::new(Slot(s), *hashes.last().unwrap(), vec![]);
            hashes.push(store.insert(block));
        }
        (store, hashes)
    }

    #[test]
    fn ancestor_walks() {
        let (store, h) = chain(4);
        assert_eq!(store.ancestor(h[4], 0), Some(h[4]));
        assert_eq!(store.ancestor(h[4], 1), Some(h[3]));
        assert_eq!(store.ancestor(h[4], 4), Some(h[0]));
        assert_eq!(store.ancestor(h[4], 5), None, "cannot pass genesis");
    }

    #[test]
    fn unknown_hash_is_none() {
        let (store, _) = chain(2);
        assert_eq!(store.ancestor(BlockHash(0xBAD), 1), None);
        assert!(!store.contains(BlockHash(0xBAD)));
        assert!(store.contains(GENESIS_HASH));
    }

    #[test]
    fn slot_of_genesis_and_blocks() {
        let (store, h) = chain(2);
        assert_eq!(store.slot_of(GENESIS_HASH), Some(Slot::GENESIS));
        assert_eq!(store.slot_of(h[2]), Some(Slot(2)));
        assert_eq!(store.slot_of(BlockHash(0xBAD)), None);
    }

    #[test]
    fn pruning_bounds_the_store() {
        let (mut store, h) = chain(10);
        assert_eq!(store.blocks.len(), 10);
        store.prune_below(Slot(8));
        assert_eq!(store.blocks.len(), 3);
        assert!(store.contains(h[9]));
        assert!(!store.contains(h[7]));
        assert!(store.contains(GENESIS_HASH), "genesis survives pruning");
    }

    #[test]
    fn insert_is_idempotent() {
        let mut store = BlockStore::default();
        let b = Block::new(Slot(1), GENESIS_HASH, vec![b"t".to_vec()]);
        let h1 = store.insert(b.clone());
        let h2 = store.insert(b);
        assert_eq!(h1, h2);
        assert_eq!(store.blocks.len(), 1);
    }

    #[test]
    fn a_held_block_is_found_by_its_payload_and_position_not_rehashed() {
        let mut store = BlockStore::default();
        let b = Block::new(Slot(1), GENESIS_HASH, vec![b"t".to_vec()]);
        let hash = b.hash();
        store.insert_hashed(hash, b.clone());
        let before = crate::txn::HASHES.with(|count| count.get());
        assert_eq!(store.insert(b.clone()), hash);
        assert_eq!(crate::txn::HASHES.with(|count| count.get()), before, "found, not hashed");
        // The same payload at another slot or on another parent is another
        // block; an equal payload in another allocation is hashed.
        let moved = Block { slot: Slot(2), ..b.clone() };
        let reparented = Block { parent: BlockHash(5), ..b.clone() };
        assert_eq!(store.insert(moved.clone()), moved.hash());
        assert_eq!(store.insert(reparented.clone()), reparented.hash());
        let copied = Block::new(Slot(1), GENESIS_HASH, vec![b"t".to_vec()]);
        let before = crate::txn::HASHES.with(|count| count.get());
        assert_eq!(store.insert(copied), hash);
        assert_eq!(crate::txn::HASHES.with(|count| count.get()), before + 1);
        assert_eq!(store.blocks.len(), 3);
    }
}
