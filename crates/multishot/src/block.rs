//! Blocks, hash pointers, and the genesis block. A block's hash folds its
//! header and its transactions' ids with [`tetrabft_types::step`].

use std::sync::Arc;

use tetrabft_types::{step, tagged, Slot, Value};
use tetrabft_wire::{varint_len, Reader, Wire, WireError, Writer};

use crate::txn::TxId;

/// A block digest: slot, parent, transaction count and each transaction's
/// [`TxId`], folded from domain tag 5 (see [`Block::hash`]).
///
/// Deliberately **not** cryptographic — TetraBFT is an unauthenticated
/// protocol and never relies on unforgeability; the hash pointer is only a
/// compact way to name a parent block (collision-resistance here is a
/// modelling convenience, per DESIGN.md §6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockHash(pub u64);

/// The hash of the implicit genesis block (slot 0).
pub const GENESIS_HASH: BlockHash = BlockHash(1);

impl BlockHash {
    /// The consensus [`Value`] this hash is voted on as.
    #[inline]
    pub(crate) fn as_value(self) -> Value {
        Value::from_u64(self.0)
    }

    /// Reconstructs a hash from a consensus value.
    #[inline]
    pub(crate) fn from_value(value: Value) -> Self {
        BlockHash(value.as_u64())
    }
}

impl std::fmt::Display for BlockHash {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "#{:016x}", self.0)
    }
}

/// A block in the chain: slot number, parent pointer, and a transaction
/// payload.
///
/// Blocks intentionally do **not** embed the view they were proposed in: a
/// view change may re-propose the *same* block in a later view (Rule 1
/// certifies the block's hash as the safe value), which must not change its
/// identity.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::{Block, GENESIS_HASH};
/// use tetrabft_types::Slot;
///
/// let b1 = Block::new(Slot(1), GENESIS_HASH, vec![b"tx".to_vec()]);
/// let b2 = Block::new(Slot(2), b1.hash(), vec![]);
/// assert_eq!(b2.parent, b1.hash());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Slot (height) of the block.
    pub slot: Slot,
    /// Hash pointer to the parent block.
    pub parent: BlockHash,
    /// Transactions carried by the block.
    ///
    /// Shared, not owned: a block is cloned once per broadcast recipient,
    /// once into the store, and once per finalization output. Behind an
    /// `Arc` all of those are reference-count bumps over one buffer — the
    /// "share one encoded payload instead of cloning it per recipient"
    /// half of the zero-alloc hot path. `Arc` (not `Rc`) because the TCP
    /// runtime moves messages across threads.
    pub txs: Arc<Vec<Vec<u8>>>,
}

impl Block {
    /// Creates a block.
    pub fn new(slot: Slot, parent: BlockHash, txs: Vec<Vec<u8>>) -> Self {
        Block { slot, parent, txs: Arc::new(txs) }
    }

    /// The block's digest, never 0 or the genesis hash: the words slot,
    /// parent and transaction count, then each transaction's [`TxId`], from
    /// domain tag 5. The transactions' chains are independent: the core
    /// overlaps them.
    pub fn hash(&self) -> BlockHash {
        let head = [self.slot.0, self.parent.0, self.txs.len() as u64];
        let h = head.into_iter().fold(const { tagged(5) }, step);
        let h = self.txs.iter().fold(h, |h, tx| step(h, TxId::of(tx).0));
        // Reserve 0 (the "fresh block" sentinel in Rule 1) and 1 (genesis).
        BlockHash(h.max(2))
    }
}

impl Wire for BlockHash {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(BlockHash(r.get_u64()?))
    }
}

/// Most transactions one block's decode will accept.
pub(crate) const MAX_TXS: usize = 1 << 16;

/// Writes a transaction list: count, then each payload length-prefixed.
pub(crate) fn encode_txs(txs: &[Vec<u8>], w: &mut Writer) {
    w.put_varint(txs.len() as u64);
    for tx in txs {
        w.put_varint(tx.len() as u64);
        w.put_slice(tx);
    }
}

/// Reads a transaction list of at most `limit` entries. A hostile count or
/// length is refused before anything is allocated for it: the count
/// against `limit` and the bytes actually present, each length against the
/// bytes left.
pub(crate) fn decode_txs(r: &mut Reader<'_>, limit: usize) -> Result<Arc<Vec<Vec<u8>>>, WireError> {
    // Compare before narrowing so 32-bit targets reject the same hostile
    // counts 64-bit ones do.
    let declared = r.get_varint_u64()?;
    if declared > limit as u64 {
        let declared = usize::try_from(declared).unwrap_or(usize::MAX);
        return Err(WireError::LengthOverflow { declared, limit });
    }
    let count = declared as usize;
    let mut txs = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        let len = r.get_varint_u32()? as usize;
        txs.push(r.get_slice(len)?.to_vec());
    }
    Ok(Arc::new(txs))
}

impl Wire for Block {
    fn encode(&self, w: &mut Writer) {
        self.slot.encode(w);
        self.parent.encode(w);
        encode_txs(&self.txs, w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let (slot, parent) = (Slot::decode(r)?, BlockHash::decode(r)?);
        Ok(Block { slot, parent, txs: decode_txs(r, MAX_TXS)? })
    }
    /// Counted, not encoded: the chain log asks for it to frame a block
    /// it then encodes in place.
    fn wire_len(&self) -> usize {
        let txs: usize = self.txs.iter().map(|tx| varint_len(tx.len() as u64) + tx.len()).sum();
        varint_len(self.slot.0) + 8 + varint_len(self.txs.len() as u64) + txs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_content_sensitive() {
        let hash = |txs: &[&[u8]]| {
            Block::new(Slot(1), GENESIS_HASH, txs.iter().map(|tx| tx.to_vec()).collect()).hash()
        };
        let a = hash(&[b"x", b"yz"]);
        assert_eq!(a, hash(&[b"x", b"yz"]));
        // Swapped; one fewer, one more; two merged; none.
        for other in [&[&b"yz"[..], b"x"][..], &[b"x"], &[b"x", b"yz", b""], &[b"xyz"], &[]] {
            assert_ne!(a, hash(other), "{other:?}");
        }
    }

    #[test]
    fn hash_differs_by_slot_and_parent() {
        let a = Block::new(Slot(1), GENESIS_HASH, vec![]);
        let b = Block::new(Slot(2), GENESIS_HASH, vec![]);
        let c = Block::new(Slot(1), BlockHash(99), vec![]);
        assert_ne!(a.hash(), b.hash());
        assert_ne!(a.hash(), c.hash());
    }

    #[test]
    fn hash_reserved_values() {
        // 0 is Rule 1's "fresh block" sentinel, 1 the genesis hash.
        let mut hashes = (0..10_000).map(|s| Block::new(Slot(s), GENESIS_HASH, vec![]).hash());
        assert!(hashes.all(|h| h.0 > 1));
    }

    #[test]
    fn wire_roundtrip() {
        let b = Block::new(Slot(7), BlockHash(42), vec![b"hello".to_vec(), vec![]]);
        let bytes = b.to_bytes();
        assert_eq!(Block::from_bytes(&bytes).unwrap(), b);
    }

    #[test]
    fn wire_len_counts_what_encode_writes() {
        let long = vec![7u8; 200];
        for (slot, txs) in [(0, vec![]), (127, vec![vec![]]), (1 << 40, vec![long; 130])] {
            let b = Block::new(Slot(slot), BlockHash(3), txs);
            assert_eq!(b.wire_len(), b.to_bytes().len(), "slot {slot}");
        }
    }

    #[test]
    fn value_bridge_roundtrip() {
        let h = BlockHash(0xDEAD_BEEF);
        assert_eq!(BlockHash::from_value(h.as_value()), h);
    }

    #[test]
    fn hostile_tx_count_rejected() {
        let mut w = Writer::new();
        Slot(1).encode(&mut w);
        GENESIS_HASH.encode(&mut w);
        w.put_varint(u64::from(u32::MAX));
        assert!(matches!(Block::from_bytes(w.as_bytes()), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn hostile_tx_len_rejected() {
        // A single tx declaring a 2^40-byte body must fail cleanly.
        let mut w = Writer::new();
        Slot(1).encode(&mut w);
        GENESIS_HASH.encode(&mut w);
        w.put_varint(1);
        w.put_varint(1 << 40);
        assert!(Block::from_bytes(w.as_bytes()).is_err());
    }
}
