//! The replica-side fold: finalized consensus output → ledger state, with
//! the cross-replica root check that turns silent execution divergence
//! into a typed error.

use std::collections::BTreeMap;
use std::fmt;

use tetrabft_multishot::Finalized;

use crate::account::AccountId;
use crate::ledger::{BlockReceipt, Ledger};
use crate::state::StateRoot;

/// Two replicas disagree on the state after a block: deterministic
/// execution of the same finalized chain can only diverge if one of them
/// executed something else (a forged block, a buggy or malicious
/// executor), and the chained roots pin the *first* block where it
/// happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StateRootMismatch {
    /// The first slot whose roots disagree.
    pub slot: u64,
    /// This replica's root after that block.
    pub ours: StateRoot,
    /// The other replica's root after that block.
    pub theirs: StateRoot,
}

impl fmt::Display for StateRootMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "state root mismatch at slot {}: ours {}, theirs {}",
            self.slot, self.ours, self.theirs
        )
    }
}

impl std::error::Error for StateRootMismatch {}

/// A replica's ledger fold: executes one node's finalized stream into a
/// [`Ledger`] in slot order, keeping the per-block root history for
/// cross-checks.
///
/// A block that arrives ahead of the executed tip waits until the blocks
/// below it have run. The sim, the TCP cluster and the benchmark all feed
/// it the same way, so roots are comparable across them by construction.
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{AccountId, LedgerReplica};
/// use tetrabft_multishot::{Block, Finalized, GENESIS_HASH};
/// use tetrabft_types::Slot;
///
/// let genesis = [(AccountId(1), 100)];
/// let mut a = LedgerReplica::new(genesis);
/// let mut b = LedgerReplica::new(genesis);
/// let block = Block::new(Slot(1), GENESIS_HASH, vec![]);
/// let fin = Finalized { slot: Slot(1), hash: block.hash(), block };
/// a.push(0, &fin);
/// b.push(0, &fin);
/// assert_eq!(a.root(), b.root());
/// assert!(a.cross_check(&b).is_ok());
/// ```
#[derive(Debug)]
pub struct LedgerReplica {
    ledger: Ledger,
    /// Finalized blocks ahead of the executed tip, keyed by slot.
    ahead: BTreeMap<u64, Finalized>,
    /// Receipt per executed block, indexed by `slot - 1` — the root
    /// history [`LedgerReplica::cross_check`] walks.
    receipts: Vec<BlockReceipt>,
}

impl LedgerReplica {
    /// A replica at `genesis`, with nothing executed.
    pub fn new(genesis: impl IntoIterator<Item = (AccountId, u64)>) -> Self {
        LedgerReplica { ledger: Ledger::new(genesis), ahead: BTreeMap::new(), receipts: Vec::new() }
    }

    /// Feeds one finalization and executes every block that became
    /// contiguous with the executed prefix, returning how many blocks ran.
    /// A block at or below the tip runs nothing. The returned count
    /// indexes into [`LedgerReplica::receipts`] if the caller wants the
    /// details.
    ///
    /// `stream` must be 0: a replica executes one finalized stream. The
    /// frozen `benchmark/` crate still passes the index, so it stays until
    /// that crate next changes (ROADMAP item 6).
    ///
    /// # Panics
    ///
    /// Panics if `stream` is not 0.
    pub fn push(&mut self, stream: usize, fin: &Finalized) -> usize {
        assert_eq!(stream, 0, "a replica executes one finalized stream");
        let next = self.ledger.height() + 1;
        if fin.slot.0 != next {
            if fin.slot.0 > next {
                self.ahead.insert(fin.slot.0, fin.clone());
            }
            return 0;
        }
        self.execute(fin);
        let mut ran = 1;
        while let Some(fin) = self.ahead.remove(&(self.ledger.height() + 1)) {
            self.execute(&fin);
            ran += 1;
        }
        ran
    }

    fn execute(&mut self, fin: &Finalized) {
        let receipt = self.ledger.apply_block(fin.slot.0, &fin.block.txs);
        self.receipts.push(receipt);
    }

    /// Compares per-block roots with another replica over their common
    /// prefix.
    ///
    /// # Errors
    ///
    /// Returns the [`StateRootMismatch`] naming the *first* divergent
    /// block. Chained roots make divergence sticky, so the first mismatch
    /// is where execution actually forked.
    pub fn cross_check(&self, other: &LedgerReplica) -> Result<(), StateRootMismatch> {
        let common = self.receipts.len().min(other.receipts.len());
        for i in 0..common {
            let (ours, theirs) = (self.receipts[i].root, other.receipts[i].root);
            if ours != theirs {
                return Err(StateRootMismatch { slot: self.receipts[i].slot, ours, theirs });
            }
        }
        Ok(())
    }

    /// The executed ledger state.
    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }

    /// Receipts of every executed block, in slot order.
    pub fn receipts(&self) -> &[BlockReceipt] {
        &self.receipts
    }

    /// The chained root after the last executed block (the genesis root if
    /// none ran yet).
    pub fn root(&self) -> StateRoot {
        self.ledger.root()
    }

    /// Number of blocks executed so far: the executed tip's slot.
    pub fn height(&self) -> u64 {
        self.ledger.height()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_multishot::{Block, Transaction, GENESIS_HASH};
    use tetrabft_types::Slot;

    use crate::txn::Transfer;

    fn fin(slot: u64, parent: tetrabft_multishot::BlockHash, txs: Vec<Vec<u8>>) -> Finalized {
        let block = Block::new(Slot(slot), parent, txs);
        Finalized { slot: Slot(slot), hash: block.hash(), block }
    }

    fn pay(from: u64, to: u64, amount: u64, nonce: u64) -> Vec<u8> {
        Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }.canonical_bytes()
    }

    #[test]
    fn a_block_ahead_of_the_tip_waits_then_runs_in_order() {
        // The transfer chain only balances if slot 1 runs before slot 2.
        let mut replica = LedgerReplica::new([(AccountId(1), 100)]);
        let b1 = fin(1, GENESIS_HASH, vec![pay(1, 2, 100, 0)]);
        let b2 = fin(2, GENESIS_HASH, vec![pay(2, 3, 100, 0)]);
        assert_eq!(replica.push(0, &b2), 0, "slot 2 waits for slot 1");
        assert_eq!(replica.height(), 0);
        assert_eq!(replica.push(0, &b1), 2, "slot 1 releases slot 2");
        assert_eq!(replica.height(), 2);
        assert_eq!(replica.ledger().account(AccountId(3)).balance, 100);
        assert!(replica.receipts().iter().all(|r| r.rejected.is_empty()));
        assert_eq!(replica.push(0, &b1), 0, "a block at or below the tip runs nothing");
        assert_eq!(replica.receipts().len(), 2);
    }

    #[test]
    #[should_panic(expected = "one finalized stream")]
    fn a_second_stream_is_refused() {
        LedgerReplica::new([]).push(1, &fin(1, GENESIS_HASH, vec![]));
    }

    #[test]
    fn cross_check_names_the_first_forged_block() {
        let genesis = [(AccountId(1), 100), (AccountId(2), 100)];
        let honest_blocks = [
            fin(1, GENESIS_HASH, vec![pay(1, 2, 10, 0)]),
            fin(2, GENESIS_HASH, vec![pay(2, 1, 5, 0)]),
            fin(3, GENESIS_HASH, vec![pay(1, 2, 1, 1)]),
        ];
        let mut honest = LedgerReplica::new(genesis);
        let mut forged = LedgerReplica::new(genesis);
        for (i, block) in honest_blocks.iter().enumerate() {
            honest.push(0, block);
            if i == 1 {
                // The divergent replica executes a forged slot-2 block.
                forged.push(0, &fin(2, GENESIS_HASH, vec![pay(2, 1, 99, 0)]));
            } else {
                forged.push(0, block);
            }
        }
        let err = honest.cross_check(&forged).unwrap_err();
        assert_eq!(err.slot, 2, "the first divergent block is named");
        assert_ne!(err.ours, err.theirs);
        // Symmetric view agrees on the slot.
        assert_eq!(forged.cross_check(&honest).unwrap_err().slot, 2);
        // And the error says where.
        assert!(err.to_string().contains("at slot 2:"));
    }

    #[test]
    fn identical_replicas_stay_in_agreement() {
        let genesis = [(AccountId(1), 1_000)];
        let mut a = LedgerReplica::new(genesis);
        let mut b = LedgerReplica::new(genesis);
        for slot in 1..=10u64 {
            let block = fin(slot, GENESIS_HASH, vec![pay(1, 2, 1, slot - 1)]);
            a.push(0, &block);
            b.push(0, &block);
        }
        assert!(a.cross_check(&b).is_ok());
        assert_eq!(a.root(), b.root());
    }
}
