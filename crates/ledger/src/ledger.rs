//! Deterministic transfer execution over the finalized chain.

use std::fmt;

use tetrabft_wire::Wire;

use crate::account::{Account, AccountId};
use crate::state::{AccountBatch, AccountMap, StateRoot, READ_AHEAD_KEYS};
use crate::txn::Transfer;

/// Transfers executed as one unit of a block: the payers and payees of a
/// chunk fill one read-ahead.
const CHUNK: usize = READ_AHEAD_KEYS / 2;

/// Why a transaction in a finalized block did not execute.
///
/// Rejection is part of the deterministic state machine: every replica
/// rejects the same transactions for the same reasons, and a rejected
/// transaction leaves the accounts — and therefore the state root —
/// untouched. (Admission filters the static failures at the mempool door,
/// but a Byzantine leader can still pack anything into a block, so
/// execution re-checks everything.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The payload is not a canonical [`Transfer`] encoding.
    Malformed,
    /// `amount == 0`: moves nothing, burns a nonce — refused instead.
    ZeroAmount,
    /// `from == to`: a transfer must move funds between distinct accounts.
    SelfTransfer,
    /// The transfer's nonce is not the paying account's current nonce —
    /// a replay (got < expected) or a gap (got > expected).
    BadNonce {
        /// The account's current nonce.
        expected: u64,
        /// The nonce the transfer carried.
        got: u64,
    },
    /// The paying account holds less than the transfer amount.
    Overdraft {
        /// Funds available.
        balance: u64,
        /// Funds the transfer tried to move.
        amount: u64,
    },
    /// Crediting the receiver would overflow its `u64` balance.
    Overflow,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Malformed => write!(f, "not a canonical transfer encoding"),
            ExecError::ZeroAmount => write!(f, "zero-amount transfer"),
            ExecError::SelfTransfer => write!(f, "self-paying transfer"),
            ExecError::BadNonce { expected, got } => {
                write!(f, "bad nonce: account is at {expected}, transfer carries {got}")
            }
            ExecError::Overdraft { balance, amount } => {
                write!(f, "overdraft: balance {balance} < amount {amount}")
            }
            ExecError::Overflow => write!(f, "receiver balance would overflow"),
        }
    }
}

impl std::error::Error for ExecError {}

/// What executing one finalized block did to the ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockReceipt {
    /// The (global) slot of the executed block.
    pub slot: u64,
    /// Transactions that applied.
    pub applied: usize,
    /// Transactions that did not, with their in-block index and reason.
    pub rejected: Vec<(usize, ExecError)>,
    /// The chained state root after this block.
    pub root: StateRoot,
}

/// The deterministic account state machine: folds finalized blocks into
/// the [`AccountMap`] and chains a [`StateRoot`] per block.
///
/// Executing the same finalized stream from the same genesis always
/// produces the same roots — that is the cross-check replicas rely on to
/// surface divergence ([`crate::StateRootMismatch`]).
///
/// # Examples
///
/// ```
/// use tetrabft_ledger::{AccountId, Ledger, Transfer};
/// use tetrabft_multishot::Transaction;
///
/// let mut ledger = Ledger::new([(AccountId(1), 100)]);
/// let pay = Transfer { from: AccountId(1), to: AccountId(2), amount: 30, nonce: 0 };
/// let receipt = ledger.apply_block(1, &[pay.canonical_bytes()]);
/// assert_eq!(receipt.applied, 1);
/// assert_eq!(ledger.account(AccountId(2)).balance, 30);
/// assert_eq!(ledger.account(AccountId(1)).nonce, 1);
/// // A replay of the same transfer rejects without touching the root.
/// let before = ledger.root();
/// let receipt = ledger.apply_block(2, &[pay.canonical_bytes()]);
/// assert_eq!(receipt.applied, 0);
/// assert_ne!(ledger.root(), before, "the root still chains over the block");
/// assert_eq!(ledger.account(AccountId(2)).balance, 30);
/// ```
#[derive(Debug, Clone)]
pub struct Ledger {
    accounts: AccountMap,
    height: u64,
    root: StateRoot,
}

impl Ledger {
    /// A ledger at height 0 holding the genesis allocation (all nonces 0).
    /// Later entries for a repeated account id replace earlier ones.
    pub fn new(genesis: impl IntoIterator<Item = (AccountId, u64)>) -> Self {
        let mut accounts = AccountMap::new();
        let mut batch = accounts.batch();
        for (id, balance) in genesis {
            batch.insert(id, Account::with_balance(balance));
        }
        drop(batch);
        let root = StateRoot::genesis(&accounts);
        Ledger { accounts, height: 0, root }
    }

    /// Executes the block at `slot` — `height + 1`, finalized streams are
    /// gapless — applying each transaction in order and chaining the root.
    /// The whole block is one [`AccountMap::batch`]: transactions read the
    /// writes of those before them, and the account digest is brought up
    /// to date once, after the last. Each chunk of 32 transfers is decoded
    /// once, its accounts' trie paths are read ahead together, and then it
    /// applies in order; the read-ahead changes only what is in cache.
    ///
    /// # Panics
    ///
    /// Panics if `slot != height + 1`: feeding blocks out of order is a
    /// driver bug, not a runtime condition.
    pub fn apply_block(&mut self, slot: u64, txs: &[Vec<u8>]) -> BlockReceipt {
        assert_eq!(
            slot,
            self.height + 1,
            "blocks must be applied in slot order (at height {})",
            self.height
        );
        let mut applied = 0;
        let mut rejected = Vec::new();
        let mut batch = self.accounts.batch();
        for (c, chunk) in txs.chunks(CHUNK).enumerate() {
            // Decoded once, on the stack: the read-ahead and the apply
            // both read it.
            let mut decoded = [Err(ExecError::Malformed); CHUNK];
            let mut keys = [0; READ_AHEAD_KEYS];
            let mut n = 0;
            for (t, bytes) in decoded.iter_mut().zip(chunk) {
                *t = Transfer::from_bytes(bytes).map_err(|_| ExecError::Malformed);
                if let Ok(t) = t {
                    keys[n..n + 2].copy_from_slice(&[t.from.0, t.to.0]);
                    n += 2;
                }
            }
            batch.read_ahead(&mut keys[..n]);
            for (i, t) in decoded[..chunk.len()].iter().enumerate() {
                match t.and_then(|t| Self::apply_tx(&mut batch, t)) {
                    Ok(()) => applied += 1,
                    Err(e) => rejected.push((c * CHUNK + i, e)),
                }
            }
        }
        drop(batch);
        self.height = slot;
        self.root = StateRoot::chain(self.root, slot, self.accounts.root_hash());
        BlockReceipt { slot, applied, rejected, root: self.root }
    }

    /// One transaction: all checks first, then the mutation — a rejected
    /// transaction leaves the accounts bit-identical.
    fn apply_tx(accounts: &mut AccountBatch<'_>, t: Transfer) -> Result<(), ExecError> {
        if t.amount == 0 {
            return Err(ExecError::ZeroAmount);
        }
        if t.from == t.to {
            return Err(ExecError::SelfTransfer);
        }
        let mut from = accounts.get(t.from).unwrap_or_default();
        if t.nonce != from.nonce {
            return Err(ExecError::BadNonce { expected: from.nonce, got: t.nonce });
        }
        if from.balance < t.amount {
            return Err(ExecError::Overdraft { balance: from.balance, amount: t.amount });
        }
        let mut to = accounts.get(t.to).unwrap_or_default();
        let credited = to.balance.checked_add(t.amount).ok_or(ExecError::Overflow)?;
        from.balance -= t.amount;
        from.nonce += 1;
        to.balance = credited;
        accounts.insert(t.from, from);
        accounts.insert(t.to, to);
        Ok(())
    }

    /// The account state (missing accounts read as zero/zero).
    pub fn account(&self, id: AccountId) -> Account {
        self.accounts.get(id).unwrap_or_default()
    }

    /// The persistent account map — `Clone` it for an O(1) snapshot.
    pub fn accounts(&self) -> &AccountMap {
        &self.accounts
    }

    /// Number of blocks executed.
    pub fn height(&self) -> u64 {
        self.height
    }

    /// The chained state root after the last executed block.
    pub fn root(&self) -> StateRoot {
        self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_multishot::Transaction;

    fn bytes(from: u64, to: u64, amount: u64, nonce: u64) -> Vec<u8> {
        Transfer { from: AccountId(from), to: AccountId(to), amount, nonce }.canonical_bytes()
    }

    #[test]
    fn valid_sequence_moves_funds_and_nonces() {
        let mut ledger = Ledger::new([(AccountId(1), 100), (AccountId(2), 50)]);
        let receipt =
            ledger.apply_block(1, &[bytes(1, 2, 10, 0), bytes(2, 3, 60, 0), bytes(1, 3, 5, 1)]);
        assert_eq!(receipt.applied, 3);
        assert!(receipt.rejected.is_empty());
        assert_eq!(ledger.account(AccountId(1)), Account { balance: 85, nonce: 2 });
        assert_eq!(ledger.account(AccountId(2)), Account { balance: 0, nonce: 1 });
        assert_eq!(ledger.account(AccountId(3)), Account { balance: 65, nonce: 0 });
        assert_eq!(ledger.accounts().total_balance(), 150);
    }

    #[test]
    fn every_rejection_reason_fires_and_preserves_state() {
        let mut ledger = Ledger::new([(AccountId(1), 100)]);
        let account_digest = ledger.accounts().root_hash();
        let receipt = ledger.apply_block(
            1,
            &[
                b"garbage".to_vec(), // Malformed
                bytes(1, 2, 0, 0),   // ZeroAmount
                bytes(1, 1, 5, 0),   // SelfTransfer
                bytes(1, 2, 5, 7),   // BadNonce (gap)
                bytes(1, 2, 200, 0), // Overdraft
                bytes(9, 2, 1, 0),   // Overdraft from an empty account
            ],
        );
        assert_eq!(receipt.applied, 0);
        assert_eq!(
            receipt.rejected,
            vec![
                (0, ExecError::Malformed),
                (1, ExecError::ZeroAmount),
                (2, ExecError::SelfTransfer),
                (3, ExecError::BadNonce { expected: 0, got: 7 }),
                (4, ExecError::Overdraft { balance: 100, amount: 200 }),
                (5, ExecError::Overdraft { balance: 0, amount: 1 }),
            ]
        );
        assert_eq!(ledger.accounts().root_hash(), account_digest, "rejects never touch accounts");
    }

    #[test]
    fn a_block_of_rejects_leaves_the_account_digest_bit_identical() {
        // A trie several levels deep that the previous block wrote in
        // place and nobody else shares, and rejects that fail late — after
        // both accounts were read.
        let warmed = || {
            let genesis = (1..=300u64).map(|id| (AccountId(id), 1_000));
            let mut ledger = Ledger::new(genesis.chain([(AccountId(400), u64::MAX)]));
            let warm: Vec<Vec<u8>> = (1..=200u64).map(|id| bytes(id, id + 50, 5, 0)).collect();
            assert_eq!(ledger.apply_block(1, &warm).applied, 200);
            ledger
        };
        let mut ledger = warmed();
        let (digest, entries) = (ledger.accounts().root_hash(), ledger.accounts().entries());
        let receipt = ledger.apply_block(
            2,
            &[
                bytes(7, 8, 5, 0),     // BadNonce (replay)
                bytes(7, 8, 5_000, 1), // Overdraft
                bytes(7, 400, 1, 1),   // Overflow
                bytes(999, 7, 1, 0),   // Overdraft from an account that is not there
                bytes(7, 7, 1, 1),     // SelfTransfer
                b"junk".to_vec(),      // Malformed
            ],
        );
        assert_eq!((receipt.applied, receipt.rejected.len()), (0, 6));
        assert_eq!(ledger.accounts().root_hash(), digest);
        assert_eq!(ledger.accounts().entries(), entries, "no account changed or materialized");
        // Nothing was left owing a digest either: the next valid block
        // lands on the root of a ledger whose slot 2 was empty.
        let mut clean = warmed();
        clean.apply_block(2, &[]);
        let next = [bytes(7, 8, 5, 1)];
        assert_eq!(ledger.apply_block(3, &next).root, clean.apply_block(3, &next).root);
    }

    #[test]
    fn replay_rejects_with_bad_nonce() {
        let mut ledger = Ledger::new([(AccountId(1), 100)]);
        let pay = bytes(1, 2, 10, 0);
        assert_eq!(ledger.apply_block(1, std::slice::from_ref(&pay)).applied, 1);
        let receipt = ledger.apply_block(2, &[pay]);
        assert_eq!(receipt.rejected, vec![(0, ExecError::BadNonce { expected: 1, got: 0 })]);
    }

    #[test]
    fn credit_overflow_rejects() {
        let mut ledger = Ledger::new([(AccountId(1), u64::MAX), (AccountId(2), u64::MAX)]);
        let receipt = ledger.apply_block(1, &[bytes(1, 2, 1, 0)]);
        assert_eq!(receipt.rejected, vec![(0, ExecError::Overflow)]);
        assert_eq!(ledger.account(AccountId(1)).nonce, 0, "failed transfer burns no nonce");
    }

    #[test]
    fn identical_streams_produce_identical_roots() {
        let run = || {
            let mut ledger = Ledger::new([(AccountId(1), 1_000), (AccountId(2), 1_000)]);
            let mut roots = Vec::new();
            roots.push(ledger.root());
            for slot in 1..=5u64 {
                let receipt = ledger
                    .apply_block(slot, &[bytes(1, 2, slot, slot - 1), bytes(2, 1, 1, slot - 1)]);
                roots.push(receipt.root);
            }
            roots
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "blocks must be applied in slot order")]
    fn out_of_order_blocks_panic() {
        let mut ledger = Ledger::new([]);
        ledger.apply_block(2, &[]);
    }
}
