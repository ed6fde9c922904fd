//! **The ledger on top of the chain**: accounts, transfers, deterministic
//! execution, and per-block state roots.
//!
//! Consensus (Multi-shot TetraBFT) totally orders opaque byte payloads;
//! this crate gives those payloads semantics. Clients submit typed
//! [`Transfer`]s through the typed transaction surface
//! ([`tetrabft_multishot::Transaction`]); the [`transfer_admission`] hook
//! refuses structurally-invalid payloads at the mempool door; and every
//! replica folds its node's finalized stream through a [`LedgerReplica`]
//! into an account state whose per-block [`StateRoot`] is chained and
//! canonical. Replicas cross-check roots: deterministic execution means
//! equal streams give equal roots, so any divergence (a forged block, a
//! corrupted executor) surfaces as a typed [`StateRootMismatch`] naming
//! the first offending block instead of passing silently.
//!
//! The account map is persistent (imhamt-style copy-on-write trie,
//! [`AccountMap`]): snapshots are O(1) clones, and a write copies only the
//! branches a live snapshot still shares — where the map is a branch's sole
//! owner, as a replica's is between snapshots, it is written in place.
//! Each branch stores its children's digests and holds its leaves inline;
//! a block executes as one [`AccountBatch`], whose end re-digests each slot
//! the block wrote through once, children first. A per-block commitment
//! therefore costs O(distinct branches touched), not O(txs · depth) and
//! never O(accounts).
//!
//! # Examples
//!
//! Two replicas executing the same finalized blocks agree on every root:
//!
//! ```
//! use tetrabft_ledger::{AccountId, LedgerReplica, Transfer};
//! use tetrabft_multishot::{Block, Finalized, Transaction, GENESIS_HASH};
//! use tetrabft_types::Slot;
//!
//! let genesis = [(AccountId(1), 100)];
//! let pay = Transfer { from: AccountId(1), to: AccountId(2), amount: 40, nonce: 0 };
//! let block = Block::new(Slot(1), GENESIS_HASH, vec![pay.canonical_bytes()]);
//! let fin = Finalized { slot: Slot(1), hash: block.hash(), block };
//!
//! let mut a = LedgerReplica::new(genesis);
//! let mut b = LedgerReplica::new(genesis);
//! a.push(0, &fin);
//! b.push(0, &fin);
//! assert_eq!(a.root(), b.root());
//! assert_eq!(a.ledger().account(AccountId(2)).balance, 40);
//! assert!(a.cross_check(&b).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod account;
mod ledger;
mod replica;
mod state;
mod txn;

pub use account::{Account, AccountId};
pub use ledger::{BlockReceipt, ExecError, Ledger};
pub use replica::{LedgerReplica, StateRootMismatch};
pub use state::{AccountBatch, AccountMap, StateRoot};
pub use txn::{transfer_admission, Transfer};
