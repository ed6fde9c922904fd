//! **Durable state for TetraBFT nodes** — the persistence layer behind
//! the paper's *constant persistent storage* claim, made crash-real.
//!
//! The paper (Section 3.1) proves a node only ever needs six vote
//! registers per live slot to stay safe across views. This crate writes
//! exactly that — and nothing unbounded — to disk:
//!
//! * a **write-ahead vote log** under [`NodeStore`]: one CRC-framed
//!   record per vote-book change, compacted in place so the file is
//!   bounded by the live slots plus a fixed slack of 64 records *forever*,
//!   however long the chain grows;
//! * an **append-only finalized-chain log**: slot, hash, and raw block
//!   bytes per finalized block — linear in the chain, never rewritten,
//!   indexed at open so restarted peers can be served catch-up ranges
//!   straight from disk;
//! * an **append-only mempool journal** — one record per seal: what it
//!   admitted, drained off the front and put back at the front — replayed
//!   into the same FIFO order at open and compacted once it holds 8,192
//!   drained entries beside the live queue, so
//!   admitted transactions survive the crash of the node that admitted
//!   them;
//! * an **incarnation counter**, bumped per open and exchanged in the TCP
//!   handshake, letting peers drop frames buffered for a dead incarnation.
//!
//! Records reuse the canonical varint [`tetrabft_wire::Writer`]/
//! [`tetrabft_wire::Reader`] framed as `[len][payload][crc32]`: a crash
//! mid-write leaves a torn tail that is *detected and truncated* on the
//! next open — never mis-decoded as a shorter valid record (see
//! [`record::scan`]).
//!
//! The fsync cadence is the node's [`tetrabft_types::FsyncPolicy`]
//! (`Always` / `Batch(n)` / `Never`), carried in `tetrabft::Params`.
//!
//! # Examples
//!
//! ```
//! use tetrabft_store::NodeStore;
//! use tetrabft_types::{FsyncPolicy, Phase, Slot, Value, View, VoteBook};
//!
//! let dir = std::env::temp_dir().join(format!("tetrabft-store-doc-{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let mut store = NodeStore::open(&dir, FsyncPolicy::Always)?;
//! assert_eq!(store.incarnation(), 1);
//!
//! // Write-ahead the vote book for live slot 1, then finalize a block.
//! let mut book = VoteBook::new();
//! book.record(Phase::VOTE1, View(0), Value::from_u64(7));
//! store.record_votes(Slot(1), View(0), Slot(0), &book)?;
//! store.append_block(Slot(1), 7, b"block bytes")?;
//!
//! // A restart sees the same state, one incarnation later.
//! drop(store);
//! let mut store = NodeStore::open(&dir, FsyncPolicy::Always)?;
//! assert_eq!(store.incarnation(), 2);
//! assert_eq!(store.chain_tip(), Some((Slot(1), 7)));
//! assert_eq!(store.block_record(Slot(1))?, Some((7, b"block bytes".to_vec())));
//! # std::fs::remove_dir_all(&dir).unwrap();
//! # Ok::<(), tetrabft_store::StoreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod crc;
mod node_store;
pub mod record;
mod wal;

pub use node_store::{NodeStore, SlotVotes};

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// On-disk bytes passed their CRC but do not decode as a record this
    /// version understands — a format bug, not a torn tail (torn tails
    /// are silently truncated, by design).
    Corrupt(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Corrupt(what) => write!(f, "store corruption: {what}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Corrupt(_) => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<tetrabft_wire::WireError> for StoreError {
    fn from(_: tetrabft_wire::WireError) -> Self {
        StoreError::Corrupt("record payload failed to decode")
    }
}
