//! **Multi-shot TetraBFT** — the pipelined, chained extension of Basic
//! TetraBFT (Section 6 of the paper): the first detailed pipelined protocol
//! in the unauthenticated setting.
//!
//! Blocks are indexed by slots; each slot has a pre-determined leader that
//! appends a block to the previous slot's block. One `vote` message per slot
//! carries **four roles at once**: a vote for slot `s` is simultaneously
//! `vote-1` for slot `s`, `vote-2` for slot `s−1`, `vote-3` for `s−2`, and
//! `vote-4` for `s−3` (each role endorsing the corresponding ancestor of the
//! voted block). A block is *notarized* on a quorum of votes; the first of
//! four consecutively notarized blocks is *finalized* along with its entire
//! prefix.
//!
//! In the good case the pipeline commits **one block per message delay** —
//! five times the throughput of sequentially repeated single-shot instances
//! — and uses only two message types (proposals and votes); suggest/proof
//! and view-change traffic appears *only* when recovering from a faulty
//! leader or asynchrony, the advantage over pipelined IT-HS highlighted in
//! Section 1.2.
//!
//! # Examples
//!
//! A four-node chain finalizing its first blocks:
//!
//! ```
//! use tetrabft::Params;
//! use tetrabft_multishot::MultiShotNode;
//! use tetrabft_sim::SimBuilder;
//! use tetrabft_types::Config;
//!
//! let cfg = Config::new(4)?;
//! let mut sim = SimBuilder::new(4)
//!     .build(|id| MultiShotNode::new(cfg, Params::new(100), id));
//! sim.run_until(tetrabft_sim::Time(20));
//! // The first finalization lands at 5 message delays, then one per delay.
//! let mine: Vec<_> = sim
//!     .outputs()
//!     .iter()
//!     .filter(|o| o.node == tetrabft_types::NodeId(0))
//!     .collect();
//! assert!(mine.len() >= 10);
//! assert_eq!(mine[0].time.0, 5);
//! assert_eq!(mine[1].time.0 - mine[0].time.0, 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod block;
mod catchup;
mod chain;
mod handoff;
mod liveness;
mod mempool;
mod msg;
mod node;
mod store;
mod txn;

pub use block::{Block, BlockHash, GENESIS_HASH};
pub use chain::SLOT_WINDOW;
pub use mempool::{Mempool, SubmitError};
pub use msg::MsMessage;
pub use node::{Finalized, MultiShotNode};
pub use txn::{Transaction, Tx, TxCheck, TxId};
