//! Kernel types shared by every crate in the TetraBFT reproduction.
//!
//! This crate has no protocol logic of its own; it defines the vocabulary the
//! protocol crates speak:
//!
//! * identifiers — [`NodeId`], [`View`], [`Slot`];
//! * the opaque consensus [`Value`];
//! * the system [`Config`] with the paper's quorum arithmetic
//!   (`n > 3f`, quorum = `n − f`, blocking set = `f + 1`);
//! * the constant-size persistent [`VoteBook`] of Section 3.1 (highest
//!   vote-1..4 plus the second-highest vote-1/vote-2 carrying a different
//!   value);
//! * the vote [`Phase`] newtype used throughout;
//! * the one digest primitive, [`step`], that every hash in the tree folds.
//!
//! # Examples
//!
//! ```
//! use tetrabft_types::{Config, NodeId, View};
//!
//! let cfg = Config::new(4).expect("4 nodes tolerate 1 fault");
//! assert_eq!(cfg.f(), 1);
//! assert_eq!(cfg.quorum(), 3);
//! assert_eq!(cfg.blocking(), 2);
//! assert_eq!(cfg.leader_of(View::ZERO), NodeId(0));
//! assert_eq!(cfg.leader_of(View(5)), NodeId(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod config;
mod digest;
mod evidence;
mod fsync;
mod ids;
mod phase;
mod value;
mod votebook;

pub use config::{Config, ConfigError};
pub use digest::{fold_bytes, step, tagged};
pub use evidence::{AuditClaim, Evidence};
pub use fsync::FsyncPolicy;
pub use ids::{NodeId, Slot, View};
pub use phase::Phase;
pub use value::Value;
pub use votebook::{VoteBook, VoteInfo};
