//! Bounded model checking of the abstract TetraBFT model — the Rust
//! counterpart of the paper's Section 5 / Appendix B formal verification.
//!
//! The paper formalizes single-shot TetraBFT in TLA+ and uses the Apalache
//! symbolic checker to prove the `Consistency` (agreement) property for
//! 4 nodes / 1 Byzantine / 3 values / 5 views, via an inductive invariant
//! (explicit exploration with TLC was infeasible). This crate reproduces
//! that result with two complementary techniques:
//!
//! 1. **Explicit-state BFS** ([`Explorer`]) over the same abstract model,
//!    checking `Consistency` in *every* reachable state. The Byzantine node
//!    is modelled *angelically*: every quorum/blocking-set predicate lets
//!    the adversary contribute whatever vote assignment helps it — a sound
//!    over-approximation of all message behaviour visible to well-behaved
//!    nodes in an unauthenticated system (and strictly stronger than
//!    enumerating adversary states). The explorer is built to scale:
//!    states are bit-packed fingerprints ([`Codec`]) canonicalized under
//!    honest-node *and* value symmetry, the seen-set is a sharded
//!    collision-checked open-addressing table, the frontier spills to disk
//!    instead of exhausting RAM, expansion parallelizes across threads
//!    ([`Explorer::threads`]), and violations reconstruct a shortest
//!    counterexample trace ([`Explorer::trace`]). The original clone-based
//!    engine survives as [`LegacyExplorer`], the reference
//!    `tests/scale.rs` checks the packed engine against.
//! 2. **Inductive-invariant sampling** ([`invariants`]): the paper's
//!    `ConsistencyInvariant` is implemented verbatim; property tests
//!    generate random states, filter to those satisfying the invariant, and
//!    check that every enabled action preserves it — the exact proof
//!    obligation Apalache discharges symbolically, sampled at the paper's
//!    full bounds (3 values, 5 rounds).
//!
//! # Examples
//!
//! ```
//! use tetrabft_mc::{Explorer, ModelCfg};
//!
//! let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 };
//! let report = Explorer::new(cfg).run(1_000_000);
//! assert!(report.exhausted, "state space fully explored");
//! assert_eq!(report.violations, 0, "agreement holds in every state");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod bfs;
mod encode;
mod frontier;
pub mod invariants;
mod model;
mod parallel;
mod report;
mod store;
mod trace;

pub use bfs::LegacyExplorer;
pub use encode::{Codec, PackedState};
pub use model::{ModelAction, ModelCfg, State, Vote, MAX_ROUNDS};
pub use parallel::{ExploreStats, Explorer};
pub use report::{Report, Trace, TraceStep};
