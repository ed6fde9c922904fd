//! **Basic TetraBFT** — the single-shot, unauthenticated, optimistically
//! responsive BFT consensus protocol of
//! *"TetraBFT: Reducing Latency of Unauthenticated, Responsive BFT
//! Consensus"* (Yu, Losa, Wang — PODC 2024).
//!
//! TetraBFT solves consensus in partial synchrony with:
//!
//! * **optimal resilience** — any `n > 3f`;
//! * **no message authentication** — only authenticated channels; no public
//!   key cryptography anywhere, so the protocol tolerates computationally
//!   unbounded adversaries;
//! * **optimistic responsiveness** — after GST it advances at actual network
//!   speed (decisions within `7δ` of a view led by a correct leader);
//! * **constant persistent storage** — six vote registers
//!   ([`tetrabft_types::VoteBook`]);
//! * **O(n²) communication** per view (linear per node);
//! * **good-case latency of 5 message delays** — one better than IT-HS, the
//!   only previously known protocol with the other four properties.
//!
//! A view runs through phases `suggest`/`proof` → `proposal` → `vote-1` →
//! `vote-2` → `vote-3` → `vote-4`; a node decides on a quorum of `vote-4`.
//! At view 0 the suggest/proof phase is skipped (every value is safe), which
//! is where the 5-delay good case comes from: proposal + four vote phases.
//!
//! The implementation is sans-I/O: [`TetraNode`] is a deterministic state
//! machine implementing [`tetrabft_engine::Node`], equally at home under the
//! discrete-event simulator, the TCP transport of `tetrabft-net`, or a
//! model checker.
//!
//! # Examples
//!
//! Four nodes, one of them silent (crashed), still decide — and under a
//! unit-delay network the first decision lands at 5 message delays:
//!
//! ```
//! use tetrabft::{Params, TetraNode};
//! use tetrabft_sim::{LinkPolicy, SimBuilder};
//! use tetrabft_types::{Config, Value};
//!
//! let cfg = Config::new(4)?;
//! let params = Params::new(100); // Δ = 100 ticks
//! let mut sim = SimBuilder::new(4)
//!     .policy(LinkPolicy::synchronous(1))
//!     .build(|id| TetraNode::new(cfg, params, id, Value::from_u64(7)));
//! assert!(sim.run_until_outputs(4, 100_000));
//! assert_eq!(sim.outputs()[0].time.0, 5); // the headline number
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod msg;
mod node;
mod params;
mod records;
pub mod rules;

pub use msg::{Message, ProofData, SuggestData};
pub use node::{TetraNode, VIEW_TIMER};
pub use params::Params;
pub use records::{PeerRecord, Registers, ViewChanges, ViewVerdict, VoteRegisters};
