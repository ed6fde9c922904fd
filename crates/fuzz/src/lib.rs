//! Seeded adversary fuzzer for the TetraBFT reproduction, and the one place
//! the workspace defines Byzantine behavior.
//!
//! Each fuzz seed deterministically samples a whole hostile world:
//!
//! * a **Byzantine strategy composition** per faulty node, one or two of
//!   the [`Attack`]s: split-brain equivocation, selective silence toward a
//!   sampled subset, stale and premature vote replay (across slots too, on
//!   the chain), value spam, vote amplification, forged suggest/proof
//!   history, a crash at a sampled instant and, on the chain, relay spam
//!   (unasked-for loans of every shape), vote-then-skip and connection
//!   flaps — or a plain crash. Nodes that speak for themselves are a
//!   crate-private Byzantine actor composing one behavior per attack;
//! * a **random [`LinkPlan`](tetrabft_sim::LinkPlan)** — delay/jitter/loss
//!   matrices plus scripted partition windows;
//!
//! then runs the deterministic simulator against safety oracles (agreement
//! across honest nodes, chain-prefix consistency) and liveness oracles
//! (progress within a computed bound after the last partition heals).
//!
//! On a violation the [`shrink`] pass greedily reduces the scenario —
//! dropping faulty nodes, individual attacks, partition windows, and
//! halving the horizon — while the same oracle class still fails, and
//! [`Scenario::to_rust_source`] renders the minimum as a replayable
//! deterministic test. A safety hit is additionally cross-audited by
//! [`cross_audit`]: the honest nodes' first votes are read from the sim's
//! wire recorder and fed to the model checker's `Explorer::with_initial`, replaying
//! the finding as an mc counterexample trace.
//!
//! Accountability rides along end to end: the sim's omniscient wire
//! recorder ([`tetrabft_sim::Metrics`]) emits typed
//! [`Evidence`](tetrabft_types::Evidence) records — "node 3 voted both v
//! and v′ in view 7" — surfaced in every [`RunReport`] and campaign
//! summary.
//!
//! # Examples
//!
//! A bounded fixed-seed campaign (what CI's `fuzz-smoke` job runs):
//!
//! ```
//! use tetrabft_fuzz::{run_campaign, CampaignCfg};
//!
//! let cfg = CampaignCfg { seeds: (0..4).collect(), ..CampaignCfg::default() };
//! let report = run_campaign(&cfg);
//! assert_eq!(report.outcomes.len(), 4);
//! assert_eq!(report.violations(), 0, "{}", report.summary());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actors;
mod audit;
mod behaviors;
mod campaign;
mod scenario;
mod shrink;
#[cfg(test)]
mod strategies;

pub use audit::{cross_audit, McAudit};
pub use campaign::{run_campaign, CampaignCfg, CampaignReport, SeedOutcome};
pub use scenario::{Attack, FaultSpec, Mode, RunReport, Scenario, Verdict};
pub use shrink::shrink;
