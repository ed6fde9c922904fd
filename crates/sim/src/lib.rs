//! Deterministic discrete-event simulator for partially-synchronous,
//! unauthenticated message-passing systems.
//!
//! This crate is the evaluation substrate for the TetraBFT reproduction. It
//! models exactly the system of Section 2 of the paper:
//!
//! * `n` nodes exchanging messages over **authenticated channels** (the
//!   simulator attributes every delivery to its true sender — that is all
//!   "authenticated channels" means; there are no signatures anywhere);
//! * **partial synchrony**: before an unknown global stabilization time
//!   (GST) messages may be arbitrarily delayed or lost; after GST every
//!   message is delivered within a known bound Δ (and, for responsiveness
//!   experiments, within the *actual* network delay δ ≤ Δ);
//! * local timers that tick at the same rate at every node;
//! * Byzantine nodes that may send arbitrary messages to arbitrary subsets
//!   of nodes (equivocation included).
//!
//! Protocols are plugged in as deterministic [`Node`] state machines, so a
//! simulation run is a pure function of `(protocol, plan, seed)` — every
//! table `crates/bench/benches/` prints is exactly reproducible.
//!
//! The network is a [`LinkPlan`], the one link language the TCP runtime
//! and the fuzzer speak too: per-edge delay, jitter and loss, plus windows
//! that buffer, hold or lose traffic (partial synchrony is a window that
//! loses or buffers everything until GST). Every message is routed through
//! [`LinkPlan::route_at`], with one tick per millisecond.
//!
//! Latency accounting: by default every network hop costs one tick, so a
//! decision at tick `k` means the protocol used `k` *message delays* — the
//! unit Table 1 of the paper is expressed in.
//!
//! # Examples
//!
//! A two-node ping/pong echo, measured in message delays:
//!
//! ```
//! use tetrabft_sim::{Context, Input, Node, SimBuilder, WireSize};
//! use tetrabft_types::NodeId;
//!
//! #[derive(Clone)]
//! struct Ping(u32);
//! impl WireSize for Ping {
//!     fn wire_size(&self) -> usize { 4 }
//! }
//!
//! struct Echo;
//! impl Node for Echo {
//!     type Msg = Ping;
//!     type Output = u32;
//!     fn handle(&mut self, input: Input<Ping>, ctx: &mut Context<'_, Ping, u32>) {
//!         match input {
//!             Input::Start if ctx.me() == NodeId(0) => ctx.send(NodeId(1), Ping(0)),
//!             Input::Deliver { msg: Ping(k), .. } if k < 4 => {
//!                 let peer = NodeId(1 - ctx.me().0);
//!                 ctx.send(peer, Ping(k + 1));
//!             }
//!             Input::Deliver { msg: Ping(k), .. } => ctx.output(k),
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let mut sim = SimBuilder::new(2).build(|_id| Echo);
//! sim.run_until_quiet(1_000);
//! assert_eq!(sim.outputs().len(), 1);
//! assert_eq!(sim.outputs()[0].time.0, 5); // five one-delay hops
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod actors;
mod metrics;
mod queue;
mod runner;
mod trace;

pub use actors::{FilteredNode, FnNode, SilentNode};
pub use metrics::{KindMetrics, Metrics};
pub use runner::{OutputRecord, Sim, SimBuilder};
// The node abstraction, the engine loop and the link-plan language live in
// `tetrabft-engine`; the simulator re-exports them so protocol crates keep
// a single import path.
pub use tetrabft_engine::{
    Action, ActionBuf, Context, Dest, EdgeSpec, Engine, Event, FrameRequest, Input, LinkPlan, Node,
    PartitionWindow, PlanParseError, Submitter, Time, TimerId, Transport, WireSize, NEVER,
};
pub use trace::TraceEvent;
