//! The unified engine layer of the TetraBFT suite.
//!
//! Every runtime in the workspace drives the same deterministic, sans-I/O
//! [`Node`] state machines; this crate is the one place that knows *how*
//! to drive them. It owns:
//!
//! * the node abstraction itself — [`Node`], [`Input`], [`Action`],
//!   [`Context`], [`TimerId`], [`WireSize`], virtual [`Time`];
//! * the [`Engine`] loop — one door, [`Engine::feed`], through which every
//!   runtime [`Event`] (delivery, timer firing, peer-down hint) reaches the
//!   node, a persist-then-flush seal per batch that the engine skips when
//!   nothing in the batch ran, client submissions via [`Submitter`],
//!   timer-generation bookkeeping, and the dispatch of node [`Action`]s
//!   into a runtime-provided [`Transport`];
//! * the scenario language both runtimes condition their links by —
//!   [`LinkPlan`], [`EdgeSpec`], [`PartitionWindow`].
//!
//! `tetrabft-sim` plugs a deterministic virtual-time transport underneath
//! (an event queue priced by the [`LinkPlan`]), `tetrabft-net` a TCP transport
//! (sockets, a wall-clock timer heap, client frames). Neither
//! re-implements dispatch or timer semantics, so a fix or feature here —
//! batching, backpressure, new input classes — lands in both at once.
//!
//! # Examples
//!
//! See [`Engine`] for driving a node by hand with a recording transport.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod driver;
mod node;
mod plan;
mod time;

pub use driver::{Engine, Event, FrameRequest, Submitter, Transport};
pub use node::{Action, ActionBuf, Context, Dest, Input, Node, TimerId, WireSize};
pub use plan::{EdgeSpec, LinkPlan, PartitionWindow, PlanParseError};
pub use time::{Time, NEVER};
