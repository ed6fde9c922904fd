//! TCP deployment for TetraBFT state machines — the "implement
//! Multi-shot TetraBFT and conduct a practical evaluation" direction the
//! paper lists as future work, with the fault-injecting network layer that
//! evaluation needs.
//!
//! The same sans-I/O [`tetrabft_engine::Node`] state machines the
//! simulator drives run here over real sockets (non-blocking std
//! networking, one readiness-polled thread per node on which the engine
//! steps between waits — no async runtime dependency), through the very
//! same [`tetrabft_engine::Engine`] loop — this crate only provides the TCP
//! [`tetrabft_engine::Transport`]:
//!
//! * every node listens on a [`Topology`]-declared TCP address (ephemeral
//!   OS-assigned localhost ports by default, arbitrary `SocketAddr`s for
//!   real deployments) and dials every peer (full mesh);
//! * every outbound link is **supervised**: it dials with capped
//!   exponential backoff, re-handshakes after drops, and resends frames
//!   whose flush was never confirmed — a flapping connection delays
//!   traffic but cannot wedge a node (delivery is at-least-once across
//!   reconnects up to a bounded per-link buffer; protocol messages are
//!   idempotent votes and buffer overflow degrades to ordinary loss);
//! * a peer whose newest inbound stream has ended, and whose address then
//!   refuses this node's redial, is reported to the node as
//!   [`tetrabft_engine::Input::PeerDown`] — a hint, behind the stream's
//!   last frame ([`NetStats::peer_downs`] counts them); a flapped link or a
//!   scripted partition is not;
//! * [`Cluster::kill`] returns once the node's thread has exited, so a
//!   restart may reopen its directory at once;
//! * links can be **conditioned** by the same declarative
//!   [`LinkPlan`] the simulator consumes — per-edge one-way delay, jitter,
//!   drop probability, and scripted partition windows — so one scenario
//!   runs identically in virtual and wall-clock time, and [`NetControl`]
//!   can kill live sockets mid-run;
//! * a connection is an **authenticated channel**: the 10-byte hello
//!   names the sender and its durable incarnation, the acceptor acks with
//!   its own, and the process trusts the OS connection thereafter — the
//!   paper's channel model, with no signatures anywhere; an incarnation
//!   that advanced since the last handshake fences off frames buffered
//!   for the peer's previous life;
//! * messages travel as length-prefixed frames ([`tetrabft_wire::frame`])
//!   of the hand-rolled wire encoding;
//! * protocol ticks map to milliseconds (a `tetrabft::Params` built with
//!   `Params::new(50)` means Δ = 50 ms).
//!
//! # Examples
//!
//! Run a 4-node TetraBFT cluster on localhost and wait for all decisions:
//!
//! ```no_run
//! use tetrabft::{Params, TetraNode};
//! use tetrabft_net::Cluster;
//! use tetrabft_types::{Config, Value};
//!
//! # fn main() -> Result<(), tetrabft_net::NetError> {
//! let cfg = Config::new(4).unwrap();
//! let mut cluster =
//!     Cluster::spawn(4, |id| TetraNode::new(cfg, Params::new(200), id, Value::from_u64(7)))?;
//! for _ in 0..4 {
//!     let (node, decided) = cluster.next_output().unwrap();
//!     println!("{node} decided {decided}");
//! }
//! # Ok(()) }
//! ```
//!
//! See [`ClusterBuilder`] for WAN conditioning and fault injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cluster;
mod link;
mod reactor;
mod runner;
mod supervisor;
mod topology;

pub use cluster::{Cluster, ClusterBuilder, SubmittingCluster};
pub use link::{NetControl, NetStats, PeerTraffic};
pub use reactor::CLIENT_HELLO_ID;
pub use runner::{run_node, run_submitter, NodeHandle, SubmitClosed, SubmitHandle};
pub use topology::{NetError, Topology, TopologyError};
// The request-decode half of the TCP submit path lives with the engine so
// every runtime shares it; re-export for serving-cluster embedders.
pub use tetrabft_engine::FrameRequest;
// The scenario language is shared with the simulator; re-export it so TCP
// embedders keep a single import path.
pub use tetrabft_sim::{EdgeSpec, LinkPlan, PartitionWindow};
