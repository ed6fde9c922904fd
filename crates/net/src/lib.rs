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
//! * a transaction enters a running node one way: as a length-prefixed
//!   frame on the node's listen port from a client that said hello as
//!   [`CLIENT_HELLO_ID`] — [`SubmitHandle`] is such a client;
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
//! Run a 4-node multi-shot chain on localhost, submit one transaction
//! through node 0's client port, and wait until a node finalizes it:
//!
//! ```no_run
//! use tetrabft::Params;
//! use tetrabft_multishot::MultiShotNode;
//! use tetrabft_net::ClusterBuilder;
//! use tetrabft_types::Config;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = Config::new(4)?;
//! let ((mut cluster, clients), _net) = ClusterBuilder::new(4)
//!     .spawn_serving(|id| MultiShotNode::new(cfg, Params::new(200), id))?;
//! clients[0].submit(b"hello, chain")?;
//! while let Some((node, fin)) = cluster.next_output() {
//!     if fin.block.txs.contains(&b"hello, chain".to_vec()) {
//!         println!("{node} finalized it in slot {}", fin.slot.0);
//!         break;
//!     }
//! }
//! # Ok(()) }
//! ```
//!
//! See [`ClusterBuilder`] for WAN conditioning and fault injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod client;
mod cluster;
mod link;
mod reactor;
mod runner;
mod supervisor;
mod topology;

pub use client::{SubmitClosed, SubmitHandle};
pub use cluster::{Cluster, ClusterBuilder};
pub use link::{NetControl, NetStats, PeerTraffic};
pub use reactor::CLIENT_HELLO_ID;
pub use topology::{NetError, Topology, TopologyError};
// The request decode of the client door and the scenario language live
// with the engine, shared with the simulator; re-exported so TCP embedders
// keep a single import path.
pub use tetrabft_engine::{EdgeSpec, FrameRequest, LinkPlan, PartitionWindow};
