//! Open-loop load generation and saturation measurement for TetraBFT
//! clusters.
//!
//! The paper's claim is latency-*optimal* commit (5δ); this crate prices
//! that latency **under load**. A fleet of TCP clients (one reactor
//! thread over the `polling` shim, not one thread per socket, so a fleet
//! is bounded by the process's file descriptors) submits transactions
//! open-loop — Poisson arrivals at a target aggregate rate, timestamped
//! when *due* rather than when the socket drains, so saturation shows up
//! as latency, not as silently reduced offered load. The harness runs the
//! sharded serving cluster in-process, matches finalized [`TxId`]s back
//! to submissions, and reports p50/p99/p999 commit latency, achieved vs
//! offered throughput, and per-shard utilization, swept across rates to
//! locate the saturation knee.
//!
//! The repo's recorded numbers come from `benchmark/run.sh` (durable
//! nodes, a ledger, injected link delay); this crate's harness is what
//! `tests/open_loop.rs` drives at a scale that fits a test.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use tetrabft_multishot::TxId;
pub use tetrabft_net::CLIENT_HELLO_ID;

mod fleet;
mod harness;
mod report;

pub use fleet::{spawn_fleet, FleetLink, FleetMsg, FleetReport, FleetSpec};
pub use harness::{run_load, sweep, LoadOptions};
pub use report::{knee_index, percentile_us, LoadReport, ShardUtil};
