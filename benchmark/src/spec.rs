//! The fixed configuration every workload shares, the workload table, and
//! the command line. Everything a reported number depends on is a constant
//! here and is restated in `BENCHMARK.json` / `README.md`.

use std::time::Duration;

use tetrabft::Params;
use tetrabft_net::{EdgeSpec, LinkPlan};
use tetrabft_types::{FsyncPolicy, NodeId};

/// Cluster size (f = 1).
pub const N: usize = 4;
/// Injected one-way link delay δ, no jitter, no loss. With instant
/// delivery commit latency is scheduler wake-up time and does not repeat.
pub const DELTA_MS: u64 = 10;
/// The protocol's Δ (view timeout = 9Δ = 900 ms).
pub const BIG_DELTA_MS: u64 = 100;
/// Genesis accounts: a working set beyond L2.
pub const ACCOUNTS: u64 = 262_144;
/// Genesis balance per account; no schedule can overdraw it.
pub const GENESIS_BALANCE: u64 = 1 << 40;
/// A transaction not committed this long after it was due has failed.
pub const COMMIT_DEADLINE: Duration = Duration::from_secs(5);
/// Percentiles are the median over this many equal slices of the window.
pub const SLICES: usize = 10;
/// The two client connections go to these nodes.
pub const CLIENT_NODES: [NodeId; 2] = [NodeId(0), NodeId(2)];
/// `leader_crash` kills this node: it leads every 4th slot and serves no
/// client, so no submission is lost with it.
pub const CRASH_NODE: NodeId = NodeId(1);
/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// What a transaction carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Payload {
    /// A valid `Transfer` over the genesis accounts.
    Transfer,
    /// Opaque bytes of this length (`Tx::raw`), unique per transaction.
    Opaque(usize),
}

/// Which runtime drives the nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Real sockets, real threads, wall clock.
    Tcp,
    /// `Sim`: virtual time, one thread, batched stepping.
    Replay,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub runtime: Runtime,
    /// Open-loop offered rate, transactions per (virtual) second.
    pub rate_tps: u64,
    pub payload: Payload,
    /// Whether [`CRASH_NODE`] is killed and restarted mid-window.
    pub crash: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "loaded",
        runtime: Runtime::Tcp,
        rate_tps: 8_000,
        payload: Payload::Transfer,
        crash: false,
    },
    Workload {
        name: "bulk",
        runtime: Runtime::Tcp,
        rate_tps: 4_000,
        payload: Payload::Opaque(1024),
        crash: false,
    },
    Workload {
        name: "leader_crash",
        runtime: Runtime::Tcp,
        rate_tps: 8_000,
        payload: Payload::Transfer,
        crash: true,
    },
    Workload {
        name: "replay",
        runtime: Runtime::Replay,
        rate_tps: 20_000,
        payload: Payload::Transfer,
        crash: false,
    },
];

impl Workload {
    /// Whether finalized blocks are executed by one `LedgerReplica` per
    /// node: whenever the payload is something a ledger can execute.
    pub fn ledger(&self) -> bool {
        self.payload == Payload::Transfer
    }

    /// The deployed knobs of the `tetrabft-load` harness; durable nodes.
    /// `replay` never syncs appends so its single-thread CPU figure holds
    /// no disk wait; TCP workloads use the shipped default (`Batch(32)`).
    pub fn params(&self) -> Params {
        let fsync = match self.runtime {
            Runtime::Tcp => FsyncPolicy::default(),
            Runtime::Replay => FsyncPolicy::Never,
        };
        Params::new(BIG_DELTA_MS)
            .with_max_block_txs(4096)
            .with_mempool_capacity(1 << 17)
            .with_idle_pacing(5)
            .with_fsync(fsync)
    }

    /// Load offered before the window opens, so mempools, caches and the
    /// block cadence are at steady state when measurement starts.
    pub fn warmup(&self) -> Duration {
        match self.runtime {
            Runtime::Tcp => Duration::from_secs(2),
            Runtime::Replay => Duration::from_secs(1),
        }
    }

    /// The measured window of a run asked to measure for `seconds`. Over
    /// TCP that is the window. `replay` is fixed work in virtual time —
    /// 0.4 virtual seconds per second asked for (160,000 transfers at
    /// 20 s), which keeps its wall time, four ledger executions and the
    /// mempool-snapshot syncs included, near the TCP workloads'.
    pub fn window(&self, seconds: Duration) -> Duration {
        match self.runtime {
            Runtime::Tcp => seconds,
            Runtime::Replay => seconds.mul_f64(0.4),
        }
    }

    /// Kill and restart, as offsets into a window of `window`: kill at
    /// 0.625 of it, restart 0.15 windows later (10.0 s and 12.4 s at 16 s).
    /// The kill sits just past a slice boundary, so six of the ten slices
    /// end before it: the fault-free figures are medians over those six,
    /// however long the restarted node takes to get back in step (0.9 s to
    /// over 8 s, see README.md), and what follows the kill is priced by the
    /// fault window.
    pub fn fault_plan(&self, window: Duration) -> Option<FaultPlan> {
        self.crash.then(|| {
            let kill = window.mul_f64(0.625);
            FaultPlan { kill, restart: kill + window.mul_f64(0.15) }
        })
    }
}

/// The crash schedule of one run, as offsets from window open. The fault
/// window runs from the kill to window close (6 s at 16 s): the outage,
/// while every fourth slot waits out the 9Δ timer, and the restarted
/// node's catch-up after it.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    pub kill: Duration,
    pub restart: Duration,
}

impl FaultPlan {
    /// How many of `slices` equal slices of `window` end before the kill.
    pub fn fault_free_slices(&self, window: Duration, slices: usize) -> usize {
        (self.kill.as_nanos() * slices as u128 / window.as_nanos().max(1)) as usize
    }
}

/// The link plan of every workload.
pub fn link_plan() -> LinkPlan {
    LinkPlan::uniform(EdgeSpec::delay(DELTA_MS))
}

/// Parsed command line: `--workload <name> --seed <n> --seconds <n> --trace <0|1>`.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// `--seconds`; see [`Workload::window`].
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    pub fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        *WORKLOADS
                            .iter()
                            .find(|w| w.name == value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    );
                }
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                    if !(1..=60).contains(&s) {
                        return Err("--seconds must be 1..=60".into());
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace must be 0 or 1".into()),
                    });
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: Duration::from_secs(seconds.ok_or("--seconds is required")?),
            trace: trace.ok_or("--trace is required")?,
        })
    }
}
