//! The replay runner: the same four durable nodes and four replicas
//! under `Sim` — virtual time, batched stepping, δ virtual ms per hop, one
//! thread. Fixed work on a deterministic schedule: virtual-time latencies
//! and every count repeat exactly for a seed, and throughput is work per
//! on-CPU second of this one thread (calibrated, see `calibrate.rs`), which
//! prices the program and not the scheduler.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use tetrabft_ledger::{Ledger, LedgerReplica};
use tetrabft_multishot::{Finalized, MsMessage};
use tetrabft_sim::{Sim, SimBuilder};

use crate::calibrate::{Passes, Reference};
use crate::commits::Commits;
use crate::probe::{Probe, Traces, REPLAY_ORIGIN_MS};
use crate::procfs::thread_cpu_ns;
use crate::schedule::{genesis, Schedule};
use crate::spec::{link_plan, Workload, COMMIT_DEADLINE, N, SLICES};
use crate::tcp::node_dir;

const NS_PER_TICK: u64 = 1_000_000;
/// A reference pass runs this often inside the window, virtual time:
/// about 1 % of the thread's time.
const PASS_EVERY_NS: u64 = 25 * NS_PER_TICK;

/// A simulation brought up to the point where load can start.
pub struct Stack {
    sim: Sim<MsMessage, Finalized>,
    replicas: Vec<LedgerReplica>,
}

impl Stack {
    /// An O(1) snapshot of the genesis ledger (for the timed direct calls).
    pub fn genesis(&self) -> Ledger {
        self.replicas[0].ledger().clone()
    }
}

/// Genesis on four replicas, four fresh WAL directories, the simulation,
/// and the same barrier as over TCP: every node has finalized a block.
pub fn set_up(
    w: &Workload,
    seed: u64,
    run_dir: &Path,
    schedule: &Arc<Schedule>,
    traces: Option<&Traces>,
) -> Result<Stack, String> {
    let replicas: Vec<LedgerReplica> = (0..N).map(|_| LedgerReplica::new(genesis())).collect();
    let _ = std::fs::remove_dir_all(run_dir);
    let mut sim = SimBuilder::new(N).seed(seed).plan(&link_plan()).batched(true).build(|id| {
        let inner = crate::durable_node(w, id, &node_dir(run_dir, id));
        Probe::replaying(inner, id, schedule, traces.cloned())
    });
    let mut live = [false; N];
    let mut seen = 0;
    while live.iter().any(|l| !l) {
        if !sim.step() || sim.now().0 >= REPLAY_ORIGIN_MS {
            return Err("nodes did not all finalize before the schedule's origin".into());
        }
        for record in &sim.outputs()[seen..] {
            live[record.node.index()] = true;
        }
        seen = sim.outputs().len();
    }
    Ok(Stack { sim, replicas })
}

/// `sim::Metrics` totals at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounters {
    pub msgs: u64,
    pub bytes: u64,
    pub events: u64,
    pub viewchange_msgs: u64,
}

impl SimCounters {
    fn read(sim: &Sim<MsMessage, Finalized>) -> SimCounters {
        let m = sim.metrics();
        SimCounters {
            msgs: m.total_msgs_sent(),
            bytes: m.total_bytes_sent(),
            events: m.events_processed,
            viewchange_msgs: ["view-change", "suggest", "proof"]
                .iter()
                .map(|k| m.kind(k).msgs)
                .sum(),
        }
    }

    pub fn since(&self, earlier: &SimCounters) -> SimCounters {
        SimCounters {
            msgs: self.msgs - earlier.msgs,
            bytes: self.bytes - earlier.bytes,
            events: self.events - earlier.events,
            viewchange_msgs: self.viewchange_msgs - earlier.viewchange_msgs,
        }
    }
}

/// Everything one replay observed. Commit stamps are virtual ns.
pub struct ReplayRun {
    pub commits: Commits,
    pub replicas: Vec<LedgerReplica>,
    /// Window bounds, virtual ns.
    pub open_ns: u64,
    pub close_ns: u64,
    /// Slice boundaries of the window as `(virtual ns, on-CPU ns of the
    /// driving thread so far, reference passes left out)`; first is window
    /// open, last window close.
    pub marks: Vec<(u64, u64)>,
    /// The reference passes run inside the window, stamped in virtual ns.
    pub passes: Passes,
    /// Wall seconds the same stretch took (context, not a metric).
    pub wall_s: f64,
    /// Counters over the window, and over the whole run (for the digest).
    pub window: SimCounters,
    pub total: SimCounters,
}

/// Steps the simulation until every scheduled transaction has committed
/// (or the commit deadline passes in virtual time), folding each node's
/// outputs into its replica as they appear.
pub fn run(stack: Stack, schedule: &Schedule) -> ReplayRun {
    let Stack { mut sim, mut replicas } = stack;
    let origin_ns = REPLAY_ORIGIN_MS * NS_PER_TICK;
    let open_ns = origin_ns + schedule.warmup_ns;
    let close_ns = open_ns + schedule.window_ns;
    let give_up_ns = close_ns + COMMIT_DEADLINE.as_nanos() as u64;
    let mut commits = Commits::new(schedule, origin_ns);
    let mut seen = 0;
    let mut marks = Vec::with_capacity(SLICES + 1);
    let mut reference = Reference::new();
    let mut passes = Passes::default();
    let mut pass_ns = 0;
    let mut opened: Option<(Instant, SimCounters)> = None;
    let mut closed: Option<(f64, SimCounters)> = None;
    loop {
        let now_ns = sim.now().0 * NS_PER_TICK;
        let next_mark = open_ns + schedule.window_ns * marks.len() as u64 / SLICES as u64;
        if marks.len() <= SLICES && now_ns >= next_mark {
            marks.push((next_mark, thread_cpu_ns() - pass_ns));
            if marks.len() == 1 {
                opened = Some((Instant::now(), SimCounters::read(&sim)));
            } else if let (Some((wall, counters)), true) = (&opened, marks.len() > SLICES) {
                closed =
                    Some((wall.elapsed().as_secs_f64(), SimCounters::read(&sim).since(counters)));
            }
        }
        if (closed.is_some() && commits.committed == schedule.len()) || now_ns > give_up_ns {
            break;
        }
        let next_pass = passes.0.last().map_or(open_ns, |(at, _)| at + PASS_EVERY_NS);
        if opened.is_some() && closed.is_none() && now_ns >= next_pass {
            let ns = reference.pass();
            passes.0.push((now_ns, ns));
            pass_ns += ns;
        }
        if !sim.step() {
            break;
        }
        for record in &sim.outputs()[seen..] {
            let at = record.time.0 * NS_PER_TICK;
            replicas[record.node.index()].push(0, &record.output);
            commits.observe(record.node, &record.output, at, at);
        }
        seen = sim.outputs().len();
    }
    let (wall_s, window) = closed.unwrap_or_default();
    let total = SimCounters::read(&sim);
    ReplayRun { commits, replicas, open_ns, close_ns, marks, passes, wall_s, window, total }
}
