//! What a traced run adds: the stage split of the commit path from the
//! probes' stamps, where the engine's time goes from their timers, and
//! the trace file.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

use tetrabft_bench::AllocSnapshot;
use tetrabft_multishot::{Block, MsMessage};

use crate::commits::{Commits, UNSET};
use crate::probe::{NodeTrace, Traces};
use crate::report::Outcome;
use crate::schedule::Schedule;
use crate::spec::{Workload, CLIENT_NODES, DELTA_MS, N};
use crate::stats::{median, ratio};
use crate::OUT_DIR;

/// At most this many spans go to the trace file (evenly thinned).
const FILE_SPANS: usize = 20_000;

/// The probes' records, taken out of their locks once the nodes stopped.
pub struct Collected {
    pub nodes: Vec<NodeTrace>,
}

impl Collected {
    pub fn take(traces: &Traces) -> Collected {
        let nodes = traces
            .iter()
            .map(|t| std::mem::take(&mut *t.lock().expect("probe bookkeeping does not panic")))
            .collect();
        Collected { nodes }
    }

    pub fn sum(&self, field: impl Fn(&NodeTrace) -> u64) -> u64 {
        self.nodes.iter().map(field).sum()
    }

    /// Every message any probe sampled, and node 0's first non-empty blocks.
    pub fn samples(&self) -> (Vec<MsMessage>, &[Block]) {
        let msgs = self.nodes.iter().flat_map(|n| n.sample_msgs.iter().cloned()).collect();
        (msgs, &self.nodes[0].sample_blocks)
    }

    /// Per slot, the instant the f+1-th node emitted its `Finalized`.
    fn quorum_final(&self, slots: usize) -> Vec<u64> {
        let mut stamps: Vec<Vec<u64>> = vec![Vec::new(); slots + 1];
        for node in &self.nodes {
            for &(slot, at) in &node.finalized {
                if let Some(s) = stamps.get_mut(slot as usize) {
                    s.push(at);
                }
            }
        }
        stamps
            .into_iter()
            .map(|mut s| {
                s.sort_unstable();
                s.get(1).copied().unwrap_or(UNSET)
            })
            .collect()
    }
}

/// One transaction's path, every stamp on the run's clock (ns).
struct Span {
    tx: usize,
    due: u64,
    admit: u64,
    propose: u64,
    fin: u64,
    executed: u64,
}

/// Fills the stage-split, engine-time and tracing metrics, and writes
/// `benchmark/out/<workload>.trace.json`. `origin_ns` is the schedule's time
/// zero on the run's clock; `sent_ns` (TCP) is when the sender wrote each
/// transaction, relative to that origin. The stage medians are taken over
/// the transactions due before the workload's fault, if it injects one —
/// the same stretch `commit_p50_ms` is taken over, so they add up to it.
#[allow(clippy::too_many_arguments)]
pub fn report(
    out: &mut Outcome,
    w: &Workload,
    schedule: &Schedule,
    commits: &Commits,
    traced: &Collected,
    origin_ns: u64,
    sent_ns: Option<&[u64]>,
    allocs: Option<(AllocSnapshot, AllocSnapshot)>,
) {
    let quorum_final = traced.quorum_final(commits.slots.len());
    let mut spans = Vec::new();
    let mut committed = 0usize;
    for i in schedule.first_measured..schedule.len() {
        if commits.latency_ns[i] == UNSET {
            continue;
        }
        committed += 1;
        let node = &traced.nodes[CLIENT_NODES[schedule.conn[i] as usize].index()];
        let slot = commits.tx_slot[i] as usize;
        let (Some(&admit), Some(&propose)) =
            (node.admitted.get(&schedule.ids[i]), node.proposed.get(&schedule.ids[i]))
        else {
            continue;
        };
        let fin = quorum_final[slot];
        let executed = commits.slots[slot - 1].commit_ns;
        let due = origin_ns + schedule.due_ns[i];
        if fin == UNSET || !(due <= admit && admit <= propose && propose <= fin) {
            continue;
        }
        // The drain may see the nodes in another order than they emitted.
        spans.push(Span { tx: i, due, admit, propose, fin, executed: executed.max(fin) });
    }
    out.set("trace.span_coverage", ratio(spans.len() as f64, committed as f64));

    let steady_ns = w
        .fault_plan(Duration::from_nanos(schedule.window_ns))
        .map_or(schedule.window_ns, |plan| plan.kill.as_nanos() as u64);
    let steady_until = origin_ns + schedule.warmup_ns + steady_ns;
    let stage = |f: &dyn Fn(&Span) -> u64| {
        let mut ms: Vec<f64> =
            spans.iter().filter(|s| s.due < steady_until).map(|s| f(s) as f64 / 1e6).collect();
        median(&mut ms)
    };
    let propose_to_final = stage(&|s| s.fin - s.propose);
    out.set("net.due_to_admit_p50_ms", stage(&|s| s.admit - s.due));
    out.set("multishot.admit_to_propose_p50_ms", stage(&|s| s.propose - s.admit));
    out.set("multishot.propose_to_final_p50_ms", propose_to_final);
    out.set("multishot.propose_to_final_hops_p50", propose_to_final / DELTA_MS as f64);
    out.set("ledger.final_to_executed_p50_ms", stage(&|s| s.executed - s.fin));

    let events = traced.sum(|n| n.events);
    let txs = schedule.len() as f64;
    out.set("engine.handle_ns_per_event", ratio(traced.sum(|n| n.handle_ns) as f64, events as f64));
    out.set(
        "multishot.accept_ns_per_tx",
        ratio(traced.sum(|n| n.accept_ns) as f64, traced.sum(|n| n.accepts) as f64),
    );
    out.set(
        "store.persist_us_per_seal",
        ratio(traced.sum(|n| n.persist_ns) as f64 / 1e3, traced.sum(|n| n.seals) as f64),
    );
    let probe = traced.sum(|n| n.probe_ns) as f64;
    let engine = traced.sum(|n| n.handle_ns + n.accept_ns + n.persist_ns) as f64;
    out.set("trace.overhead_share", ratio(probe, engine + probe));
    if let Some((before, after)) = allocs {
        out.set(
            "engine.allocs_per_event",
            ratio((after.allocs - before.allocs) as f64, events as f64),
        );
        out.set("engine.alloc_bytes_per_tx", ratio((after.bytes - before.bytes) as f64, txs));
    }

    if let Err(e) = write_file(w.name, schedule, traced, &spans, sent_ns, origin_ns) {
        out.notes.push(format!("trace file not written: {e}"));
    }
}

/// The trace file: per-node totals, then one object per (sampled)
/// transaction with its stamps as ns since the schedule's time zero.
fn write_file(
    workload: &str,
    schedule: &Schedule,
    traced: &Collected,
    spans: &[Span],
    sent_ns: Option<&[u64]>,
    origin_ns: u64,
) -> std::io::Result<()> {
    let mut json = String::from("{\"nodes\": [");
    for (i, n) in traced.nodes.iter().enumerate().take(N) {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}{{\"node\": {i}, \"events\": {}, \"handle_ns\": {}, \"accepts\": {}, \"accept_ns\": {}, \
             \"seals\": {}, \"persist_ns\": {}, \"probe_ns\": {}, \"msgs_sent\": {}, \"bytes_sent\": {}, \
             \"engine_tids\": {:?}}}",
            n.events, n.handle_ns, n.accepts, n.accept_ns, n.seals, n.persist_ns, n.probe_ns,
            n.msgs_sent, n.bytes_sent, n.tids
        );
    }
    json.push_str("],\n\"spans\": [\n");
    let step = spans.len().div_ceil(FILE_SPANS).max(1);
    for (k, s) in spans.iter().step_by(step).enumerate() {
        let sep = if k == 0 { "" } else { ",\n" };
        let rel = |at: u64| at.saturating_sub(origin_ns);
        let _ = write!(
            json,
            "{sep}{{\"tx\": \"{:016x}\", \"node\": {}, \"due\": {}, \"sent\": {}, \"admit\": {}, \
             \"propose\": {}, \"final\": {}, \"executed\": {}}}",
            schedule.ids[s.tx].0,
            CLIENT_NODES[schedule.conn[s.tx] as usize].0,
            rel(s.due),
            sent_ns.map_or(rel(s.due), |sent| sent[s.tx]),
            rel(s.admit),
            rel(s.propose),
            rel(s.fin),
            rel(s.executed)
        );
    }
    json.push_str("\n]}\n");
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(Path::new(OUT_DIR).join(format!("{workload}.trace.json")), json)
}
