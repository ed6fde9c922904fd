//! Turns what a run observed into the named metrics and oracle verdicts.
//! Shared by both runtimes: the TCP runner reads wall-clock stamps, the
//! replay runner virtual ones, and both feed the same definitions.

use std::path::Path;
use std::time::Duration;

use tetrabft_ledger::LedgerReplica;
use tetrabft_store::NodeStore;
use tetrabft_types::{FsyncPolicy, NodeId, Slot};

use crate::calibrate::Passes;
use crate::commits::{Commits, UNSET};
use crate::report::Outcome;
use crate::schedule::Schedule;
use crate::spec::{FaultPlan, COMMIT_DEADLINE, DELTA_MS, N, SLICES};
use crate::stats::{median, percentile, ratio, slice_percentiles, sort};
use crate::tcp::node_dir;

/// Latency of every measured transaction as `(due offset into the
/// window, ms)`, a failed one reading as the commit deadline; plus how
/// many failed. Commits are on the clock `Commits` was built with.
fn latency_samples(schedule: &Schedule, commits: &Commits) -> (Vec<(u64, f64)>, u64) {
    let deadline_ms = COMMIT_DEADLINE.as_secs_f64() * 1e3;
    let mut failed = 0;
    let samples = (schedule.first_measured..schedule.len())
        .map(|i| {
            let ms = match commits.latency_ns[i] {
                UNSET => deadline_ms,
                ns => ns as f64 / 1e6,
            };
            if ms >= deadline_ms {
                failed += 1;
            }
            (schedule.due_ns[i] - schedule.warmup_ns, ms.min(deadline_ms))
        })
        .collect();
    (samples, failed)
}

/// The three latency metrics and `attempted`/`failed`. Percentiles are
/// the median, over the fault-free slices of the window, of the per-slice
/// percentile: all [`SLICES`] slices when the workload injects no fault,
/// the slices that end before the kill when it does. Everything due from
/// the kill to window close — the outage and the restarted node's
/// catch-up — is priced by the fault window's p99. Without a fault, the
/// fault window is the whole window.
///
/// (A median over all ten slices of `leader_crash` lands on the two worst
/// of its six clean slices, so one scheduler hiccup in any of them moved
/// it: `commit_p99_ms` read IQR ÷ median 0.28 over ten runs that way.)
pub fn latency_metrics(
    out: &mut Outcome,
    schedule: &Schedule,
    commits: &Commits,
    fault: Option<FaultPlan>,
) {
    let (samples, failed) = latency_samples(schedule, commits);
    out.attempted = samples.len() as u64;
    out.failed = failed;
    let (mut p50s, per_slice) = slice_percentiles(&samples, schedule.window_ns, SLICES, 50.0);
    let (mut p99s, _) = slice_percentiles(&samples, schedule.window_ns, SLICES, 99.0);
    let window = Duration::from_nanos(schedule.window_ns);
    let steady = fault.map_or(SLICES, |plan| plan.fault_free_slices(window, SLICES));
    out.notes.push(format!("per-slice p50 ms {p50s:.1?}, first {steady} count"));
    out.notes.push(format!("per-slice p99 ms {p99s:.1?}, first {steady} count"));
    let (p50, p99) = (median(&mut p50s[..steady]), median(&mut p99s[..steady]));
    let fault_p99 = fault.map(|plan| {
        let from = plan.kill.as_nanos() as u64;
        let mut inside: Vec<f64> =
            samples.iter().filter(|(at, _)| *at >= from).map(|s| s.1).collect();
        sort(&mut inside);
        out.notes.push(format!("fault window holds {} samples", inside.len()));
        percentile(&inside, 99.0)
    });
    out.notes.push(format!(
        "{} samples, smallest of {SLICES} slices {per_slice} (p99 leaves {} beyond it)",
        samples.len(),
        per_slice / 100
    ));
    out.set("commit_p50_ms", p50);
    out.set("commit_p99_ms", p99);
    out.set("fault_commit_p99_ms", fault_p99.unwrap_or(p99));
    out.set("multishot.commit_hops_p50", p50 / DELTA_MS as f64);
    out.set("loadgen.failed_share", ratio(failed as f64, samples.len() as f64));
}

/// What one slice of the window cost.
#[derive(Debug, Clone, Copy)]
pub struct SliceCost {
    /// Transactions that committed in the slice.
    pub committed: u64,
    /// On-CPU ns spent in it, as `schedstat` counted them.
    pub raw_cpu_ns: u64,
    /// How much slower than the reference box the host ran in it.
    pub slowdown: f64,
}

impl SliceCost {
    /// On-CPU ns at the reference box's quiet speed.
    pub fn cpu_ns(&self) -> f64 {
        self.raw_cpu_ns as f64 / self.slowdown
    }

    /// Calibrated on-CPU µs per committed transaction; not finite for a
    /// slice in which nothing committed.
    pub fn us_per_tx(&self) -> f64 {
        self.cpu_ns() / 1e3 / self.committed as f64
    }
}

/// The cost of each slice of the window. `marks` are the slice boundaries
/// as `(instant, cumulative on-CPU ns)` on the clock of `commits` and of
/// `passes`; a transaction belongs to the slice it committed in.
pub fn slice_costs(marks: &[(u64, u64)], commits: &Commits, passes: &Passes) -> Vec<SliceCost> {
    let mut committed = vec![0u64; marks.len().saturating_sub(1)];
    for i in 0..commits.latency_ns.len() {
        let Some(at) = commits.commit_instant(i) else { continue };
        let slice = marks.partition_point(|(mark, _)| *mark <= at);
        if (1..marks.len()).contains(&slice) {
            committed[slice - 1] += 1;
        }
    }
    let instants: Vec<u64> = marks.iter().map(|m| m.0).collect();
    let slowdown = passes.slowdown_per_slice(&instants);
    marks
        .windows(2)
        .zip(committed)
        .zip(slowdown)
        .map(|((pair, committed), slowdown)| SliceCost {
            committed,
            raw_cpu_ns: pair[1].1 - pair[0].1,
            slowdown,
        })
        .collect()
}

/// Sets `cpu_us_per_tx` — the median over `slices` of the calibrated cost
/// per transaction: a burst of host noise or a stalled chain moves one
/// slice — and `proc.host_slowdown`, and notes the raw figures.
pub fn cpu_metrics(out: &mut Outcome, slices: &[SliceCost]) {
    let raw: Vec<f64> =
        slices.iter().map(|s| s.raw_cpu_ns as f64 / 1e3 / s.committed as f64).collect();
    let mut slowdown: Vec<f64> = slices.iter().map(|s| s.slowdown).collect();
    let mut calibrated: Vec<f64> =
        slices.iter().map(SliceCost::us_per_tx).filter(|v| v.is_finite()).collect();
    out.notes.push(format!("per-slice raw CPU us/tx {raw:.1?}"));
    out.notes.push(format!("per-slice host slowdown {slowdown:.3?}"));
    out.notes.push(format!("per-slice calibrated CPU us/tx {calibrated:.1?}"));
    out.set("cpu_us_per_tx", median(&mut calibrated));
    out.set("proc.host_slowdown", median(&mut slowdown));
}

/// Block-level metrics over the slots that committed in `open..close`
/// (same clock as `commits`); `ns_per_ms` converts that clock to ms.
pub fn slot_metrics(out: &mut Outcome, commits: &Commits, open: u64, close: u64) -> SlotTotals {
    let slots: Vec<_> = commits.slots_in(open, close).collect();
    let blocks = slots.len() as f64;
    let txs: u64 = slots.iter().map(|s| u64::from(s.txs)).sum();
    let mut sizes: Vec<f64> =
        slots.iter().filter(|s| s.txs > 0).map(|s| f64::from(s.txs)).collect();
    let empty = slots.iter().filter(|s| s.txs == 0).count() as f64;
    let mut gaps: Vec<f64> =
        slots.windows(2).map(|p| (p[1].commit_ns - p[0].commit_ns) as f64 / 1e6).collect();
    let mut skews: Vec<f64> =
        slots.iter().filter_map(|s| s.quorum_skew_ns()).map(|ns| ns as f64 / 1e6).collect();
    sort(&mut skews);
    out.set("multishot.blocks_per_s", ratio(blocks, (close - open) as f64 / 1e9));
    out.set("multishot.txs_per_block_p50", median(&mut sizes));
    out.set("multishot.empty_block_share", ratio(empty, blocks));
    out.set("multishot.slot_interval_p50_ms", median(&mut gaps));
    out.set("multishot.finalize_skew_p99_ms", percentile(&skews, 99.0));
    SlotTotals { blocks: slots.len() as u64, txs }
}

/// Blocks and transactions committed inside the window.
#[derive(Debug, Clone, Copy)]
pub struct SlotTotals {
    pub blocks: u64,
    pub txs: u64,
}

/// Longest gap between consecutive commits inside `from..to`, ms: how long
/// the chain stood still (9Δ plus a few δ when a leader dies).
pub fn longest_gap_ms(commits: &Commits, from: u64, to: u64) -> f64 {
    let times: Vec<u64> = commits.slots_in(from, to).map(|s| s.commit_ns).collect();
    times.windows(2).map(|p| (p[1] - p[0]) as f64 / 1e6).fold(0.0, f64::max)
}

/// The ledger oracles — every replica agrees with replica 0 on every
/// root, and applied + rejected accounts for every finalized transaction —
/// plus the share of executed transactions that were rejected.
pub fn ledger_oracles(out: &mut Outcome, replicas: &[LedgerReplica], commits: &Commits) {
    let Some(reference) = replicas.first() else {
        out.set("ledger.rejected_share", 0.0);
        return;
    };
    let (mut applied, mut rejected) = (0u64, 0u64);
    for (i, replica) in replicas.iter().enumerate() {
        if let Err(e) = reference.cross_check(replica) {
            out.violations.push(format!("replica {i} diverged from replica 0: {e}"));
        }
        let finalized: u64 = commits.slots[..replica.receipts().len().min(commits.slots.len())]
            .iter()
            .map(|s| u64::from(s.txs))
            .sum();
        let (a, r) = replica
            .receipts()
            .iter()
            .fold((0u64, 0u64), |(a, r), rc| (a + rc.applied as u64, r + rc.rejected.len() as u64));
        out.require(a + r == finalized, || {
            format!("replica {i}: applied {a} + rejected {r} != finalized {finalized}")
        });
        applied += a;
        rejected += r;
    }
    out.set("ledger.rejected_share", ratio(rejected as f64, (applied + rejected) as f64));
}

/// Oracles every run shares: one hash per slot across nodes, every
/// committed transaction in exactly one slot, nothing finalized that was
/// not offered.
pub fn commit_oracles(out: &mut Outcome, commits: &Commits) {
    out.require(commits.hash_mismatches == 0, || {
        format!("{} finalizations disagreed with their slot's hash", commits.hash_mismatches)
    });
    out.require(commits.duplicate_txs == 0, || {
        format!("{} transactions were finalized in a second slot", commits.duplicate_txs)
    });
    out.require(commits.unknown_txs == 0, || {
        format!("{} finalized transactions were never offered", commits.unknown_txs)
    });
}

/// Node 0's chain log as re-opened after the run.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChainTip {
    pub slot: u64,
    pub hash: u64,
}

/// Re-opens the four WAL directories the (stopped) nodes wrote: every
/// chain log must carry the hash the outputs showed for each slot, and a
/// node that was killed must hold at least the `must_hold` slots that
/// had committed before. Also reads node 0's on-disk sizes.
pub fn store_oracles(
    out: &mut Outcome,
    commits: &Commits,
    run_dir: &Path,
    must_hold: Option<(NodeId, u64)>,
) -> ChainTip {
    let mut reference = ChainTip::default();
    for i in 0..N {
        let node = NodeId(i as u16);
        let store = match NodeStore::open(node_dir(run_dir, node), FsyncPolicy::Never) {
            Ok(store) => store,
            Err(e) => {
                out.violations.push(format!("node {i}: store does not re-open: {e}"));
                continue;
            }
        };
        let (tip, tip_hash) = store.chain_tip().map_or((0, 0), |(slot, hash)| (slot.0, hash));
        let wrong = (1..=tip.min(commits.slots.len() as u64))
            .filter(|s| store.chain_hash(Slot(*s)) != Some(commits.slots[*s as usize - 1].hash.0))
            .count();
        out.require(wrong == 0, || {
            format!("node {i}: {wrong} chain-log slots differ from the outputs")
        });
        if i == 0 {
            reference = ChainTip { slot: tip, hash: tip_hash };
            let txs: u64 = commits.slots.iter().take(tip as usize).map(|s| u64::from(s.txs)).sum();
            let on_disk = store.chain_bytes() + store.live_bytes() + store.mempool_bytes();
            out.set("store.chain_bytes_per_tx", ratio(store.chain_bytes() as f64, txs as f64));
            out.set("store.wal_bytes_per_tx", ratio(on_disk as f64, txs as f64));
            out.set("store.live_bytes", store.live_bytes() as f64);
        }
        if let Some((killed, before_kill)) = must_hold.filter(|(killed, _)| *killed == node) {
            out.require(tip >= before_kill, || {
                format!("restarted node {killed} holds {tip} slots, {before_kill} committed before the kill")
            });
        }
    }
    reference
}
