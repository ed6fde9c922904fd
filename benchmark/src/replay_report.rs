//! Metrics and oracles of one replay run.

use std::path::Path;

use crate::measure::{
    commit_oracles, cpu_metrics, latency_metrics, ledger_oracles, slice_costs, slot_metrics,
    store_oracles,
};
use crate::procfs::peak_rss_mb;
use crate::replay::ReplayRun;
use crate::report::Outcome;
use crate::schedule::Schedule;
use crate::spec::CLIENT_NODES;
use crate::stats::ratio;

/// How many injection timer events fell in the window: one per node per
/// virtual ms that has arrivals for it. They are the benchmark's events,
/// not the engine's, and come off `engine.events_per_block`.
fn injections_in_window(schedule: &Schedule) -> u64 {
    let mut last_tick = [u64::MAX; CLIENT_NODES.len()];
    let mut count = 0;
    for i in schedule.first_measured..schedule.len() {
        let tick = schedule.due_ns[i].div_ceil(1_000_000);
        let conn = schedule.conn[i] as usize;
        if tick < (schedule.warmup_ns + schedule.window_ns) / 1_000_000 && last_tick[conn] != tick {
            last_tick[conn] = tick;
            count += 1;
        }
    }
    count
}

/// Fills `out` from what `run` observed; `run_dir` still holds the four
/// WAL directories.
pub fn report(out: &mut Outcome, schedule: &Schedule, run: &ReplayRun, run_dir: &Path) {
    let commits = &run.commits;
    latency_metrics(out, schedule, commits, None);
    // Fixed work in virtual time: what a change can move is how long the
    // one driving thread is on the CPU for it.
    let slices = slice_costs(&run.marks, commits, &run.passes);
    cpu_metrics(out, &slices);
    let committed: u64 = slices.iter().map(|s| s.committed).sum();
    let cpu_s: f64 = slices.iter().map(|s| s.cpu_ns() / 1e9).sum();
    out.set("committed_tps", ratio(committed as f64, cpu_s));
    out.set("proc.peak_rss_mb", peak_rss_mb());
    out.set("loadgen.achieved_over_offered", 1.0);
    out.notes.push(format!(
        "window took {:.3} s of wall time, {:.3} s on CPU",
        run.wall_s,
        run.marks.last().map_or(0, |m| m.1).saturating_sub(run.marks.first().map_or(0, |m| m.1))
            as f64
            / 1e9
    ));

    let totals = slot_metrics(out, commits, run.open_ns, run.close_ns);
    let blocks = totals.blocks as f64;
    out.set("core.msgs_per_block", ratio(run.window.msgs as f64, blocks));
    out.set("core.viewchange_msgs", run.window.viewchange_msgs as f64);
    out.set("wire.msg_bytes_per_block", ratio(run.window.bytes as f64, blocks));
    let events = run.window.events.saturating_sub(injections_in_window(schedule));
    out.set("engine.events_per_block", ratio(events as f64, blocks));

    commit_oracles(out, commits);
    ledger_oracles(out, &run.replicas, commits);
    let tip = store_oracles(out, commits, run_dir, None);
    // Identical on every run of a seed, different for another seed.
    out.notes.push(format!(
        "digest tip={}:{:016x} root={} msgs={} bytes={}",
        tip.slot,
        tip.hash,
        run.replicas[0].root(),
        run.total.msgs,
        run.total.bytes
    ));
}
