//! The result one run prints: every metric of `BENCHMARK.json` by name
//! with its unit, the attempted/failed counts, and the conjunction of the
//! oracles.

use std::collections::BTreeMap;
use std::fmt::Write;

/// The end-to-end metrics, in `BENCHMARK.json` order: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("commit_p50_ms", "ms"),
    ("commit_p99_ms", "ms"),
    ("fault_commit_p99_ms", "ms"),
    ("committed_tps", "tx/s"),
    ("cpu_us_per_tx", "us"),
    ("setup_s", "s"),
];

/// The per-layer metrics, in `BENCHMARK.json` order: `(name, unit)`.
/// Every traced run prints all of them; one that a workload has no
/// source for (the network under `Sim`, the ledger on `bulk`) reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    // Counters any run can take.
    ("proc.host_slowdown", "ratio"),
    ("net.bytes_out_per_tx", "B"),
    ("net.poll_wakeups_per_block", "count"),
    ("net.send_queue_hwm", "count"),
    ("net.reconnects", "count"),
    ("net.frames_resent", "count"),
    ("net.frames_shed", "count"),
    ("net.frames_dropped_stale", "count"),
    ("proc.sys_share", "ratio"),
    ("proc.ctx_switches_per_tx", "count"),
    ("proc.peak_rss_mb", "MiB"),
    ("multishot.outage_ms", "ms"),
    ("multishot.rejoin_ms", "ms"),
    ("multishot.blocks_per_s", "1/s"),
    ("multishot.txs_per_block_p50", "count"),
    ("multishot.empty_block_share", "ratio"),
    ("multishot.slot_interval_p50_ms", "ms"),
    ("multishot.finalize_skew_p99_ms", "ms"),
    ("multishot.commit_hops_p50", "count"),
    ("store.chain_bytes_per_tx", "B"),
    ("store.live_bytes", "B"),
    ("ledger.exec_us_per_tx", "us"),
    ("ledger.exec_busy_share", "ratio"),
    ("ledger.rejected_share", "ratio"),
    ("loadgen.late_p99_ms", "ms"),
    ("loadgen.cpu_share", "ratio"),
    ("loadgen.achieved_over_offered", "ratio"),
    ("loadgen.failed_share", "ratio"),
    // Exact counts (identical across runs of a seed on `replay`).
    ("core.msgs_per_block", "count"),
    ("core.viewchange_msgs", "count"),
    ("wire.msg_bytes_per_block", "B"),
    ("engine.events_per_block", "count"),
    ("store.wal_bytes_per_tx", "B"),
    // Stage split of the commit path, from the probe's stamps.
    ("net.due_to_admit_p50_ms", "ms"),
    ("multishot.admit_to_propose_p50_ms", "ms"),
    ("multishot.propose_to_final_p50_ms", "ms"),
    ("multishot.propose_to_final_hops_p50", "count"),
    ("ledger.final_to_executed_p50_ms", "ms"),
    // Where the CPU goes, from the probe's timers and thread ids.
    ("engine.handle_ns_per_event", "ns"),
    ("engine.cpu_us_per_tx", "us"),
    ("net.reactor_cpu_us_per_tx", "us"),
    ("multishot.accept_ns_per_tx", "ns"),
    ("store.persist_us_per_seal", "us"),
    // Timed direct calls on inputs recorded from the workload.
    ("wire.msg_codec_ns_per_msg", "ns"),
    ("wire.frame_codec_ns_per_tx", "ns"),
    ("store.record_votes_us", "us"),
    ("store.append_block_us_per_kib", "us"),
    ("store.save_mempool_us_per_ktx", "us"),
    ("store.fsync_ms", "ms"),
    ("store.open_ms_per_kblock", "ms"),
    ("ledger.apply_ns_per_tx", "ns"),
    ("ledger.root_us_per_block", "us"),
    ("engine.allocs_per_event", "count"),
    ("engine.alloc_bytes_per_tx", "B"),
    // The tracing itself.
    ("trace.overhead_share", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// A run's result. `correct` is the conjunction of every oracle; each
/// oracle that failed says why in `violations` (printed to stderr).
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    pub violations: Vec<String>,
    /// Human-readable context (sample counts, the replay digest); stderr.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records metric `name`, which must be one `BENCHMARK.json` lists.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(known, _)| *known == name),
            "{name} is not a metric of the benchmark"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Checks one oracle, recording `why` if it does not hold.
    pub fn require(&mut self, holds: bool, why: impl FnOnce() -> String) {
        if !holds {
            self.violations.push(why());
        }
    }

    /// The one-line JSON object the contract asks for: the end-to-end
    /// metrics of an untraced run, the per-layer metrics of a traced one.
    pub fn to_json(&self, traced: bool) -> String {
        let metrics: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, unit)) in metrics.iter().enumerate() {
            let value = Some(self.get(name)).filter(|v| v.is_finite()).unwrap_or(0.0);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}
