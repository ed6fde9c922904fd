//! Measurement results: latency percentiles, per-shard utilization and
//! the saturation knee.

use std::time::Duration;

/// One load point: what was offered, what the cluster finalized, and
/// what the commit latency distribution looked like.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Aggregate offered load (tx/s) across the fleet.
    pub offered_tps: u64,
    /// Clients that completed the handshake and submitted.
    pub connected: u64,
    /// Transactions submitted during the window.
    pub submitted: u64,
    /// Submitted transactions matched to a finalization.
    pub confirmed: u64,
    /// Finalized throughput actually achieved, tx/s.
    pub achieved_tps: f64,
    /// Median commit latency, microseconds.
    pub p50_us: u32,
    /// 99th-percentile commit latency, microseconds.
    pub p99_us: u32,
    /// 99.9th-percentile commit latency, microseconds.
    pub p999_us: u32,
    /// High-water mark of in-flight (unconfirmed) transactions.
    pub inflight_hwm: u64,
    /// Per-shard share of the finalized traffic.
    pub per_shard: Vec<ShardUtil>,
}

/// How much of a run's finalized traffic one shard carried.
#[derive(Debug, Clone)]
pub struct ShardUtil {
    /// Shard index.
    pub shard: usize,
    /// Transactions this shard finalized during the window.
    pub txs: u64,
    /// Blocks this shard finalized during the window.
    pub blocks: u64,
    /// This shard's fraction of all finalized transactions.
    pub share: f64,
}

/// `p`-th percentile (0 < p < 100) of a latency sample set, nearest-rank
/// on a sorted copy. Returns 0 for an empty set.
#[must_use]
pub fn percentile_us(samples: &[u32], p: f64) -> u32 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the saturation knee in a rate-ordered sweep: the first load
/// point where the cluster either finalizes less than 90% of what was
/// offered, or let the in-flight backlog grow past one full second's
/// worth of offered load. The second clause catches open-loop saturation
/// that the first one misses: the post-window grace drain can push
/// *confirmed* back over 90% even while the queue was growing without
/// bound — but an unbounded queue always leaves a backlog high-water
/// mark of the order `(offered − capacity) × window`, several seconds of
/// offered load, while everything short of saturation (steady-state
/// in-flight population, even a one-off view-change stall) stays well
/// under a second's worth. Returns `reports.len()` if no point
/// saturated.
#[must_use]
pub fn knee_index(reports: &[LoadReport]) -> usize {
    reports
        .iter()
        .position(|r| r.achieved_tps < 0.9 * r.offered_tps as f64 || r.inflight_hwm > r.offered_tps)
        .unwrap_or(reports.len())
}

/// Builds a [`LoadReport`] from a fleet report plus per-shard tallies.
#[must_use]
pub fn assemble(
    offered_tps: u64,
    duration: Duration,
    fleet: &crate::FleetReport,
    shard_txs: &[u64],
    shard_blocks: &[u64],
) -> LoadReport {
    let total: u64 = shard_txs.iter().sum::<u64>().max(1);
    let per_shard = shard_txs
        .iter()
        .zip(shard_blocks)
        .enumerate()
        .map(|(shard, (&txs, &blocks))| ShardUtil {
            shard,
            txs,
            blocks,
            share: txs as f64 / total as f64,
        })
        .collect();
    LoadReport {
        offered_tps,
        connected: fleet.connected,
        submitted: fleet.submitted,
        confirmed: fleet.confirmed,
        achieved_tps: fleet.confirmed as f64 / duration.as_secs_f64(),
        p50_us: percentile_us(&fleet.samples_us, 50.0),
        p99_us: percentile_us(&fleet.samples_us, 99.0),
        p999_us: percentile_us(&fleet.samples_us, 99.9),
        inflight_hwm: fleet.inflight_hwm,
        per_shard,
    }
}
