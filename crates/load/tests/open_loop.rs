//! End-to-end exercise of the open-loop harness at a deliberately tiny
//! scale: a real serving TCP cluster, a real client fleet over the
//! `polling` shim, real commit-latency samples.

use std::time::Duration;

use tetrabft_load::{knee_index, percentile_us, run_load, sweep, LoadOptions, LoadReport};

fn point(offered_tps: u64, achieved_tps: f64, inflight_hwm: u64) -> LoadReport {
    LoadReport {
        offered_tps,
        connected: 1,
        submitted: offered_tps,
        confirmed: offered_tps,
        achieved_tps,
        p50_us: 1,
        p99_us: 2,
        p999_us: 3,
        inflight_hwm,
        per_shard: Vec::new(),
    }
}

#[test]
fn knee_flags_throughput_and_backlog_saturation() {
    // Pure throughput shortfall.
    assert_eq!(knee_index(&[point(100, 99.0, 3), point(200, 150.0, 9)]), 1);
    // Grace-masked saturation: confirmed catches back up, but the
    // backlog high-water mark betrays the growing queue.
    assert_eq!(knee_index(&[point(100, 99.0, 3), point(200, 199.0, 600)]), 1);
    // A one-off stall's backlog (well under a second of offered load)
    // does not count as a knee.
    assert_eq!(knee_index(&[point(100, 99.0, 48), point(200, 199.0, 9)]), 2);
}

#[test]
fn percentiles_are_nearest_rank() {
    let samples: Vec<u32> = (1..=100).collect();
    assert_eq!(percentile_us(&samples, 50.0), 50);
    assert_eq!(percentile_us(&samples, 99.0), 99);
    assert_eq!(percentile_us(&samples, 99.9), 100);
    assert_eq!(percentile_us(&[], 50.0), 0);
    assert_eq!(percentile_us(&[42], 99.9), 42);
}

#[test]
fn small_open_loop_run_confirms_submissions() {
    let mut opts = LoadOptions::new(16, 120, Duration::from_secs(2));
    opts.delta_ms = 400;
    let report = run_load(&opts).expect("load point runs");

    assert_eq!(report.connected, 16, "every client handshakes");
    assert!(report.submitted > 0, "open loop submitted transactions");
    // The cluster is idle at 120 tx/s: essentially everything offered
    // inside the window must finalize (the tail that was still in
    // flight at the deadline is bounded by the grace drain).
    assert!(
        report.confirmed * 10 >= report.submitted * 9,
        "expected >=90% confirmed, got {}/{}",
        report.confirmed,
        report.submitted
    );
    assert!(report.p50_us > 0 && report.p50_us <= report.p99_us);
    assert_eq!(report.per_shard.len(), 1);
    assert_eq!(report.per_shard[0].txs, report.confirmed);

    // An unsaturated single point has its knee past the end.
    assert_eq!(knee_index(&[report]), 1);
}

#[test]
fn p99_is_flat_below_the_knee_and_the_fleet_is_sustained() {
    // Two load points far below saturation, 200 clients over 2 shards × 4
    // nodes: latency must be a property of the protocol, not of the queue.
    let mut base = LoadOptions::new(200, 0, Duration::from_secs(3));
    base.shards = 2;
    let reports = sweep(&base, &[150, 300]).expect("saturation sweep runs");

    for report in &reports {
        assert_eq!(
            report.connected, 200,
            "every client must stay connected through the {} tx/s point",
            report.offered_tps
        );
        assert!(report.submitted > 0, "open loop must submit");
    }

    let knee = knee_index(&reports);
    assert!(knee >= 1, "the lowest offered rate must be below the saturation knee");
    let below = &reports[..knee];
    let p99_min = below.iter().map(|r| r.p99_us).min().expect("non-empty");
    let p99_max = below.iter().map(|r| r.p99_us).max().expect("non-empty");
    // Within 2× of the best point, plus one 9Δ view timeout: on a contended
    // box the scheduler can stall a shard into a single view change, which
    // parks a tail of that window's transactions and says nothing about
    // queueing.
    let stall_us = u32::try_from(9 * base.delta_ms * 1000).expect("small delta");
    assert!(
        p99_max <= p99_min.saturating_mul(2).saturating_add(stall_us),
        "p99 must stay flat (within 2x + one view timeout) below the knee: \
         min {p99_min}us max {p99_max}us"
    );
}
