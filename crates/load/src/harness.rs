//! The measurement harness: spawns a sharded serving cluster, points a
//! client fleet at it, bridges finalizations back to the fleet, and
//! assembles one [`LoadReport`] per load point.

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_multishot::{MultiShotNode, TxId};
use tetrabft_net::ClusterBuilder;
use tetrabft_types::Config;

use crate::fleet::{spawn_fleet, FleetMsg, FleetSpec};
use crate::report::{assemble, LoadReport};

/// How long a drainer blocks per poll of its shard's output channel.
const DRAIN_TICK: Duration = Duration::from_millis(50);

/// After the submit window, how long the harness keeps forwarding late
/// finalizations before closing the fleet down.
const GRACE: Duration = Duration::from_secs(5);

/// The window counts as drained once no transaction has finalized for
/// this long past the deadline.
const QUIET: Duration = Duration::from_millis(750);

/// Sample spacing for the pre-GO health barrier: every shard must
/// finalize at least one new slot inside one tick to count as live.
const HEALTH_TICK: Duration = Duration::from_millis(100);

/// Give up waiting for chain health after this long and start the
/// window anyway (best effort; the report will show the damage).
const HEALTH_CAP: Duration = Duration::from_secs(30);

/// One load point's worth of configuration.
#[derive(Debug, Clone)]
pub struct LoadOptions {
    /// Independent consensus shards (one TCP cluster each).
    pub shards: usize,
    /// Replicas per shard.
    pub nodes_per_shard: usize,
    /// Concurrent client connections across the whole fleet.
    pub clients: usize,
    /// Aggregate offered load, tx/s across all clients.
    pub rate_tps: u64,
    /// Submit window length.
    pub duration: Duration,
    /// Transaction payload size in bytes.
    pub payload_bytes: usize,
    /// Consensus `δ` (ms) for the nodes' view timeouts.
    pub delta_ms: u64,
    /// Seed for the fleet's arrival process.
    pub seed: u64,
}

impl LoadOptions {
    /// A small single-shard configuration; override fields as needed.
    #[must_use]
    pub fn new(clients: usize, rate_tps: u64, duration: Duration) -> LoadOptions {
        LoadOptions {
            shards: 1,
            nodes_per_shard: 4,
            clients,
            rate_tps,
            duration,
            payload_bytes: 64,
            // Loopback: a small Δ keeps the 9Δ view timeout — the price
            // of a stall under CPU contention — well under a window.
            delta_ms: 100,
            seed: 7,
        }
    }
}

/// Runs one load point end to end and reports it.
///
/// Spawns `shards` independent serving TCP clusters, dials
/// `opts.clients` open-loop clients at them (round-robin over every
/// node), offers `opts.rate_tps` aggregate for `opts.duration`, and
/// matches finalized [`TxId`]s back to submissions for commit-latency
/// percentiles.
///
/// # Errors
///
/// Fails if the clusters or the fleet cannot be spawned, or the fleet
/// thread panics.
pub fn run_load(opts: &LoadOptions) -> io::Result<LoadReport> {
    let cfg = Config::new(opts.nodes_per_shard)
        .map_err(|e| io::Error::other(format!("bad shard size: {e}")))?;
    let params = Params::new(opts.delta_ms)
        .with_mempool_capacity(1 << 17)
        .with_max_block_txs(4096)
        .with_max_tx_bytes(opts.payload_bytes.max(64))
        // Idle chains free-run empty blocks at CPU speed — across
        // `shards × nodes` engines that is enough to starve each other
        // (and the fleet) into view timeouts on a small box. Pacing
        // empty proposals a few ms apart keeps the idle burn negligible
        // at the cost of that pause on the first tx after a lull.
        .with_idle_pacing(5);

    let mut clusters = Vec::with_capacity(opts.shards);
    let mut addrs = Vec::new();
    for _ in 0..opts.shards {
        let ((cluster, _handles), _control) = ClusterBuilder::new(opts.nodes_per_shard)
            .spawn_serving(|id| MultiShotNode::new(cfg, params, id))
            .map_err(|e| io::Error::other(format!("shard spawn failed: {e}")))?;
        addrs.extend(cluster.topology().addrs().iter().copied());
        clusters.push(cluster);
    }

    // One drainer thread per shard, started *before* the fleet dials:
    // the chains free-run from the moment they spawn (empty blocks at
    // full tilt), and an undrained output channel grows by tens of
    // thousands of finalizations per second — a drainer that starts
    // after the dial phase never catches back up to real time, and the
    // submitted transactions' finalizations rot at the tail of the
    // queue. Each drainer dedups the n per-node copies of a slot down
    // to one (nodes emit slots in strictly increasing order, so a
    // high-watermark forwards every slot exactly once, at its earliest
    // appearance), tallies the submit window's blocks/txs, and forwards
    // only non-empty blocks to the matching loop below.
    let stop = Arc::new(AtomicBool::new(false));
    let counting = Arc::new(AtomicBool::new(false));
    let tallies: Arc<Vec<(AtomicU64, AtomicU64)>> =
        Arc::new((0..opts.shards).map(|_| (AtomicU64::new(0), AtomicU64::new(0))).collect());
    let watermarks: Arc<Vec<AtomicU64>> =
        Arc::new((0..opts.shards).map(|_| AtomicU64::new(0)).collect());
    let (fin_tx, fin_rx) = mpsc::channel::<(usize, Vec<u64>)>();
    let drainers: Vec<_> = clusters
        .into_iter()
        .enumerate()
        .map(|(shard, mut cluster)| {
            let fin_tx = fin_tx.clone();
            let stop = Arc::clone(&stop);
            let counting = Arc::clone(&counting);
            let tallies = Arc::clone(&tallies);
            let watermarks = Arc::clone(&watermarks);
            std::thread::spawn(move || {
                let mut watermark = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    if let Some((_, fin)) = cluster.next_output_timeout(DRAIN_TICK) {
                        if fin.slot.0 > watermark {
                            watermark = fin.slot.0;
                            watermarks[shard].store(watermark, Ordering::Relaxed);
                            if counting.load(Ordering::Relaxed) {
                                let (blocks, txs) = &tallies[shard];
                                blocks.fetch_add(1, Ordering::Relaxed);
                                txs.fetch_add(fin.block.txs.len() as u64, Ordering::Relaxed);
                            }
                            if !fin.block.txs.is_empty() {
                                let ids = fin.block.txs.iter().map(|tx| TxId::of(tx).0).collect();
                                if fin_tx.send((shard, ids)).is_err() {
                                    return;
                                }
                            }
                        }
                    }
                }
            })
        })
        .collect();
    drop(fin_tx);

    let spec = FleetSpec {
        addrs,
        clients: opts.clients,
        rate_tps: opts.rate_tps,
        duration: opts.duration,
        payload_bytes: opts.payload_bytes,
        seed: opts.seed,
    };
    // `spawn_fleet` returns once every client has dialed; the report's
    // `connected` is the (possibly lower) count *sustained* to the end of
    // the run.
    let (link, fleet) = spawn_fleet(spec)?;

    // Pre-GO health barrier. The dial ramp above is the most contended
    // stretch of the whole run — hundreds of simultaneous connects
    // racing the free-running chains for CPU — and can push a shard
    // into a view change whose 9Δ timeout outlives the submit window.
    // Hold GO until every shard finalized a fresh slot within one tick,
    // i.e. every chain is live again and every drainer is at real time.
    let barrier_cap = Instant::now() + HEALTH_CAP;
    loop {
        let before: Vec<u64> = watermarks.iter().map(|w| w.load(Ordering::Relaxed)).collect();
        std::thread::sleep(HEALTH_TICK);
        let live = watermarks.iter().zip(&before).all(|(w, b)| w.load(Ordering::Relaxed) > *b);
        if live || Instant::now() >= barrier_cap {
            break;
        }
    }

    counting.store(true, Ordering::Relaxed);
    link.send(FleetMsg::Go);
    let started = Instant::now();
    let deadline = started + opts.duration;

    let mut last_tx_seen = started;
    loop {
        let now = Instant::now();
        if now >= deadline + GRACE {
            break;
        }
        if now >= deadline && now.duration_since(last_tx_seen) >= QUIET {
            break;
        }
        match fin_rx.recv_timeout(DRAIN_TICK) {
            Ok((_, ids)) => {
                last_tx_seen = Instant::now();
                for id in ids {
                    link.send(FleetMsg::Finalized(TxId(id)));
                }
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
    }
    counting.store(false, Ordering::Relaxed);

    // Closing the channel ends the fleet's run.
    drop(link);
    let fleet_report = fleet.join().map_err(|_| io::Error::other("fleet thread panicked"))?;
    stop.store(true, Ordering::Relaxed);
    for drainer in drainers {
        let _ = drainer.join();
    }

    let shard_blocks: Vec<u64> =
        tallies.iter().map(|(blocks, _)| blocks.load(Ordering::Relaxed)).collect();
    let shard_txs: Vec<u64> = tallies.iter().map(|(_, txs)| txs.load(Ordering::Relaxed)).collect();

    Ok(assemble(opts.rate_tps, opts.duration, &fleet_report, &shard_txs, &shard_blocks))
}

/// Runs [`run_load`] once per offered rate, reusing `base` for
/// everything else — the saturation sweep.
///
/// # Errors
///
/// As [`run_load`].
pub fn sweep(base: &LoadOptions, rates: &[u64]) -> io::Result<Vec<LoadReport>> {
    rates.iter().map(|&rate_tps| run_load(&LoadOptions { rate_tps, ..base.clone() })).collect()
}
