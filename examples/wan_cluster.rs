//! WAN-conditioned blockchain cluster: topology and link plan come from
//! the environment, and per-slot commit latencies are printed so the
//! responsiveness claim can be eyeballed against the injected delay.
//!
//! ```sh
//! # Defaults: 4 nodes on OS-assigned localhost ports, 30 ms WAN links.
//! cargo run --release --example wan_cluster
//!
//! # Explicit topology, custom conditioning, a scripted partition:
//! TETRABFT_TOPOLOGY="127.0.0.1:5101,127.0.0.1:5102,127.0.0.1:5103,127.0.0.1:5104" \
//! TETRABFT_LINK="delay=40,jitter=8,drop=0.001" \
//! TETRABFT_PARTITION="800..1600:0" \
//! TETRABFT_SLOTS=16 cargo run --release --example wan_cluster
//! ```

use std::time::{Duration, Instant};

use tetrabft_net::{ClusterBuilder, EdgeSpec, LinkPlan, PartitionWindow, Topology};
use tetrabft_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- scenario from the environment ---------------------------------
    let spec: EdgeSpec = match std::env::var("TETRABFT_LINK") {
        Ok(s) => s.parse()?,
        Err(_) => EdgeSpec::delay(30).with_jitter(3),
    };
    let mut plan = LinkPlan::uniform(spec);
    if let Ok(s) = std::env::var("TETRABFT_PARTITION") {
        let window: PartitionWindow = s.parse()?;
        plan = plan.partition(window);
    }
    let topology = match std::env::var("TETRABFT_TOPOLOGY") {
        Ok(s) => Some(Topology::parse(&s)?),
        Err(_) => None,
    };
    let slots: u64 =
        std::env::var("TETRABFT_SLOTS").ok().and_then(|s| s.parse().ok()).unwrap_or(12);

    let n = topology.as_ref().map_or(4, Topology::len);
    let cfg = Config::new(n)?;
    // Δ = 5 s: the 45 s view timeout towers over every injected delay, so
    // any latency printed below is the network's doing, not the timer's.
    let params = Params::new(5_000).with_max_block_txs(8);

    let mut builder = ClusterBuilder::new(n).plan(plan);
    if let Some(t) = topology {
        println!("topology: {t}");
        builder = builder.topology(t);
    } else {
        println!("topology: {n} nodes on OS-assigned localhost ports");
    }
    println!(
        "links: {} ms +{} ms jitter, drop {:.3}%\n",
        spec.delay_ms,
        spec.jitter_ms,
        spec.drop_ppm as f64 / 10_000.0
    );

    // ---- run ------------------------------------------------------------
    let started = Instant::now();
    let ((mut cluster, submitters), net) =
        builder.spawn_serving(|id| MultiShotNode::new(cfg, params, id))?;
    for (i, handle) in submitters.iter().enumerate() {
        for t in 0..4 {
            handle.submit(format!("client-{i}-tx-{t}").as_bytes())?;
        }
    }

    println!("slot | txs | commit at (ms) | slot latency (ms)");
    let mut last_commit = started.elapsed();
    let mut seen = 0u64;
    while seen < slots {
        let Some((node, fin)) = cluster.next_output_timeout(Duration::from_secs(60)) else {
            eprintln!("no finalization within 60 s — is the partition window permanent?");
            break;
        };
        if node != NodeId(0) {
            continue;
        }
        let at = started.elapsed();
        println!(
            "{:>4} | {:>3} | {:>14} | {:>17}",
            fin.slot.0,
            fin.block.txs.len(),
            at.as_millis(),
            at.saturating_sub(last_commit).as_millis()
        );
        last_commit = at;
        seen += 1;
    }

    let stats = net.stats();
    println!(
        "\nlink layer: {} reconnects, {} frames resent, {} dropped by policy, {} shed",
        stats.reconnects, stats.frames_resent, stats.frames_dropped, stats.frames_shed
    );
    println!(
        "reactors: {} poll wakeups, send-queue depth HWM {}, {} B in / {} B out",
        stats.poll_wakeups, stats.send_queue_hwm, stats.bytes_in, stats.bytes_out
    );
    for t in net.peer_traffic() {
        println!("  peer {}: {} B in / {} B out", t.peer.0, t.bytes_in, t.bytes_out);
    }
    println!(
        "{seen} slots finalized; with a 45 s view timeout, every slot above committed at \
         network speed."
    );
    Ok(())
}
