//! Real deployment: a localhost TCP cluster running single-shot TetraBFT
//! and then a multi-shot blockchain — the same state machines the simulator
//! verifies, now over actual sockets with wall-clock timers.
//!
//! ```sh
//! cargo run --example tcp_cluster
//! ```

use tetrabft_net::Cluster;
use tetrabft_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = Config::new(4)?;

    println!("— single-shot consensus over TCP —");
    let started = std::time::Instant::now();
    let mut cluster = Cluster::spawn(4, |id| {
        TetraNode::new(cfg, Params::new(300), id, Value::from_u64(40 + u64::from(id.0)))
    })?;
    for _ in 0..4 {
        let (node, value) = cluster.next_output().expect("decision");
        println!("  {node} decided {value} after {:?}", started.elapsed());
    }
    drop(cluster);

    println!("\n— multi-shot blockchain over TCP —");
    let (mut chain_cluster, submitters) =
        Cluster::spawn_submitting(4, |id| MultiShotNode::new(cfg, Params::new(300), id))?;
    // Client transactions enter the running cluster on each node's one
    // thread, in the same input queue as deliveries and timer firings.
    for (i, handle) in submitters.iter().enumerate() {
        handle.submit(format!("client-tx-{i}").into_bytes()).expect("cluster is live");
    }
    let mut finalized = 0;
    while finalized < 12 {
        let (node, fin) = chain_cluster.next_output().expect("finalization");
        if node == NodeId(0) {
            println!(
                "  node 0 finalized slot {:>2} {} ({} txs)",
                fin.slot.0,
                fin.hash,
                fin.block.txs.len()
            );
            finalized += 1;
        }
    }
    println!("\n12 blocks finalized over real sockets — no cryptography involved.");
    Ok(())
}
