//! Real deployment: a localhost TCP cluster running single-shot TetraBFT
//! and then a multi-shot blockchain — the same state machines the simulator
//! verifies, now over actual sockets with wall-clock timers.
//!
//! ```sh
//! cargo run --example tcp_cluster
//! ```

use tetrabft_net::ClusterBuilder;
use tetrabft_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = Config::new(4)?;

    println!("— single-shot consensus over TCP —");
    let started = std::time::Instant::now();
    let (mut cluster, _net) = ClusterBuilder::new(4).spawn(|id| {
        TetraNode::new(cfg, Params::new(300), id, Value::from_u64(40 + u64::from(id.0)))
    })?;
    for _ in 0..4 {
        let (node, value) = cluster.next_output().expect("decision");
        println!("  {node} decided {value} after {:?}", started.elapsed());
    }
    drop(cluster);

    println!("\n— multi-shot blockchain over TCP —");
    let ((mut chain_cluster, submitters), _net) =
        ClusterBuilder::new(4).spawn_serving(|id| MultiShotNode::new(cfg, Params::new(300), id))?;
    // Client transactions enter the running cluster as frames on each
    // node's client port, and join the same input queue on the node's one
    // thread as deliveries and timer firings.
    for (i, handle) in submitters.iter().enumerate() {
        handle.submit(format!("client-tx-{i}").as_bytes())?;
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
