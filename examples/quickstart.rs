//! Quickstart: four TetraBFT nodes reach consensus in five message delays.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use tetrabft_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4-node system tolerates f = 1 Byzantine node.
    let cfg = Config::new(4)?;
    println!("n = {}, f = {}, quorum = {}", cfg.n(), cfg.f(), cfg.quorum());

    // Each node proposes its own value; the round-robin leader of view 0
    // (node 0) gets to pick.
    let params = Params::new(100); // Δ = 100 ticks → 9Δ view timeout
    let mut sim = SimBuilder::new(4) // 1 tick per hop (the default) = message delays
        .build(|id| TetraNode::new(cfg, params, id, Value::from_u64(1000 + u64::from(id.0))));

    assert!(sim.run_until_outputs(4, 1_000_000), "all nodes decide");

    for decision in sim.outputs() {
        println!(
            "{} decided {} at t={} ({} message delays)",
            decision.node, decision.output, decision.time, decision.time.0
        );
    }
    let first = sim.outputs()[0].output;
    assert!(sim.outputs().iter().all(|o| o.output == first), "agreement");
    assert_eq!(sim.outputs()[0].time.0, 5, "the paper's 5-delay good case");

    println!(
        "\nTraffic: {} messages, {} bytes total — no signatures anywhere.",
        sim.metrics().total_msgs_sent(),
        sim.metrics().total_bytes_sent()
    );
    Ok(())
}
