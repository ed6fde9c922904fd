//! **E2 — Fig. 2**: Multi-shot TetraBFT in the good case. Regenerates the
//! figure's per-slot message timeline and verifies the pipelining claims:
//! the first block finalizes at 5 message delays, then **one block per
//! message delay**, using only proposals and votes.

use std::collections::BTreeMap;

use tetrabft::Params;
use tetrabft_multishot::{MsMessage, MultiShotNode};
use tetrabft_sim::{SimBuilder, Time, TraceEvent};
use tetrabft_types::{Config, NodeId};

fn main() {
    let n = 4;
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n)
        .record_trace(true)
        .build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
    sim.run_until(Time(12));

    // Timeline: at each tick, which message kinds were sent for which slot.
    let mut timeline: BTreeMap<(u64, u64, &'static str), usize> = BTreeMap::new();
    for ev in sim.trace().unwrap() {
        if let TraceEvent::Sent { at, msg, .. } = ev {
            let slot = match msg {
                MsMessage::Proposal { block, .. } => block.slot.0,
                MsMessage::Vote { slot, .. } => slot.0,
                MsMessage::Suggest { slot, .. }
                | MsMessage::Proof { slot, .. }
                | MsMessage::ViewChange { slot, .. } => slot.0,
                // Resync traffic is slot-ranged, not per-slot, and a
                // healthy good-case run sends none of it anyway.
                MsMessage::CatchUp { from_slot } => from_slot.0,
                MsMessage::Blocks { .. } => continue,
                // The hand-off moves queued transactions; this run submits
                // none, so none is lent.
                MsMessage::Relay { .. } => continue,
            };
            *timeline.entry((at.0, slot, msg.kind())).or_default() += 1;
        }
    }

    let fins: Vec<(u64, u64)> = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| (o.time.0, o.output.slot.0))
        .collect();

    assert!(
        timeline.keys().all(|(_, _, kind)| *kind == "proposal" || *kind == "vote"),
        "good case must use only proposals and votes"
    );
    assert_eq!(fins[0], (5, 1), "first finalization at 5 message delays (paper: Fig. 2)");
    for pair in fins.windows(2) {
        assert_eq!(pair[1].0 - pair[0].0, 1, "one block per message delay");
        assert_eq!(pair[1].1 - pair[0].1, 1, "slots finalize in order");
    }

    // `cargo test` runs this `main` for the assertions above; cargo passes
    // `--bench` only under `cargo bench`, which is when the figure is wanted.
    if !std::env::args().any(|arg| arg == "--bench") {
        return;
    }

    println!("## Fig. 2 — pipelined good case, per-tick message timeline (n = 4)\n");
    println!("tick | slot | message  | copies");
    println!("-----|------|----------|-------");
    for ((tick, slot, kind), count) in &timeline {
        if *tick <= 8 {
            println!("{tick:4} | s{slot:<3} | {kind:<8} | {count}");
        }
    }
    println!("\nfinalizations at node 0 (tick, slot): {fins:?}");
    println!(
        "\nReproduced: finalization every message delay after a 5-delay ramp-up; \
         good case uses only 2 message types (paper Section 6.1)."
    );
}
