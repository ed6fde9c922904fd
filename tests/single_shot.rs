//! Cross-crate integration tests: Basic TetraBFT under the simulator, at
//! several system sizes, fault placements, and network regimes.

use tetrabft_fuzz::{Attack, FaultSpec, Mode, Scenario, Verdict};
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

fn honest(cfg: Config, delta: u64) -> impl Fn(NodeId) -> TetraNode {
    move |id| TetraNode::new(cfg, Params::new(delta), id, Value::from_u64(u64::from(id.0) + 1))
}

fn assert_agreement(sim: &Sim<Message, Value>) {
    let first = sim.outputs()[0].output;
    assert!(
        sim.outputs().iter().all(|o| o.output == first),
        "agreement violated: {:?}",
        sim.outputs()
    );
}

#[test]
fn latency_is_five_delays_for_all_system_sizes() {
    for n in [1usize, 2, 3, 4, 7, 13, 31, 52] {
        let cfg = Config::new(n).unwrap();
        let mut sim =
            SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build(honest(cfg, 1_000));
        assert!(sim.run_until_outputs(n, 20_000_000), "n={n}");
        let times: Vec<u64> = sim.outputs().iter().map(|o| o.time.0).collect();
        if n >= 3 {
            // The paper's good case: exactly 5 message delays.
            assert!(times.iter().all(|t| *t == 5), "n={n}: {times:?}");
        } else {
            // Degenerate systems decide through loopback shortcuts: n = 1
            // entirely at t = 0; at n = 2 the leader's free loopback saves
            // it one delay (4) while the follower needs the full 5.
            assert!(times.iter().all(|t| *t <= 5), "n={n}: {times:?}");
        }
        assert_agreement(&sim);
    }
}

#[test]
fn f_crashes_at_every_position_still_decide() {
    let n = 7; // f = 2
    for (a, b) in [(0u16, 1u16), (0, 6), (3, 4), (5, 6)] {
        let cfg = Config::new(n).unwrap();
        let mut sim =
            SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build_boxed(move |id| {
                if id.0 == a || id.0 == b {
                    Box::new(tetrabft_suite::sim::SilentNode::new())
                } else {
                    Box::new(TetraNode::new(
                        cfg,
                        Params::new(5),
                        id,
                        Value::from_u64(u64::from(id.0) + 1),
                    ))
                }
            });
        assert!(sim.run_until_outputs(n - 2, 20_000_000), "crashes at {a},{b}");
        assert_agreement(&sim);
    }
}

#[test]
fn one_crash_over_f_means_no_progress_but_no_disagreement() {
    // n = 4, f = 1, but two nodes are down: quorums are unreachable. The
    // protocol must stall — not decide inconsistently.
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4).policy(LinkPolicy::synchronous(1)).build_boxed(move |id| {
        if id.0 <= 1 {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(9)))
        }
    });
    sim.run_until(Time(2_000));
    assert!(sim.outputs().is_empty(), "no quorum ⇒ no decision (but also no split)");
}

#[test]
fn mixed_adversaries_at_the_fault_budget() {
    // n = 10 tolerates f = 3: one equivocator, one history forger, one
    // amplifier.
    let fault = |node, attack| FaultSpec { node: NodeId(node), attacks: vec![attack] };
    for seed in 0..5 {
        let scenario = Scenario {
            n: 10,
            delta_ms: 25,
            seed,
            horizon_ms: 10_000,
            mode: Mode::Single,
            faults: vec![
                fault(0, Attack::Equivocate),
                fault(4, Attack::ForgeHistory),
                fault(7, Attack::Amplify),
            ],
            plan: "default(delay=1,jitter=4)".parse().unwrap(),
        };
        let report = scenario.run();
        assert_eq!(report.verdict, Verdict::Ok, "seed {seed}");
        assert_eq!(report.decided.len(), 7, "seed {seed}: every honest node decides");
    }
}

#[test]
fn decisions_survive_every_gst_placement() {
    for gst in [0u64, 17, 100, 333] {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .policy(LinkPolicy::partial_synchrony(Time(gst), 10, 2))
            .build(honest(cfg, 10));
        assert!(sim.run_until_outputs(4, 20_000_000), "gst={gst}");
        assert_agreement(&sim);
        assert!(sim.outputs()[0].time.0 >= gst.saturating_sub(1), "no decision before GST");
    }
}

#[test]
fn pre_gst_delay_without_loss_also_recovers() {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .policy(LinkPolicy::partial_synchrony_delaying(Time(120), 10, 3))
        .build(honest(cfg, 10));
    assert!(sim.run_until_outputs(4, 20_000_000));
    assert_agreement(&sim);
}

#[test]
fn validity_holds_under_unanimity_and_any_leader() {
    // All nodes propose 77; whatever view ends up deciding, the decision
    // must be 77 (validity), even with a crashed node shifting leadership.
    for crash in 0u16..4 {
        let cfg = Config::new(4).unwrap();
        let mut sim =
            SimBuilder::new(4).policy(LinkPolicy::synchronous(1)).build_boxed(move |id| {
                if id.0 == crash {
                    Box::new(tetrabft_suite::sim::SilentNode::new())
                } else {
                    Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(77)))
                }
            });
        assert!(sim.run_until_outputs(3, 20_000_000));
        assert!(sim.outputs().iter().all(|o| o.output == Value::from_u64(77)));
    }
}

#[test]
fn unit_delay_traffic_is_quadratic_total_linear_per_node() {
    let bytes = |n: usize| {
        let cfg = Config::new(n).unwrap();
        let mut sim =
            SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build(honest(cfg, 1_000));
        assert!(sim.run_until_outputs(n, 50_000_000));
        (sim.metrics().total_bytes_sent() as f64, sim.metrics().max_node_bytes_sent() as f64)
    };
    let (total_a, node_a) = bytes(8);
    let (total_b, node_b) = bytes(32);
    // 4× nodes: totals ≤ ~16×(+slack), per-node ≤ ~4×(+slack).
    assert!(total_b / total_a < 16.0 * 1.6, "total {total_a} → {total_b}");
    assert!(node_b / node_a < 4.0 * 1.6, "per-node {node_a} → {node_b}");
}
