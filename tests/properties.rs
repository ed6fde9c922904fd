//! Property-based protocol tests: agreement and chain consistency must
//! survive *randomly generated* network schedules and adversary placements
//! — a randomized complement to the model checker.

use proptest::prelude::*;

use tetrabft_fuzz::{Attack, FaultSpec, Mode, Scenario, Verdict};
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

/// A faulty node's composition: a crash (no attack), or one attack that
/// acts in single-shot mode.
fn arb_attacks() -> impl Strategy<Value = Vec<Attack>> {
    prop_oneof![
        Just(vec![]),
        Just(vec![Attack::Equivocate]),
        Just(vec![Attack::ForgeHistory]),
        Just(vec![Attack::Amplify]),
        (1u64..3).prop_map(|view_offset| vec![Attack::SkewedReplay { view_offset }]),
        (0u64..60).prop_map(|ms| vec![Attack::CrashAt { ms }]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Agreement under a random adversary at a random position, random
    /// jitter, random seed.
    #[test]
    fn single_shot_agreement(
        seed in any::<u64>(),
        jitter_max in 1u64..8,
        byz_pos in 0u16..4,
        attacks in arb_attacks(),
    ) {
        let scenario = Scenario {
            n: 4,
            delta_ms: 20 + jitter_max,
            seed,
            horizon_ms: 10_000,
            mode: Mode::Single,
            faults: vec![FaultSpec { node: NodeId(byz_pos), attacks }],
            plan: format!("default(delay=1,jitter={})", jitter_max - 1).parse().unwrap(),
        };
        let report = scenario.run();
        prop_assert_eq!(report.decided.len(), 3, "honest nodes must decide");
        prop_assert_eq!(report.verdict, Verdict::Ok, "agreement");
    }

    /// Multi-shot prefix consistency under random jitter and a random
    /// silent node.
    #[test]
    fn multishot_consistency(
        seed in any::<u64>(),
        jitter_max in 1u64..6,
        dead in proptest::option::of(0u16..4),
    ) {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .policy(LinkPolicy::jittered(1, jitter_max))
            .build_boxed(move |id| {
                if Some(id.0) == dead {
                    Box::new(tetrabft_suite::sim::SilentNode::new())
                } else {
                    Box::new(MultiShotNode::new(cfg, Params::new(15 + jitter_max), id))
                }
            });
        sim.run_until(Time(800));
        let chains: Vec<Vec<(Slot, BlockHash)>> = (0..4u16)
            .map(|i| {
                sim.outputs()
                    .iter()
                    .filter(|o| o.node == NodeId(i))
                    .map(|o| (o.output.slot, o.output.hash))
                    .collect()
            })
            .collect();
        let longest = chains.iter().max_by_key(|c| c.len()).unwrap().clone();
        for chain in &chains {
            prop_assert_eq!(&longest[..chain.len()], &chain[..]);
        }
    }

    /// Determinism: the same seed and configuration produce bit-identical
    /// outcomes — the property every table and figure the benches print
    /// (`crates/bench/benches/`) rests on.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>(), jitter_max in 1u64..6) {
        let run = || {
            let cfg = Config::new(4).unwrap();
            let mut sim = SimBuilder::new(4)
                .seed(seed)
                .policy(LinkPolicy::jittered(1, jitter_max))
                .build(move |id| {
                    TetraNode::new(cfg, Params::new(20), id, Value::from_u64(u64::from(id.0)))
                });
            sim.run_until_outputs(4, 20_000_000);
            (
                sim.outputs().to_vec(),
                sim.metrics().total_bytes_sent(),
                sim.metrics().total_msgs_sent(),
            )
        };
        prop_assert_eq!(run(), run());
    }
}
