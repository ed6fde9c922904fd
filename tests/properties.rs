//! Property-based protocol tests: agreement and chain consistency must
//! survive *randomly generated* network schedules and adversary placements
//! — a randomized complement to the model checker.

use proptest::prelude::*;

use tetrabft::strategies::{EquivocatingLeader, LyingHistorian, StaleReplayer, VoteAmplifier};
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

#[derive(Debug, Clone, Copy)]
enum Adversary {
    Silent,
    Equivocator,
    Liar,
    Amplifier,
    Replayer,
}

fn arb_adversary() -> impl Strategy<Value = Adversary> {
    prop_oneof![
        Just(Adversary::Silent),
        Just(Adversary::Equivocator),
        Just(Adversary::Liar),
        Just(Adversary::Amplifier),
        Just(Adversary::Replayer),
    ]
}

fn byz_node(kind: Adversary, cfg: Config) -> Box<dyn Node<Msg = Message, Output = Value>> {
    match kind {
        Adversary::Silent => Box::new(tetrabft_suite::sim::SilentNode::new()),
        Adversary::Equivocator => {
            Box::new(EquivocatingLeader::new(cfg, Value::from_u64(1), Value::from_u64(2)))
        }
        Adversary::Liar => Box::new(LyingHistorian::new(cfg, Value::from_u64(13))),
        Adversary::Amplifier => Box::new(VoteAmplifier::new()),
        Adversary::Replayer => Box::new(StaleReplayer),
    }
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
        adversary in arb_adversary(),
    ) {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .seed(seed)
            .policy(LinkPolicy::jittered(1, jitter_max))
            .build_boxed(move |id| {
                if id.0 == byz_pos {
                    byz_node(adversary, cfg)
                } else {
                    Box::new(TetraNode::new(
                        cfg,
                        Params::new(20 + jitter_max),
                        id,
                        Value::from_u64(100 + u64::from(id.0)),
                    ))
                }
            });
        prop_assert!(sim.run_until_outputs(3, 20_000_000), "honest nodes must decide");
        let first = sim.outputs()[0].output;
        prop_assert!(sim.outputs().iter().all(|o| o.output == first), "agreement");
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
