//! Comparative invariants across protocols — Table 1's ordering relations,
//! checked end to end rather than per protocol.

use tetrabft::{Params, TetraNode};
use tetrabft_baselines::{BlogNode, IthsNode, PbftNode, RepeatedTetra};
use tetrabft_multishot::MultiShotNode;
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

/// First-decision tick of `n` nodes built by `make` on a unit-delay
/// network; with `crash_leader`, node 0 (the view-0 leader) is silent.
fn first_decision<N>(
    n: usize,
    params: Params,
    crash_leader: bool,
    make: impl Fn(Config, Params, NodeId, Value) -> N,
) -> u64
where
    N: Node<Output = Value> + 'static,
{
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n).policy(LinkPolicy::synchronous(1)).build_boxed(|id| {
        if crash_leader && id == NodeId(0) {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(make(cfg, params, id, Value::from_u64(1)))
        }
    });
    assert!(sim.run_until_outputs(n - usize::from(crash_leader), 20_000_000));
    sim.outputs()[0].time.0
}

#[test]
fn table1_latency_ordering_holds_across_sizes() {
    for n in [4usize, 7, 13] {
        let params = Params::new(1_000);
        let pbft = first_decision(n, params, false, PbftNode::new);
        let blog = first_decision(n, params, false, BlogNode::new);
        let tetra = first_decision(n, params, false, TetraNode::new);
        let iths = first_decision(n, params, false, IthsNode::new);
        assert_eq!((pbft, blog, tetra, iths), (3, 4, 5, 6), "n={n}");
    }
}

#[test]
fn tetra_beats_iths_by_exactly_one_delay_in_recovery_too() {
    // Crash leader 0 everywhere; compare post-timeout recovery.
    let delta = 10;
    let timeout = 9 * delta;
    assert_eq!(first_decision(4, Params::new(delta), true, TetraNode::new) - timeout, 7);
    assert_eq!(first_decision(4, Params::new(delta), true, IthsNode::new) - timeout, 9);
}

#[test]
fn pipelining_beats_repetition_by_about_five() {
    let cfg = Config::new(4).unwrap();
    // The ratio converges on 5 from below as the 5-delay ramp-up amortizes:
    // 4.8 at 100 delays already.
    for horizon in [100, 300] {
        let mut pipelined = SimBuilder::new(4)
            .policy(LinkPolicy::synchronous(1))
            .build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
        pipelined.run_until(Time(horizon));
        let blocks = pipelined.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

        let mut repeated = SimBuilder::new(4)
            .policy(LinkPolicy::synchronous(1))
            .build(|id| RepeatedTetra::new(cfg, Params::new(1_000_000), id));
        repeated.run_until(Time(horizon));
        let decisions = repeated.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

        let ratio = blocks / decisions;
        assert!(
            ratio > 4.5 && ratio < 5.5,
            "pipelining factor {ratio:.2} at horizon {horizon} should be ≈5"
        );
    }
}

#[test]
fn all_protocols_agree_under_crash() {
    // Same scenario, four protocols: everyone recovers and agrees.
    macro_rules! check {
        ($ctor:expr) => {{
            let cfg = Config::new(4).unwrap();
            let mut sim =
                SimBuilder::new(4).policy(LinkPolicy::synchronous(1)).build_boxed(move |id| {
                    if id == NodeId(0) {
                        Box::new(tetrabft_suite::sim::SilentNode::new())
                    } else {
                        Box::new($ctor(cfg, Params::new(10), id, Value::from_u64(9)))
                    }
                });
            assert!(sim.run_until_outputs(3, 20_000_000));
            let first = sim.outputs()[0].output;
            assert!(sim.outputs().iter().all(|o| o.output == first));
        }};
    }
    check!(TetraNode::new);
    check!(IthsNode::new);
    check!(BlogNode::new);
    check!(PbftNode::new);
}
