//! Comparative invariants across protocols — Table 1's ordering relations,
//! checked end to end rather than per protocol — and each protocol's
//! traffic, pinned.

use std::fmt::Debug;

use tetrabft::{Params, TetraNode};
use tetrabft_baselines::{BlogNode, IthsNode, PbftNode, RepeatedTetra};
use tetrabft_multishot::MultiShotNode;
use tetrabft_sim::{EdgeSpec, LinkPlan, OutputRecord, PartitionWindow, TraceEvent, WireSize};
use tetrabft_suite::prelude::*;
use tetrabft_types::NodeId;

/// `n` nodes built by `make`, node `i` with input `i + 1`, on `plan` (its
/// draws seeded with 7), recording their trace; with `crashed`, node 0 (the
/// view-0 leader) is silent.
fn cluster<N>(
    n: usize,
    plan: &LinkPlan,
    crashed: bool,
    params: Params,
    make: impl Fn(Config, Params, NodeId, Value) -> N,
) -> Sim<N::Msg, Value>
where
    N: Node<Output = Value> + 'static,
{
    let cfg = Config::new(n).unwrap();
    SimBuilder::new(n).seed(7).plan(plan).record_trace(true).build_boxed(|id| {
        if crashed && id == NodeId(0) {
            Box::new(tetrabft_suite::sim::SilentNode::new())
        } else {
            Box::new(make(cfg, params, id, Value::from_u64(u64::from(id.0) + 1)))
        }
    })
}

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
    let mut sim = cluster(n, &LinkPlan::uniform(EdgeSpec::delay(1)), crash_leader, params, make);
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
        let mut pipelined =
            SimBuilder::new(4).build(|id| MultiShotNode::new(cfg, Params::new(1_000_000), id));
        pipelined.run_until(Time(horizon));
        let blocks = pipelined.outputs().iter().filter(|o| o.node == NodeId(0)).count() as f64;

        let mut repeated =
            SimBuilder::new(4).build(|id| RepeatedTetra::new(cfg, Params::new(1_000_000), id));
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
    fn check<N: Node<Output = Value> + 'static>(make: impl Fn(Config, Params, NodeId, Value) -> N) {
        let mut sim =
            cluster(4, &LinkPlan::uniform(EdgeSpec::delay(1)), true, Params::new(10), make);
        assert!(sim.run_until_outputs(3, 20_000_000));
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
    }
    check(TetraNode::new);
    check(IthsNode::new);
    check(BlogNode::new);
    check(PbftNode::new);
}

/// Everything observable about one run, as in `tests/batched_stepping.rs`.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` only
struct RunRecord<M> {
    outputs: Vec<OutputRecord<Value>>,
    trace: Vec<TraceEvent<M>>,
    bytes_sent: u64,
    msgs_sent: u64,
}

/// The schedules every protocol's traffic is pinned under. Δ = 10, so each
/// run of 600 ticks also sees several 9Δ timeouts, and with them the
/// view-change rules, after its decision.
#[derive(Debug, Clone, Copy)]
enum Scenario {
    /// Unit delays, every node correct.
    GoodCase(usize),
    /// n = 4 on links of 1–4 ticks; node 0, the view-0 leader, is silent.
    CrashedLeader,
    /// n = 4 on links of 1–4 ticks that drop each message with probability
    /// 1/2 until tick 150.
    PreGstLoss,
}

/// The FNV-1a digest of the [`RunRecord`] of `make`'s nodes under
/// `scenario`.
fn traffic<N>(scenario: Scenario, make: impl Fn(Config, Params, NodeId, Value) -> N) -> u64
where
    N: Node<Output = Value> + 'static,
    N::Msg: Debug + WireSize,
{
    let jittery = LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3));
    let (n, crashed, plan) = match scenario {
        Scenario::GoodCase(n) => (n, false, LinkPlan::uniform(EdgeSpec::delay(1))),
        Scenario::CrashedLeader => (4, true, jittery),
        // Half the frames are lost before tick 150.
        Scenario::PreGstLoss => (
            4,
            false,
            jittery.partition(PartitionWindow::from_group(0, 150, (0..4).map(NodeId)).lose(0.5)),
        ),
    };
    let mut sim = cluster(n, &plan, crashed, Params::new(10), make);
    sim.run_until(Time(600));
    assert_eq!(sim.outputs().len(), n - usize::from(crashed), "{scenario:?}: all must decide");
    let run = RunRecord {
        outputs: sim.outputs().to_vec(),
        trace: sim.trace().map(<[TraceEvent<N::Msg>]>::to_vec).unwrap_or_default(),
        bytes_sent: sim.metrics().total_bytes_sent(),
        msgs_sent: sim.metrics().total_msgs_sent(),
    };
    let prime = 0x0000_0100_0000_01b3;
    let text = format!("{run:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(prime))
}

/// TetraBFT's, IT-HS's, blog IT-HS's and PBFT's traffic: a run that changes
/// any message, tick, byte or output changes its digest. The literals were
/// captured before the four protocols shared one register file and one
/// view-change counter; the `PreGstLoss` row's again when its losses came
/// to be drawn by a `LinkPlan` lose window.
#[test]
fn every_protocols_traffic_is_pinned() {
    use Scenario::{CrashedLeader, GoodCase, PreGstLoss};
    // One row per scenario: TetraBFT, IT-HS, blog IT-HS, PBFT.
    const PINNED: [[u64; 4]; 4] = [
        [0xe7c8530fad157555, 0xe2005980df9fa653, 0x922b9c363159960e, 0x1cf877413789aa3c],
        [0xf1d91ffd8240866e, 0xb41ff091d39c8dd1, 0x9c12fb949383de00, 0xd7c54e0b262356bb],
        [0xb693f82488a92cbe, 0x8373ca7be2f6cde9, 0x48e7307f5cdbc935, 0xa516b728bf006061],
        [0x549525a04ed1785e, 0x34ddaf475edafee2, 0x12da449506f18186, 0x1ec3d1cb4e73d737],
    ];
    for (scenario, pinned) in
        [GoodCase(4), GoodCase(7), CrashedLeader, PreGstLoss].into_iter().zip(PINNED)
    {
        let got = [
            traffic(scenario, TetraNode::new),
            traffic(scenario, IthsNode::new),
            traffic(scenario, BlogNode::new),
            traffic(scenario, PbftNode::new),
        ];
        assert!(got == pinned, "{scenario:?}: {got:#x?} (TetraBFT, IT-HS, blog, PBFT)");
    }
}
