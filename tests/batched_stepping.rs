//! The simulator's stepping cadence, pinned. One [`Sim::step`] drains every
//! consecutively queued event for one node at one instant and seals once;
//! that must be invisible — the same outputs at the same virtual times, the
//! same trace, the same communication metrics as sealing after every event.
//!
//! The reference is a recording, not a second code path: each literal is
//! the FNV-1a digest of a whole [`RunRecord`]'s `Debug` text. The
//! single-shot literals were captured at commit cac177d (the last one whose
//! simulator could still seal after every event) *in that unbatched mode*,
//! and that commit reproduces them in both of its modes. The multishot
//! literals no longer date from the unbatched simulator: ISSUE 20 put a
//! 0-ms timer in front of every view-0 proposal (the proposer reads what
//! has already arrived before it proposes, so a loan sent with a vote makes
//! the block), which moves every multishot proposal behind the other events
//! of its instant — a new event order in every multishot run, on purpose.
//! They were re-captured at that commit and pin *its* order. A mismatch is
//! a dispatch-order bug (coalescing across nodes, a missed re-peek after a
//! loopback send) or an unintended change of cadence, not a tuning
//! difference; a PR that changes the event order on purpose re-captures
//! them and says why. The multishot records carry block hashes, so a new
//! block digest re-captures them too, with nothing else in them moved.

use tetrabft_sim::{EdgeSpec, LinkPlan, OutputRecord, PartitionWindow, TraceEvent};
use tetrabft_suite::prelude::*;

/// Everything observable about one run.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` only
struct RunRecord<O, M> {
    outputs: Vec<OutputRecord<O>>,
    trace: Vec<TraceEvent<M>>,
    bytes_sent: u64,
    msgs_sent: u64,
    events_processed: u64,
    final_time: Time,
}

fn record<O: Clone, M: Clone + tetrabft_sim::WireSize>(sim: &Sim<M, O>) -> RunRecord<O, M> {
    RunRecord {
        outputs: sim.outputs().to_vec(),
        trace: sim.trace().map(<[TraceEvent<M>]>::to_vec).unwrap_or_default(),
        bytes_sent: sim.metrics().total_bytes_sent(),
        msgs_sent: sim.metrics().total_msgs_sent(),
        events_processed: sim.metrics().events_processed,
        final_time: sim.now(),
    }
}

fn digest<O: std::fmt::Debug, M: std::fmt::Debug>(record: &RunRecord<O, M>) -> u64 {
    let prime = 0x0000_0100_0000_01b3;
    let text = format!("{record:?}");
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(prime))
}

fn single_shot_run(seed: u64, jitter_max: u64) -> RunRecord<Value, Message> {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(seed)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(jitter_max - 1)))
        .record_trace(true)
        .build(|id| {
            TetraNode::new(cfg, Params::new(25 + jitter_max), id, Value::from_u64(u64::from(id.0)))
        });
    sim.run_until(Time(500));
    record(&sim)
}

fn multishot_run(seed: u64) -> RunRecord<Finalized, MsMessage> {
    let cfg = Config::new(4).unwrap();
    let mut sim = SimBuilder::new(4)
        .seed(seed)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(3)))
        .record_trace(true)
        .build(|id| MultiShotNode::new(cfg, Params::new(20), id));
    sim.run_until(Time(400));
    record(&sim)
}

#[test]
fn single_shot_runs_are_identical_batched_or_not() {
    // (seed, jitter, digest). Jitter 1 is a fixed unit delay: nothing is
    // drawn from the seed, so those three runs are one run.
    const PINNED: [(u64, u64, u64); 6] = [
        (7, 1, 0x0f3d_93f2_0aea_d3a4),
        (7, 4, 0x6bc9_bc5f_1b39_4c94),
        (1234, 1, 0x0f3d_93f2_0aea_d3a4),
        (1234, 4, 0x9e8a_ed7b_3ab0_30ff),
        (0xFEED, 1, 0x0f3d_93f2_0aea_d3a4),
        (0xFEED, 4, 0xc01c_8fbd_c1f0_5ba4),
    ];
    for (seed, jitter, unbatched) in PINNED {
        let run = single_shot_run(seed, jitter);
        assert!(!run.outputs.is_empty(), "runs must actually decide");
        assert_eq!(
            digest(&run),
            unbatched,
            "seed {seed} jitter {jitter}: batched stepping changed the run"
        );
    }
}

#[test]
fn multishot_runs_are_identical_batched_or_not() {
    const PINNED: [(u64, u64); 3] = [
        (7, 0x44ac_4eb4_1398_fa4a),
        (1234, 0xd5a3_68c1_fb81_66df),
        (0xFEED, 0xb8f1_c034_4912_744f),
    ];
    for (seed, pinned) in PINNED {
        let run = multishot_run(seed);
        let chain_len = run.outputs.iter().filter(|o| o.node == NodeId(0)).count();
        assert!(chain_len > 5, "the chain must actually grow (seed {seed})");
        assert_eq!(digest(&run), pinned, "seed {seed}: batched stepping changed the run");
    }
}

#[test]
fn batched_stepping_survives_faults_and_partitions() {
    // Batching must also not disturb runs where view changes, drops, and
    // timer storms dominate — the paths where dispatch coalescing sees
    // stale timers and re-deliveries.
    let cfg = Config::new(4).unwrap();
    let pre_gst = PartitionWindow::from_group(0, 150, (0..4).map(NodeId)).lose(1.0);
    let mut sim = SimBuilder::new(4)
        .seed(99)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(2)).partition(pre_gst))
        .record_trace(true)
        .build(|id| MultiShotNode::new(cfg, Params::new(10), id));
    sim.run_until(Time(600));
    let run = record(&sim);
    assert!(run.outputs.iter().any(|o| o.node == NodeId(0)), "the chain must recover after GST");
    assert_eq!(digest(&run), 0x2f02_b848_3c98_7fde, "batched stepping changed the run");
}
