//! Idle pacing under load, and the leader outage it must not turn into
//! starvation. `Sim`, four nodes, transactions fed to nodes 0 and 2 only —
//! the two other leaders never have anything to propose, which is exactly
//! the case pacing used to get wrong.

use std::collections::HashMap;
use std::ops::Range;

use tetrabft::Params;
use tetrabft_multishot::{BlockHash, Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{
    Context, EdgeSpec, Input, LinkPlan, Node, Sim, SimBuilder, Time, TimerId, TraceEvent,
};
use tetrabft_types::{Config, NodeId};

/// Slot timers use the slot number and the node reserves the top two ids.
const FEED_TIMER: TimerId = TimerId(u64::MAX - 2);

/// A `MultiShotNode` the test feeds `rate` fresh transactions per tick for
/// the ticks in `feed`, and that falls silent for good at tick `dies`.
/// Like a client submission over TCP, feeding does not run the node.
struct Fed {
    inner: MultiShotNode,
    rate: u64,
    feed: Range<u64>,
    dies: u64,
}

impl Fed {
    fn new(me: NodeId, params: Params) -> Fed {
        let inner = MultiShotNode::new(Config::new(4).unwrap(), params, me);
        Fed { inner, rate: 0, feed: 0..0, dies: u64::MAX }
    }

    fn fed(mut self, rate: u64, feed: Range<u64>) -> Fed {
        self.rate = rate;
        self.feed = feed;
        self
    }
}

/// A transaction that names its feeder, the tick it was due and its rank
/// within the tick.
fn tx(me: NodeId, due: u64, k: u64) -> Vec<u8> {
    [u64::from(me.0), due, k].iter().flat_map(|v| v.to_be_bytes()).collect()
}

fn due_of(tx: &[u8]) -> u64 {
    u64::from_be_bytes(tx[8..16].try_into().unwrap())
}

impl Node for Fed {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Context<'_, MsMessage, Finalized>) {
        let now = ctx.now().0;
        if now >= self.dies {
            return;
        }
        match input {
            Input::Timer { id } if id == FEED_TIMER => {
                for k in 0..self.rate {
                    self.inner.submit_tx(tx(ctx.me(), now, k)).expect("the mempool has room");
                }
                if now + 1 < self.feed.end {
                    ctx.set_timer(FEED_TIMER, 1);
                }
            }
            input => {
                if matches!(input, Input::Start) && self.rate > 0 {
                    ctx.set_timer(FEED_TIMER, self.feed.start - now);
                }
                self.inner.handle(input, ctx);
            }
        }
    }
}

type ChainSim = Sim<MsMessage, Finalized>;

/// `(slot, finalization tick, transactions)` of node 0's chain.
fn chain(sim: &ChainSim) -> Vec<(u64, u64, usize)> {
    sim.outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .map(|o| (o.output.slot.0, o.time.0, o.output.block.txs.len()))
        .collect()
}

/// Ticks from each non-empty block's first proposal to its finalization
/// on node 0, in chain order.
fn propose_to_final(sim: &ChainSim) -> Vec<u64> {
    let mut proposed: HashMap<BlockHash, u64> = HashMap::new();
    for event in sim.trace().expect("the run records its trace") {
        if let TraceEvent::Sent { at, msg: MsMessage::Proposal { block, .. }, .. } = event {
            proposed.entry(block.hash()).or_insert(at.0);
        }
    }
    sim.outputs()
        .iter()
        .filter(|o| o.node == NodeId(0) && !o.output.block.txs.is_empty())
        .map(|o| o.time.0 - proposed[&o.output.hash])
        .collect()
}

/// Message delay 1; nodes 0 and 2 get one transaction per tick in `feed`.
fn paced_run(pause: u64, feed: Range<u64>, until: u64) -> ChainSim {
    let params = Params::new(100).with_idle_pacing(pause);
    let mut sim = SimBuilder::new(4).record_trace(true).build(|id| {
        let node = Fed::new(id, params);
        if id.0 % 2 == 0 {
            node.fed(1, feed.clone())
        } else {
            node
        }
    });
    sim.run_until(Time(until));
    sim
}

#[test]
fn under_load_every_block_finalizes_five_delays_after_its_proposal() {
    // Pacing 0 is the free-running chain: the paced one must match it.
    for pause in [0, 10] {
        let delays = propose_to_final(&paced_run(pause, 20..300, 400));
        assert!(delays.len() > 100, "half the slots carry transactions, got {}", delays.len());
        assert!(
            delays.iter().all(|d| *d == 5),
            "pause {pause}: no slot a pending block needs may be held back: {delays:?}"
        );
    }
}

#[test]
fn chain_falls_back_to_the_idle_cadence_once_its_transactions_finalized() {
    let pause = 10;
    let sim = paced_run(pause, 20..100, 500);
    let chain = chain(&sim);
    let last_loaded = chain.iter().rposition(|(_, _, txs)| *txs > 0).expect("blocks carry txs");
    // The slots that block needed went out at network speed, so the one
    // right behind it finalizes a delay later; from then on every slot
    // waits out the pause before it is proposed.
    let idle = &chain[last_loaded + 2..];
    assert!(idle.len() > 10, "an idle paced chain still advances, got {} slots", idle.len());
    for pair in idle.windows(2) {
        let gap = pair[1].1 - pair[0].1;
        assert!(
            (pause..=pause + 2).contains(&gap),
            "idle slots {} and {} finalized {gap} ticks apart, pause is {pause}",
            pair[0].0,
            pair[1].0
        );
    }
}

/// Virtual ms: δ, Δ and the instant the load starts.
const DELTA: u64 = 10;
const BIG_DELTA: u64 = 100;
const LOAD_FROM: u64 = 4_000;

/// The worst wait, in ticks, of the transactions due in `[kill − 200,
/// kill + 3000)` when node 1 falls silent at `kill` under 4 tx/ms into each
/// of nodes 0 and 2. Panics if one of them never finalizes on node 0, or
/// does twice.
fn worst_wait_through_outage(kill: u64) -> u64 {
    let params = Params::new(BIG_DELTA).with_idle_pacing(5).with_max_block_txs(4096);
    let feed = LOAD_FROM..kill + 3_000;
    let mut sim = SimBuilder::new(4).plan(&LinkPlan::uniform(EdgeSpec::delay(DELTA))).build(|id| {
        let mut node = Fed::new(id, params);
        if id.0 % 2 == 0 {
            node = node.fed(4, feed.clone());
        }
        if id == NodeId(1) {
            node.dies = kill;
        }
        node
    });
    sim.run_until(Time(kill + 3_000 + 2 * 9 * BIG_DELTA + 20 * DELTA));

    let watched = kill - 200..kill + 3_000;
    let mut waits: HashMap<&[u8], u64> = HashMap::new();
    for record in sim.outputs().iter().filter(|o| o.node == NodeId(0)) {
        for tx in record.output.block.txs.iter().filter(|tx| watched.contains(&due_of(tx))) {
            let twice = waits.insert(tx, record.time.0 - due_of(tx));
            assert!(twice.is_none(), "kill at {kill}: a transaction finalized in two slots");
        }
    }
    let due = 2 * 4 * (watched.end - watched.start) as usize;
    assert_eq!(waits.len(), due, "kill at {kill}: {} transactions starved", due - waits.len());
    waits.into_values().max().expect("transactions were due")
}

#[test]
fn leader_outage_at_any_phase_of_the_cycle_starves_no_transaction() {
    // One leader cycle is 4 slots × δ: the kill sweeps all of it. A block
    // proposed just before the dead leader's slot waits out two view
    // timeouts (its own slot's, then the one three slots on).
    let bound = 2 * 9 * BIG_DELTA + 20 * DELTA;
    for phase in 0..4 * DELTA {
        let worst = worst_wait_through_outage(5_000 + phase);
        assert!(worst <= bound, "phase {phase}: a transaction waited {worst} ms, bound {bound}");
    }
}
