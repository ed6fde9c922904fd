//! The hand-off: a node that will not lead one of the next two slots lends
//! its queue to the leader who proposes one hop from now. `Sim`, four
//! nodes, δ = 10; clients feed nodes 0 and 2 one numbered transaction per
//! tick — so the two lend to each other, and each is the other's borrower.
//!
//! Two oracles run on every scenario, as one equality per origin: read off
//! an honest node's finalized chain, an origin's transactions are exactly
//! the numbers it was fed, each once, in the order it admitted them.

use std::collections::HashMap;
use std::ops::{Range, RangeInclusive};
use std::path::PathBuf;

use tetrabft::Params;
use tetrabft_multishot::{Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{
    Context, EdgeSpec, Input, LinkPlan, Node, OutputRecord, PartitionWindow, SilentNode, Sim,
    SimBuilder, Time, TimerId, TraceEvent,
};
use tetrabft_types::{Config, FsyncPolicy, NodeId, View};

/// Virtual ms per hop.
const DELTA: u64 = 10;

/// Slot timers use the slot number and the node reserves the top two ids.
const FEED_TIMER: TimerId = TimerId(u64::MAX - 2);
const REBOOT_TIMER: TimerId = TimerId(u64::MAX - 3);
const HINT_TIMER: TimerId = TimerId(u64::MAX - 4);

/// The observer whose chain the oracles read: honest in every scenario.
const OBSERVER: NodeId = NodeId(1);

/// A transaction that names its origin, its rank among the origin's
/// admissions, and the tick it was admitted.
fn tx(origin: NodeId, number: u64, tick: u64) -> Vec<u8> {
    [u64::from(origin.0), number, tick].iter().flat_map(|v| v.to_be_bytes()).collect()
}

fn field(tx: &[u8], i: usize) -> u64 {
    u64::from_be_bytes(tx[8 * i..8 * i + 8].try_into().unwrap())
}

/// A `MultiShotNode` with a client (one transaction every `every` ticks of
/// `feed`; like a submission over TCP, feeding does not run the node),
/// optionally
/// deaf to every `Relay`, optionally killed at `outage.start` and brought
/// back from its WAL at `outage.end`, optionally told at a tick that a
/// peer's stream ended (the Sim itself never says so).
struct Fed {
    me: NodeId,
    params: Params,
    /// `None` while the node is down.
    inner: Option<MultiShotNode>,
    dir: Option<PathBuf>,
    feed: Range<u64>,
    /// Ticks between two transactions of `feed`.
    every: u64,
    backlog: u64,
    fed: u64,
    drops_relays: bool,
    outage: Range<u64>,
    /// `Input::PeerDown` about this peer at this tick…
    hint: Option<(u64, NodeId)>,
    /// …and again every so many ticks until this one (`None`: once).
    rehint: Option<(u64, u64)>,
}

impl Fed {
    fn new(me: NodeId, params: Params, dir: Option<PathBuf>) -> Fed {
        let mut node = Fed {
            me,
            params,
            inner: None,
            dir,
            feed: 0..0,
            every: 1,
            backlog: 0,
            fed: 0,
            drops_relays: false,
            outage: 0..0,
            hint: None,
            rehint: None,
        };
        node.inner = Some(node.boot());
        node
    }

    fn boot(&self) -> MultiShotNode {
        let cfg = Config::new(4).unwrap();
        match &self.dir {
            Some(dir) => MultiShotNode::durable(cfg, self.params, self.me, dir).unwrap(),
            None => MultiShotNode::new(cfg, self.params, self.me),
        }
    }

    fn submit(&mut self, tick: u64) {
        if let Some(inner) = self.inner.as_mut() {
            inner.submit_tx(tx(self.me, self.fed, tick)).expect("the mempool has room");
            self.fed += 1;
        }
    }
}

impl Node for Fed {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Context<'_, MsMessage, Finalized>) {
        let now = ctx.now().0;
        if self.outage.contains(&now) {
            self.inner = None; // the store closes with the node
        }
        match input {
            Input::Timer { id } if id == FEED_TIMER => {
                self.submit(now);
                if now + self.every < self.feed.end {
                    ctx.set_timer(FEED_TIMER, self.every);
                }
            }
            Input::Timer { id } if id == REBOOT_TIMER => {
                let mut inner = self.boot();
                inner.handle(Input::Start, ctx);
                self.inner = Some(inner);
            }
            Input::Timer { id } if id == HINT_TIMER => {
                let (_, peer) = self.hint.expect("armed by a hint");
                if let Some((every, _)) = self.rehint.filter(|(every, until)| now + every < *until)
                {
                    ctx.set_timer(HINT_TIMER, every);
                }
                if let Some(inner) = self.inner.as_mut() {
                    inner.handle(Input::PeerDown { peer }, ctx);
                }
            }
            Input::Deliver { msg: MsMessage::Relay { .. }, .. } if self.drops_relays => {}
            input => {
                if matches!(input, Input::Start) {
                    for _ in 0..self.backlog {
                        self.submit(now);
                    }
                    if !self.feed.is_empty() {
                        ctx.set_timer(FEED_TIMER, self.feed.start - now);
                    }
                    if !self.outage.is_empty() {
                        ctx.set_timer(REBOOT_TIMER, self.outage.end - now);
                    }
                    if let Some((at, _)) = self.hint {
                        ctx.set_timer(HINT_TIMER, at - now);
                    }
                }
                if let Some(inner) = self.inner.as_mut() {
                    inner.handle(input, ctx);
                }
            }
        }
    }

    fn persist(&mut self) {
        if let Some(inner) = self.inner.as_mut() {
            inner.persist();
        }
    }
}

type ChainSim = Sim<MsMessage, Finalized>;

fn scratch_dir(tag: &str, node: NodeId) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("tetrabft-relay-{}-{tag}-{node}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four nodes, the trace recorded: on δ-ms links and in memory unless the
/// scenario says otherwise.
struct World {
    params: Params,
    until: u64,
    links: LinkPlan,
    /// Tag of the WAL directories, for a scenario whose nodes are durable.
    durable: Option<&'static str>,
    seed: u64,
}

impl World {
    fn new(params: Params, until: u64) -> World {
        let links = LinkPlan::uniform(EdgeSpec::delay(DELTA));
        World { params, until, links, durable: None, seed: 0 }
    }

    /// `shape` turns each plain node into what the scenario needs; `None`
    /// replaces it by a silent one.
    fn run(self, mut shape: impl FnMut(Fed) -> Option<Fed>) -> ChainSim {
        let builder = SimBuilder::new(4).seed(self.seed).plan(&self.links).record_trace(true);
        let mut sim = builder.build_boxed(|id| {
            let dir = self.durable.map(|tag| scratch_dir(tag, id));
            match shape(Fed::new(id, self.params, dir)) {
                Some(node) => Box::new(node),
                None => Box::new(SilentNode::new()),
            }
        });
        sim.run_until(Time(self.until));
        sim
    }
}

/// Nodes 0 and 2 get a client each.
fn with_clients(feed: Range<u64>) -> impl FnMut(Fed) -> Option<Fed> {
    move |mut node| {
        if node.me.0 % 2 == 0 {
            node.feed = feed.clone();
        }
        Some(node)
    }
}

/// The observer's chain, flattened: every finalized transaction in order.
fn finalized(sim: &ChainSim) -> Vec<&[u8]> {
    sim.outputs()
        .iter()
        .filter(|o| o.node == OBSERVER)
        .flat_map(|o| o.output.block.txs.iter().map(Vec::as_slice))
        .collect()
}

/// Both oracles: each origin's finalized numbers are `0..fed`, in order.
/// Returns the first origin for which they are not, and what it got.
fn admission_order_violation(sim: &ChainSim, fed: &[(NodeId, u64)]) -> Option<String> {
    let mut numbers: HashMap<u64, Vec<u64>> = HashMap::new();
    for tx in finalized(sim) {
        numbers.entry(field(tx, 0)).or_default().push(field(tx, 1));
    }
    for (origin, count) in fed {
        let got = numbers.remove(&u64::from(origin.0)).unwrap_or_default();
        let first_off = got.iter().zip(0..).find(|(got, want)| *got != want);
        if (got.len() as u64, first_off) != (*count, None) {
            return Some(format!(
                "{origin}: finalized numbers must be 0..{count}, each once, in order; \
                 got {} of them, first off {first_off:?}",
                got.len()
            ));
        }
    }
    (!numbers.is_empty()).then(|| "transactions from an origin nobody fed".to_string())
}

fn assert_once_each_in_admission_order(sim: &ChainSim, fed: &[(NodeId, u64)]) {
    assert_eq!(admission_order_violation(sim, fed), None);
}

/// Ticks from admission to first proposal, per transaction, sorted.
fn admit_to_proposal(sim: &ChainSim) -> Vec<u64> {
    let mut waits: HashMap<&[u8], u64> = HashMap::new();
    for event in sim.trace().expect("the run records its trace") {
        if let TraceEvent::Sent { at, msg: MsMessage::Proposal { block, .. }, .. } = event {
            for tx in block.txs.iter() {
                waits.entry(tx).or_insert(at.0 - field(tx, 2));
            }
        }
    }
    let mut waits: Vec<u64> = waits.into_values().collect();
    waits.sort_unstable();
    waits
}

fn relays_to(sim: &ChainSim, borrower: NodeId) -> usize {
    let sent = |e: &&TraceEvent<MsMessage>| matches!(e, TraceEvent::Sent { to, msg: MsMessage::Relay { .. }, .. } if *to == borrower);
    sim.trace().unwrap().iter().filter(sent).count()
}

#[test]
fn good_case_a_transaction_reaches_the_next_proposer_in_one_hop() {
    let sim = World::new(Params::new(100), 1_400).run(with_clients(100..1_100));
    assert_once_each_in_admission_order(&sim, &[(NodeId(0), 1_000), (NodeId(2), 1_000)]);
    let waits = admit_to_proposal(&sim);
    assert_eq!(waits.len(), 2_000);
    // Waiting for a turn is uniform over a round of four slots: median 2δ.
    // Lent at one vote in four and proposed a hop later, it is 1.5δ.
    let median = waits[waits.len() / 2];
    assert!(median <= 16, "median admit -> proposal {median} ms, waiting for a turn costs 20");
    let lent = (relays_to(&sim, NodeId(0)), relays_to(&sim, NodeId(2)));
    assert!(lent.0 > 20 && lent.1 > 20, "once a round each way, got {lent:?}");
    // Priced like any message: its own kind, at least its 25-byte payloads.
    let relays = sim.metrics().kind("relay");
    assert_eq!(relays.msgs as usize, lent.0 + lent.1);
    assert!(relays.bytes > 25 * relays.msgs, "{relays:?}");
    assert_eq!(sim.metrics().kind("view-change").msgs, 0, "a hand-off never costs a view change");
}

#[test]
fn a_silent_borrower_costs_time_and_no_transaction() {
    // Node 2 is down for good (its client has nobody to talk to). Its first
    // slot times out and marks it silent: from then on node 0 lends it
    // nothing and its slots ask for view 1 as they start, so the chain
    // pays 9Δ once, not once a round.
    let params = Params::new(30).with_max_block_txs(4_096);
    let sim = World::new(params, 8_000).run(|mut node| {
        if node.me == NodeId(0) {
            node.feed = 100..1_100;
        }
        (node.me != NodeId(2)).then_some(node)
    });
    assert!(relays_to(&sim, NodeId(2)) <= 1, "a silent node is lent nothing more");
    assert_once_each_in_admission_order(&sim, &[(NodeId(0), 1_000)]);
    // The last transaction is admitted at tick 1,099. Waiting out every
    // slot of the dead node, with a loan in doubt meanwhile, took until
    // tick 1,920 (at 04ad5d4).
    let carries = |o: &&tetrabft_sim::OutputRecord<Finalized>| {
        o.node == OBSERVER && !o.output.block.txs.is_empty()
    };
    let last = sim.outputs().iter().filter(carries).map(|o| o.time.0).max().unwrap();
    assert_eq!(last, 1_210, "the last transaction's finalization");
}

/// The node the crash scenarios kill.
const DEAD: NodeId = NodeId(3);

/// Node 3 killed at `kill`: for good, or (durable, its WAL tagged `tag`)
/// back at `back_at`; with `hinted`, every peer is told one hop after the
/// kill that its stream ended. Δ = 30.
fn crash(tag: &'static str, kill: u64, back_at: Option<u64>, hinted: bool) -> ChainSim {
    let params = Params::new(30).with_fsync(FsyncPolicy::Never);
    let away = kill..back_at.unwrap_or(u64::MAX / 2);
    let world = World { durable: back_at.map(|_| tag), ..World::new(params, 3_000) };
    let sim = world.run(|mut node| {
        if node.me == DEAD {
            node.outage = away.clone();
        } else if hinted {
            node.hint = Some((kill + DELTA, DEAD));
        }
        Some(node)
    });
    for node in 0..4 {
        let _ = std::fs::remove_dir_all(scratch_dir(tag, NodeId(node)));
    }
    sim
}

/// `(back_at, kill)` of `a_dead_leader_costs_one_timeout`: a round is four
/// slots, 40 ticks, and the kill falls in each part of one.
fn dead_leader_runs() -> impl Iterator<Item = (Option<u64>, u64)> {
    (500..540).step_by(13).flat_map(|kill| [(None, kill), (Some(1_500), kill)])
}

/// `(back_at, kill)` of `a_hinted_dead_leader_costs_no_timeout`: the kill
/// on every tick of one round.
fn hinted_leader_runs() -> impl Iterator<Item = (Option<u64>, u64)> {
    (500..540).flat_map(|kill| [(None, kill), (Some(1_500), kill)])
}

#[test]
fn a_dead_leader_costs_one_timeout() {
    // Node 3 leads every fourth slot, in step and voting, until it is
    // killed at tick 500: for good, then (durable) back from its WAL at
    // tick 1,500. Δ = 30, so a timed-out slot costs 9Δ = 270 ticks.
    for (back_at, kill) in dead_leader_runs() {
        let away = kill..back_at.unwrap_or(u64::MAX / 2);
        let sim = crash("dead-leader", kill, back_at, false);
        // One stall of 9Δ, the paper's; after it a slot of the dead node
        // costs a view change at network speed, not another timer.
        let gaps = gaps(&sim).into_iter().map(|(at, gap)| (at - gap, gap));
        let stalls: Vec<_> = gaps.clone().filter(|(_, gap)| *gap >= 270).collect();
        assert!(matches!(stalls[..], [(500..=600, 270..=330)]), "one 9Δ stall, got {stalls:?}");
        let worst = gaps.filter(|(at, _)| *at > stalls[0].0 && *at < away.end).map(|g| g.1).max();
        assert!(worst.unwrap() <= 8 * DELTA, "a later slot of the dead node cost {worst:?} ticks");
        dead_leaders_slots(&sim, stalls[0].0 + 270, away.end);
    }
}

/// The observer's finalization times as `(at, ticks since the one before)`.
fn gaps(sim: &ChainSim) -> Vec<(u64, u64)> {
    let at: Vec<u64> =
        sim.outputs().iter().filter(|o| o.node == OBSERVER).map(|o| o.time.0).collect();
    at.windows(2).map(|pair| (pair[1], pair[1] - pair[0])).collect()
}

/// When each `ViewChange` left its sender.
fn view_changes_sent(sim: &ChainSim) -> Vec<u64> {
    let sent = |e: &TraceEvent<MsMessage>| match e {
        TraceEvent::Sent { at, msg: MsMessage::ViewChange { .. }, .. } => Some(at.0),
        _ => None,
    };
    sim.trace().unwrap().iter().filter_map(sent).collect()
}

#[test]
fn a_hinted_dead_leader_costs_no_timeout() {
    // The same crash, seen by a transport that reports it: every peer is
    // told one hop after the kill that node 3's stream ended. The kill
    // falls on every tick of one round; no finalization waits for a timer.
    for (back_at, kill) in hinted_leader_runs() {
        let away = kill..back_at.unwrap_or(u64::MAX / 2);
        let sim = crash("hinted-leader", kill, back_at, true);
        let gaps = gaps(&sim);
        let worst = gaps.iter().filter(|(at, _)| *at > 400).map(|g| g.1).max().unwrap();
        assert!(worst <= 5 * DELTA, "kill at {kill}, back {back_at:?}: a gap of {worst} ticks");
        assert!(gaps.last().unwrap().0 > 2_950, "kill at {kill}: the chain must stay live");
        let heirs = dead_leaders_slots(&sim, kill, away.end);
        assert!(heirs > 15, "kill at {kill}: the dead node's slots must commit, {heirs} did");
    }
}

/// Checks who proposed each of node 3's slots the observer committed: the
/// view-1 leader between `after` and `back`, node 3 a round after it votes
/// again (then nobody asks for a view change). Returns the view-1 count.
fn dead_leaders_slots(sim: &ChainSim, after: u64, back: u64) -> usize {
    let cfg = Config::new(4).unwrap();
    let mut proposed = HashMap::new();
    let mut votes_again = None;
    for event in sim.trace().unwrap() {
        match event {
            TraceEvent::Sent { at, from, msg: MsMessage::Proposal { view, block }, .. } => {
                proposed.entry(block.hash()).or_insert((at.0, (*from, *view)));
            }
            TraceEvent::Sent { at, from, msg: MsMessage::Vote { .. }, .. }
                if *from == DEAD && at.0 >= back =>
            {
                votes_again.get_or_insert(at.0);
            }
            _ => {}
        }
    }
    let (mut heirs, mut turns_back) = (0, 0);
    for fin in sim.outputs().iter().filter(|o| o.node == OBSERVER) {
        let slot = fin.output.slot;
        if MultiShotNode::leader_of(&cfg, slot, View::ZERO) != DEAD {
            continue;
        }
        let (at, by) = proposed[&fin.output.hash];
        if votes_again.is_some_and(|again| at > again + 4 * DELTA) {
            assert_eq!(by, (DEAD, View::ZERO), "{slot}: back in step, it leads its turn");
            turns_back += 1;
        } else if at > after && at < back {
            let heir = MultiShotNode::leader_of(&cfg, slot, View(1));
            assert_eq!(by, (heir, View(1)), "{slot}: commits under its view-1 leader");
            heirs += 1;
        }
    }
    if let Some(at) = votes_again {
        assert!(turns_back > 20, "the restarted node must lead again, led {turns_back}");
        let late = view_changes_sent(sim).into_iter().filter(|sent| *sent > at + 4 * DELTA);
        assert_eq!(late.count(), 0, "a round after it votes again nobody asks for a view change");
    }
    heirs
}

/// ROADMAP item 1 (b)'s repro: `a_hinted_dead_leader_costs_no_timeout`'s
/// hinted kill and restart from the WAL, on links that take 10 to 13 ticks
/// instead of exactly δ — 20 seeds, each with the kill on every tick of one
/// round. The hint keeps the first outage at network speed; then, in some
/// runs, the restarted node's first turn starts in the instant it catches
/// up, meets its peers' view-change requests, and slot s + 1 moves to view
/// 1 at some nodes only: a 9Δ stall long after the kill.
///
/// The hint comes behind the dead node's last frame, as the transport
/// orders it (DESIGN.md §6). Raised one δ after the kill, it can overtake a
/// frame still on a 13-tick link, and that frame takes the suspicion back,
/// so the outage itself pays a 9Δ: in most of 165 stalled runs of 800.
#[test]
#[ignore = "ROADMAP item 1 (b)"]
fn hinted_restart_sweep_has_no_second_timeout() {
    const UNTIL: u64 = 3_000;
    const SLOWEST_LINK: u64 = 13;
    let mut stalls = Vec::new();
    for (seed, kill) in (0..20u64).flat_map(|seed| (500..540).map(move |kill| (seed, kill))) {
        let params = Params::new(30).with_fsync(FsyncPolicy::Never);
        let links = LinkPlan::uniform(EdgeSpec::delay(10).with_jitter(SLOWEST_LINK - 10));
        let world =
            World { links, seed, durable: Some("hinted-restart"), ..World::new(params, UNTIL) };
        let sim = world.run(|mut node| {
            if node.me == DEAD {
                node.outage = kill..1_500;
            } else {
                node.hint = Some((kill + SLOWEST_LINK + 1, DEAD));
            }
            Some(node)
        });
        // A chain that stops for good stalls until the end of the run.
        let mut gaps = gaps(&sim);
        let last = gaps.last().map_or(0, |(at, _)| *at);
        gaps.push((UNTIL, UNTIL - last));
        let long: Vec<_> =
            gaps.into_iter().filter(|(at, gap)| *at > kill && *gap >= 9 * 30).collect();
        if !long.is_empty() {
            stalls.push((seed, kill, long));
        }
        for node in 0..4 {
            let _ = std::fs::remove_dir_all(scratch_dir("hinted-restart", NodeId(node)));
        }
    }
    // (seed, kill, [(finalized at, ticks since the one before)]).
    assert!(stalls.is_empty(), "{} of 800 runs stall ≥ 9Δ: {stalls:?}", stalls.len());
}

/// Node 3 is alive and in step; the first `told` of its peers are told at
/// tick `at` that its stream ended.
fn false_hint(told: u16, at: u64) -> ChainSim {
    World::new(Params::new(30), 2_000).run(|mut node| {
        if node.me.0 < told {
            node.hint = Some((at, NodeId(3)));
        }
        Some(node)
    })
}

/// `(told, at)` of `a_false_hint_costs_a_view_change_not_a_timeout`.
fn false_hint_runs() -> impl Iterator<Item = (u16, u64)> {
    (1..=3u16).flat_map(|told| (500..540).map(move |at| (told, at)))
}

/// Node 3's connection drops and comes back every 50 ticks from tick 500
/// to 2,500, under a node that never stops proposing and voting: every
/// peer is told each time.
fn flapping() -> ChainSim {
    World::new(Params::new(30), 3_000).run(|mut node| {
        if node.me != NodeId(3) {
            node.hint = Some((500, NodeId(3)));
            node.rehint = Some((50, 2_500));
        }
        Some(node)
    })
}

#[test]
fn a_false_hint_costs_a_view_change_not_a_timeout() {
    // Node 3 is alive and in step; one, two or all three of its peers are
    // told otherwise, at every tick of one round. Where a quorum believes
    // it one slot changes view at network speed; otherwise the request is
    // taken back when node 3 is heard. Either way the bit is clear a round
    // later: nobody asks again.
    for (told, at) in false_hint_runs() {
        let sim = false_hint(told, at);
        let gaps = gaps(&sim);
        let worst = gaps.iter().filter(|(at, _)| *at > 400).map(|g| g.1).max().unwrap();
        assert!(worst <= 3 * DELTA, "{told} told at {at}: a gap of {worst} ticks");
        assert!(gaps.last().unwrap().0 > 1_950, "{told} told at {at}: the chain must stay live");
        let asked = view_changes_sent(&sim);
        let msgs = sim.metrics().kind("view-change").msgs;
        assert!(msgs <= 21, "{told} told at {at}: {msgs} view-change messages");
        assert!(asked.iter().all(|sent| *sent <= 700), "{told} told at {at}: asked at {asked:?}");
    }
}

#[test]
fn a_flapping_peer_costs_view_changes_and_never_a_timeout() {
    // A connection that drops and comes back every 50 ticks, under a node
    // that never stops proposing and voting: every peer is told each time.
    let hints = 2_000 / 50;
    let sim = flapping();
    let gaps = gaps(&sim);
    let worst = gaps.iter().filter(|(at, _)| *at > 400).map(|g| g.1).max().unwrap();
    assert!(worst < 9 * 30, "a gap of {worst} ticks");
    assert!(gaps.last().unwrap().0 > 2_950, "the chain must stay live");
    let msgs = sim.metrics().kind("view-change").msgs;
    assert!(msgs <= 21 * hints, "{msgs} view-change messages for {hints} hints");
    let asked = view_changes_sent(&sim);
    assert!(asked.iter().all(|sent| *sent <= 2_700), "asked long after the last hint: {asked:?}");
}

#[test]
fn a_borrower_that_drops_every_relay_costs_one_hop_and_no_transaction() {
    // A lost frame, or a borrower that omits: the lender sees the
    // borrower's block without its batch one hop after the proposal, and
    // the batch is at the head of its queue again.
    // Only the two borrowers of the good case are deaf: a loan that went
    // anywhere else past a missed one would land, and overtake it.
    let mut clients = with_clients(100..1_100);
    let sim = World::new(Params::new(100), 1_400).run(|mut node| {
        node.drops_relays = node.me.0 % 2 == 0;
        clients(node)
    });
    assert!(relays_to(&sim, NodeId(0)) > 20 && relays_to(&sim, NodeId(2)) > 20);
    assert_once_each_in_admission_order(&sim, &[(NodeId(0), 1_000), (NodeId(2), 1_000)]);
    assert_eq!(sim.metrics().kind("view-change").msgs, 0);
}

#[test]
fn a_borrower_restarted_from_its_wal_keeps_both_promises() {
    // Node 2 — node 0's borrower, and a lender itself — is killed mid-run
    // and comes back from its WAL 300 ms later. What it had borrowed dies
    // with it and returns to node 0 when the slot commits; what it had
    // lent or proposed is in blocks the others hold; what it had queued
    // is in its journal. Its client submits nothing while it is down.
    let params = Params::new(30).with_max_block_txs(4_096).with_fsync(FsyncPolicy::Never);
    let (feed, outage) = (100..1_100, 600..900);
    let mut clients = with_clients(feed.clone());
    let world = World { durable: Some("restart"), ..World::new(params, 4_000) };
    let sim = world.run(|mut node| {
        if node.me == NodeId(2) {
            node.outage = outage.clone();
        }
        clients(node)
    });
    assert!(sim.metrics().kind("view-change").msgs > 0, "the outage must be felt");
    let fed_to_2 = (feed.end - feed.start) - (outage.end - outage.start);
    assert_once_each_in_admission_order(&sim, &[(NodeId(0), 1_000), (NodeId(2), fed_to_2)]);
    let rejoined = sim.outputs().iter().filter(|o| o.node == NodeId(2) && o.time.0 > outage.end);
    assert!(rejoined.count() > 50, "the restarted node must get back in step");
    for node in 0..4 {
        let _ = std::fs::remove_dir_all(scratch_dir("restart", NodeId(node)));
    }
}

#[test]
fn a_backlog_drains_through_both_doors_in_order() {
    // 40 queued at node 0 before the first slot, 8 to a block: its own
    // blocks and node 2's take turns carrying them, and they still
    // finalize 0..40.
    let params = Params::new(100).with_max_block_txs(8);
    let sim = World::new(params, 400).run(|mut node| {
        if node.me == NodeId(0) {
            node.backlog = 40;
        }
        Some(node)
    });
    assert_once_each_in_admission_order(&sim, &[(NodeId(0), 40)]);
    assert!(relays_to(&sim, NodeId(2)) >= 2, "part of the backlog must travel as loans");
    let sizes =
        sim.outputs().iter().filter(|o| o.node == OBSERVER).map(|o| o.output.block.txs.len());
    assert!(sizes.clone().all(|txs| txs <= 8), "no block may exceed max_block_txs");
    assert_eq!(sizes.filter(|txs| *txs == 8).count(), 5, "40 at 8 per block fill exactly 5");
}

/// Every node has a client (500 transactions each) and blocks are small,
/// so lenders meet at one borrower and only part of a loan fits; each
/// message takes a time drawn from `jitter`, so loans arrive after the
/// proposal they were meant for; and node k's outbound traffic is held
/// back from tick 400 + 500k for `hold` ticks, longer than the view
/// timeout, then released at once: its slots change view, blocks that
/// carry loans lose, stale proposals and loans arrive late. Nothing is ever
/// dropped on the wire (the chain has no block fetch), so in the end every
/// transaction must be on the chain, once, in order.
fn held_links(seed: u64, jitter: RangeInclusive<u64>, hold: u64) -> ChainSim {
    let params = Params::new(30).with_max_block_txs(6);
    let (fastest, slowest) = jitter.into_inner();
    let mut links = LinkPlan::uniform(EdgeSpec::delay(fastest).with_jitter(slowest - fastest));
    for node in 0..4 {
        let from = 400 + 500 * u64::from(node);
        let held = PartitionWindow::from_group(from, from + hold, [NodeId(node)]).hold();
        links = links.partition(held);
    }
    let world = World { links, seed, ..World::new(params, 12_000) };
    world.run(|mut node| {
        node.feed = 100..2_100;
        node.every = 4;
        Some(node)
    })
}

fn fed_500_each() -> Vec<(NodeId, u64)> {
    (0..4).map(|node| (NodeId(node), 500)).collect()
}

#[test]
fn held_links_and_contended_borrowers_keep_both_promises() {
    // Links jitter between 0.5δ and 2.5δ; each hold lasts 350 ticks.
    for seed in 0..12u64 {
        let sim = held_links(seed, 5..=25, 350);
        assert!(sim.metrics().kind("view-change").msgs > 0, "seed {seed}: the holds must be felt");
        assert!(sim.metrics().kind("relay").msgs > 50, "seed {seed}: loans must be made");
        assert_once_each_in_admission_order(&sim, &fed_500_each());
    }
}

/// ROADMAP item 1's repro: the same scenario with jitter up to Δ and holds
/// of 150 to 450 ticks wedges the chain — the live slots cycle through
/// view after view and nothing finalizes again — on 36 of these 1,500
/// seeds at 04ad5d4, and on those 36 and three more (761, 981, 1397) since
/// a silent leader's slots ask for view 1 as they start (ISSUE 21): a held
/// node that is released in the instant its slot starts gets a view change
/// it did not need, and any view change can seed the cascade. In all three
/// the first slot left stuck was entered by timers, later. Seeds 68, 76 and
/// 123 wedge on both sides of that change and run first, so a fix can show
/// this red, then green.
#[test]
#[ignore = "ROADMAP item 1"]
fn held_links_sweep_never_wedges() {
    let wedges = |seed: &u64| {
        let sim = held_links(*seed, 1..=30, 150 + (37 * seed) % 300);
        admission_order_violation(&sim, &fed_500_each()).is_some()
    };
    let named: Vec<u64> = [68, 76, 123].into_iter().filter(wedges).collect();
    assert!(named.is_empty(), "seeds {named:?} wedge");
    let wedged: Vec<u64> = (0..1_500).filter(wedges).collect();
    assert!(wedged.is_empty(), "{} of 1,500 seeds wedge: {wedged:?}", wedged.len());
}

/// Everything observable about one run, as `tests/batched_stepping.rs`
/// records it.
#[derive(Debug)]
#[allow(dead_code)] // read through `Debug` only
struct RunRecord<'a> {
    outputs: &'a [OutputRecord<Finalized>],
    trace: &'a [TraceEvent<MsMessage>],
    bytes_sent: u64,
    msgs_sent: u64,
    events_processed: u64,
    final_time: Time,
}

/// The FNV-1a digest of one whole run's [`RunRecord`]'s `Debug` text.
fn digest(sim: &ChainSim) -> u64 {
    let record = RunRecord {
        outputs: sim.outputs(),
        trace: sim.trace().unwrap_or_default(),
        bytes_sent: sim.metrics().total_bytes_sent(),
        msgs_sent: sim.metrics().total_msgs_sent(),
        events_processed: sim.metrics().events_processed,
        final_time: sim.now(),
    };
    fnv1a(&format!("{record:?}"))
}

/// The digest of a scenario: of the digests of its runs, in order.
fn scenario_digest(runs: impl Iterator<Item = ChainSim>) -> u64 {
    let digests: Vec<u64> = runs.map(|sim| digest(&sim)).collect();
    fnv1a(&format!("{digests:?}"))
}

/// FNV-1a, the runs' fingerprint: not one of the chain's digests.
fn fnv1a(text: &str) -> u64 {
    let prime = 0x0000_0100_0000_01b3;
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(prime))
}

/// The view-change driver's traffic, pinned: every run of the four
/// scenarios that price its departures from Algorithm 3 — the silent bit,
/// the request a slot makes as it starts, the `PeerDown` hint and the
/// withdrawal — and three held-link seeds that wedge, down to the last
/// message, tick and byte. The tests above check those departures by
/// counts; these digests say the driver did not change at all. A change
/// that moves the driver's traffic, or the block digest its messages
/// carry, on purpose re-captures them and says why.
#[test]
fn the_view_change_drivers_traffic_is_pinned() {
    let dead = dead_leader_runs().map(|(back, kill)| crash("pin-dead", kill, back, false));
    assert_eq!(scenario_digest(dead), 0xd898_6981_ae90_26aa, "a_dead_leader_costs_one_timeout");
    let hinted = hinted_leader_runs().map(|(back, kill)| crash("pin-hinted", kill, back, true));
    assert_eq!(
        scenario_digest(hinted),
        0x62d0_bce6_f671_addb,
        "a_hinted_dead_leader_costs_no_timeout"
    );
    let false_hints = false_hint_runs().map(|(told, at)| false_hint(told, at));
    assert_eq!(
        scenario_digest(false_hints),
        0xac0e_9213_7043_b80f,
        "a_false_hint_costs_a_view_change_not_a_timeout"
    );
    assert_eq!(
        digest(&flapping()),
        0x3c05_7165_23b7_06ad,
        "a_flapping_peer_costs_view_changes_and_never_a_timeout"
    );
    for (seed, pinned) in
        [(68, 0x34c9_2ca6_e1fd_d75d), (76, 0x9fa3_8fae_0b6f_3de6), (123, 0x75ea_df1a_fdac_6651)]
    {
        let sim = held_links(seed, 1..=30, 150 + (37 * seed) % 300);
        assert_eq!(digest(&sim), pinned, "held_links seed {seed}");
    }
}
