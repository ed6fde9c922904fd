//! Protocol-speaking Byzantine behaviors for the fuzzer, and the nodes that
//! wrap an honest one.
//!
//! [`single`] and [`chain`] say what each [`Attack`] makes a
//! [`ByzantineActor`](crate::actors::ByzantineActor) send: single-shot
//! behaviors speak [`Message`], chain behaviors speak [`MsMessage`]. The
//! attacks that send nothing of their own act on an honest node instead
//! (when nothing else in the composition speaks for it): selective silence
//! filters what it sends, [`Flapped`] makes its peers hear it flap, and
//! [`Crashing`] stops it.

use std::sync::Arc;

use tetrabft::{Message, Params, ProofData, SuggestData};
use tetrabft_multishot::{BlockHash, Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{Context, Dest, Input, Node, TimerId};
use tetrabft_types::{Config, NodeId, Phase, Slot, Value, View, VoteInfo};

use crate::actors::{behavior, Behavior};
use crate::Attack;

/// What `attack` makes a single-shot actor send; `None` for an attack that
/// sends nothing of its own.
pub(crate) fn single(attack: &Attack, seed: u64) -> Option<Behavior<Message>> {
    Some(match attack {
        Attack::Equivocate => equivocator(seed),
        Attack::SkewedReplay { view_offset } => skewed_replayer(*view_offset),
        Attack::ValueSpam { .. } => value_spammer(),
        Attack::Amplify => amplifier(),
        Attack::ForgeHistory => forger(seed),
        Attack::SilenceToward(_)
        | Attack::RelaySpam
        | Attack::VoteThenSkip
        | Attack::Flap { .. }
        | Attack::CrashAt { .. } => return None,
    })
}

/// What `attack` makes a chain actor send; `None` for an attack that sends
/// nothing of its own.
pub(crate) fn chain(attack: &Attack, seed: u64) -> Option<Behavior<MsMessage>> {
    Some(match attack {
        Attack::Equivocate => ms_equivocator(seed),
        Attack::SkewedReplay { view_offset } => ms_skewed_replayer(*view_offset),
        Attack::ValueSpam { .. } => ms_value_spammer(),
        Attack::RelaySpam => ms_relay_spammer(),
        Attack::VoteThenSkip => ms_vote_then_skip(),
        Attack::ForgeHistory => ms_forger(seed),
        Attack::SilenceToward(_)
        | Attack::Amplify
        | Attack::Flap { .. }
        | Attack::CrashAt { .. } => return None,
    })
}

/// Ensures the equivocation offset actually flips at least one bit.
fn nonzero(flip: u64) -> u64 {
    flip | 1
}

/// Split-brain equivocator: courts even-numbered peers with one value and
/// odd-numbered peers with a conflicting one.
///
/// On `Start` it poses as the view-0 leader, sending each side its own
/// proposal plus matching votes through all four phases — if this node
/// really is the view-0 leader and enough Byzantine peers run the same
/// strategy, each honest side can assemble a full quorum for its value.
/// Afterwards it echoes every delivered vote per-recipient: verbatim to
/// even peers, value-flipped to odd peers, feeding both sides in later
/// views too. The per-recipient conflict is exactly what the omniscient
/// wire recorder (`tetrabft_sim::Metrics`) records as equivocation evidence.
fn equivocator(flip: u64) -> Behavior<Message> {
    let flip = nonzero(flip);
    let base = 0xe0_0001u64;
    behavior(move |input, env, out| match input {
        Input::Start => {
            for peer in 0..env.n as u16 {
                if peer == env.me.0 {
                    continue;
                }
                let side = if peer % 2 == 0 { base } else { base ^ flip };
                let value = Value::from_u64(side);
                let dest = Dest::Node(NodeId(peer));
                out.push((dest, Message::Proposal { view: View(0), value }));
                for phase in Phase::ALL {
                    out.push((dest, Message::Vote { phase, view: View(0), value }));
                }
            }
        }
        Input::Deliver { msg: Message::Vote { phase, view, value }, .. } => {
            for peer in 0..env.n as u16 {
                if peer == env.me.0 {
                    continue;
                }
                let side =
                    if peer % 2 == 0 { *value } else { Value::from_u64(value.as_u64() ^ flip) };
                out.push((
                    Dest::Node(NodeId(peer)),
                    Message::Vote { phase: *phase, view: *view, value: side },
                ));
            }
        }
        _ => {}
    })
}

/// Replays every delivered vote `view_offset` views later and earlier — a
/// premature ballot and a stale one, both of which honest registers must
/// tolerate. The earlier copy is skipped where it would fall below view 0.
fn skewed_replayer(view_offset: u64) -> Behavior<Message> {
    behavior(move |input, _env, out| {
        if let Input::Deliver { msg: Message::Vote { phase, view, value }, .. } = input {
            for view in skewed(*view, view_offset) {
                out.push((Dest::All, Message::Vote { phase: *phase, view, value: *value }));
            }
        }
    })
}

/// `view` moved `offset` down (unless that falls below view 0) and up.
fn skewed(view: View, offset: u64) -> impl Iterator<Item = View> {
    let down = view.0.checked_sub(offset);
    down.into_iter().chain([view.0.saturating_add(offset)]).map(View)
}

/// On every adversary tick, broadcasts a rotating stream of forged proposals
/// and votes across low views. Because the rotation period of the value
/// (3) and the register (4 phases × 5 views) are coprime, the spammer also
/// self-equivocates over time, exercising the evidence path.
fn value_spammer() -> Behavior<Message> {
    let mut k: u64 = 0;
    behavior(move |input, _env, out| {
        if matches!(input, Input::Timer { .. }) {
            k += 1;
            out.push((
                Dest::All,
                Message::Vote {
                    phase: Phase::ALL[(k % 4) as usize],
                    view: View(k % 5),
                    value: Value::from_u64(0xbad_0000 + k % 3),
                },
            ));
            out.push((
                Dest::All,
                Message::Proposal { view: View(k % 5), value: Value::from_u64(0xbad_1000 + k % 3) },
            ));
        }
    })
}

/// How many distinct `(view, value)` pairs the amplifier, or `(slot, view)`
/// requests the chain forger, remembers having answered.
const MEMORY: usize = 64;

/// Vote amplifier: for every `(view, value)` it hears proposed or voted, it
/// votes that value in all four phases of that view — maximal amplification
/// of whatever any node says.
fn amplifier() -> Behavior<Message> {
    let mut seen: Vec<(View, Value)> = Vec::new();
    behavior(move |input, _env, out| {
        let Input::Deliver {
            msg: Message::Proposal { view, value } | Message::Vote { view, value, .. },
            ..
        } = input
        else {
            return;
        };
        if seen.contains(&(*view, *value)) {
            return;
        }
        if seen.len() == MEMORY {
            seen.remove(0);
        }
        seen.push((*view, *value));
        for phase in Phase::ALL {
            out.push((Dest::All, Message::Vote { phase, view: *view, value: *value }));
        }
    })
}

/// The value a history forger pushes, derived from the scenario seed.
fn poison(seed: u64) -> Value {
    Value::from_u64(0x11e5_0000 ^ seed)
}

/// The history a forger claims when asked about `view`: it voted `poison`
/// in every phase of the view before.
fn forged(view: View, poison: Value) -> (SuggestData, ProofData) {
    let fake = Some(VoteInfo::new(View(view.0.saturating_sub(1)), poison));
    (
        SuggestData { vote2: fake, prev_vote2: None, vote3: fake },
        ProofData { vote1: fake, prev_vote1: None, vote4: fake },
    )
}

/// History forger: the first time it hears a view change to a view, it
/// sends that view's leader a forged suggest, broadcasts a forged proof
/// (both claiming high votes for a poison value), and echoes the request.
/// Rule 1 and Algorithm 4 exist so that the honest leader and voters are
/// not talked into the poison.
fn forger(seed: u64) -> Behavior<Message> {
    let poison = poison(seed);
    let mut answered: Option<View> = None;
    behavior(move |input, env, out| {
        let Input::Deliver { msg: Message::ViewChange { view }, .. } = input else { return };
        if answered.is_some_and(|v| *view <= v) {
            return;
        }
        answered = Some(*view);
        let (suggest, proof) = forged(*view, poison);
        let leader = Config::new(env.n).expect("a running system has nodes").leader_of(*view);
        out.push((Dest::All, Message::Proof { view: *view, data: proof }));
        out.push((Dest::Node(leader), Message::Suggest { view: *view, data: suggest }));
        out.push((Dest::All, Message::ViewChange { view: *view }));
    })
}

/// Chain-mode split-brain equivocator: votes the real block hash toward
/// even-numbered peers and a flipped hash toward odd-numbered peers, for
/// every proposal or vote it hears about, in the same `(slot, view)`
/// register.
fn ms_equivocator(flip: u64) -> Behavior<MsMessage> {
    let flip = nonzero(flip);
    behavior(move |input, env, out| {
        if let Input::Deliver { msg, .. } = input {
            let (slot, view, hash) = match msg {
                MsMessage::Proposal { view, block } => (block.slot, *view, block.hash()),
                MsMessage::Vote { slot, view, hash } => (*slot, *view, *hash),
                _ => return,
            };
            for peer in 0..env.n as u16 {
                if peer == env.me.0 {
                    continue;
                }
                let side = if peer % 2 == 0 { hash } else { BlockHash(hash.0 ^ flip) };
                out.push((Dest::Node(NodeId(peer)), MsMessage::Vote { slot, view, hash: side }));
            }
        }
    })
}

/// Chain-mode stale replayer across views and slots: every delivered vote
/// comes back `view_offset` views later and earlier (as in single-shot
/// mode), and in the same view one slot lower and one slot higher.
fn ms_skewed_replayer(view_offset: u64) -> Behavior<MsMessage> {
    behavior(move |input, _env, out| {
        if let Input::Deliver { msg: MsMessage::Vote { slot, view, hash }, .. } = input {
            let views = skewed(*view, view_offset).map(|view| (*slot, view));
            let slots = slot.prev().into_iter().chain([slot.next()]).map(|slot| (slot, *view));
            for (slot, view) in views.chain(slots) {
                out.push((Dest::All, MsMessage::Vote { slot, view, hash: *hash }));
            }
        }
    })
}

/// Chain-mode spam: forged votes for rotating low slots with bogus hashes.
fn ms_value_spammer() -> Behavior<MsMessage> {
    let mut k: u64 = 0;
    behavior(move |input, _env, out| {
        if matches!(input, Input::Timer { .. }) {
            k += 1;
            out.push((
                Dest::All,
                MsMessage::Vote {
                    slot: Slot(1 + k % 4),
                    view: View(k % 3),
                    hash: BlockHash(0xbad_c0de + k % 3),
                },
            ));
        }
    })
}

/// Chain-mode history forger: the first time it hears a view change for a
/// `(slot, view)`, it sends the slot's leader in that view a forged suggest
/// and broadcasts a forged proof, both claiming high votes for a hash no
/// block has.
fn ms_forger(seed: u64) -> Behavior<MsMessage> {
    let poison = poison(seed);
    let mut answered: Vec<(Slot, View)> = Vec::new();
    behavior(move |input, env, out| {
        let Input::Deliver { msg: MsMessage::ViewChange { slot, view }, .. } = input else {
            return;
        };
        let (slot, view) = (*slot, *view);
        if answered.contains(&(slot, view)) {
            return;
        }
        if answered.len() == MEMORY {
            answered.remove(0);
        }
        answered.push((slot, view));
        let (suggest, proof) = forged(view, poison);
        let cfg = Config::new(env.n).expect("a running system has nodes");
        let leader = MultiShotNode::leader_of(&cfg, slot, view);
        out.push((Dest::Node(leader), MsMessage::Suggest { slot, view, data: suggest }));
        out.push((Dest::All, MsMessage::Proof { slot, view, data: proof }));
    })
}

/// How many proposal payloads the relay spammer keeps to send back, and how
/// many proposed blocks it remembers the hash of.
const RELAY_MEMORY: usize = 32;

/// Chain-mode hand-off abuse: on every input, one [`MsMessage::Relay`] to
/// each peer, aimed at the live window (the highest slot heard of so far)
/// and rotating through six shapes so that every peer sees each of them:
///
/// 0. well-formed — a few fresh payloads for the next slot the peer leads;
/// 1. empty, for that slot;
/// 2. oversize — more payloads than a block may carry, the first of them
///    longer than a transaction may be;
/// 3. for a slot the peer does not lead;
/// 4. for a slot the peer leads and has already proposed;
/// 5. copies of payloads seen in proposals, for the next slot it leads —
///    transactions that are, or are about to be, on the chain already.
///
/// A borrower takes a loan only beside the lender's view-0 vote for the
/// block two slots down, so wherever the spammer has heard that block
/// proposed it sends the vote first: its loans are as good as an honest
/// lender's, and the ones that must be refused are refused on their own
/// account. An honest borrower buffers what passes its checks for a slot it
/// leads and has not proposed, puts at most one block's worth behind its
/// own batch, and keeps nothing; no shape may cost safety, liveness, or a
/// block past `max_block_txs` (the chain oracle checks the last).
fn ms_relay_spammer() -> Behavior<MsMessage> {
    let (mut step, mut tip) = (0u64, 0u64);
    let mut seen: Vec<Vec<u8>> = Vec::new();
    let mut proposed: Vec<(u64, BlockHash)> = Vec::new();
    behavior(move |input, env, out| {
        match input {
            Input::Deliver { msg: MsMessage::Proposal { view, block }, .. } => {
                tip = tip.max(block.slot.0);
                seen.extend(block.txs.iter().take(RELAY_MEMORY - seen.len()).cloned());
                if view.is_zero() {
                    proposed.truncate(RELAY_MEMORY - 1);
                    proposed.insert(0, (block.slot.0, block.hash()));
                }
            }
            Input::Deliver { msg: MsMessage::Vote { slot, .. }, .. } => tip = tip.max(slot.0),
            _ => {}
        }
        step += 1;
        let cfg = Config::new(env.n).expect("a running system has nodes");
        let forged = |count: u64| -> Vec<Vec<u8>> {
            let tx = |i| [step, u64::from(env.me.0), i].map(u64::to_be_bytes).concat();
            (0..count).map(tx).collect()
        };
        for peer in (0..env.n as u16).filter(|peer| *peer != env.me.0) {
            let leads = |slot: &u64| {
                MultiShotNode::leader_of(&cfg, Slot(*slot), View::ZERO) == NodeId(peer)
            };
            let next_led = (tip + 1..).find(leads).expect("every node leads one slot in n");
            let (slot, txs) = match (step + u64::from(peer)) % 6 {
                0 => (next_led, forged(3)),
                1 => (next_led, Vec::new()),
                2 => {
                    let mut txs = forged(Params::DEFAULT_MAX_BLOCK_TXS as u64 + 8);
                    txs[0] = vec![0xf0; Params::DEFAULT_MAX_TX_BYTES + 1];
                    (next_led, txs)
                }
                3 => (next_led + 1, forged(2)),
                4 => ((1..=tip).rev().find(leads).unwrap_or(0), forged(2)),
                _ => (next_led, seen.clone()),
            };
            let dest = Dest::Node(NodeId(peer));
            if let Some((below, hash)) = proposed.iter().find(|(s, _)| s + 2 == slot) {
                out.push((
                    dest,
                    MsMessage::Vote { slot: Slot(*below), view: View::ZERO, hash: *hash },
                ));
            }
            out.push((dest, MsMessage::Relay { slot: Slot(slot), txs: Arc::new(txs) }));
        }
    })
}

/// Chain-mode *vote-then-skip* leader: votes for every proposal it hears,
/// in the proposal's view, and never proposes. Honest nodes take a leader
/// for dead — and its next slot to view 1 without waiting — only while it
/// has not been heard voting since a slot of its timed out; this one is
/// always heard, so each of its turns costs the full 9Δ timer, which is
/// what a crashed leader cost per turn before it could be suspected, and
/// the most any leader can cost.
fn ms_vote_then_skip() -> Behavior<MsMessage> {
    behavior(|input, _env, out| {
        if let Input::Deliver { msg: MsMessage::Proposal { view, block }, .. } = input {
            let vote = MsMessage::Vote { slot: block.slot, view: *view, hash: block.hash() };
            out.push((Dest::All, vote));
        }
    })
}

/// An honest chain node whose transport keeps reporting that the streams
/// of `flappers` ended: one `Input::PeerDown` about each, every so many
/// ticks ([`Attack::Flap`](crate::Attack::Flap)). The simulator itself
/// never raises the hint.
pub(crate) struct Flapped {
    inner: MultiShotNode,
    flappers: Vec<(NodeId, u64)>,
}

impl Flapped {
    pub(crate) fn new(inner: MultiShotNode, flappers: Vec<(NodeId, u64)>) -> Self {
        Flapped { inner, flappers }
    }

    /// The k-th flapper's timer: below the two ids the node reserves, far
    /// above any slot's.
    fn timer(k: usize) -> TimerId {
        TimerId(u64::MAX - 2 - k as u64)
    }
}

impl Node for Flapped {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Context<'_, MsMessage, Finalized>) {
        let flap = |k: &usize| matches!(input, Input::Timer { id } if id == Self::timer(*k));
        if let Some(k) = (0..self.flappers.len()).find(flap) {
            let (peer, period) = self.flappers[k];
            ctx.set_timer(Self::timer(k), period);
            return self.inner.handle(Input::PeerDown { peer }, ctx);
        }
        if matches!(input, Input::Start) {
            for (k, (_, period)) in self.flappers.iter().enumerate() {
                ctx.set_timer(Self::timer(k), *period);
            }
        }
        self.inner.handle(input, ctx);
    }
}

/// A node that stops at virtual time `at` ([`Attack::CrashAt`]): until
/// then it runs as it would, from then on it drops every input, its own
/// timers included.
pub(crate) struct Crashing<N> {
    inner: N,
    at: u64,
}

impl<N> Crashing<N> {
    pub(crate) fn new(inner: N, at: u64) -> Self {
        Crashing { inner, at }
    }
}

impl<N: Node> Node for Crashing<N> {
    type Msg = N::Msg;
    type Output = N::Output;

    fn handle(&mut self, input: Input<N::Msg>, ctx: &mut Context<'_, N::Msg, N::Output>) {
        if ctx.now().0 < self.at {
            self.inner.handle(input, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_multishot::{Block, GENESIS_HASH};
    use tetrabft_sim::{EdgeSpec, LinkPlan, SilentNode, SimBuilder, Time};

    use crate::actors::{BehaviorEnv, ByzantineActor};

    type ChainNode = Box<dyn Node<Msg = MsMessage, Output = Finalized>>;

    /// Δ = 30 on 10-ms links for 6,000 ticks: the gaps between node 0's
    /// consecutive finalizations (the first counted from the start).
    fn gaps(mut make: impl FnMut(MultiShotNode) -> ChainNode) -> Vec<u64> {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(10)))
            .build_boxed(|id| make(MultiShotNode::new(cfg, Params::new(30), id)));
        sim.run_until(Time(6_000));
        let finalized = sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| o.time.0);
        let at: Vec<u64> = std::iter::once(0).chain(finalized).collect();
        at.windows(2).map(|pair| pair[1] - pair[0]).collect()
    }

    /// Node 3 replaced by `faulty`: the gaps of a timer's length or more.
    fn stalls(faulty: fn() -> ChainNode) -> Vec<u64> {
        let mut next = 0..4;
        let gaps = gaps(|honest| if next.next() == Some(3) { faulty() } else { Box::new(honest) });
        gaps.into_iter().filter(|gap| *gap >= 9 * 30).collect()
    }

    #[test]
    fn a_flapping_honest_leader_never_costs_a_timer() {
        // Node 3 proposes and votes like anybody; its peers are told every
        // 50 ticks that its stream ended. A hint that finds a slot of its
        // not yet proposed costs that slot a view change, no hint a timer:
        // the next vote clears the bit.
        let mut next = 0..4;
        let gaps = gaps(|honest| match next.next() {
            Some(3) => Box::new(honest),
            _ => Box::new(Flapped::new(honest, vec![(NodeId(3), 50)])),
        });
        assert!(gaps.len() > 400, "the chain must keep its pace, {} blocks", gaps.len());
        let worst = gaps.iter().skip(1).max().unwrap();
        assert!(*worst <= 30, "a flap cost {worst} ticks");
    }

    #[test]
    fn vote_then_skip_costs_one_timer_a_turn_and_a_crash_one_timer() {
        // A crashed leader is silent: one stall — 9Δ + 2δ and, before a
        // first finalization, four hops more — then its slots go to view 1
        // as they start. (At 04ad5d4 every turn cost 9Δ + 2δ: in this world
        // 18 stalls, the very list below.)
        assert_eq!(stalls(|| Box::new(SilentNode::new())), [330]);
        // One that votes is never silent when its turn comes: that stall
        // every turn — the timer and never more, as before.
        let skipper = || -> ChainNode {
            Box::new(ByzantineActor::new(vec![ms_vote_then_skip()], vec![], None))
        };
        let mut every_turn = vec![290; 18];
        every_turn[0] = 330;
        assert_eq!(stalls(skipper), every_turn);
    }

    #[test]
    fn relay_spammer_shows_every_peer_every_shape() {
        let mut spammer = ms_relay_spammer();
        let env = BehaviorEnv { me: NodeId(3), n: 4 };
        let cfg = Config::new(4).unwrap();
        let onchain = b"already on the chain".to_vec();
        let block = Block::new(Slot(9), GENESIS_HASH, vec![onchain.clone()]);
        let vote = MsMessage::Vote { slot: Slot(9), view: View::ZERO, hash: block.hash() };
        let heard = Input::Deliver {
            from: NodeId(1),
            msg: MsMessage::Proposal { view: View::ZERO, block },
        };
        // (empty, oversize count, oversize payload, not led, led and past,
        // led and ahead with fresh payloads, with a copied one) per peer.
        let mut shapes = [[false; 7]; 3];
        for _ in 0..6 {
            let mut out = Vec::new();
            spammer(&heard, &env, &mut out);
            let mut last = None;
            for (dest, msg) in out {
                let (Dest::Node(peer), MsMessage::Relay { slot, txs }) = (dest, &msg) else {
                    last = Some((dest, msg));
                    continue;
                };
                assert_ne!(peer, env.me);
                // Slot 9's block is the only one heard proposed: a loan for
                // slot 11 comes right behind the vote that binds it.
                let bound = last.take().is_some_and(|(to, msg)| to == dest && msg == vote);
                assert_eq!(bound, *slot == Slot(11), "{peer}, {slot:?}");
                let led = MultiShotNode::leader_of(&cfg, *slot, View::ZERO) == peer;
                let seen = &mut shapes[peer.index()];
                seen[0] |= txs.is_empty();
                seen[1] |= txs.len() > Params::DEFAULT_MAX_BLOCK_TXS;
                seen[2] |= txs.iter().any(|tx| tx.len() > Params::DEFAULT_MAX_TX_BYTES);
                seen[3] |= !led;
                seen[4] |= led && *slot <= Slot(9);
                seen[5] |= led && *slot > Slot(9) && txs.len() == 3;
                seen[6] |= txs.contains(&onchain);
            }
        }
        assert_eq!(shapes, [[true; 7]; 3], "each peer sees each shape once in six steps");
    }
}
