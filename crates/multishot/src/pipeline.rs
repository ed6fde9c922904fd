//! Algorithms 2 and 3 and nothing else: proposals, the one multiplexed
//! vote, notarization, finalization and the view change over the window of
//! live slots. It knows no transaction queue and no disk: where a step
//! meets either, [`crate::node`] takes over (DESIGN.md §7).

use std::cmp::Reverse;
use std::collections::BTreeMap;

use tetrabft::rules::{leader_determine_safe, node_determine_safe};
use tetrabft::{Message as CoreMessage, Params, ProofData, SuggestData, ViewVerdict};
use tetrabft_engine::{Context, TimerId};
use tetrabft_types::{Config, InlineVec, NodeId, Phase, Slot, Value, View};

use crate::block::{Block, BlockHash, GENESIS_HASH};
use crate::instance::SlotInstance;
use crate::msg::MsMessage;
use crate::node::{Finalized, MultiShotNode};
use crate::store::BlockStore;

/// How many slots may be in flight beyond the last finalized block.
///
/// The finality lag is 4 slots and at most 5 blocks can abort (Section 6.2),
/// so 8 gives comfortable headroom while keeping protocol state O(window·n).
pub const SLOT_WINDOW: u64 = 8;

/// How many finalized slots keep their block in memory: in-flight votes may
/// still reference them as ancestors.
pub(crate) const FINALIZED_TAIL: u64 = 4;

/// The "fresh block" sentinel passed to Rule 1 as the leader's default
/// value: block hashes are never 0 (see [`Block::hash`]), so when
/// Algorithm 4 certifies this value the leader is free to mint a new block.
const FRESH: Value = Value([0; 8]);

pub(crate) type Ctx<'a> = Context<'a, MsMessage, Finalized>;

/// What a leader may propose: a new block in this view on this parent, for
/// the node to fill, or the block Rule 1 certified, again (with its hash).
pub(crate) enum Candidate {
    Fresh(View, BlockHash),
    Again(Block, BlockHash),
}

/// Keeps in `held` the view-change request that reaches further: prefer
/// higher view, then lower slot (a lower slot covers strictly more of the
/// chain).
fn raise(held: &mut Option<(Slot, View)>, (slot, view): (Slot, View)) {
    if held.is_none_or(|(s_h, v_h)| (view, Reverse(slot)) > (v_h, Reverse(s_h))) {
        *held = Some((slot, view));
    }
}

#[derive(Debug)]
pub(crate) struct Pipeline {
    pub(crate) cfg: Config,
    pub(crate) params: Params,
    pub(crate) me: NodeId,
    pub(crate) store: BlockStore,
    pub(crate) instances: BTreeMap<Slot, SlotInstance>,
    /// Highest finalized slot (0 = genesis) and its block hash.
    pub(crate) finalized: Slot,
    pub(crate) finalized_hash: BlockHash,
    /// Per-peer latest vote whose block is not yet known.
    pending: Vec<Option<(Slot, View, BlockHash)>>,
    /// Per-peer latest raw view-change pair (for echoing).
    vc_raw: Vec<Option<(Slot, View)>>,
    /// Highest view-change this node broadcast.
    vc_sent: Option<(Slot, View)>,
    /// Per-peer *silent* bit: a view-0 slot the peer leads timed out with
    /// no proposal ever seen, or the transport saw its stream end, and the
    /// peer has not been heard voting for a known block (or proposing) since. A silent leader's next slot asks
    /// for view 1 the moment it starts instead of 9Δ later, and nothing is
    /// lent to it. Liveness only — safety never reads it.
    silent: Vec<bool>,
    /// Reusable scratch for view-change suggest collection (filled in
    /// place each re-evaluation; capacity is retained across steps, so the
    /// steady state allocates nothing).
    scratch_suggests: Vec<SuggestData>,
    /// Reusable scratch for proof collection, same pattern.
    scratch_proofs: Vec<ProofData>,
    /// Reusable scratch for the finalization chain walk, newest block
    /// first (good case: one entry per finalize).
    scratch_chain: Vec<(Slot, BlockHash, Block)>,
}

impl Pipeline {
    pub(crate) fn new(cfg: Config, params: Params, me: NodeId) -> Self {
        Pipeline {
            cfg,
            params,
            me,
            store: BlockStore::new(),
            instances: BTreeMap::new(),
            finalized: Slot::GENESIS,
            finalized_hash: GENESIS_HASH,
            pending: vec![None; cfg.n()],
            vc_raw: vec![None; cfg.n()],
            vc_sent: None,
            silent: vec![false; cfg.n()],
            scratch_suggests: Vec::new(),
            scratch_proofs: Vec::new(),
            scratch_chain: Vec::new(),
        }
    }

    /// Whether `slot` may be live: above the tip by at most [`SLOT_WINDOW`].
    pub(crate) fn in_window(&self, slot: Slot) -> bool {
        slot > self.finalized && slot.0 <= self.finalized.0 + SLOT_WINDOW
    }

    fn leader(&self, slot: Slot, view: View) -> NodeId {
        MultiShotNode::leader_of(&self.cfg, slot, view)
    }

    /// Whether `slot`'s view-0 leader is held silent.
    fn leader_silent(&self, slot: Slot) -> bool {
        self.silent[self.leader(slot, View::ZERO).index()]
    }

    fn timer_for(slot: Slot) -> TimerId {
        // TimerId is as wide as Slot, so slots never alias (a u32 id
        // wrapped at slot 2^32, resurrecting foreign slots' timers).
        TimerId(slot.0)
    }

    pub(crate) fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.ensure_instance(self.finalized.next(), ctx);
        // Restored instances were created without a context; every
        // live slot (fresh or restored) gets its timer here.
        for slot in self.instances.keys() {
            ctx.set_timer(Self::timer_for(*slot), self.params.view_timeout());
        }
    }

    pub(crate) fn ensure_instance(&mut self, slot: Slot, ctx: &mut Ctx<'_>) {
        if !self.in_window(slot) || self.instances.contains_key(&slot) {
            return;
        }
        // Fresh instances start with a clean view-change slate: a
        // view-change applies to the slots that were active (aborted) when
        // it circulated, not to slots that start later — those "default to
        // starting from view 0" (Fig. 3's slot 4). Seeding fresh slots from
        // old requests would hand them straight to a potentially-dead
        // rotated leader.
        let mut inst = SlotInstance::new(&self.cfg);
        if self.leader_silent(slot) {
            Self::suspect(&mut inst, slot, self.me, ctx);
        }
        self.instances.insert(slot, inst);
        ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
    }

    /// A leader that let its last slot time out, or whose stream the
    /// transport saw end, and has not voted since is taken for dead: ask
    /// for view 1 now — a request every node was always free to send — and
    /// keep the 9Δ timer as retransmission.
    fn suspect(inst: &mut SlotInstance, slot: Slot, me: NodeId, ctx: &mut Ctx<'_>) {
        inst.suspected = true;
        inst.requests.record(me, View(1));
        ctx.broadcast(MsMessage::ViewChange { slot, view: View(1) });
    }

    /// The transport's hint that `peer`'s stream ended: the silent bit a
    /// timer would set 9Δ from now, and for every live slot `peer` leads in
    /// view 0 and has not proposed in, what a silent leader's fresh slot
    /// does as it starts. Asked once per slot, however often it is hinted.
    pub(crate) fn on_peer_down(&mut self, peer: NodeId, ctx: &mut Ctx<'_>) {
        if peer == self.me || peer.index() >= self.silent.len() {
            return;
        }
        self.silent[peer.index()] = true;
        for (slot, inst) in &mut self.instances {
            let unheard = inst.view.is_zero() && !inst.saw_proposal && !inst.suspected;
            if unheard && MultiShotNode::leader_of(&self.cfg, *slot, View::ZERO) == peer {
                Self::suspect(inst, *slot, self.me, ctx);
            }
        }
    }

    /// Returns the hash of an accepted proposal.
    pub(crate) fn on_proposal(
        &mut self,
        from: NodeId,
        view: View,
        block: Block,
        ctx: &mut Ctx<'_>,
    ) -> Option<BlockHash> {
        let slot = block.slot;
        // Not the leader of (slot, view): ignore the imposter.
        if !self.in_window(slot) || from != self.leader(slot, view) {
            return None;
        }
        self.silent[from.index()] = false;
        let hash = self.store.insert(block);
        self.ensure_instance(slot, ctx);
        // Receiving the proposal for slot s starts slot s+1 and its timer
        // (Algorithm 3 line 4).
        self.ensure_instance(slot.next(), ctx);
        if let Some(inst) = self.instances.get_mut(&slot) {
            inst.saw_proposal = true;
            inst.regs.record(from, &CoreMessage::Proposal { view, value: hash.as_value() });
        }
        self.retry_pending();
        Some(hash)
    }

    /// Returns `true` for a vote beyond the window: its sender is ahead.
    pub(crate) fn on_vote(&mut self, from: NodeId, vote: (Slot, View, BlockHash)) -> bool {
        let (slot, _, hash) = vote;
        if !self.in_window(slot) {
            return slot > self.finalized;
        }
        if self.store.slot_of(hash) == Some(slot) {
            self.apply_vote(from, vote);
        } else {
            // Unknown block: stash the latest such vote per peer and replay
            // it once the block arrives (constant storage per peer).
            self.pending[from.index()] = Some(vote);
        }
        false
    }

    /// Records a peer's suggest or proof.
    pub(crate) fn record(&mut self, from: NodeId, slot: Slot, msg: &CoreMessage) {
        if let Some(inst) = self.instances.get_mut(&slot) {
            inst.regs.record(from, msg);
        }
    }

    /// The four roles of one multiplexed vote: `vote-k` for slot
    /// `slot − k + 1` endorsing the `(k−1)`-th ancestor of `hash`.
    fn roles(&self, slot: Slot, hash: BlockHash) -> InlineVec<(Slot, Phase, Value), 4> {
        let mut roles = InlineVec::new();
        for k in 0u64..4 {
            let Some(target) = slot.0.checked_sub(k).map(Slot) else { break };
            if target <= self.finalized {
                break;
            }
            let Some(ancestor) = self.store.ancestor(hash, k as usize) else { break };
            let phase = Phase::from_u8(k as u8 + 1).expect("k+1 in 1..=4");
            roles.push((target, phase, ancestor.as_value()));
        }
        roles
    }

    fn apply_vote(&mut self, from: NodeId, (slot, view, hash): (Slot, View, BlockHash)) {
        // Voting for a block this node knows, at a live slot: in step.
        self.silent[from.index()] = false;
        for (target, phase, value) in self.roles(slot, hash) {
            if let Some(inst) = self.instances.get_mut(&target) {
                inst.regs.record(from, &CoreMessage::Vote { phase, view, value });
            }
        }
    }

    fn retry_pending(&mut self) {
        for peer in 0..self.cfg.n() {
            if let Some(vote) = self.pending[peer].filter(|v| self.store.slot_of(v.2) == Some(v.0))
            {
                self.pending[peer] = None;
                self.apply_vote(NodeId(peer as u16), vote);
            }
        }
    }

    pub(crate) fn on_view_change(
        &mut self,
        from: NodeId,
        slot: Slot,
        view: View,
        ctx: &mut Ctx<'_>,
    ) {
        // A peer that started a silent leader's slot a moment before this
        // node would: start it too (and ask with it), or the request finds
        // no instance to support and the slot waits out its timer.
        if slot.prev().is_some_and(|prev| self.instances.contains_key(&prev))
            && self.leader_silent(slot)
        {
            self.ensure_instance(slot, ctx);
        }
        raise(&mut self.vc_raw[from.index()], (slot, view));
        // Per-slot support: the request covers every active slot ≥ slot.
        for (_, inst) in self.instances.range_mut(slot..) {
            inst.requests.record(from, view);
        }
    }

    pub(crate) fn on_timeout(&mut self, slot: Slot, ctx: &mut Ctx<'_>) {
        let Some(inst) = self.instances.get_mut(&slot) else { return };
        inst.timer_expired = true;
        let target = inst.view.next();
        if inst.view.is_zero() && !inst.saw_proposal {
            self.silent[MultiShotNode::leader_of(&self.cfg, slot, View::ZERO).index()] = true;
        }
        // One view-change per stalled slot (Algorithm 3 lines 6–8); the
        // re-armed timer doubles as post-GST retransmission.
        raise(&mut self.vc_sent, (slot, target));
        ctx.broadcast(MsMessage::ViewChange { slot, view: target });
        ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
    }

    /// Snapshot of the live slots, to step them (steps insert and retire
    /// instances). Live instances are bounded by SLOT_WINDOW, so the inline
    /// capacity always suffices and the snapshot never allocates.
    pub(crate) fn live_slots(&self) -> InlineVec<Slot, { SLOT_WINDOW as usize }> {
        self.instances.keys().copied().collect()
    }

    /// Echo a view-change supported by a blocking set (Algorithm 2 lines
    /// 3–6), so that correct nodes converge on the change within one delay.
    pub(crate) fn step_echo(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut pairs: Vec<(Slot, View)> = self.vc_raw.iter().flatten().copied().collect();
        pairs.sort_unstable_by(|a, b| (b.1, a.0).cmp(&(a.1, b.0)));
        pairs.dedup();
        for (slot, view) in pairs {
            if self.vc_sent.is_some_and(|(_, v)| v >= view) {
                continue;
            }
            let support = self
                .vc_raw
                .iter()
                .flatten()
                .filter(|(s_p, v_p)| *s_p <= slot && *v_p >= view)
                .count();
            if self.cfg.is_blocking(support) {
                raise(&mut self.vc_sent, (slot, view));
                ctx.broadcast(MsMessage::ViewChange { slot, view });
                return true;
            }
        }
        false
    }

    /// Move a slot to a higher view once a quorum supports it (Algorithm 2
    /// lines 7–11): abort the slot, reset its timer, and send the per-slot
    /// suggest/proof that seed Rule 1 / Rule 3 in the new view.
    pub(crate) fn step_enter_view(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let (me, silent) = (self.me, self.leader_silent(slot));
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        // A request made on suspicion alone stands while the leader
        // stays silent, or once a peer is seen in a later view of this
        // slot. Heard from again before anyone moved, it is taken back:
        // where only some nodes took the leader for dead, all move or
        // none does.
        let mut condemned = inst.timer_expired;
        if inst.suspected && inst.view.is_zero() && !inst.timer_expired {
            let seen_moved = |peer| inst.regs.peer(peer).proof().is_some();
            condemned = silent || self.cfg.nodes().any(seen_moved);
            if !condemned {
                inst.requests.withdraw(me);
            } else if inst.requests.request(me).is_none() {
                inst.requests.record(me, View(1));
                ctx.broadcast(MsMessage::ViewChange { slot, view: View(1) });
            }
        }
        let ViewVerdict::Enter(target) = inst.requests.poll(inst.view) else { return false };
        // Never-proposed slots stay in view 0 (Algorithm 3 line 10,
        // Fig. 3's slot 4) unless their own timer says the view-0
        // leader is dead, or its last slot's did and it is silent since.
        if !inst.saw_proposal && !condemned {
            return false;
        }
        inst.view = target;
        inst.proposed = false;
        inst.timer_expired = false;
        ctx.set_timer(Self::timer_for(slot), self.params.view_timeout());
        let (vote2, prev_vote2, vote3) = inst.book.suggest_fields();
        ctx.send(
            MultiShotNode::leader_of(&self.cfg, slot, target),
            MsMessage::Suggest {
                slot,
                view: target,
                data: SuggestData { vote2, prev_vote2, vote3 },
            },
        );
        let (vote1, prev_vote1, vote4) = inst.book.proof_fields();
        ctx.broadcast(MsMessage::Proof {
            slot,
            view: target,
            data: ProofData { vote1, prev_vote1, vote4 },
        });
        true
    }

    /// A block is notarized on a quorum of (phase-1) votes, across views —
    /// Fig. 3 counts view-0 votes at slot 4 toward view-1 blocks' finality.
    pub(crate) fn step_notarize(&mut self, slot: Slot) -> bool {
        let quorum = self.cfg.quorum();
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        if inst.notarized.is_some() {
            return false;
        }
        let Some(value) = inst.regs.votes().quorum_value_any(Phase::VOTE1.index(), quorum) else {
            return false;
        };
        inst.notarized = Some(BlockHash::from_value(value));
        true
    }

    /// What the leader may propose: in view 0, as soon as the parent chain
    /// allows (pipelining — Fig. 2); in later views, once Rule 1 certifies
    /// a safe value from the slot's suggest messages.
    pub(crate) fn candidate(&mut self, slot: Slot) -> Option<Candidate> {
        let inst = self.instances.get(&slot).expect("caller checked");
        let view = inst.view;
        if inst.proposed || self.leader(slot, view) != self.me {
            return None;
        }
        if !view.is_zero() {
            // Fill the retained scratch instead of collecting a fresh Vec.
            let mut suggests = std::mem::take(&mut self.scratch_suggests);
            inst.regs.suggests_into(view, &mut suggests);
            let decision = leader_determine_safe(&self.cfg, &suggests, view, FRESH);
            self.scratch_suggests = suggests;
            // When any value is safe, a block already notarized here is
            // still the one to propose: the slots above build on it
            // (`parent_ready`'s recovery path), so a fresh block could
            // never win, and would hold a batch of admitted transactions
            // hostage until the slot commits.
            let certified = match decision? {
                v if v == FRESH => inst.notarized.filter(|h| self.store.slot_of(*h) == Some(slot)),
                v => Some(BlockHash::from_value(v)),
            };
            if let Some(hash) = certified {
                // Re-propose the certified block; without its content we
                // must wait (block dissemination is assumed, DESIGN.md §6).
                let block = self.store.get(hash).filter(|b| b.slot == slot)?;
                return Some(Candidate::Again(block.clone(), hash));
            }
        }
        Some(Candidate::Fresh(view, self.parent_ready(slot)?))
    }

    /// Proposes `block`, whose hash the caller holds: the loopback copy
    /// of the proposal finds it in the store by its payload
    /// ([`BlockStore::insert`]), so the leader hashes its block once.
    pub(crate) fn propose(
        &mut self,
        slot: Slot,
        (block, hash): (Block, BlockHash),
        ctx: &mut Ctx<'_>,
    ) {
        self.store.insert_hashed(hash, block.clone());
        let inst = self.instances.get_mut(&slot).expect("caller checked");
        inst.proposed = true;
        ctx.broadcast(MsMessage::Proposal { view: inst.view, block });
    }

    /// Whether `parent` is notarized at `slot − 1` (genesis/finalized
    /// prefix counts): what a block at `slot` must extend.
    fn extends_notarized(&self, slot: Slot, parent: BlockHash) -> bool {
        match slot.prev() {
            Some(prev) if prev == self.finalized => parent == self.finalized_hash,
            Some(prev) => self.instances.get(&prev).is_some_and(|pi| pi.notarized == Some(parent)),
            None => false, // slot 0 is genesis; never voted on
        }
    }

    /// The parent block a new slot-`slot` block must extend: the block
    /// proposed for `slot − 1` in its current view, whose own parent is
    /// already notarized ("upon receiving bᵢ and confirming … bᵢ₋₁ has
    /// received a quorum of votes, bᵢ extends bᵢ₋₁").
    fn parent_ready(&self, slot: Slot) -> Option<BlockHash> {
        let prev = slot.prev()?;
        if prev == self.finalized {
            return Some(self.finalized_hash);
        }
        let pinst = self.instances.get(&prev)?;
        // Pipelined path: the block proposed for prev in its current view,
        // provided *its* parent already has a quorum of votes.
        let leader = self.leader(prev, pinst.view);
        if let Some(value) = pinst.regs.proposal_of(leader, pinst.view) {
            let hash = BlockHash::from_value(value);
            if self.store.get(hash).is_some_and(|b| self.extends_notarized(prev, b.parent)) {
                return Some(hash);
            }
        }
        // Recovery path: a notarized prev block satisfies the paper's
        // "b_{i−1} has received a quorum of votes" directly, even when the
        // current view of prev has no proposal yet (its leader may be the
        // very node whose failure triggered recovery).
        pinst.notarized.filter(|h| self.store.contains(*h))
    }

    /// The vote to cast now, if any: for the slot's proposal once its
    /// parent is notarized and (in views > 0) Rule 3 certifies it.
    pub(crate) fn vote_ready(&mut self, slot: Slot) -> Option<(View, BlockHash)> {
        let inst = self.instances.get(&slot).expect("caller checked");
        let view = inst.view;
        if inst.book.has_voted_at_or_after(Phase::VOTE1, view) {
            return None;
        }
        let value = inst.regs.proposal_of(self.leader(slot, view), view)?;
        let hash = BlockHash::from_value(value);
        let block = self.store.get(hash).filter(|b| b.slot == slot)?;
        if !self.extends_notarized(slot, block.parent) {
            return None;
        }
        let safe = view.is_zero() || {
            let mut proofs = std::mem::take(&mut self.scratch_proofs);
            inst.regs.proofs_into(view, &mut proofs);
            let certified = node_determine_safe(&self.cfg, &proofs, view, value);
            self.scratch_proofs = proofs;
            certified
        };
        safe.then_some((view, hash))
    }

    /// Casts the vote: the one message carries all four roles, recorded
    /// into the four ancestor slots' books. Returns the slots written.
    pub(crate) fn cast_vote(
        &mut self,
        (slot, view, hash): (Slot, View, BlockHash),
        ctx: &mut Ctx<'_>,
    ) -> InlineVec<Slot, 4> {
        let mut written = InlineVec::new();
        for (target, phase, value) in self.roles(slot, hash) {
            if let Some(ti) = self.instances.get_mut(&target) {
                ti.book.record(phase, view, value);
                written.push(target);
            }
        }
        ctx.broadcast(MsMessage::Vote { slot, view, hash });
        written
    }

    /// Whom to lend to as this node casts its view-0 vote at `voted`: the
    /// leader of the next slot is proposing at this instant and the one
    /// after it proposes one hop from now, so if this node is neither, what
    /// it has queued reaches a block sooner through that second leader than
    /// by waiting for a turn — unless that leader is silent or has proposed.
    pub(crate) fn borrower_after(&self, voted: Slot) -> Option<(Slot, NodeId)> {
        let slot = voted.next().next();
        let borrower = self.leader(slot, View::ZERO);
        let open = borrower != self.me
            && !self.silent[borrower.index()]
            && self.leader(voted.next(), View::ZERO) != self.me
            && !self.instances.get(&slot).is_some_and(|inst| inst.saw_proposal);
        open.then_some((slot, borrower))
    }

    /// Whether a loan for `slot` can still reach a block: the slot must be
    /// one this node leads in view 0, inside the window and not yet
    /// proposed.
    pub(crate) fn may_borrow_for(&self, slot: Slot) -> bool {
        self.in_window(slot)
            && self.leader(slot, View::ZERO) == self.me
            && !self.instances.get(&slot).is_some_and(|inst| inst.proposed || !inst.view.is_zero())
    }

    /// Each peer's view-0 vote at `slot` as recorded here, by peer index.
    pub(crate) fn view0_votes(&self, slot: Slot) -> Vec<Option<Value>> {
        let Some(inst) = self.instances.get(&slot) else { return Vec::new() };
        let vote =
            |peer| inst.regs.votes().get(peer, Phase::VOTE1.index()).filter(|v| v.view.is_zero());
        self.cfg.nodes().map(|peer| vote(peer).map(|v| v.value)).collect()
    }

    /// Queues for [`Self::next_final`] the longest prefix backed by a
    /// quorum of (phase-4 role) votes — equivalently, the first of four
    /// consecutively notarized blocks plus its prefix. `Err` names a slot a
    /// quorum finalized on a chain with a block this node never saw
    /// proposed (it was out of the window, catching up): from this instant
    /// peers can serve it.
    pub(crate) fn step_finalize(&mut self) -> Result<(), Slot> {
        // Highest slot with a phase-4 quorum whose chain back to the
        // finalized tip is fully known.
        let quorum = self.cfg.quorum();
        let mut best: Option<(Slot, BlockHash)> = None;
        for (slot, inst) in &self.instances {
            if let Some(value) = inst.regs.votes().quorum_value_any(Phase::VOTE4.index(), quorum) {
                best = Some((*slot, BlockHash::from_value(value)));
            }
        }
        let Some((slot, hash)) = best else { return Ok(()) };
        // Collect the chain from `hash` down to the current finalized tip,
        // into the retained scratch (good case: a single link, no
        // allocation; block clones are `Arc` bumps).
        self.scratch_chain.clear();
        let (mut cursor, mut cursor_slot) = (hash, slot);
        while cursor_slot > self.finalized {
            let link = self.store.get(cursor).filter(|b| b.slot == cursor_slot);
            let Some((block, below)) = link.zip(cursor_slot.prev()) else {
                self.scratch_chain.clear();
                return Err(slot);
            };
            self.scratch_chain.push((cursor_slot, cursor, block.clone()));
            (cursor, cursor_slot) = (block.parent, below);
        }
        if cursor != self.finalized_hash {
            // Forked against our finalized prefix (impossible for
            // well-behaved inputs — agreement): bail out.
            self.scratch_chain.clear();
        }
        Ok(())
    }

    /// The next block found final, oldest first.
    pub(crate) fn next_final(&mut self) -> Option<(Slot, BlockHash, Block)> {
        self.scratch_chain.pop()
    }

    /// Retires `slot`, committed with block `hash`.
    pub(crate) fn retire(&mut self, slot: Slot, hash: BlockHash, ctx: &mut Ctx<'_>) {
        ctx.cancel_timer(Self::timer_for(slot));
        self.instances.remove(&slot);
        (self.finalized, self.finalized_hash) = (slot, hash);
        // Receiving a proposal starts the slot after it (Algorithm 3 line
        // 4), unless that slot lay beyond the window: a proposal at the
        // window's very edge, from a chain running ahead of this node's
        // finalizations. The window just moved, so start it now — its
        // leader may be this node, and nothing else would.
        let top = self.instances.iter().next_back().map(|(s, inst)| (*s, inst.saw_proposal));
        if let Some((top, true)) = top {
            self.ensure_instance(top.next(), ctx);
        }
    }

    /// Keep a short tail of finalized blocks.
    pub(crate) fn prune(&mut self) {
        self.store.prune_below(Slot(self.finalized.0.saturating_sub(FINALIZED_TAIL)));
    }
}
