//! The safety core of Algorithms 2 and 3: proposals, the multiplexed vote,
//! notarization, finalization, Rules 1 and 3. A function of the messages
//! it is handed and the views it is told to enter; it returns what to send
//! and knows no clock ([`crate::liveness`] does; DESIGN.md §6, §7).

use std::collections::BTreeMap;

use tetrabft::rules::{leader_determine_safe, node_determine_safe};
use tetrabft::{Message as CoreMessage, ProofData, Registers, SuggestData};
use tetrabft_types::{Config, NodeId, Phase, Slot, Value, View, VoteBook};

use crate::block::{Block, BlockHash, GENESIS_HASH};
use crate::msg::MsMessage;
use crate::node::MultiShotNode;
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

/// What a leader may propose: a new block in this view on this parent, for
/// the node to fill, or the block Rule 1 certified, again (with its hash).
pub(crate) enum Candidate {
    Fresh(View, BlockHash),
    Again(Block, BlockHash),
}

/// The safety state of one live slot: a windowed Basic-TetraBFT instance.
/// At most [`SLOT_WINDOW`] are live, so protocol state stays O(window · n).
#[derive(Debug)]
pub(crate) struct SlotState {
    /// Current view (views are per slot; a fresh slot starts at view 0 —
    /// Algorithm 3 line 10).
    pub(crate) view: View,
    /// This node's four vote roles for the slot, fed by the multiplexed
    /// votes it casts at this slot and the three following ones.
    pub(crate) book: VoteBook,
    /// Per-peer receive registers for the slot.
    pub(crate) regs: Registers,
    /// Set once this node (as leader) proposed in the current view.
    pub(crate) proposed: bool,
    /// The block hash this node has seen reach a quorum of votes.
    pub(crate) notarized: Option<BlockHash>,
    /// Whether any valid proposal for this slot was ever received — the
    /// "aborted" criterion of the view change (slots that never saw a
    /// proposal restart at view 0 instead — Fig. 3's slot 4).
    pub(crate) saw_proposal: bool,
}

impl SlotState {
    pub(crate) fn new(cfg: &Config) -> Self {
        SlotState {
            view: View::ZERO,
            book: VoteBook::new(),
            regs: Registers::new(cfg),
            proposed: false,
            notarized: None,
            saw_proposal: false,
        }
    }
}

#[derive(Debug)]
pub(crate) struct Chain {
    pub(crate) cfg: Config,
    pub(crate) me: NodeId,
    pub(crate) store: BlockStore,
    pub(crate) slots: BTreeMap<Slot, SlotState>,
    /// Highest finalized slot (0 = genesis) and its block hash.
    pub(crate) finalized: Slot,
    pub(crate) finalized_hash: BlockHash,
    /// Per-peer latest vote whose block is not yet known.
    pending: Vec<Option<(Slot, View, BlockHash)>>,
    /// Reusable scratch for Rule 1's suggests and Rule 3's proofs, filled
    /// in place each evaluation (capacity is retained, so the steady state
    /// allocates nothing).
    scratch_suggests: Vec<SuggestData>,
    scratch_proofs: Vec<ProofData>,
    /// Reusable scratch for the finalization chain walk, newest block
    /// first (good case: one entry per finalize).
    scratch_chain: Vec<(Slot, BlockHash, Block)>,
}

impl Chain {
    pub(crate) fn new(cfg: Config, me: NodeId) -> Self {
        Chain {
            cfg,
            me,
            store: BlockStore::default(),
            slots: BTreeMap::new(),
            finalized: Slot::GENESIS,
            finalized_hash: GENESIS_HASH,
            pending: vec![None; cfg.n()],
            scratch_suggests: Vec::new(),
            scratch_proofs: Vec::new(),
            scratch_chain: Vec::new(),
        }
    }

    /// Whether `slot` may be live: above the tip by at most [`SLOT_WINDOW`].
    pub(crate) fn in_window(&self, slot: Slot) -> bool {
        slot > self.finalized && slot.0 <= self.finalized.0 + SLOT_WINDOW
    }

    pub(crate) fn leader(&self, slot: Slot, view: View) -> NodeId {
        MultiShotNode::leader_of(&self.cfg, slot, view)
    }

    /// Opens `slot` in view 0, if it lies in the window and is not live,
    /// and returns its state.
    pub(crate) fn open(&mut self, slot: Slot) -> Option<&mut SlotState> {
        let fresh = self.in_window(slot) && !self.slots.contains_key(&slot);
        fresh.then(|| self.slots.entry(slot).or_insert(SlotState::new(&self.cfg)))
    }

    /// Takes in a proposal. Returns the block's hash, if the proposal is
    /// accepted, with the slots it opened: its own and the next, which
    /// receiving it starts (Algorithm 3 line 4).
    pub(crate) fn on_proposal(
        &mut self,
        from: NodeId,
        view: View,
        block: Block,
    ) -> Option<(BlockHash, impl Iterator<Item = Slot>)> {
        let slot = block.slot;
        // Not the leader of (slot, view): ignore the imposter.
        if !self.in_window(slot) || from != self.leader(slot, view) {
            return None;
        }
        let hash = self.store.insert(block);
        let opened = [slot, slot.next()].map(|s| self.open(s).map(|_| s));
        if let Some(st) = self.slots.get_mut(&slot) {
            st.saw_proposal = true;
            st.regs.record(from, &CoreMessage::Proposal { view, value: hash.as_value() });
        }
        Some((hash, opened.into_iter().flatten()))
    }

    /// Counts a vote for a known block at a slot in the window, and
    /// returns `true`; stashes one whose block is unknown.
    pub(crate) fn on_vote(&mut self, from: NodeId, vote: (Slot, View, BlockHash)) -> bool {
        let (slot, _, hash) = vote;
        if !self.in_window(slot) {
            return false;
        }
        if self.store.slot_of(hash) != Some(slot) {
            // Unknown block: stash the latest such vote per peer and replay
            // it once the block arrives (constant storage per peer).
            self.pending[from.index()] = Some(vote);
            return false;
        }
        self.apply_vote(from, vote);
        true
    }

    /// Counts `peer`'s stashed vote if its block has arrived; `true` if so.
    pub(crate) fn retry_pending(&mut self, peer: NodeId) -> bool {
        let arrived = |v: &mut (Slot, View, BlockHash)| self.store.slot_of(v.2) == Some(v.0);
        let Some(vote) = self.pending[peer.index()].take_if(arrived) else { return false };
        self.apply_vote(peer, vote);
        true
    }

    /// Records a peer's suggest or proof.
    pub(crate) fn record(&mut self, from: NodeId, slot: Slot, msg: &CoreMessage) {
        if let Some(st) = self.slots.get_mut(&slot) {
            st.regs.record(from, msg);
        }
    }

    /// The four roles of one multiplexed vote: `vote-k` for slot
    /// `slot − k + 1` endorsing the `(k−1)`-th ancestor of `hash`.
    fn roles(&self, slot: Slot, hash: BlockHash) -> impl Iterator<Item = (Slot, Phase, Value)> {
        let mut roles = [None; 4];
        for (k, role) in (0u64..).zip(&mut roles) {
            let Some(target) = slot.0.checked_sub(k).map(Slot) else { break };
            if target <= self.finalized {
                break;
            }
            let Some(ancestor) = self.store.ancestor(hash, k as usize) else { break };
            let phase = Phase::from_u8(k as u8 + 1).expect("k+1 in 1..=4");
            *role = Some((target, phase, ancestor.as_value()));
        }
        roles.into_iter().flatten()
    }

    fn apply_vote(&mut self, from: NodeId, (slot, view, hash): (Slot, View, BlockHash)) {
        for (target, phase, value) in self.roles(slot, hash) {
            if let Some(st) = self.slots.get_mut(&target) {
                st.regs.record(from, &CoreMessage::Vote { phase, view, value });
            }
        }
    }

    /// Snapshot of the live slots in order, to step them (steps open and
    /// retire slots); at most [`SLOT_WINDOW`] are live, so it never
    /// allocates.
    pub(crate) fn live_slots(&self) -> impl Iterator<Item = Slot> {
        debug_assert!(self.slots.len() <= SLOT_WINDOW as usize, "live slots outgrew the window");
        let mut live = [None; SLOT_WINDOW as usize];
        for (entry, slot) in live.iter_mut().zip(self.slots.keys()) {
            *entry = Some(*slot);
        }
        live.into_iter().flatten()
    }

    /// Enters `view` at the live `slot` if it is higher (Algorithm 2 lines
    /// 7–11), aborting the slot. Returns the suggest for the view's leader
    /// and the proof for all that seed Rules 1 and 3 there. Any schedule of
    /// entered views is safe: what is voted in them, those rules certify.
    pub(crate) fn enter(&mut self, slot: Slot, view: View) -> Option<(MsMessage, MsMessage)> {
        let st = self.slots.get_mut(&slot).filter(|st| st.view < view)?;
        st.view = view;
        st.proposed = false;
        let (vote2, prev_vote2, vote3) = st.book.suggest_fields();
        let (vote1, prev_vote1, vote4) = st.book.proof_fields();
        Some((
            MsMessage::Suggest { slot, view, data: SuggestData { vote2, prev_vote2, vote3 } },
            MsMessage::Proof { slot, view, data: ProofData { vote1, prev_vote1, vote4 } },
        ))
    }

    /// A block is notarized on a quorum of (phase-1) votes, across views —
    /// Fig. 3 counts view-0 votes at slot 4 toward view-1 blocks' finality.
    pub(crate) fn step_notarize(&mut self, slot: Slot) -> bool {
        let st = self.slots.get_mut(&slot).expect("caller checked");
        if st.notarized.is_some() {
            return false;
        }
        let Some(value) = st.regs.votes().quorum_value_any(Phase::VOTE1.index()) else {
            return false;
        };
        st.notarized = Some(BlockHash::from_value(value));
        true
    }

    /// What the leader may propose: in view 0, as soon as the parent chain
    /// allows (pipelining — Fig. 2); in later views, once Rule 1 certifies
    /// a safe value from the slot's suggest messages.
    pub(crate) fn candidate(&mut self, slot: Slot) -> Option<Candidate> {
        let st = self.slots.get(&slot).expect("caller checked");
        let view = st.view;
        if st.proposed || self.leader(slot, view) != self.me {
            return None;
        }
        if !view.is_zero() {
            // Fill the retained scratch instead of collecting a fresh Vec.
            let mut suggests = std::mem::take(&mut self.scratch_suggests);
            st.regs.suggests_into(view, &mut suggests);
            let decision = leader_determine_safe(&self.cfg, &suggests, view, FRESH);
            self.scratch_suggests = suggests;
            // When any value is safe, a block already notarized here is
            // still the one to propose: the slots above build on it
            // (`parent_ready`'s recovery path), so a fresh block could
            // never win, and would hold a batch of admitted transactions
            // hostage until the slot commits.
            let certified = match decision? {
                v if v == FRESH => st.notarized.filter(|h| self.store.slot_of(*h) == Some(slot)),
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
    /// Returns the proposal, to broadcast.
    pub(crate) fn propose(&mut self, slot: Slot, (block, hash): (Block, BlockHash)) -> MsMessage {
        self.store.insert_hashed(hash, block.clone());
        let st = self.slots.get_mut(&slot).expect("caller checked");
        st.proposed = true;
        MsMessage::Proposal { view: st.view, block }
    }

    /// Whether `parent` is notarized at `slot − 1` (genesis/finalized
    /// prefix counts): what a block at `slot` must extend.
    fn extends_notarized(&self, slot: Slot, parent: BlockHash) -> bool {
        match slot.prev() {
            Some(prev) if prev == self.finalized => parent == self.finalized_hash,
            Some(prev) => self.slots.get(&prev).is_some_and(|ps| ps.notarized == Some(parent)),
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
        let ps = self.slots.get(&prev)?;
        // Pipelined path: the block proposed for prev in its current view,
        // provided *its* parent already has a quorum of votes.
        let leader = self.leader(prev, ps.view);
        if let Some(value) = ps.regs.proposal_of(leader, ps.view) {
            let hash = BlockHash::from_value(value);
            if self.store.get(hash).is_some_and(|b| self.extends_notarized(prev, b.parent)) {
                return Some(hash);
            }
        }
        // Recovery path: a notarized prev block satisfies the paper's
        // "b_{i−1} has received a quorum of votes" directly, even when the
        // current view of prev has no proposal yet (its leader may be the
        // very node whose failure triggered recovery).
        ps.notarized.filter(|h| self.store.contains(*h))
    }

    /// The vote to cast now, if any: for the slot's proposal once its
    /// parent is notarized and (in views > 0) Rule 3 certifies it.
    pub(crate) fn vote_ready(&mut self, slot: Slot) -> Option<(View, BlockHash)> {
        let st = self.slots.get(&slot).expect("caller checked");
        let view = st.view;
        if st.book.has_voted_at_or_after(Phase::VOTE1, view) {
            return None;
        }
        let value = st.regs.proposal_of(self.leader(slot, view), view)?;
        let hash = BlockHash::from_value(value);
        let block = self.store.get(hash).filter(|b| b.slot == slot)?;
        if !self.extends_notarized(slot, block.parent) {
            return None;
        }
        let safe = view.is_zero() || {
            let mut proofs = std::mem::take(&mut self.scratch_proofs);
            st.regs.proofs_into(view, &mut proofs);
            let certified = node_determine_safe(&self.cfg, &proofs, view, value);
            self.scratch_proofs = proofs;
            certified
        };
        safe.then_some((view, hash))
    }

    /// Casts the vote: the one message carries all four roles, recorded
    /// into the four ancestor slots' books. Returns the slots written; the
    /// caller broadcasts the vote.
    pub(crate) fn cast_vote(
        &mut self,
        vote: (Slot, View, BlockHash),
    ) -> impl Iterator<Item = Slot> {
        let mut written = [None; 4];
        for ((target, phase, value), entry) in self.roles(vote.0, vote.2).zip(&mut written) {
            if let Some(st) = self.slots.get_mut(&target) {
                st.book.record(phase, vote.1, value);
                *entry = Some(target);
            }
        }
        written.into_iter().flatten()
    }

    /// Whether a loan for `slot` can still reach a block: the slot must be
    /// one this node leads in view 0, inside the window and not yet
    /// proposed.
    pub(crate) fn may_borrow_for(&self, slot: Slot) -> bool {
        self.in_window(slot)
            && self.leader(slot, View::ZERO) == self.me
            && !self.slots.get(&slot).is_some_and(|st| st.proposed || !st.view.is_zero())
    }

    /// Each peer's view-0 vote at `slot` as recorded here, by peer index.
    pub(crate) fn view0_votes(&self, slot: Slot) -> Vec<Option<Value>> {
        let Some(st) = self.slots.get(&slot) else { return Vec::new() };
        let vote =
            |peer| st.regs.votes().get(peer, Phase::VOTE1.index()).filter(|v| v.view.is_zero());
        self.cfg.nodes().map(|peer| vote(peer).map(|v| v.value)).collect()
    }

    /// Queues for [`Self::next_final`] the longest prefix backed by a
    /// quorum of (phase-4 role) votes — equivalently, the first of four
    /// consecutively notarized blocks plus its prefix. `Err` names a slot a
    /// quorum finalized on a chain with a block this node never saw
    /// proposed (it was out of the window, catching up): from this instant
    /// peers can serve it.
    pub(crate) fn step_finalize(&mut self) -> Result<(), Slot> {
        // The highest slot with a phase-4 quorum.
        let final_at = |(slot, st): (&Slot, &SlotState)| {
            let value = st.regs.votes().quorum_value_any(Phase::VOTE4.index())?;
            Some((*slot, BlockHash::from_value(value)))
        };
        let Some((slot, hash)) = self.slots.iter().rev().find_map(final_at) else { return Ok(()) };
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

    /// Retires `slot`, committed with block `hash`, keeping a short tail of
    /// finalized blocks.
    pub(crate) fn retire(&mut self, slot: Slot, hash: BlockHash) {
        self.slots.remove(&slot);
        (self.finalized, self.finalized_hash) = (slot, hash);
        self.store.prune_below(Slot(slot.0.saturating_sub(FINALIZED_TAIL)));
    }
}
