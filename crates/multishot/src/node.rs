//! The Multi-shot TetraBFT node, as a composition root: Algorithms 2 and 3
//! are [`crate::chain`] and [`crate::liveness`]; here are durability and
//! the five places where the chain meets the queue ([`crate::handoff`]),
//! each in the order DESIGN.md §7 gives a reason for, plus catch-up.

use std::collections::BTreeSet;
use std::path::Path;

use tetrabft::{Message as CoreMessage, Params};
use tetrabft_engine::{Context, Input, Node, Submitter, TimerId};
use tetrabft_store::{NodeStore, StoreError};
use tetrabft_types::{Config, NodeId, Slot, View};
use tetrabft_wire::Wire;

use crate::block::{Block, BlockHash};
use crate::catchup::Catchup;
use crate::chain::{Candidate, Chain, FINALIZED_TAIL, SLOT_WINDOW};
use crate::handoff::{Handoff, Pace, Pacing};
use crate::liveness::Liveness;
use crate::mempool::SubmitError;
use crate::msg::MsMessage;
use crate::txn::{Tx, TxCheck};

pub(crate) type Ctx<'a> = Context<'a, MsMessage, Finalized>;

/// Timer id reserved for the periodic catch-up broadcast of durable nodes.
/// Slot timers use the slot number itself as their id, so the top of the id
/// space can never collide with a reachable slot.
const CATCHUP_TIMER: TimerId = TimerId(u64::MAX);

/// Timer id behind which every ready view-0 proposal waits ([`Pacing`]):
/// for 0 ms when there is something to propose — long enough to read what
/// has already arrived, a loan above all ([`MsMessage::Relay`]) — and for
/// [`Params::idle_pacing`] when the chain is idle. Slot timers use the slot
/// number itself, so the two top ids are free.
const PACE_TIMER: TimerId = TimerId(u64::MAX - 1);

/// A finalization event: `block` is now immutable at `slot` on every
/// well-behaved node's chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finalized {
    /// Height of the finalized block.
    pub slot: Slot,
    /// Digest of the finalized block.
    pub hash: BlockHash,
    /// The block itself.
    pub block: Block,
}

/// A well-behaved Multi-shot TetraBFT node.
///
/// Emits a [`Finalized`] output for every block, in strict slot order; the
/// consistency property (Definition 2) says these sequences are
/// prefix-comparable across well-behaved nodes.
///
/// # Examples
///
/// See the crate-level example for the pipelined good case.
#[derive(Debug)]
pub struct MultiShotNode {
    chain: Chain,
    liveness: Liveness,
    handoff: Handoff,
    pacing: Pacing,
    catchup: Catchup,
    /// Durable store, if this node persists its state ([`Self::durable`]).
    durable: Option<NodeStore>,
    /// Incarnation counter from the durable store (0 = not durable).
    incarnation: u64,
    /// Live slots whose own vote book or view changed since the last
    /// [`Node::persist`] call.
    dirty_slots: BTreeSet<Slot>,
}

impl MultiShotNode {
    /// Creates a node starting at the genesis block.
    pub fn new(cfg: Config, params: Params, me: NodeId) -> Self {
        MultiShotNode {
            chain: Chain::new(cfg, me),
            liveness: Liveness::new(&cfg, params),
            handoff: Handoff::new(&params),
            pacing: Pacing::default(),
            catchup: Catchup::new(&cfg),
            durable: None,
            incarnation: 0,
            dirty_slots: BTreeSet::new(),
        }
    }

    /// Creates a node whose state survives `kill -9`: votes, finalized
    /// chain, and admitted transactions live in a [`NodeStore`] under
    /// `dir`, replayed here on every restart. The first `Start` after a
    /// restart broadcasts a [`MsMessage::CatchUp`] so peers stream back
    /// whatever finalized while the node was down.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] when the directory is unusable or a log
    /// is corrupt beyond its recoverable (torn) tail.
    pub fn durable(
        cfg: Config,
        params: Params,
        me: NodeId,
        dir: impl AsRef<Path>,
    ) -> Result<Self, StoreError> {
        let mut store = NodeStore::open(dir, params.fsync())?;
        let mut node = MultiShotNode::new(cfg, params, me);
        node.incarnation = store.incarnation();
        if let Some((tip, hash)) = store.chain_tip() {
            (node.chain.finalized, node.chain.finalized_hash) = (tip, BlockHash(hash));
            // Reload the recent chain tail into the in-memory block store:
            // votes in flight at the crash may reference these blocks as
            // ancestors (pruning keeps the same margin).
            for s in tip.0.saturating_sub(FINALIZED_TAIL).max(1)..=tip.0 {
                if let Some((_, bytes)) = store.block_record(Slot(s))? {
                    node.chain.store.insert(Block::from_bytes(&bytes)?);
                }
            }
        }
        // Live-slot state: each restored book resumes exactly where the
        // write-ahead record left it, so the node cannot contradict a vote
        // it already sent before the crash.
        for sv in store.restored_votes().values() {
            if let Some(st) = node.chain.open(sv.slot) {
                (st.view, st.book) = (sv.view, sv.book.clone());
            }
        }
        // Admitted-but-unfinalized transactions survive the crash. The
        // mempool may refuse some (a duplicate, a capacity lowered since),
        // and the journal's drain records are counts off the front of the
        // queue: re-base it on what was actually restored, so disk and
        // memory agree from the first seal on.
        for tx in store.restored_mempool() {
            let _ = node.handoff.mempool.submit(tx.clone());
        }
        store.save_mempool(node.handoff.mempool.iter())?;
        node.handoff.mempool.seal();
        node.durable = Some(store);
        Ok(node)
    }

    /// Installs the application's structural-admission hook: every
    /// subsequent submission (typed or raw) must pass `check` before it
    /// enters the mempool, refusing malformed payloads at the door with a
    /// typed [`SubmitError`]. Composes with [`MultiShotNode::durable`]:
    /// transactions restored from the mempool journal were admitted (and
    /// checked) before the crash.
    #[must_use]
    pub fn with_admission(mut self, check: TxCheck) -> Self {
        self.handoff.mempool.set_admission(check);
        self
    }

    /// Queues a transaction. It leaves the queue, front first, the next
    /// time this node casts a view-0 vote while leading neither of the two
    /// slots that follow — then it is lent to the leader who proposes one
    /// hop later ([`MsMessage::Relay`]) — or the next time this node leads
    /// a slot itself, whichever comes first; a loan the borrower's block
    /// does not carry is back in the queue one hop after that block, in
    /// its old place. Liveness: if every node queues it, it eventually
    /// lands in the finalized chain. Accepts anything convertible to the
    /// typed [`Tx`] envelope — a [`crate::Transaction`] by reference, or an
    /// opaque `Vec<u8>` ([`Tx::raw`]).
    ///
    /// # Errors
    ///
    /// Degenerate transactions (empty, oversized, already queued, or
    /// vetoed by the admission hook) are refused with the reason;
    /// [`SubmitError::Full`] is the backpressure signal once
    /// [`Params::mempool_capacity`] transactions are queued.
    pub fn submit_tx(&mut self, tx: impl Into<Tx>) -> Result<(), SubmitError> {
        self.handoff.mempool.submit(tx)
    }

    /// Number of transactions waiting in this node's mempool.
    pub fn mempool_len(&self) -> usize {
        self.handoff.mempool.len()
    }

    /// Highest finalized slot.
    pub fn finalized_slot(&self) -> Slot {
        self.chain.finalized
    }

    /// Number of live slot instances (bounded by [`crate::SLOT_WINDOW`]).
    pub fn active_slots(&self) -> usize {
        self.chain.slots.len()
    }

    /// Leader of `slot` at `view`: round-robin over `slot + view` so that
    /// consecutive slots pipeline under distinct leaders (Fig. 2) and a view
    /// change rotates a slot to a fresh leader.
    pub fn leader_of(cfg: &Config, slot: Slot, view: View) -> NodeId {
        cfg.leader_of(View(slot.0.wrapping_add(view.0)))
    }

    fn on_message(&mut self, from: NodeId, msg: MsMessage, ctx: &mut Ctx<'_>) {
        match msg {
            MsMessage::Proposal { view, block } => {
                let slot = block.slot;
                let Some((hash, fresh)) = self.chain.on_proposal(from, view, block) else { return };
                // The slots it started get their timers while the voters
                // whose stashed votes it lets count are still silent.
                self.liveness.heard(from);
                fresh.into_iter().for_each(|s| self.liveness.opened(&self.chain, s, ctx));
                let peers = (0..self.chain.cfg.n() as u16).map(NodeId);
                for peer in peers.filter(|peer| self.chain.retry_pending(*peer)) {
                    self.liveness.heard(peer);
                }
                // A borrower puts a loan in its view-0 block or nowhere:
                // seeing that block ends the doubt, and what it left out
                // can go to the next leader at once instead of waiting for
                // the slot to commit.
                if view.is_zero() && self.handoff.in_doubt(slot) {
                    self.handoff.settle(slot, &self.chain.store, hash, false);
                }
            }
            MsMessage::Vote { slot, view, hash } => {
                if self.chain.on_vote(from, (slot, view, hash)) {
                    self.liveness.heard(from);
                }
                // A blocking set voting beyond the window holds an honest
                // node: the chain has moved on. Ask for it now, not at the
                // next tick of the catch-up timer (which stays as the
                // retransmission).
                let ahead = slot.0 > self.chain.finalized.0 + SLOT_WINDOW
                    && self.catchup.voted_ahead(from, &self.chain.cfg);
                if ahead && self.durable.is_some() {
                    self.ask_catchup(ctx);
                }
            }
            MsMessage::Suggest { slot, view, data } => {
                self.chain.record(from, slot, &CoreMessage::Suggest { view, data });
            }
            MsMessage::Proof { slot, view, data } => {
                self.chain.record(from, slot, &CoreMessage::Proof { view, data });
            }
            MsMessage::ViewChange { slot, view } => {
                self.liveness.on_view_change(&mut self.chain, from, (slot, view), ctx);
            }
            MsMessage::CatchUp { from_slot } => {
                // Nodes without a durable store (or with nothing the
                // requester lacks) stay silent — catch-up quiesces by itself.
                let log = self.durable.as_mut().filter(|_| from != self.chain.me);
                let blocks = log.map_or(Vec::new(), |log| Catchup::serve(log, from_slot));
                if !blocks.is_empty() {
                    ctx.send(from, MsMessage::Blocks { blocks });
                }
            }
            MsMessage::Blocks { blocks } => self.on_blocks(from, blocks, ctx),
            MsMessage::Relay { slot, txs } => {
                if from != self.chain.me && self.chain.may_borrow_for(slot) {
                    self.handoff.borrow(from, slot, txs);
                }
            }
        }
    }

    /// Asks every peer for the finalized blocks above this node's tip.
    fn ask_catchup(&mut self, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.catchup.request(self.chain.finalized));
    }

    /// Buffers catch-up blocks with the peer vouching for them, then
    /// commits whatever chains onto our tip.
    fn on_blocks(&mut self, from: NodeId, blocks: Vec<Block>, ctx: &mut Ctx<'_>) {
        self.catchup.vouch(from, blocks, self.chain.finalized);
        let mut progressed = false;
        while let Some((hash, block)) = self.catchup.next_block(
            self.chain.finalized,
            self.chain.finalized_hash,
            &self.chain.cfg,
        ) {
            self.chain.store.insert_hashed(hash, block.clone());
            self.commit_block(block.slot, hash, block, ctx);
            progressed = true;
        }
        let tip = self.chain.finalized;
        self.catchup.prune(tip);
        if progressed {
            // Re-open the live window above the new tip and immediately ask
            // for the next range — convergence in chain/BATCH round trips
            // instead of one periodic timer tick per batch.
            self.liveness.open(&mut self.chain, tip.next(), ctx);
            self.ask_catchup(ctx);
        }
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut dirty = self.liveness.step_echo(&self.chain, ctx);
            for slot in self.chain.live_slots() {
                if self.liveness.step_enter(&mut self.chain, slot, ctx) {
                    // The new view is owed to the disk; a slot that leaves
                    // view 0 takes no loan with it.
                    self.dirty_slots.insert(slot);
                    self.handoff.borrowed.remove(&slot);
                    dirty = true;
                }
                dirty |= self.chain.step_notarize(slot);
                dirty |= self.step_propose(slot, ctx);
                dirty |= self.step_vote(slot, ctx);
            }
            dirty |= self.step_finalize(ctx);
            if !dirty {
                break;
            }
        }
    }

    /// The leader proposes what the chain allows: the certified block
    /// again, or a fresh one, which in view 0 waits at the pacing gate.
    fn step_propose(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let minted = match self.chain.candidate(slot) {
            None => return false,
            Some(Candidate::Again(block, hash)) => (block, hash),
            Some(Candidate::Fresh(view, parent)) => {
                if view.is_zero() {
                    let (store, tip) = (&self.chain.store, self.chain.finalized);
                    let idle_pacing = self.liveness.params.idle_pacing();
                    let gate =
                        self.pacing.gate(slot, parent, &self.handoff, store, tip, idle_pacing);
                    if let Pace::Arm(wait) = gate {
                        ctx.set_timer(PACE_TIMER, wait);
                    }
                    if !matches!(gate, Pace::Go) {
                        return false;
                    }
                }
                self.build_block(slot, parent)
            }
        };
        ctx.broadcast(self.chain.propose(slot, minted));
        true
    }

    /// Mints this node's block for `slot` on `parent` ([`Handoff::mint`]),
    /// handing over each lender's view-0 vote for `slot − 2`.
    fn build_block(&mut self, slot: Slot, parent: BlockHash) -> (Block, BlockHash) {
        let anchor = slot.0.checked_sub(2).filter(|_| self.handoff.borrowed.contains_key(&slot));
        let votes = anchor.map_or(Vec::new(), |k| self.chain.view0_votes(Slot(k)));
        self.handoff.mint(slot, parent, &self.chain.store, &votes)
    }

    fn step_vote(&mut self, slot: Slot, ctx: &mut Ctx<'_>) -> bool {
        let Some((view, hash)) = self.chain.vote_ready(slot) else { return false };
        // The loan leaves ahead of the vote, in the same flush: on an
        // ordered link the borrower reads it before the vote that may make
        // its slot ready.
        let borrower =
            if view.is_zero() { self.liveness.borrower_after(&self.chain, slot) } else { None };
        if let Some((to, borrower)) = borrower {
            if let Some(txs) = self.handoff.lend(to, &self.chain.store, hash, slot) {
                ctx.send(borrower, MsMessage::Relay { slot: to, txs });
            }
        }
        // The write-ahead contract: [`Node::persist`] runs before the
        // transport flushes this broadcast, so the book entries (and the
        // drain behind a loan) reach disk before any peer can observe the
        // vote.
        self.dirty_slots.extend(self.chain.cast_vote((slot, view, hash)));
        ctx.broadcast(MsMessage::Vote { slot, view, hash });
        true
    }

    fn step_finalize(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if let Err(hole) = self.chain.step_finalize() {
            if self.durable.is_some() && self.catchup.hole_at(hole) {
                self.ask_catchup(ctx);
            }
        }
        let mut progressed = false;
        while let Some((slot, hash, block)) = self.chain.next_final() {
            self.commit_block(slot, hash, block, ctx);
            progressed = true;
        }
        progressed
    }

    /// Commits one finalized block (already in the store) — the shared
    /// tail of `step_finalize` and the catch-up path: take back what the
    /// slot owed and the block does not carry, append to the durable chain
    /// log *before* the output can be observed, emit the [`Finalized`]
    /// event, and retire the slot's live state.
    fn commit_block(&mut self, slot: Slot, hash: BlockHash, block: Block, ctx: &mut Ctx<'_>) {
        self.handoff.settle(slot, &self.chain.store, hash, true);
        self.handoff.borrowed.remove(&slot);
        if let Some(store) = self.durable.as_mut() {
            // Finalized state must never be claimed and then lost; a store
            // that cannot append is a node that must not keep running.
            store.append_encoded(slot, hash.0, &block).expect("durable chain log append failed");
        }
        ctx.output(Finalized { slot, hash, block });
        self.chain.retire(slot, hash);
        self.liveness.retire(&mut self.chain, slot, ctx);
        self.dirty_slots.remove(&slot);
    }
}

impl Node for MultiShotNode {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => {
                self.liveness.start(&mut self.chain, ctx);
                if self.durable.is_some() {
                    // Pull whatever finalized while we were down, and keep
                    // pulling periodically — the timer doubles as the
                    // retransmission for lost catch-up traffic.
                    self.ask_catchup(ctx);
                    ctx.set_timer(CATCHUP_TIMER, self.liveness.params.view_timeout());
                }
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                self.on_message(from, msg, ctx);
                self.drive(ctx);
            }
            Input::PeerDown { peer } => {
                self.liveness.on_peer_down(&self.chain, peer, ctx);
                self.drive(ctx);
            }
            Input::Timer { id } if id == CATCHUP_TIMER => {
                self.ask_catchup(ctx);
                ctx.set_timer(CATCHUP_TIMER, self.liveness.params.view_timeout());
            }
            Input::Timer { id } if id == PACE_TIMER => {
                self.pacing.released = self.pacing.pending.take().map(|(slot, _)| slot);
                self.drive(ctx);
                self.pacing.released = None;
            }
            Input::Timer { id } => {
                self.liveness.on_timeout(&self.chain, Slot(id.0), ctx);
                self.drive(ctx);
            }
        }
    }

    fn persist(&mut self) {
        let Some(store) = self.durable.as_mut() else { return };
        // Called by the engine after every dispatch, *before* the transport
        // flushes staged frames: whatever this batch of work voted or
        // admitted is on disk before any peer can observe it.
        let finalized = self.chain.finalized;
        for slot in std::mem::take(&mut self.dirty_slots) {
            if slot <= finalized {
                continue;
            }
            if let Some(st) = self.chain.slots.get(&slot) {
                store
                    .record_votes(slot, st.view, finalized, &st.book)
                    .expect("durable vote record failed");
            }
        }
        let mempool = &mut self.handoff.mempool;
        if mempool.reordered() {
            // A batch came back behind an older one: not a change to the
            // queue's two ends, so the journal is rewritten, not appended.
            store.save_mempool(mempool.iter()).expect("durable mempool rewrite failed");
        } else if let Some((drained, requeued, admitted)) = mempool.unsealed() {
            store
                .journal_mempool(drained, requeued, admitted, mempool.iter())
                .expect("durable mempool journal failed");
        }
        mempool.seal();
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }
}

impl Submitter for MultiShotNode {
    type Request = Tx;
    type SubmitError = SubmitError;

    fn accept(&mut self, tx: Tx) -> Result<(), SubmitError> {
        self.submit_tx(tx)
    }
}

#[cfg(test)]
mod tests;
