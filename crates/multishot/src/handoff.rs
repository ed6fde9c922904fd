//! The hand-off and pacing — not in the paper: which transactions a block
//! carries, from whose queue, and how long an idle chain waits between
//! blocks. State in, "drain / lend / return" decisions out: both read the
//! chain through a [`BlockStore`] they are handed and send nothing
//! themselves (DESIGN.md §3, §4, §7).

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use tetrabft::Params;
use tetrabft_types::{NodeId, Slot, Value};

use crate::block::{Block, BlockHash};
use crate::mempool::Mempool;
use crate::store::BlockStore;

/// What one peer lent this node for one slot: the payloads that passed the
/// borrower's checks, and who vouches for the chain they belong on.
#[derive(Debug)]
pub(crate) struct Loan {
    lender: NodeId,
    pub(crate) txs: Vec<Vec<u8>>,
}

/// A batch this node drained from its mempool, until the slot that is to
/// carry it commits. Never empty.
#[derive(Debug)]
pub(crate) struct Owed {
    /// Admission sequence of each owed transaction: `txs[i]` came out of
    /// the mempool as number `seqs[i]` (an own batch is the front of its
    /// block's list, which what the node borrowed follows).
    seqs: Vec<u64>,
    /// The payloads, shared with the block or relay that carries them.
    pub(crate) txs: Arc<Vec<Vec<u8>>>,
    /// The block at this slot known to carry the batch: this node's own
    /// from the start, a borrower's once its proposal is seen. `None` is a
    /// loan *in doubt*.
    pub(crate) carried: Option<BlockHash>,
}

#[derive(Debug)]
pub(crate) struct Handoff {
    /// Transactions waiting to be packed into a block — this node's own
    /// when it leads a slot, else the block of the leader it lends them
    /// to: bounded, validated, FIFO-with-dedup.
    pub(crate) mempool: Mempool,
    /// Every batch drained from the mempool and not yet settled, by the
    /// slot whose block is to carry it: this node's own block, or the
    /// view-0 block of the leader the batch was lent to. What the slot's
    /// finalized block turns out not to carry goes back to the mempool
    /// ([`Self::settle`]) — admitted transactions survive lost view changes
    /// and lost hand-offs alike. Bounded by the slot window.
    pub(crate) owed: BTreeMap<Slot, Owed>,
    /// What peers lent this node for the view-0 block of a slot it leads,
    /// loan by loan with its lender: checked like client submissions, at
    /// most `max_block_txs` per slot. Volatile on purpose: never journaled,
    /// never requeued (only the lender returns a transaction to a queue),
    /// dropped when the slot is proposed, leaves view 0 or commits.
    pub(crate) borrowed: BTreeMap<Slot, Vec<Loan>>,
    /// `max_block_txs`: the most one block, and so one loan, carries.
    cap: usize,
}

impl Handoff {
    pub(crate) fn new(params: &Params) -> Self {
        Handoff {
            mempool: Mempool::new(params.mempool_capacity()),
            owed: BTreeMap::new(),
            borrowed: BTreeMap::new(),
            cap: params.max_block_txs(),
        }
    }

    /// Buffers what `from` lends this node for `slot` (one the caller knows
    /// it may still borrow for). The borrower trusts nothing: each payload
    /// passes the checks a client submission passes, on its bytes, so a
    /// loan costs no digest; the buffer never outgrows one block.
    pub(crate) fn borrow(&mut self, from: NodeId, slot: Slot, txs: Arc<Vec<Vec<u8>>>) {
        let held = self.borrowed.get(&slot).into_iter().flatten().map(|loan| loan.txs.len());
        let room = self.cap.saturating_sub(held.sum());
        if room == 0 {
            return;
        }
        // Shared only under `Sim`, where the lender holds the same buffer.
        let vetted =
            Arc::unwrap_or_clone(txs).into_iter().filter(|tx| self.mempool.vet(tx).is_ok());
        let loan: Vec<_> = vetted.take(room).collect();
        if !loan.is_empty() {
            self.borrowed.entry(slot).or_default().push(Loan { lender: from, txs: loan });
        }
    }

    /// Mints this node's block for `slot` on `parent`, with its hash (the
    /// one this node computes for it): its own batch, then what it
    /// borrowed for the slot, never more than `max_block_txs` in all. The
    /// own part is empty while a drain is not allowed
    /// ([`Self::owed_settled`]).
    ///
    /// A loan is bound to the vote it was sent beside, the lender's view-0
    /// vote for `slot − 2` (`lender_votes`, by peer index): it enters the
    /// block only if that vote, as this node recorded it, names the block
    /// this one has at `slot − 2`. The lender drained its queue believing
    /// everything it owed to be on that block's chain; on any other chain
    /// (a view change re-decided a slot in between) the loan could finalize
    /// ahead of a batch that lost.
    pub(crate) fn mint(
        &mut self,
        slot: Slot,
        parent: BlockHash,
        store: &BlockStore,
        lender_votes: &[Option<Value>],
    ) -> (Block, BlockHash) {
        let (seqs, mut txs) = match slot.prev() {
            Some(prev) if self.owed_settled(store, parent, prev) => {
                self.mempool.next_batch(self.cap)
            }
            _ => Default::default(),
        };
        if let Some(loans) = self.borrowed.remove(&slot) {
            let anchor = store.ancestor(parent, 1).map(BlockHash::as_value);
            for loan in loans {
                let names = lender_votes.get(loan.lender.index()).copied().flatten();
                if anchor.is_some() && names == anchor {
                    txs.extend(loan.txs.into_iter().take(self.cap - txs.len()));
                }
            }
        }
        let block = Block::new(slot, parent, txs);
        let hash = block.hash();
        if !seqs.is_empty() {
            let owed = Owed { seqs, txs: Arc::clone(&block.txs), carried: Some(hash) };
            self.owed.insert(slot, owed);
        }
        (block, hash)
    }

    /// Whether the mempool may be drained into a block or loan that extends
    /// the chain ending in `tip` (the block of `tip_slot`): only if nothing
    /// owed is in doubt — every owed batch is known to sit in the block
    /// that chain has at its slot. A batch drained past one that then
    /// misses its block would finalize ahead of it; per admitting node,
    /// finalization order is admission order.
    fn owed_settled(&self, store: &BlockStore, tip: BlockHash, tip_slot: Slot) -> bool {
        self.owed.iter().all(|(slot, owed)| {
            *slot <= tip_slot
                && owed.carried.is_some()
                && store.ancestor(tip, (tip_slot.0 - slot.0) as usize) == owed.carried
        })
    }

    /// The hand-off, as this node casts its view-0 vote for `hash` at slot
    /// `voted`: what it has queued (one block's worth, front first) for the
    /// borrower's `slot`, if it may be drained. What is lent is owed: the
    /// batch is in doubt until the borrower's proposal is seen.
    pub(crate) fn lend(
        &mut self,
        slot: Slot,
        store: &BlockStore,
        hash: BlockHash,
        voted: Slot,
    ) -> Option<Arc<Vec<Vec<u8>>>> {
        if self.mempool.is_empty() || !self.owed_settled(store, hash, voted) {
            return None;
        }
        let (seqs, txs) = self.mempool.next_batch(self.cap);
        let txs = Arc::new(txs);
        self.owed.insert(slot, Owed { seqs, txs: Arc::clone(&txs), carried: None });
        Some(txs)
    }

    /// Whether `slot` owes a loan whose borrower's block is yet to be seen.
    pub(crate) fn in_doubt(&self, slot: Slot) -> bool {
        self.owed.get(&slot).is_some_and(|owed| owed.carried.is_none())
    }

    /// Squares what `slot` owes with the block `hash` (in the store) —
    /// the borrower's proposal, or, when `finalized`, the block the slot
    /// commits: what the block carries stays owed until the slot commits,
    /// the rest goes back to the mempool, each transaction to the place its
    /// admission sequence gives it.
    pub(crate) fn settle(
        &mut self,
        slot: Slot,
        store: &BlockStore,
        hash: BlockHash,
        finalized: bool,
    ) {
        let Some(owed) = self.owed.get_mut(&slot) else { return };
        if owed.carried != Some(hash) {
            let block = store.get(hash).expect("the caller just stored the block");
            let batch = &owed.txs[..owed.seqs.len()];
            // A borrower appends a loan in one piece: found like that,
            // nothing is hashed and nothing copied.
            if !block.txs.windows(batch.len()).any(|run| run == batch) {
                let carried: HashSet<&[u8]> = block.txs.iter().map(Vec::as_slice).collect();
                let (kept, back): (Vec<_>, Vec<_>) = std::mem::take(&mut owed.seqs)
                    .into_iter()
                    .zip(batch.iter().cloned())
                    .partition(|(_, tx)| carried.contains(tx.as_slice()));
                self.mempool.requeue(back);
                let (seqs, txs) = kept.into_iter().unzip();
                (owed.seqs, owed.txs) = (seqs, Arc::new(txs));
            }
            owed.carried = Some(hash);
        }
        if finalized || owed.seqs.is_empty() {
            self.owed.remove(&slot);
        }
    }
}

/// The pacing gate's verdict: go now, keep waiting, or wait and (re)arm
/// the pace timer with this delay.
pub(crate) enum Pace {
    Go,
    Hold,
    Arm(u64),
}

/// The gate every otherwise-ready view-0 proposal passes, behind the
/// node's pace timer. With something to propose — transactions queued here
/// or borrowed for the slot, or a block between the parent and the
/// finalized tip that carries some (it needs the three slots after it to
/// finalize) — the timer is armed at 0 ms: the proposal goes out at network
/// speed, but after this node has read what has already arrived (every
/// message of the instant under `Sim`, the current mailbox batch over TCP),
/// so a loan sent beside the vote that made the slot ready is in the block.
/// Only an *idle* chain waits out [`Params::idle_pacing`]. View-change
/// paths (`view > 0`) never pass here — recovery liveness is not traded
/// for idle CPU.
#[derive(Debug, Default)]
pub(crate) struct Pacing {
    /// The slot whose ready view-0 proposal is held back behind the pace
    /// timer, and the delay the timer was armed with.
    pub(crate) pending: Option<(Slot, u64)>,
    /// The slot the pace timer has just released: set for the one `drive`
    /// its firing runs, in which that slot's proposal goes out.
    pub(crate) released: Option<Slot>,
}

impl Pacing {
    /// For the proposal of `slot` on `parent`: the first call says to arm
    /// the timer and every call until it fires defers; a submission or a
    /// loan arriving mid-pause re-arms it at 0 ms.
    pub(crate) fn gate(
        &mut self,
        slot: Slot,
        parent: BlockHash,
        queue: &Handoff,
        store: &BlockStore,
        finalized: Slot,
        idle_pacing: u64,
    ) -> Pace {
        if self.released == Some(slot) {
            return Pace::Go;
        }
        let idle = queue.mempool.is_empty()
            && !queue.borrowed.contains_key(&slot)
            && !carries_txs_above(store, finalized, parent);
        let wait = if idle { idle_pacing } else { 0 };
        if self.pending == Some((slot, wait)) {
            return Pace::Hold;
        }
        self.pending = Some((slot, wait));
        Pace::Arm(wait)
    }
}

/// Whether any block above slot `finalized` on the chain ending in `tip`
/// carries transactions (at most [`crate::SLOT_WINDOW`] links).
fn carries_txs_above(store: &BlockStore, finalized: Slot, tip: BlockHash) -> bool {
    let mut cursor = tip;
    while let Some(block) = store.get(cursor).filter(|b| b.slot > finalized) {
        if !block.txs.is_empty() {
            return true;
        }
        cursor = block.parent;
    }
    false
}
