//! Catch-up — not in the paper: how a node that fell out of the window
//! learns the blocks finalized without it. Noticing that it is behind,
//! serving a peer from the chain log, and which served block a blocking set
//! vouches for; every method returns what to ask, send or commit, and
//! [`crate::node`] does it (DESIGN.md §6, §7).

use std::collections::{BTreeMap, BTreeSet};

use tetrabft_store::NodeStore;
use tetrabft_types::{Config, NodeId, Slot};
use tetrabft_wire::Wire;

use crate::block::{Block, BlockHash};
use crate::msg::MsMessage;

/// Most blocks a node serves per catch-up response — half the hostile-decode
/// bound ([`crate::msg::MAX_CATCHUP_BLOCKS`]), so honest responses always
/// decode. A lagging node re-requests as soon as a batch commits, so the cap
/// bounds message size, not recovery depth.
pub(crate) const CATCHUP_BATCH: usize = 32;

#[derive(Debug)]
pub(crate) struct Catchup {
    /// Per-peer evidence that the chain has left this node behind: the
    /// peer voted beyond this node's window since the last catch-up request.
    ahead: Vec<bool>,
    /// Highest slot a quorum was seen to finalize over a block this node
    /// lacks ([`Self::hole_at`]: asked for once).
    hole: Slot,
    /// Catch-up candidates: next-block proposals received via
    /// [`MsMessage::Blocks`], keyed by `(slot, recomputed hash)` with the
    /// set of peers vouching for each — a peer for one hash a slot, so at
    /// most n × [`CATCHUP_BATCH`] blocks whatever is sent. A candidate
    /// commits once its parent is our finalized tip and a blocking set
    /// (f+1, at least one honest node) agrees on the hash.
    candidates: BTreeMap<(Slot, BlockHash), (Block, BTreeSet<u16>)>,
}

impl Catchup {
    pub(crate) fn new(cfg: &Config) -> Self {
        Catchup { ahead: vec![false; cfg.n()], hole: Slot::GENESIS, candidates: BTreeMap::new() }
    }

    /// Notes that `from` voted beyond the window. `true` once a blocking
    /// set has: it holds an honest node, so the chain has moved on — ask
    /// now, not at the next tick of the catch-up timer (which stays as the
    /// retransmission).
    pub(crate) fn voted_ahead(&mut self, from: NodeId, cfg: &Config) -> bool {
        self.ahead[from.index()] = true;
        cfg.is_blocking(self.ahead.iter().filter(|seen| **seen).count())
    }

    /// Notes that a quorum finalized `slot` over a block this node lacks;
    /// `true` once per slot.
    pub(crate) fn hole_at(&mut self, slot: Slot) -> bool {
        let new = slot > self.hole;
        self.hole = self.hole.max(slot);
        new
    }

    /// The request, for every peer, for the finalized blocks above `tip`.
    /// Any request spends the evidence gathered so far.
    pub(crate) fn request(&mut self, tip: Slot) -> MsMessage {
        self.ahead.fill(false);
        MsMessage::CatchUp { from_slot: tip.next() }
    }

    /// What to answer a peer's request with, from the durable chain log:
    /// up to [`CATCHUP_BATCH`] consecutive finalized blocks starting at
    /// `from_slot`. With nothing the requester lacks the answer is empty
    /// and not sent — catch-up quiesces by itself.
    pub(crate) fn serve(log: &mut NodeStore, from_slot: Slot) -> Vec<Block> {
        let Some((tip, _)) = log.chain_tip() else { return Vec::new() };
        let lo = from_slot.0.max(1);
        if lo > tip.0 {
            return Vec::new();
        }
        let hi = tip.0.min(lo + CATCHUP_BATCH as u64 - 1);
        let mut blocks = Vec::with_capacity((hi - lo + 1) as usize);
        for s in lo..=hi {
            // A read error here means our own log is damaged; serve the
            // clean prefix rather than nothing (or a panic).
            let Ok(Some((_, bytes))) = log.block_record(Slot(s)) else { break };
            let Ok(block) = Block::from_bytes(&bytes) else { break };
            blocks.push(block);
        }
        blocks
    }

    /// Buffers the blocks `from` served by `(slot, recomputed hash)`, with
    /// `from` vouching for each. A peer vouches for one hash per slot: a
    /// new vouch withdraws its old one, and a candidate nobody vouches for
    /// is dropped — or one hostile responder, forging block after block
    /// for a slot, would grow the buffer without limit.
    pub(crate) fn vouch(&mut self, from: NodeId, blocks: Vec<Block>, tip: Slot) {
        for block in blocks {
            let slot = block.slot;
            if slot <= tip || slot.0 > tip.0 + CATCHUP_BATCH as u64 {
                continue;
            }
            // Recompute the hash: the sender names no digest, and could not
            // be trusted if it did.
            let hash = block.hash();
            self.candidates.retain(|(s, h), (_, peers)| {
                let rival = *s == slot && *h != hash;
                !(rival && peers.remove(&from.0) && peers.is_empty())
            });
            let entry =
                self.candidates.entry((slot, hash)).or_insert_with(|| (block, BTreeSet::new()));
            entry.1.insert(from.0);
        }
    }

    /// Takes the next block to commit above the tip, if it is buffered: its
    /// parent must equal the finalized tip and a blocking set (f+1 peers,
    /// hence at least one honest node) must vouch for the same hash — a
    /// lone Byzantine responder can never graft a forged block.
    pub(crate) fn next_block(
        &mut self,
        tip: Slot,
        tip_hash: BlockHash,
        cfg: &Config,
    ) -> Option<(BlockHash, Block)> {
        let next = tip.next();
        let (key, _) = self.candidates.iter().find(|((s, _), (b, peers))| {
            *s == next && b.parent == tip_hash && cfg.is_blocking(peers.len())
        })?;
        let key = *key;
        self.candidates.remove(&key).map(|(block, _)| (key.1, block))
    }

    /// Drops candidates that can no longer matter (at or below the tip, or
    /// beyond the next request window).
    pub(crate) fn prune(&mut self, tip: Slot) {
        let hi = Slot(tip.0 + CATCHUP_BATCH as u64);
        self.candidates.retain(|(s, _), _| *s > tip && *s <= hi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::GENESIS_HASH;

    #[test]
    fn a_peer_vouches_for_one_hash_per_slot_and_a_blocking_set_still_commits() {
        let cfg = Config::new(4).unwrap();
        let below = Slot::GENESIS;
        let real = Block::new(Slot(1), GENESIS_HASH, vec![b"real".to_vec()]);
        let forged = |k: u8| Block::new(Slot(1), GENESIS_HASH, vec![vec![k]]);
        let mut catchup = Catchup::new(&cfg);
        // Node 3 forges block after block for slot 1; node 1 first repeats
        // one of them, then changes its mind.
        for k in 0..200 {
            catchup.vouch(NodeId(3), vec![forged(k), forged(k)], below);
        }
        catchup.vouch(NodeId(1), vec![forged(199)], below);
        catchup.vouch(NodeId(1), vec![real.clone()], below);
        assert_eq!(catchup.candidates.len(), 2, "one candidate per (peer, slot), not per frame");
        assert_eq!(
            catchup.next_block(below, GENESIS_HASH, &cfg),
            None,
            "nothing has f + 1 = 2 vouchers"
        );
        catchup.vouch(NodeId(2), vec![real.clone()], below);
        assert_eq!(catchup.next_block(below, GENESIS_HASH, &cfg), Some((real.hash(), real)));
        catchup.prune(Slot(1));
        assert!(catchup.candidates.is_empty(), "the forgeries go with the slot");
    }
}
