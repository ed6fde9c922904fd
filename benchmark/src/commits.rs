//! Commit bookkeeping shared by the TCP and replay runners: which node
//! finalized which slot when, when each scheduled transaction became
//! committed (f+1-th distinct node), and the safety oracles that fall out
//! of watching every node's stream.

use std::collections::HashMap;

use tetrabft_multishot::{BlockHash, Finalized, TxId};
use tetrabft_types::NodeId;

use crate::schedule::Schedule;
use crate::spec::N;

/// "Not yet" on every clock the bookkeeping uses.
pub const UNSET: u64 = u64::MAX;

/// Distinct nodes whose `Finalized` commit a slot: f + 1.
const COMMIT_QUORUM: usize = 2;

/// One slot as the cluster's outputs showed it.
#[derive(Debug, Clone)]
pub struct SlotRecord {
    pub hash: BlockHash,
    pub txs: u32,
    /// Per node: when its `Finalized` was observed, and when it had been
    /// executed on that node's replica (equal without a ledger).
    pub seen: [u64; N],
    pub done: [u64; N],
    /// `done` of the f+1-th distinct node.
    pub commit_ns: u64,
}

impl SlotRecord {
    fn reporters(&self) -> usize {
        self.done.iter().filter(|d| **d != UNSET).count()
    }

    /// First observation to the quorum-th (n − f) one: how far the
    /// replicas a commit can wait for trail the fastest.
    pub fn quorum_skew_ns(&self) -> Option<u64> {
        let mut seen: Vec<u64> = self.seen.iter().copied().filter(|s| *s != UNSET).collect();
        seen.sort_unstable();
        (seen.len() >= N - 1).then(|| seen[N - 2] - seen[0])
    }
}

/// Everything observed about commits in one run.
pub struct Commits {
    index: HashMap<TxId, u32>,
    /// Due instant per scheduled transaction, on the run's clock.
    due_ns: Vec<u64>,
    /// Due → committed per scheduled transaction ([`UNSET`] until then).
    pub latency_ns: Vec<u64>,
    /// The slot each scheduled transaction committed in (0 until then).
    pub tx_slot: Vec<u32>,
    /// Slot `s` is `slots[s - 1]`: streams are gapless from slot 1.
    pub slots: Vec<SlotRecord>,
    /// Scheduled transactions committed so far.
    pub committed: usize,
    /// Oracle counters: a slot two nodes finalized with different hashes,
    /// a scheduled transaction found in a second slot, a finalized
    /// transaction nobody scheduled.
    pub hash_mismatches: u64,
    pub duplicate_txs: u64,
    pub unknown_txs: u64,
}

impl Commits {
    /// `origin_ns` is the schedule's time zero on the run's clock.
    pub fn new(schedule: &Schedule, origin_ns: u64) -> Commits {
        let index = schedule.ids.iter().enumerate().map(|(i, id)| (*id, i as u32)).collect();
        Commits {
            index,
            due_ns: schedule.due_ns.iter().map(|d| origin_ns + d).collect(),
            latency_ns: vec![UNSET; schedule.len()],
            tx_slot: vec![0; schedule.len()],
            slots: Vec::new(),
            committed: 0,
            hash_mismatches: 0,
            duplicate_txs: 0,
            unknown_txs: 0,
        }
    }

    /// Records that `node`'s `fin` was observed at `seen_ns` and executed
    /// by `done_ns`; on the f+1-th distinct node the slot commits and its
    /// transactions get their latency.
    pub fn observe(&mut self, node: NodeId, fin: &Finalized, seen_ns: u64, done_ns: u64) {
        let at = fin.slot.0 as usize - 1;
        while self.slots.len() <= at {
            self.slots.push(SlotRecord {
                hash: fin.hash,
                txs: fin.block.txs.len() as u32,
                seen: [UNSET; N],
                done: [UNSET; N],
                commit_ns: UNSET,
            });
        }
        let rec = &mut self.slots[at];
        if rec.reporters() == 0 {
            rec.hash = fin.hash;
            rec.txs = fin.block.txs.len() as u32;
        } else if rec.hash != fin.hash {
            self.hash_mismatches += 1;
        }
        if rec.done[node.index()] != UNSET {
            return; // a restarted node re-announcing a slot it already reported
        }
        rec.seen[node.index()] = seen_ns;
        rec.done[node.index()] = done_ns;
        if rec.reporters() != COMMIT_QUORUM {
            return;
        }
        rec.commit_ns = done_ns;
        for tx in fin.block.txs.iter() {
            match self.index.get(&TxId::of(tx)) {
                Some(&i) if self.latency_ns[i as usize] == UNSET => {
                    let i = i as usize;
                    self.latency_ns[i] = done_ns.saturating_sub(self.due_ns[i]);
                    self.tx_slot[i] = fin.slot.0 as u32;
                    self.committed += 1;
                }
                Some(_) => self.duplicate_txs += 1,
                None => self.unknown_txs += 1,
            }
        }
    }

    /// When scheduled transaction `i` committed, if it has.
    pub fn commit_instant(&self, i: usize) -> Option<u64> {
        (self.latency_ns[i] != UNSET).then(|| self.due_ns[i] + self.latency_ns[i])
    }

    /// Committed slots whose commit instant lies in `from..to`.
    pub fn slots_in(&self, from: u64, to: u64) -> impl Iterator<Item = &SlotRecord> {
        self.slots.iter().filter(move |s| s.commit_ns != UNSET && (from..to).contains(&s.commit_ns))
    }
}
