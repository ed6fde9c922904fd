//! Sharded multi-instance mode: `k` independent consensus instance groups
//! splitting one logical chain.
//!
//! Slots of the global chain are partitioned round-robin over `k` shards:
//! shard `j` finalizes global slots `j+1, j+1+k, j+1+2k, …` as its local
//! slots `1, 2, 3, …`. Shards share nothing — each runs its own full
//! Multi-shot TetraBFT group on its own engine instances (parallel threads
//! in `tetrabft-net`, deterministically interleaved virtual time in
//! `tetrabft-sim`'s `ShardedSim`) — so aggregate throughput scales with `k`
//! while every shard
//! keeps the paper's one-block-per-delay pipeline. [`FinalizedMerge`]
//! reassembles the single global finalized stream in slot order.

use std::collections::BTreeMap;

use tetrabft_types::Slot;

use crate::node::Finalized;

/// The slot partition: `k` shards in round-robin over global slots.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::ShardSpec;
/// use tetrabft_types::Slot;
///
/// let spec = ShardSpec::new(4);
/// assert_eq!(spec.global_slot(0, Slot(1)), 1);
/// assert_eq!(spec.global_slot(3, Slot(1)), 4);
/// assert_eq!(spec.global_slot(0, Slot(2)), 5);
/// assert_eq!(spec.shard_of_slot(5), 0);
/// assert_eq!(spec.local_slot(5), Slot(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    k: usize,
}

impl ShardSpec {
    /// A partition over `k` shards.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "at least one shard");
        ShardSpec { k }
    }

    /// Number of shards.
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// The global chain slot that shard `shard`'s local slot `local` backs.
    #[inline]
    pub fn global_slot(&self, shard: usize, local: Slot) -> u64 {
        debug_assert!(shard < self.k && local.0 >= 1);
        (local.0 - 1) * self.k as u64 + shard as u64 + 1
    }

    /// Which shard owns global slot `global` (1-based).
    #[inline]
    pub fn shard_of_slot(&self, global: u64) -> usize {
        debug_assert!(global >= 1);
        ((global - 1) % self.k as u64) as usize
    }

    /// The owning shard's local slot for global slot `global`.
    #[inline]
    pub fn local_slot(&self, global: u64) -> Slot {
        debug_assert!(global >= 1);
        Slot((global - 1) / self.k as u64 + 1)
    }

    /// Routes a transaction to a shard by its payload (FNV-1a mod `k`), so
    /// independent clients agree on the owning shard without coordination.
    pub fn route_tx(&self, tx: &[u8]) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in tx {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.k as u64) as usize
    }
}

/// One entry of the merged global finalized stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlobalFinalized {
    /// Position in the single logical chain (1-based, contiguous).
    pub global_slot: u64,
    /// Which shard finalized it.
    pub shard: usize,
    /// The shard-local finalization (its `slot` is the shard-local slot).
    pub fin: Finalized,
}

/// The merge iterator: turns `k` per-shard finalized streams into the
/// single global stream, in strict global slot order.
///
/// Push shard outputs in any order with [`FinalizedMerge::push`]; iterate
/// to drain every entry whose global predecessor has already been emitted.
/// The iterator is fused per drain — it yields `None` exactly while the
/// next global slot is still missing, and resumes once it is pushed.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::{Block, FinalizedMerge, Finalized, ShardSpec, GENESIS_HASH};
/// use tetrabft_types::Slot;
///
/// let fin = |slot: u64| {
///     let block = Block::new(Slot(slot), GENESIS_HASH, vec![]);
///     Finalized { slot: Slot(slot), hash: block.hash(), block }
/// };
/// let mut merge = FinalizedMerge::new(ShardSpec::new(2));
/// merge.push(1, fin(1)); // global slot 2
/// assert!(merge.next().is_none(), "global slot 1 still missing");
/// merge.push(0, fin(1)); // global slot 1
/// let order: Vec<u64> = merge.by_ref().map(|g| g.global_slot).collect();
/// assert_eq!(order, vec![1, 2]);
/// ```
#[derive(Debug)]
pub struct FinalizedMerge {
    spec: ShardSpec,
    /// Per shard: finalizations not yet emitted, keyed by local slot.
    pending: Vec<BTreeMap<u64, Finalized>>,
    next_global: u64,
}

impl FinalizedMerge {
    /// An empty merge over `spec`'s shards, starting at global slot 1.
    pub fn new(spec: ShardSpec) -> Self {
        FinalizedMerge { spec, pending: vec![BTreeMap::new(); spec.k()], next_global: 1 }
    }

    /// The merge of `k` per-shard finalized streams, the `j`-th being
    /// shard `j`'s — one node's outputs in each shard of a sharded run, say.
    /// Iterate to read the global chain as far as it is gapless.
    pub fn from_streams(streams: Vec<Vec<Finalized>>) -> Self {
        let mut merge = FinalizedMerge::new(ShardSpec::new(streams.len()));
        for (shard, stream) in streams.into_iter().enumerate() {
            for fin in stream {
                merge.push(shard, fin);
            }
        }
        merge
    }

    /// Feeds one shard-local finalization into the merge.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn push(&mut self, shard: usize, fin: Finalized) {
        self.pending[shard].insert(fin.slot.0, fin);
    }

    /// The next global slot the merge is waiting for.
    pub fn next_global_slot(&self) -> u64 {
        self.next_global
    }
}

impl Iterator for FinalizedMerge {
    type Item = GlobalFinalized;

    fn next(&mut self) -> Option<GlobalFinalized> {
        let shard = self.spec.shard_of_slot(self.next_global);
        let local = self.spec.local_slot(self.next_global);
        let fin = self.pending[shard].remove(&local.0)?;
        let global_slot = self.next_global;
        self.next_global += 1;
        Some(GlobalFinalized { global_slot, shard, fin })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsMessage, MultiShotNode};
    use tetrabft::Params;
    use tetrabft_sim::{LinkPolicy, ShardedSim, Time};
    use tetrabft_types::{Config, NodeId};

    type Sharded = ShardedSim<MsMessage, Finalized>;

    /// The global chain as `node` observed it: its outputs in every shard,
    /// reassembled in global slot order.
    fn merged_chain(sim: &Sharded, node: NodeId) -> Vec<GlobalFinalized> {
        let streams = sim.shards().iter().map(|shard| {
            let mine = shard.outputs().iter().filter(|o| o.node == node);
            mine.map(|o| o.output.clone()).collect()
        });
        FinalizedMerge::from_streams(streams.collect()).collect()
    }

    fn sharded(k: usize) -> Sharded {
        let cfg = Config::new(4).unwrap();
        ShardedSim::new(
            k,
            4,
            0,
            |_, _| LinkPolicy::synchronous(1),
            move |_, id| MultiShotNode::new(cfg, Params::new(1_000), id),
        )
    }

    #[test]
    fn global_slots_are_contiguous_and_shard_tagged() {
        let mut sim = sharded(3);
        sim.run_until(Time(30));
        let chain = merged_chain(&sim, NodeId(0));
        assert!(chain.len() > 60, "3 shards × ~25 blocks, got {}", chain.len());
        for (i, g) in chain.iter().enumerate() {
            assert_eq!(g.global_slot, i as u64 + 1, "global slots are gapless");
            assert_eq!(g.shard, ShardSpec::new(3).shard_of_slot(g.global_slot));
            assert_eq!(g.fin.slot, ShardSpec::new(3).local_slot(g.global_slot));
        }
    }

    #[test]
    fn interleaving_is_deterministic() {
        let run = |k| {
            let mut sim = sharded(k);
            sim.run_until(Time(25));
            merged_chain(&sim, NodeId(1))
                .into_iter()
                .map(|g| (g.global_slot, g.shard, g.fin.hash))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(4), run(4), "same build ⇒ bit-identical merged chain");
    }

    #[test]
    fn throughput_scales_with_k() {
        let blocks = |k| {
            let mut sim = sharded(k);
            sim.run_until(Time(40));
            merged_chain(&sim, NodeId(0)).len()
        };
        let one = blocks(1);
        let four = blocks(4);
        assert!(
            four >= 3 * one,
            "4 shards must finalize ≳4× the blocks of 1 (got {one} vs {four})"
        );
    }

    #[test]
    fn route_tx_is_stable_and_in_range() {
        let spec = ShardSpec::new(4);
        for k in 0..64u32 {
            let tx = k.to_be_bytes();
            let shard = spec.route_tx(&tx);
            assert!(shard < 4);
            assert_eq!(shard, spec.route_tx(&tx));
        }
    }
}
