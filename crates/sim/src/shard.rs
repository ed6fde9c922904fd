//! `k` simulations stepped as one: the deterministic counterpart of a
//! sharded deployment, where each shard is an independent consensus group.

use tetrabft_engine::{Node, Time, WireSize};
use tetrabft_types::NodeId;

use crate::policy::LinkPolicy;
use crate::runner::{Sim, SimBuilder};

/// `k` independent simulations interleaved deterministically in one
/// virtual timeline.
///
/// Each shard is a full [`Sim`] of `n` nodes; the sharded runner always
/// steps the shard with the earliest pending event (ties break to the
/// lowest shard index), so a run remains a pure function of
/// `(protocol, policy, seed)` exactly like a single simulation. This is
/// the simulator counterpart of the thread-per-shard
/// `ShardedCluster` in `tetrabft-net`.
///
/// # Examples
///
/// ```
/// use tetrabft_sim::{FnNode, Input, LinkPolicy, ShardedSim, Time};
///
/// # #[derive(Clone)] struct M;
/// # impl tetrabft_sim::WireSize for M { fn wire_size(&self) -> usize { 1 } }
/// // Every node of every shard reports the tick it started at.
/// let mut sharded = ShardedSim::new(2, 4, 0, |_, _| LinkPolicy::synchronous(1), |_, _| {
///     FnNode::<M, u64, _>::new(|input, ctx| {
///         if matches!(input, Input::Start) {
///             ctx.output(ctx.now().0);
///         }
///     })
/// });
/// sharded.run_until(Time(5));
/// assert_eq!(sharded.shards().len(), 2);
/// assert!(sharded.shards().iter().all(|shard| shard.outputs().len() == 4));
/// ```
pub struct ShardedSim<M, O> {
    shards: Vec<Sim<M, O>>,
}

impl<M: WireSize + Clone + 'static, O: 'static> ShardedSim<M, O> {
    /// Builds `k` shards of `n` nodes each from a base `seed`. Shard `j`
    /// runs on seed `seed + j` — distinct per shard (identical shards
    /// would otherwise march in lockstep under jittered policies) yet a
    /// pure function of the base, so the whole sharded run remains a pure
    /// function of `(protocol, policy, seed)`. `policy` and `make`
    /// receive the shard index (`policy` also the shard's derived seed,
    /// `make` the node id) so shards can be populated independently.
    pub fn new<N: Node<Msg = M, Output = O> + 'static>(
        k: usize,
        n: usize,
        seed: u64,
        mut policy: impl FnMut(usize, u64) -> LinkPolicy,
        mut make: impl FnMut(usize, NodeId) -> N,
    ) -> Self {
        let shards = (0..k)
            .map(|j| {
                let shard_seed = seed.wrapping_add(j as u64);
                SimBuilder::new(n)
                    .seed(shard_seed)
                    .policy(policy(j, shard_seed))
                    .build(|id| make(j, id))
            })
            .collect();
        ShardedSim { shards }
    }

    /// The per-shard simulations.
    pub fn shards(&self) -> &[Sim<M, O>] {
        &self.shards
    }

    /// Advances the interleaved timeline until every shard's next event
    /// lies beyond `horizon`: repeatedly steps the shard with the earliest
    /// pending event, ties to the lowest index — fully deterministic.
    pub fn run_until(&mut self, horizon: Time) {
        loop {
            let mut earliest: Option<(Time, usize)> = None;
            for (j, shard) in self.shards.iter().enumerate() {
                if let Some(t) = shard.next_event_time() {
                    if t <= horizon && earliest.is_none_or(|(best, _)| t < best) {
                        earliest = Some((t, j));
                    }
                }
            }
            let Some((_, j)) = earliest else { return };
            self.shards[j].step();
        }
    }
}
