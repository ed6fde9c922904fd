//! Timing and batching parameters.

use tetrabft_types::FsyncPolicy;

/// Timing and batching parameters of the protocol.
///
/// The only *timing* parameter TetraBFT needs is Δ, the post-GST delivery
/// bound. The view timeout is fixed at `9Δ` per Section 3.2: up to `2Δ` of
/// view-entry skew across well-behaved nodes, `6Δ` for suggest/proof,
/// proposal, and the four vote phases, plus one Δ of safety margin.
///
/// The multi-shot extension adds two *batching* knobs consumed by the
/// leader's mempool: how many transactions a block may carry and how many
/// the pool admits before pushing back. Their defaults match the historical
/// hard-coded behavior. One transaction may be at most
/// [`Params::DEFAULT_MAX_TX_BYTES`] bytes long.
///
/// # Examples
///
/// ```
/// use tetrabft::Params;
/// let p = Params::new(10);
/// assert_eq!(p.delta(), 10);
/// assert_eq!(p.view_timeout(), 90);
/// assert_eq!(p.max_block_txs(), 64);
///
/// let tuned = Params::new(10).with_max_block_txs(256).with_mempool_capacity(50_000);
/// assert_eq!(tuned.max_block_txs(), 256);
/// assert_eq!(tuned.mempool_capacity(), 50_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    delta: u64,
    timeout_factor: u64,
    max_block_txs: usize,
    mempool_capacity: usize,
    fsync: FsyncPolicy,
    idle_pacing: u64,
}

impl Params {
    /// Multiplier fixed by the paper's timeout analysis (Section 3.2).
    pub(crate) const TIMEOUT_FACTOR: u64 = 9;

    /// Default cap on transactions per block.
    pub const DEFAULT_MAX_BLOCK_TXS: usize = 64;

    /// Default mempool admission bound (submissions beyond it are refused
    /// with a typed backpressure error).
    pub(crate) const DEFAULT_MEMPOOL_CAPACITY: usize = 8_192;

    /// Per-transaction size cap in bytes: the mempool refuses a longer
    /// transaction with `SubmitError::TooLarge`.
    pub const DEFAULT_MAX_TX_BYTES: usize = 4 * 1024;

    /// Creates parameters for a known post-GST delivery bound `delta` (Δ),
    /// expressed in simulator ticks (or milliseconds under `tetrabft-net`),
    /// with the paper's `9Δ` view timeout and default batching knobs.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0`; a zero bound makes timeouts meaningless.
    pub fn new(delta: u64) -> Self {
        assert!(delta > 0, "Δ must be positive");
        Params {
            delta,
            timeout_factor: Self::TIMEOUT_FACTOR,
            max_block_txs: Self::DEFAULT_MAX_BLOCK_TXS,
            mempool_capacity: Self::DEFAULT_MEMPOOL_CAPACITY,
            fsync: FsyncPolicy::default(),
            idle_pacing: 0,
        }
    }

    /// Creates parameters with a non-standard timeout multiplier — **for
    /// the timeout-margin ablation only** (experiment E8): the paper
    /// justifies 9Δ as 2Δ view-entry skew + 6Δ of protocol phases + 1Δ
    /// margin; smaller factors risk spurious view changes.
    ///
    /// # Panics
    ///
    /// Panics if `delta == 0` or `factor == 0`.
    pub fn with_timeout_factor(delta: u64, factor: u64) -> Self {
        assert!(factor > 0, "timeout factor must be positive");
        Params { timeout_factor: factor, ..Params::new(delta) }
    }

    /// Sets the maximum number of transactions a leader packs into one
    /// block.
    ///
    /// # Panics
    ///
    /// Panics if `max == 0`; a chain that can never carry a transaction
    /// has no liveness story.
    #[must_use]
    pub fn with_max_block_txs(mut self, max: usize) -> Self {
        assert!(max > 0, "blocks must be able to carry at least one tx");
        self.max_block_txs = max;
        self
    }

    /// Sets the mempool admission bound (the backpressure threshold).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn with_mempool_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "mempool must admit at least one tx");
        self.mempool_capacity = capacity;
        self
    }

    /// Sets the durable store's fsync cadence: `Always` pays a sync per
    /// record for minimal power-loss rollback, `Batch(n)` amortizes it,
    /// `Never` rides the OS page cache (still crash-safe for process
    /// deaths, not power loss). Ignored by nodes without a durable store.
    #[must_use]
    pub fn with_fsync(mut self, policy: FsyncPolicy) -> Self {
        self.fsync = policy;
        self
    }

    /// Paces an *idle* multi-shot chain. Every ready view-0 proposal waits
    /// behind one timer: for 0 time units when there is work — the leader
    /// holds transactions (its own or lent to it), or a block between the
    /// one it extends and the finalized tip carries some and needs the
    /// three slots after it to finalize — and for `pause` time units when
    /// there is none, instead of free-running empty blocks at CPU speed.
    /// Zero is still a timer: the proposer first reads what has already
    /// arrived, so transactions handed to it with the vote that made its
    /// slot ready are in the block. Pacing therefore adds nothing between
    /// a transaction's proposal and its finalization. `0` (the default)
    /// makes the idle wait zero as well. A submission or a loan arriving
    /// during the pause re-arms the timer at zero as soon as the node
    /// runs, so what pacing costs is felt on an idle chain only: the first
    /// transaction after a lull waits for its node's next vote, then for
    /// the paused slot ahead of the leader it is lent to (or of its own
    /// node, if that leads first) — up to two pauses.
    #[must_use]
    pub fn with_idle_pacing(mut self, pause: u64) -> Self {
        self.idle_pacing = pause;
        self
    }

    /// Idle proposal pause (`0` = free-run, the default).
    #[inline]
    pub fn idle_pacing(&self) -> u64 {
        self.idle_pacing
    }

    /// The durable store's fsync cadence.
    #[inline]
    pub fn fsync(&self) -> FsyncPolicy {
        self.fsync
    }

    /// The delivery bound Δ.
    #[inline]
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The per-view timeout (`9Δ` unless overridden for the ablation).
    #[inline]
    pub fn view_timeout(&self) -> u64 {
        self.timeout_factor * self.delta
    }

    /// Maximum transactions a leader packs into one block.
    #[inline]
    pub fn max_block_txs(&self) -> usize {
        self.max_block_txs
    }

    /// Mempool admission bound; submissions beyond it are refused.
    #[inline]
    pub fn mempool_capacity(&self) -> usize {
        self.mempool_capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeout_is_nine_delta() {
        assert_eq!(Params::new(1).view_timeout(), 9);
        assert_eq!(Params::new(100).view_timeout(), 900);
    }

    #[test]
    #[should_panic(expected = "Δ must be positive")]
    fn zero_delta_rejected() {
        let _ = Params::new(0);
    }

    #[test]
    fn fsync_policy_defaults_batched_and_overrides() {
        let p = Params::new(5);
        assert_eq!(p.fsync(), FsyncPolicy::default());
        let q = p.with_fsync(FsyncPolicy::Always);
        assert_eq!(q.fsync(), FsyncPolicy::Always);
        assert_eq!(q.delta(), 5, "timing knobs are untouched");
        assert_eq!(Params::new(5).with_fsync(FsyncPolicy::Batch(4)).fsync(), FsyncPolicy::Batch(4));
    }

    #[test]
    fn batching_knobs_default_and_override() {
        let p = Params::new(5);
        assert_eq!(p.max_block_txs(), Params::DEFAULT_MAX_BLOCK_TXS);
        assert_eq!(p.mempool_capacity(), Params::DEFAULT_MEMPOOL_CAPACITY);
        let q = p.with_max_block_txs(7).with_mempool_capacity(11);
        assert_eq!((q.max_block_txs(), q.mempool_capacity()), (7, 11));
        assert_eq!(q.delta(), 5, "timing knobs are untouched");
    }

    #[test]
    #[should_panic(expected = "at least one tx")]
    fn zero_block_txs_rejected() {
        let _ = Params::new(1).with_max_block_txs(0);
    }
}
