//! The bounded transaction mempool feeding leader batch assembly.
//!
//! Admission validates a transaction's bytes (non-empty, under the size
//! cap, past the application's [`TxCheck`] hook when one is installed),
//! deduplicates on the typed [`TxId`] digest against everything still
//! queued, and refuses submissions past a fixed capacity — the typed
//! [`SubmitError`] is the backpressure signal clients react to.
//!
//! Drain order is strictly FIFO by *admission sequence*: every admitted
//! transaction is numbered, a drained batch carries its numbers with it,
//! and a batch that comes back ([`Mempool::requeue`]: its block lost a view
//! change, or the leader it was lent to did not propose it) is merged back
//! by number, wherever the queue has moved to meanwhile. A transaction does
//! not wait in here for its own node's turn to lead: the node drains the
//! queue into its own block when it leads, and otherwise lends it to the
//! leader who proposes one hop from now (the hand-off: README "From a
//! client to a block", DESIGN.md §3) — in both cases front first, so per
//! admitting node the order of finalization is the order of admission.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use tetrabft::Params;

use crate::txn::{Tx, TxCheck, TxId};

/// Why a transaction submission was refused.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::{Mempool, SubmitError};
///
/// let max = tetrabft::Params::DEFAULT_MAX_TX_BYTES;
/// let mut pool = Mempool::new(2);
/// assert_eq!(pool.submit(vec![]), Err(SubmitError::Empty));
/// assert_eq!(pool.submit(vec![0; max + 1]), Err(SubmitError::TooLarge { size: max + 1, max }));
/// pool.submit(b"a".to_vec()).unwrap();
/// assert_eq!(pool.submit(b"a".to_vec()), Err(SubmitError::Duplicate));
/// pool.submit(b"b".to_vec()).unwrap();
/// assert_eq!(pool.submit(b"c".to_vec()), Err(SubmitError::Full { capacity: 2 }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// Empty transactions carry no payload and would only bloat blocks.
    Empty,
    /// The transaction exceeds the per-transaction size cap.
    TooLarge {
        /// Size of the offending transaction in bytes.
        size: usize,
        /// The configured cap.
        max: usize,
    },
    /// The payload is not a canonical encoding of what the application
    /// accepts (the admission hook could not even parse it).
    Malformed {
        /// What failed to parse or violated the canonical form.
        reason: &'static str,
    },
    /// The payload parsed, but the application's admission hook refused it
    /// (a statically-detectable semantic violation, e.g. a zero-amount or
    /// self-paying transfer; stateful rules like nonces reject at
    /// execution instead).
    Rejected {
        /// Why the application refused it.
        reason: &'static str,
    },
    /// A transaction with this identity is already queued.
    Duplicate,
    /// The pool is at capacity — the backpressure signal; retry after the
    /// chain drains some blocks.
    Full {
        /// The configured admission bound.
        capacity: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Empty => write!(f, "empty transaction"),
            SubmitError::TooLarge { size, max } => {
                write!(f, "transaction of {size} bytes exceeds the {max}-byte cap")
            }
            SubmitError::Malformed { reason } => write!(f, "malformed transaction: {reason}"),
            SubmitError::Rejected { reason } => {
                write!(f, "transaction refused at admission: {reason}")
            }
            SubmitError::Duplicate => write!(f, "transaction is already queued"),
            SubmitError::Full { capacity } => {
                write!(f, "mempool is at its capacity of {capacity} transactions")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// A bounded FIFO transaction pool with validation and typed dedup at
/// admission.
///
/// # Examples
///
/// ```
/// use tetrabft_multishot::Mempool;
///
/// let mut pool = Mempool::new(100);
/// for k in 0..5u8 {
///     pool.submit(vec![k + 1]).unwrap();
/// }
/// let (seqs, batch) = pool.next_batch(3);
/// assert_eq!(batch, vec![vec![1], vec![2], vec![3]], "drain order is FIFO");
/// assert_eq!(seqs, vec![0, 1, 2], "each with its admission sequence");
/// assert_eq!(pool.len(), 2);
/// // A returned batch goes back where its sequence says, not to the tail.
/// pool.requeue(seqs.into_iter().zip(batch));
/// assert_eq!(pool.next_batch(1).1, vec![vec![1]]);
/// // A drained transaction may be resubmitted (it is no longer queued).
/// pool.submit(vec![1]).unwrap();
/// ```
#[derive(Debug, Clone)]
pub struct Mempool {
    /// Ascending in `seq` at all times: admissions append the next number,
    /// returns are merged by theirs.
    queue: VecDeque<Queued>,
    next_seq: u64,
    // Multiset of queued TxIds. A hit is confirmed byte-exactly against the
    // queue (a 64-bit digest collision must not refuse an honest payload);
    // the count keeps colliding digests correct through drains.
    queued: HashMap<TxId, u32>,
    capacity: usize,
    /// The application's structural-admission veto, if installed.
    admission: Option<TxCheck>,
    /// What the queue's two ends gained and lost since the last
    /// [`Mempool::seal`] — the change a durable node journals instead of
    /// the whole queue ([`Mempool::unsealed`]): entries still at the front
    /// that a requeue put there, entries still at the back that were
    /// admitted, and how many of the entries between them (the queue as it
    /// stood at the seal) have been drained.
    requeued: usize,
    admitted: usize,
    drained: usize,
    /// A return since the last seal landed behind the queue's front: the
    /// three counters cannot describe that change ([`Mempool::reordered`]).
    reordered: bool,
}

/// One queued transaction and the admission sequence it was given.
#[derive(Debug, Clone)]
struct Queued {
    seq: u64,
    tx: Tx,
}

impl Mempool {
    /// Creates an empty pool admitting at most `capacity` transactions of
    /// at most [`Params::DEFAULT_MAX_TX_BYTES`] bytes each, with no
    /// application admission hook.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "mempool must admit at least one tx");
        Mempool {
            queue: VecDeque::new(),
            next_seq: 0,
            queued: HashMap::new(),
            capacity,
            admission: None,
            requeued: 0,
            admitted: 0,
            drained: 0,
            reordered: false,
        }
    }

    /// Installs the application's admission hook: every subsequent
    /// submission must pass `check` or is refused with its typed reason
    /// ([`SubmitError::Malformed`] / [`SubmitError::Rejected`]).
    #[must_use]
    pub fn with_admission(mut self, check: TxCheck) -> Self {
        self.set_admission(check);
        self
    }

    /// In-place form of [`Mempool::with_admission`], for owners that embed
    /// the pool in a larger structure.
    pub(crate) fn set_admission(&mut self, check: TxCheck) {
        self.admission = Some(check);
    }

    /// Validates and admits one transaction, FIFO position at the tail.
    /// Accepts anything convertible to the [`Tx`] envelope: a typed
    /// [`crate::Transaction`] by reference, or an opaque `Vec<u8>`
    /// ([`Tx::raw`]).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Empty`] and [`SubmitError::TooLarge`] reject
    /// degenerate transactions; [`SubmitError::Malformed`] and
    /// [`SubmitError::Rejected`] carry the admission hook's veto;
    /// [`SubmitError::Duplicate`] refuses an already-queued identity;
    /// [`SubmitError::Full`] is the backpressure signal at capacity.
    pub fn submit(&mut self, tx: impl Into<Tx>) -> Result<(), SubmitError> {
        let tx = tx.into();
        self.vet(tx.bytes())?;
        if self.queued.get(&tx.id()).is_some_and(|c| *c > 0)
            && self.queue.iter().any(|q| q.tx.bytes() == tx.bytes())
        {
            return Err(SubmitError::Duplicate);
        }
        if self.queue.len() >= self.capacity {
            return Err(SubmitError::Full { capacity: self.capacity });
        }
        *self.queued.entry(tx.id()).or_insert(0) += 1;
        self.queue.push_back(Queued { seq: self.next_seq, tx });
        self.next_seq += 1;
        self.admitted += 1;
        Ok(())
    }

    /// The checks of [`Mempool::submit`] that look at the transaction
    /// alone — not empty, under the size cap, past the admission hook —
    /// for payloads that reach a block without being queued here (what a
    /// peer lends this node for a slot it leads).
    ///
    /// # Errors
    ///
    /// [`SubmitError::Empty`], [`SubmitError::TooLarge`], or the hook's
    /// [`SubmitError::Malformed`] / [`SubmitError::Rejected`].
    pub(crate) fn vet(&self, tx: &[u8]) -> Result<(), SubmitError> {
        if tx.is_empty() {
            return Err(SubmitError::Empty);
        }
        let max = Params::DEFAULT_MAX_TX_BYTES;
        if tx.len() > max {
            return Err(SubmitError::TooLarge { size: tx.len(), max });
        }
        self.admission.map_or(Ok(()), |check| check(tx))
    }

    /// Drains up to `max_txs` transactions in FIFO order — batch assembly,
    /// for this node's own block or for a loan. Returns the payloads and,
    /// beside them, the admission sequence of each: blocks and messages
    /// carry the canonical bytes alone (the envelope ends at the pool
    /// boundary), the sequences stay with whoever may have to hand the
    /// batch back ([`Mempool::requeue`]).
    pub fn next_batch(&mut self, max_txs: usize) -> (Vec<u64>, Vec<Vec<u8>>) {
        let take = self.queue.len().min(max_txs);
        // The drain eats the requeued front first, then the sealed middle,
        // then the newly admitted back.
        let sealed = self.queue.len() - self.requeued - self.admitted;
        let from_front = take.min(self.requeued);
        let from_sealed = (take - from_front).min(sealed);
        self.requeued -= from_front;
        self.drained += from_sealed;
        self.admitted -= take - from_front - from_sealed;
        let mut seqs = Vec::with_capacity(take);
        let mut batch = Vec::with_capacity(take);
        for _ in 0..take {
            let Queued { seq, tx } = self.queue.pop_front().expect("take <= len");
            self.forget(tx.id());
            seqs.push(seq);
            batch.push(tx.into_bytes());
        }
        (seqs, batch)
    }

    /// Returns previously drained transactions to the queue, each where
    /// its admission sequence puts it — used when the block they were
    /// packed into lost a view change, or the leader they were lent to
    /// proposed without them, so they keep their FIFO position instead of
    /// being silently dropped. `txs` is `(sequence, payload)` in ascending
    /// sequence, as [`Mempool::next_batch`] handed them out. Batches may
    /// come back in any order: one returned later never ends up in front
    /// of an older one returned earlier.
    ///
    /// The payloads re-enter as raw envelopes; the [`TxId`] is recomputed
    /// from the canonical bytes and therefore identical to the one they
    /// were first admitted under.
    ///
    /// The capacity check is deliberately skipped: these transactions were
    /// already admitted once, and the transient overshoot is bounded by
    /// what is out at a time (`SLOT_WINDOW` batches).
    pub fn requeue(&mut self, txs: impl IntoIterator<Item = (u64, Vec<u8>)>) {
        let back = self.queue.len();
        for (seq, bytes) in txs {
            debug_assert!(back == self.queue.len() || self.queue[self.queue.len() - 1].seq < seq);
            let tx = Tx::raw(bytes);
            *self.queued.entry(tx.id()).or_insert(0) += 1;
            self.queue.push_back(Queued { seq, tx });
        }
        let returned = self.queue.len() - back;
        if returned == 0 {
            return;
        }
        if back == 0 || self.queue[self.queue.len() - 1].seq < self.queue[0].seq {
            // All of it is older than everything queued: the plain push to
            // the front the journal has a record for.
            self.queue.rotate_right(returned);
            self.requeued += returned;
        } else {
            // Two ascending runs: the stable sort merges them in one pass.
            self.queue.make_contiguous().sort_by_key(|q| q.seq);
            self.reordered = true;
        }
    }

    fn forget(&mut self, id: TxId) {
        if let Some(count) = self.queued.get_mut(&id) {
            *count -= 1;
            if *count == 0 {
                self.queued.remove(&id);
            }
        }
    }

    /// Iterates the queued payloads in FIFO order — what a durable node
    /// compacts its mempool journal down to.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u8]> {
        self.queue.iter().map(|q| q.tx.bytes())
    }

    /// How the queue differs from what it was at the last
    /// [`Mempool::seal`], as `(drained, requeued, admitted)`: that queue
    /// with `drained` entries popped off its front, then `requeued` pushed
    /// at the front (in this order) and `admitted` at the back, is this
    /// queue. `None` if nothing changed. One such record per seal is what
    /// a durable node appends to its journal so admitted transactions
    /// survive a crash; transactions admitted *and* drained between two
    /// seals appear in neither (they are in a proposal, not in the queue).
    /// Meaningless while [`Mempool::reordered`] holds.
    pub(crate) fn unsealed(
        &self,
    ) -> Option<(usize, impl ExactSizeIterator<Item = &[u8]>, impl ExactSizeIterator<Item = &[u8]>)>
    {
        if self.drained + self.requeued + self.admitted == 0 {
            return None;
        }
        let back = self.queue.len() - self.admitted;
        Some((
            self.drained,
            self.queue.range(..self.requeued).map(|q| q.tx.bytes()),
            self.queue.range(back..).map(|q| q.tx.bytes()),
        ))
    }

    /// Whether a [`Mempool::requeue`] since the last [`Mempool::seal`] put
    /// transactions behind the queue's front (an older batch had come back
    /// before it): [`Mempool::unsealed`] cannot express that, so a durable
    /// node's next seal rewrites its journal from [`Mempool::iter`].
    pub(crate) fn reordered(&self) -> bool {
        self.reordered
    }

    /// Marks the queue as it stands now as sealed: [`Mempool::unsealed`]
    /// reports changes from here on.
    pub(crate) fn seal(&mut self) {
        (self.requeued, self.admitted, self.drained, self.reordered) = (0, 0, 0, false);
    }

    /// Number of queued transactions.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::tests::Memo;

    #[test]
    fn fifo_across_batches() {
        let mut pool = Mempool::new(1_000);
        for k in 0..10u32 {
            pool.submit(k.to_be_bytes().to_vec()).unwrap();
        }
        let (_, first) = pool.next_batch(4);
        let (_, second) = pool.next_batch(4);
        let (_, third) = pool.next_batch(4);
        let drained: Vec<u32> = first
            .iter()
            .chain(&second)
            .chain(&third)
            .map(|tx| u32::from_be_bytes(tx[..4].try_into().unwrap()))
            .collect();
        assert_eq!(drained, (0..10).collect::<Vec<_>>(), "FIFO across batch boundaries");
        assert!(pool.is_empty());
    }

    #[test]
    fn capacity_backpressure_releases_after_drain() {
        let mut pool = Mempool::new(3);
        for k in 0..3u8 {
            pool.submit(vec![k + 1]).unwrap();
        }
        assert_eq!(pool.submit(vec![9]), Err(SubmitError::Full { capacity: 3 }));
        pool.next_batch(1);
        pool.submit(vec![9]).unwrap();
        assert_eq!(pool.len(), 3);
    }

    #[test]
    fn dedup_is_scoped_to_queued_txs() {
        let mut pool = Mempool::new(10);
        pool.submit(b"tx".to_vec()).unwrap();
        assert_eq!(pool.submit(b"tx".to_vec()), Err(SubmitError::Duplicate));
        assert_eq!(pool.next_batch(10).1.len(), 1);
        pool.submit(b"tx".to_vec()).expect("drained txs may be resubmitted");
    }

    #[test]
    fn typed_and_raw_submissions_share_one_identity() {
        let mut pool = Mempool::new(10);
        pool.submit(Tx::typed(&Memo(b"pay"))).unwrap();
        // The same canonical bytes, raw this time: same TxId, refused.
        assert_eq!(pool.submit(b"pay".to_vec()), Err(SubmitError::Duplicate));
        // And the mirror image: raw first, typed second.
        pool.submit(b"other".to_vec()).unwrap();
        assert_eq!(pool.submit(Tx::typed(&Memo(b"other"))), Err(SubmitError::Duplicate));
    }

    #[test]
    fn admission_hook_vetoes_at_the_door() {
        fn only_even_first_byte(tx: &[u8]) -> Result<(), SubmitError> {
            match tx.first() {
                Some(b) if b % 2 == 0 => Ok(()),
                Some(_) => Err(SubmitError::Rejected { reason: "odd first byte" }),
                None => Err(SubmitError::Malformed { reason: "empty" }),
            }
        }
        let mut pool = Mempool::new(10).with_admission(only_even_first_byte);
        pool.submit(vec![2, 2]).unwrap();
        assert_eq!(
            pool.submit(vec![3, 3]),
            Err(SubmitError::Rejected { reason: "odd first byte" })
        );
        assert_eq!(pool.len(), 1, "refused txs never enter the pool");
    }

    /// A drained batch as `requeue` takes it back.
    fn zip(batch: (Vec<u64>, Vec<Vec<u8>>)) -> impl Iterator<Item = (u64, Vec<u8>)> {
        batch.0.into_iter().zip(batch.1)
    }

    #[test]
    fn requeued_batch_regains_fifo_head_and_dedup() {
        let mut pool = Mempool::new(3);
        for k in 0..3u8 {
            pool.submit(vec![k + 1]).unwrap();
        }
        let batch = pool.next_batch(2); // [1], [2] in flight
        pool.requeue(zip(batch));
        assert_eq!(
            pool.next_batch(3).1,
            vec![vec![1], vec![2], vec![3]],
            "original order restored"
        );
        // Dedup follows the requeued entries.
        pool.submit(vec![9]).unwrap();
        let batch = pool.next_batch(1);
        pool.requeue(zip(batch));
        assert_eq!(pool.submit(vec![9]), Err(SubmitError::Duplicate));
        // Requeue may transiently exceed capacity (already-admitted txs).
        for k in 10..12u8 {
            pool.submit(vec![k]).unwrap();
        }
        let batch = pool.next_batch(3);
        pool.submit(vec![99]).unwrap();
        pool.submit(vec![98]).unwrap();
        pool.submit(vec![97]).unwrap();
        pool.requeue(zip(batch));
        assert_eq!(pool.len(), 6, "3 queued + 3 requeued");
    }

    #[test]
    fn two_lost_batches_come_back_in_admission_order_whichever_returns_first() {
        // One view change loses the blocks of slots m and m + 4; each batch
        // returns when its slot commits, the older one first. A strict-nonce
        // ledger rejects the older payer if the younger batch overtakes it.
        for older_first in [true, false] {
            let mut pool = Mempool::new(100);
            for k in 1..=7u8 {
                pool.submit(vec![k]).unwrap();
            }
            let older = pool.next_batch(2); // [1], [2]
            let younger = pool.next_batch(2); // [3], [4]
            let (first, second) = if older_first { (older, younger) } else { (younger, older) };
            pool.requeue(zip(first));
            assert!(!pool.reordered(), "everything queued is younger: a front push");
            pool.requeue(zip(second));
            assert_eq!(pool.reordered(), older_first, "the younger batch lands behind the older");
            let order: Vec<u8> = pool.iter().map(|tx| tx[0]).collect();
            assert_eq!(order, [1, 2, 3, 4, 5, 6, 7], "older first: {older_first}");
            // Part of a batch (the rest stayed in a block), between what is
            // queued in front of it and behind it.
            let (seqs, txs) = pool.next_batch(4);
            pool.next_batch(1); // [5] is out for good
            pool.requeue([(seqs[0], txs[0].clone())]);
            pool.requeue([(seqs[2], txs[2].clone()), (seqs[3], txs[3].clone())]);
            let order: Vec<u8> = pool.iter().map(|tx| tx[0]).collect();
            assert_eq!(order, [1, 3, 4, 6, 7]);
            assert_eq!(pool.submit(vec![3]), Err(SubmitError::Duplicate), "dedup follows");
            pool.seal();
            assert!(!pool.reordered() && pool.unsealed().is_none());
        }
    }

    #[test]
    fn unsealed_change_replays_the_sealed_queue_into_the_live_one() {
        let mut pool = Mempool::new(100_000);
        assert!(pool.unsealed().is_none());
        // What a journal holds: the queue as of the last seal.
        let mut sealed: VecDeque<Vec<u8>> = VecDeque::new();
        let mut in_flight: Vec<(Vec<u64>, Vec<Vec<u8>>)> = Vec::new();
        let (mut next, mut requeues, mut rewrites) = (0u32, 0u32, 0u32);
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = |below: u64| {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (rng >> 33) % below
        };
        // Every mix of admissions, drains and requeues between two seals,
        // including drains that eat through the requeued front, the whole
        // sealed middle and into what was admitted since, and batches that
        // come back behind an older one (then the seal is a rewrite).
        for round in 0..5_000u32 {
            for _ in 0..draw(6) {
                match draw(4) {
                    0 | 1 => {
                        for _ in 0..draw(4) {
                            next += 1;
                            pool.submit(next.to_be_bytes().to_vec()).unwrap();
                        }
                    }
                    2 => {
                        let batch = pool.next_batch(draw(12) as usize);
                        if !batch.0.is_empty() {
                            in_flight.push(batch);
                        }
                    }
                    _ => {
                        if !in_flight.is_empty() {
                            let pick = draw(in_flight.len() as u64) as usize;
                            pool.requeue(zip(in_flight.remove(pick)));
                            requeues += 1;
                        }
                    }
                }
            }
            if pool.reordered() {
                sealed = pool.iter().map(<[u8]>::to_vec).collect();
                rewrites += 1;
            } else if let Some((drained, requeued, admitted)) = pool.unsealed() {
                sealed.drain(..drained);
                for tx in requeued.collect::<Vec<_>>().into_iter().rev() {
                    sealed.push_front(tx.to_vec());
                }
                sealed.extend(admitted.map(<[u8]>::to_vec));
            }
            pool.seal();
            assert!(pool.iter().eq(sealed.iter().map(Vec::as_slice)), "round {round}");
            assert!(pool.unsealed().is_none(), "a sealed queue has no change to report");
            let numbers = pool.iter().map(|tx| u32::from_be_bytes(tx.try_into().unwrap()));
            assert!(numbers.is_sorted(), "round {round}: the queue left admission order");
        }
        assert!(next > 1_000 && requeues > 100, "{next} admitted, {requeues} requeues");
        assert!(rewrites > 10 && rewrites < requeues / 2, "{rewrites} rewrites");
    }

    #[test]
    fn degenerate_txs_rejected() {
        const MAX: usize = Params::DEFAULT_MAX_TX_BYTES;
        let mut pool = Mempool::new(10);
        assert_eq!(pool.submit(Vec::new()), Err(SubmitError::Empty));
        assert_eq!(
            pool.submit(vec![0; MAX + 1]),
            Err(SubmitError::TooLarge { size: MAX + 1, max: MAX })
        );
        assert!(pool.is_empty(), "rejected txs never enter the pool");
    }

    #[test]
    fn error_messages_name_the_limit() {
        assert_eq!(
            SubmitError::Full { capacity: 7 }.to_string(),
            "mempool is at its capacity of 7 transactions"
        );
        assert_eq!(
            SubmitError::TooLarge { size: 9, max: 8 }.to_string(),
            "transaction of 9 bytes exceeds the 8-byte cap"
        );
        assert_eq!(
            SubmitError::Malformed { reason: "not a transfer" }.to_string(),
            "malformed transaction: not a transfer"
        );
        assert_eq!(
            SubmitError::Rejected { reason: "zero amount" }.to_string(),
            "transaction refused at admission: zero amount"
        );
    }
}
