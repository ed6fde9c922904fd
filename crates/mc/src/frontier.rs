//! Disk-backed BFS frontier.
//!
//! A [`SpillQueue`] is a FIFO of packed states with a bounded in-RAM
//! footprint: states are held in a flat in-memory deque until it reaches
//! the configured capacity, after which new pushes accumulate in a tail
//! buffer that is flushed to numbered temp-file *segments*. Pops stream
//! the segments back in order, so the queue stays strictly FIFO while its
//! length is bounded by disk, not RAM:
//!
//! ```text
//! pop ← [head buffer] ← [segment files, oldest first] ← [tail buffer] ← push
//! ```
//!
//! Segment files live in a per-queue directory under the system temp dir
//! and are deleted as they are consumed and on drop.

use std::collections::VecDeque;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes queue directories across explorers in one process.
static QUEUE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A FIFO of fixed-stride `u64` records that spills to temp files once its
/// in-RAM buffers are full.
#[derive(Debug)]
pub(crate) struct SpillQueue {
    stride: usize,
    /// Max states held in each of the head and tail buffers.
    mem_states: usize,
    head: VecDeque<u64>,
    tail: Vec<u64>,
    segments: VecDeque<PathBuf>,
    dir: PathBuf,
    dir_created: bool,
    seq: u64,
    len: usize,
    spilled: u64,
}

impl SpillQueue {
    /// Creates a queue of `stride`-word records keeping at most
    /// `mem_states` records per in-RAM buffer; overflow spills beneath
    /// the system temp dir.
    pub(crate) fn new(stride: usize, mem_states: usize) -> SpillQueue {
        let unique = format!(
            "tetrabft-mc-{}-{}",
            std::process::id(),
            QUEUE_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        SpillQueue {
            stride,
            mem_states: mem_states.max(1),
            head: VecDeque::new(),
            tail: Vec::new(),
            segments: VecDeque::new(),
            dir: std::env::temp_dir().join(unique),
            dir_created: false,
            seq: 0,
            len: 0,
            spilled: 0,
        }
    }

    /// Records queued.
    #[cfg(test)]
    fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total records ever written to disk (spill volume statistic).
    pub(crate) fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Appends one record (`words.len()` must equal the stride).
    pub(crate) fn push(&mut self, words: &[u64]) {
        debug_assert_eq!(words.len(), self.stride);
        // Fast path: nothing has spilled and the head has room — keep the
        // record in RAM. Once anything is queued behind the head (segments
        // or tail), FIFO order forces new records to the back.
        // Saturate: `mem_states` may be usize::MAX ("never spill").
        let cap_words = self.mem_states.saturating_mul(self.stride);
        if self.segments.is_empty() && self.tail.is_empty() && self.head.len() < cap_words {
            self.head.extend(words.iter().copied());
        } else {
            self.tail.extend_from_slice(words);
            if self.tail.len() >= cap_words {
                self.flush_tail();
            }
        }
        self.len += 1;
    }

    /// Pops the oldest record into `out` (stride words); `false` if empty.
    pub(crate) fn pop(&mut self, out: &mut [u64]) -> bool {
        debug_assert_eq!(out.len(), self.stride);
        if self.head.is_empty() && !self.refill() {
            return false;
        }
        for w in out.iter_mut() {
            *w = self.head.pop_front().expect("refilled head");
        }
        self.len -= 1;
        true
    }

    fn flush_tail(&mut self) {
        if !self.dir_created {
            fs::create_dir_all(&self.dir).expect("create spill dir");
            self.dir_created = true;
        }
        let path = self.dir.join(format!("seg-{:08}", self.seq));
        self.seq += 1;
        let mut bytes = Vec::with_capacity(self.tail.len() * 8);
        for w in &self.tail {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        fs::write(&path, bytes).expect("write spill segment");
        self.spilled += (self.tail.len() / self.stride) as u64;
        self.tail.clear();
        self.segments.push_back(path);
    }

    /// Refills the head from the oldest segment, or from the tail buffer.
    fn refill(&mut self) -> bool {
        if let Some(path) = self.segments.pop_front() {
            let bytes = fs::read(&path).expect("read spill segment");
            let _ = fs::remove_file(&path);
            self.head
                .extend(bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())));
            return true;
        }
        if !self.tail.is_empty() {
            self.head.extend(self.tail.drain(..));
            return true;
        }
        false
    }
}

impl Drop for SpillQueue {
    fn drop(&mut self) {
        for path in self.segments.drain(..) {
            let _ = fs::remove_file(path);
        }
        if self.dir_created {
            let _ = fs::remove_dir(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_without_spill() {
        let mut q = SpillQueue::new(2, 100);
        for i in 0..50u64 {
            q.push(&[i + 1, i * 2]);
        }
        assert_eq!(q.len(), 50);
        assert_eq!(q.spilled(), 0);
        let mut out = [0u64; 2];
        for i in 0..50u64 {
            assert!(q.pop(&mut out));
            assert_eq!(out, [i + 1, i * 2]);
        }
        assert!(!q.pop(&mut out));
    }

    #[test]
    fn fifo_across_disk_segments() {
        // Tiny RAM cap: 4 records per buffer forces many segments.
        let mut q = SpillQueue::new(3, 4);
        let n = 1000u64;
        for i in 0..n {
            q.push(&[i + 1, i, i * 3]);
        }
        assert!(q.spilled() > 900, "most records must have hit disk");
        let dir = q.dir.clone();
        assert!(dir.exists(), "spill dir created");
        let mut out = [0u64; 3];
        for i in 0..n {
            assert!(q.pop(&mut out), "record {i} present");
            assert_eq!(out, [i + 1, i, i * 3], "FIFO order across segments");
        }
        assert!(!q.pop(&mut out));
        assert!(q.is_empty());
        drop(q);
        assert!(!dir.exists(), "spill dir removed on drop");
    }

    #[test]
    fn interleaved_push_pop_stays_fifo() {
        let mut q = SpillQueue::new(1, 8);
        let mut next_push = 0u64;
        let mut next_pop = 0u64;
        let mut out = [0u64; 1];
        for round in 0..200u64 {
            for _ in 0..(round % 7) + 1 {
                q.push(&[next_push + 1]);
                next_push += 1;
            }
            for _ in 0..(round % 5) + 1 {
                if q.pop(&mut out) {
                    assert_eq!(out[0], next_pop + 1);
                    next_pop += 1;
                }
            }
        }
        while q.pop(&mut out) {
            assert_eq!(out[0], next_pop + 1);
            next_pop += 1;
        }
        assert_eq!(next_pop, next_push);
    }

    #[test]
    fn unbounded_mem_cap_never_overflows_or_spills() {
        // Regression: `mem_states * stride` overflowed (debug panic) for
        // the natural "never spill" setting with multi-word strides.
        let mut q = SpillQueue::new(3, usize::MAX);
        for i in 0..100u64 {
            q.push(&[i + 1, i, i]);
        }
        assert_eq!(q.spilled(), 0);
        let mut out = [0u64; 3];
        for i in 0..100u64 {
            assert!(q.pop(&mut out));
            assert_eq!(out[0], i + 1);
        }
    }

    #[test]
    fn drop_cleans_unconsumed_segments() {
        let mut q = SpillQueue::new(1, 2);
        for i in 0..100 {
            q.push(&[i + 1]);
        }
        let dir = q.dir.clone();
        assert!(dir.exists());
        drop(q);
        assert!(!dir.exists());
    }
}
