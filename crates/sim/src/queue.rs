//! Internal event queue with deterministic tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use tetrabft_types::NodeId;

use tetrabft_engine::{Event, Time};

/// One queued engine event, for `node`, due at `at`.
pub(crate) struct Entry<M> {
    pub at: Time,
    pub seq: u64,
    pub node: NodeId,
    pub event: Event<M>,
}

impl<M> PartialEq for Entry<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Entry<M> {}

impl<M> Ord for Entry<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then the
        // first-enqueued) event pops first. Determinism depends on `seq`.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<M> PartialOrd for Entry<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Entry<M>>,
    next_seq: u64,
}

impl<M> EventQueue<M> {
    pub(crate) fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    pub(crate) fn push(&mut self, at: Time, node: NodeId, event: Event<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, node, event });
    }

    pub(crate) fn pop(&mut self) -> Option<Entry<M>> {
        self.heap.pop()
    }

    pub(crate) fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Time and target node of the next event — what batched stepping uses
    /// to decide whether the following event extends the current batch.
    pub(crate) fn peek_target(&self) -> Option<(Time, NodeId)> {
        self.heap.peek().map(|e| (e.at, e.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_engine::TimerId;

    #[test]
    fn pops_in_time_then_fifo_order() {
        let mut q = EventQueue::new();
        let deliver = |msg| Event::Deliver { from: NodeId(1), msg };
        q.push(Time(5), NodeId(0), deliver("late"));
        q.push(Time(1), NodeId(0), deliver("a"));
        q.push(Time(1), NodeId(0), deliver("b"));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.event {
                Event::Deliver { msg, .. } => msg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec!["a", "b", "late"]);
    }

    #[test]
    fn peek_time_sees_earliest() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(Time(9), NodeId(0), Event::Timer { id: TimerId(0), generation: 0 });
        q.push(Time(2), NodeId(0), Event::Timer { id: TimerId(1), generation: 0 });
        assert_eq!(q.peek_time(), Some(Time(2)));
        assert_eq!(q.heap.len(), 2);
    }
}
