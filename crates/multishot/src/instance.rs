//! Per-slot protocol state.

use tetrabft::{Registers, ViewChanges};
use tetrabft_types::{Config, View, VoteBook};

use crate::block::BlockHash;

/// The consensus state of one slot: a windowed Basic-TetraBFT instance.
///
/// Each active slot carries its own [`VoteBook`] (this node's four vote
/// roles for the slot, fed by the multiplexed votes it casts at this slot
/// and the three following ones) and its own per-peer [`Registers`]. The
/// node keeps at most [`crate::SLOT_WINDOW`] instances alive, so protocol
/// state stays O(window · n).
#[derive(Debug, Clone)]
pub struct SlotInstance {
    /// Current view of the slot (views are per-slot in multi-shot TetraBFT;
    /// fresh slots start at view 0 — Algorithm 3 line 10).
    pub view: View,
    /// This node's vote roles for the slot.
    pub book: VoteBook,
    /// Per-peer receive registers for the slot.
    pub regs: Registers,
    /// Set once this node (as leader) proposed in the current view.
    pub proposed: bool,
    /// The block hash this node has seen reach a quorum of votes.
    pub notarized: Option<BlockHash>,
    /// Whether any valid proposal for this slot was ever received — the
    /// "aborted" criterion of the view-change protocol (slots that never
    /// saw a proposal restart at view 0 instead — Fig. 3's slot 4).
    pub saw_proposal: bool,
    /// Whether this slot's own `9Δ` timer has expired at least once in the
    /// current view — evidence that the slot's current leader is not
    /// delivering, which (unlike `saw_proposal`) licenses bumping even a
    /// never-proposed slot out of view 0.
    pub timer_expired: bool,
    /// Per-peer view-change requests covering this slot: the highest view
    /// each peer asked for at this slot or below.
    pub requests: ViewChanges,
    /// Whether this node asked for view 1 as the slot started, taking its
    /// view-0 leader for dead.
    pub suspected: bool,
}

impl SlotInstance {
    /// Creates a slot's instance at view 0.
    pub fn new(cfg: &Config) -> Self {
        SlotInstance {
            view: View::ZERO,
            book: VoteBook::new(),
            regs: Registers::new(cfg),
            proposed: false,
            notarized: None,
            saw_proposal: false,
            timer_expired: false,
            requests: ViewChanges::new(cfg),
            suspected: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft::ViewVerdict::{Echo, Enter, Idle};
    use tetrabft_types::NodeId;

    fn inst() -> SlotInstance {
        SlotInstance::new(&Config::new(4).unwrap())
    }

    #[test]
    fn fresh_instance_defaults() {
        let i = inst();
        assert_eq!(i.view, View::ZERO);
        assert!(!i.proposed && !i.saw_proposal && !i.timer_expired);
        assert_eq!(i.notarized, None);
        assert_eq!(i.requests.poll(i.view), Idle);
    }

    #[test]
    fn support_is_monotone_per_peer() {
        let mut i = inst();
        i.requests.record(NodeId(0), View(3));
        i.requests.record(NodeId(0), View(1)); // lower request cannot regress the register
        assert_eq!(i.requests.request(NodeId(0)), Some(View(3)));
        i.requests.record(NodeId(0), View(5));
        assert_eq!(i.requests.request(NodeId(0)), Some(View(5)));
    }

    #[test]
    fn entered_view_is_the_kth_highest() {
        let mut i = inst();
        i.requests.record(NodeId(0), View(5));
        i.requests.record(NodeId(1), View(2));
        assert_eq!(i.requests.poll(i.view), Echo(View(2)), "two supporters < quorum");
        i.requests.record(NodeId(2), View(2));
        // Views sorted desc: [5, 2, 2] → the 3rd highest is 2: a quorum
        // supports view ≥ 2 (the view-5 request also covers view 2).
        assert_eq!(i.requests.poll(i.view), Enter(View(2)));
        i.requests.record(NodeId(3), View(7));
        assert_eq!(i.requests.poll(i.view), Enter(View(2)));
        i.requests.record(NodeId(1), View(6));
        // Now [7, 6, 5, 2] → quorum of 3 agrees on ≥ 5.
        assert_eq!(i.requests.poll(i.view), Enter(View(5)));
        i.view = View(5);
        assert_eq!(i.requests.poll(i.view), Echo(View(6)), "enter only above its view");
    }

    #[test]
    fn a_lone_node_enters_the_view_it_asks_for() {
        let mut i = SlotInstance::new(&Config::new(1).unwrap());
        i.requests.record(NodeId(0), View(9));
        assert_eq!(i.requests.poll(i.view), Enter(View(9)));
    }
}
