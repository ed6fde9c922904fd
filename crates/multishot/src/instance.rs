//! Per-slot protocol state.

use tetrabft::Registers;
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
    /// Per-peer view-change support for this slot: the highest view each
    /// peer has requested for a slot range covering this slot.
    pub vc_support: Vec<Option<View>>,
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
            vc_support: vec![None; cfg.n()],
            suspected: false,
        }
    }

    /// Records that `peer` supports moving this slot to at least `view`.
    pub fn support(&mut self, peer: usize, view: View) {
        let slot = &mut self.vc_support[peer];
        if slot.is_none_or(|held| view > held) {
            *slot = Some(view);
        }
    }

    /// The highest view with support from at least `quorum` peers, if any.
    pub fn quorum_view(&self, quorum: usize) -> Option<View> {
        // Count before collecting: the good case (no view changes, every
        // register `None`) runs every step and must not allocate.
        if self.vc_support.iter().flatten().count() < quorum {
            return None;
        }
        let mut views: Vec<View> = self.vc_support.iter().flatten().copied().collect();
        views.sort_unstable();
        views.reverse();
        Some(views[quorum - 1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst() -> SlotInstance {
        SlotInstance::new(&Config::new(4).unwrap())
    }

    #[test]
    fn fresh_instance_defaults() {
        let i = inst();
        assert_eq!(i.view, View::ZERO);
        assert!(!i.proposed && !i.saw_proposal && !i.timer_expired);
        assert_eq!(i.notarized, None);
        assert_eq!(i.quorum_view(3), None);
    }

    #[test]
    fn support_is_monotone_per_peer() {
        let mut i = inst();
        i.support(0, View(3));
        i.support(0, View(1)); // lower request cannot regress the register
        assert_eq!(i.vc_support[0], Some(View(3)));
        i.support(0, View(5));
        assert_eq!(i.vc_support[0], Some(View(5)));
    }

    #[test]
    fn quorum_view_takes_the_kth_highest() {
        let mut i = inst();
        i.support(0, View(5));
        i.support(1, View(2));
        assert_eq!(i.quorum_view(3), None, "two supporters < quorum");
        i.support(2, View(2));
        // Views sorted desc: [5, 2, 2] → the 3rd highest is 2: a quorum
        // supports view ≥ 2 (the view-5 request also covers view 2).
        assert_eq!(i.quorum_view(3), Some(View(2)));
        i.support(3, View(7));
        assert_eq!(i.quorum_view(3), Some(View(2)));
        i.support(1, View(6));
        // Now [7, 6, 5, 2] → quorum of 3 agrees on ≥ 5.
        assert_eq!(i.quorum_view(3), Some(View(5)));
    }

    #[test]
    fn quorum_view_of_one_is_the_max() {
        let mut i = inst();
        i.support(2, View(9));
        assert_eq!(i.quorum_view(1), Some(View(9)));
    }
}
