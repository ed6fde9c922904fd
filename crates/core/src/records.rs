//! The receive model every protocol in the tree counts through: per-peer
//! registers, the constant-storage realization of "nodes keep checking …
//! messages" (DESIGN.md §2).
//!
//! For each peer a node stores only the *latest* message of each kind: one
//! vote per phase ([`VoteRegisters`]), the highest view-change request
//! ([`ViewChanges`]) and, in TetraBFT, one proposal, suggest and proof
//! ([`Registers`]): O(n) memory, as the Table 1 storage column requires.
//! Nothing else is kept: a message a later one overwrites is gone, so the
//! registers audit no one. Equivocation evidence comes from the
//! simulator's omniscient wire recorder (`tetrabft_sim::Metrics::evidence`),
//! which sees every claim a sender puts on the wire.

use tetrabft_types::{Config, NodeId, Value, View, VoteInfo};

use crate::msg::{Message, ProofData, SuggestData};

/// The one value that can hold a majority of `votes`: Boyer–Moore's
/// pairing-off pass, O(len) and allocation-free. A value held by more than
/// half of `votes` always survives it, but the survivor is only a candidate
/// until it is counted.
fn majority_candidate(votes: impl Iterator<Item = Value>) -> Option<Value> {
    let mut lead = None;
    let mut margin = 0usize;
    for value in votes {
        if margin == 0 {
            (lead, margin) = (Some(value), 1);
        } else if lead == Some(value) {
            margin += 1;
        } else {
            margin -= 1;
        }
    }
    lead
}

/// The latest vote of each peer in each of a protocol's `K` vote phases
/// (phases are indices `0..K`), and the quorum those votes are counted
/// against.
///
/// A newer view replaces a peer's register; within a view the first vote
/// received stays, so an equivocating peer cannot flip a register it already
/// committed for that view and every later re-evaluation sees a stable
/// snapshot.
///
/// # Examples
///
/// ```
/// use tetrabft::VoteRegisters;
/// use tetrabft_types::{Config, NodeId, Value, View};
///
/// let cfg = Config::new(4)?;
/// let mut votes: VoteRegisters<2> = VoteRegisters::new(&cfg);
/// for peer in 0..3 {
///     votes.record(NodeId(peer), 1, View(0), Value::from_u64(7));
/// }
/// assert_eq!(votes.count(1, View(0), Value::from_u64(7)), 3);
/// assert_eq!(votes.quorum_value(1, View(0)), Some(Value::from_u64(7)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VoteRegisters<const K: usize> {
    peers: Vec<[Option<VoteInfo>; K]>,
    quorum: usize,
}

impl<const K: usize> VoteRegisters<K> {
    /// Creates empty registers for `cfg.n()` peers, counted against
    /// `cfg.quorum()`.
    pub fn new(cfg: &Config) -> Self {
        VoteRegisters { peers: vec![[None; K]; cfg.n()], quorum: cfg.quorum() }
    }

    /// Folds `from`'s `phase` vote for `(view, value)` into its register.
    ///
    /// # Panics
    ///
    /// Panics if `phase >= K`.
    pub fn record(&mut self, from: NodeId, phase: usize, view: View, value: Value) {
        let slot = &mut self.peers[from.index()][phase];
        if slot.is_none_or(|held| view > held.view) {
            *slot = Some(VoteInfo::new(view, value));
        }
    }

    /// The latest `phase` vote received from `from`, if any.
    pub fn get(&self, from: NodeId, phase: usize) -> Option<VoteInfo> {
        self.peers[from.index()][phase]
    }

    /// Every peer's latest `phase` vote, by peer.
    pub fn iter_phase(&self, phase: usize) -> impl Iterator<Item = (NodeId, VoteInfo)> + '_ {
        self.peers
            .iter()
            .enumerate()
            .filter_map(move |(i, p)| p[phase].map(|v| (NodeId(i as u16), v)))
    }

    /// The value a quorum of peers' latest `phase` votes name at exactly
    /// `view`, if any: two O(n) passes over the registers, no allocation.
    ///
    /// A quorum (`n − f > 2n/3`) is a majority, and each peer holds one
    /// latest vote, so at most one value can reach it. The first pass finds
    /// the only value that could (a Boyer–Moore majority pass), and
    /// [`VoteRegisters::count`] decides whether it does.
    pub fn quorum_value(&self, phase: usize, view: View) -> Option<Value> {
        let at_view = self.iter_phase(phase).filter(|(_, v)| v.view == view).map(|(_, v)| v.value);
        majority_candidate(at_view).filter(|value| self.count(phase, view, *value) >= self.quorum)
    }

    /// The value a quorum of peers' latest `phase` votes name across *all*
    /// views, if any, found as in [`VoteRegisters::quorum_value`].
    /// Multi-shot TetraBFT counts notarization/finality quorums this way: a
    /// vote for a descendant block endorses its ancestors regardless of the
    /// views the ancestors were proposed in (cf. Fig. 3, where votes at
    /// slot 4 / view 0 finalize the block at slot 1 / view 1).
    pub fn quorum_value_any(&self, phase: usize) -> Option<Value> {
        let values = self.iter_phase(phase).map(|(_, v)| v.value);
        majority_candidate(values).filter(|value| self.count_value(phase, *value) >= self.quorum)
    }

    /// Number of peers whose latest `phase` vote is exactly `(view, value)`:
    /// the count that confirms [`VoteRegisters::quorum_value`]'s candidate.
    pub fn count(&self, phase: usize, view: View, value: Value) -> usize {
        self.iter_phase(phase).filter(|(_, v)| *v == VoteInfo::new(view, value)).count()
    }

    /// Number of peers whose latest `phase` vote is for `value` in any
    /// view: the count that confirms [`VoteRegisters::quorum_value_any`]'s
    /// candidate.
    pub(crate) fn count_value(&self, phase: usize, value: Value) -> usize {
        self.iter_phase(phase).filter(|(_, v)| v.value == value).count()
    }
}

/// What [`ViewChanges::poll`] asks of the node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewVerdict {
    /// Nothing to do.
    Idle,
    /// Broadcast a view-change for this view: a blocking set asks for it.
    Echo(View),
    /// Enter this view: a quorum asks for it.
    Enter(View),
}

/// The view-change rule of Section 3.2, which every protocol here follows:
/// echo a request a blocking set (`f + 1`) supports, enter a view a quorum
/// (`n − f`) supports, and ask again when the `9Δ` timer fires.
///
/// It keeps each peer's highest request, and a peer supports view `v` if
/// that request is **some view ≥ v** (DESIGN.md §2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChanges {
    cfg: Config,
    highest: Vec<Option<View>>,
    /// The highest view-change this node has broadcast.
    pub sent: Option<View>,
}

impl ViewChanges {
    /// Creates the counter for `cfg.n()` peers, none of which has asked.
    pub fn new(cfg: &Config) -> Self {
        ViewChanges { cfg: *cfg, highest: vec![None; cfg.n()], sent: None }
    }

    /// Records that `from` asks for `view`; a lower request than one it
    /// already made changes nothing.
    pub fn record(&mut self, from: NodeId, view: View) {
        let held = &mut self.highest[from.index()];
        *held = (*held).max(Some(view));
    }

    /// Takes `from`'s request back.
    pub fn withdraw(&mut self, from: NodeId) {
        self.highest[from.index()] = None;
    }

    /// The highest view `from` asked for, if any.
    pub fn request(&self, from: NodeId) -> Option<View> {
        self.highest[from.index()]
    }

    /// Number of peers whose highest request covers `view`.
    pub fn support(&self, view: View) -> usize {
        self.highest.iter().flatten().filter(|v| **v >= view).count()
    }

    /// The rules above `current`: enter the highest view a quorum supports,
    /// else echo the highest view a blocking set supports if it is above
    /// [`ViewChanges::sent`]. Allocation-free; with fewer than `f + 1`
    /// requests above `current`, one pass over the peers.
    pub fn poll(&self, current: View) -> ViewVerdict {
        if self.highest.iter().flatten().filter(|v| **v > current).count() < self.cfg.blocking() {
            return ViewVerdict::Idle;
        }
        // The highest view `k` peers support is the `k`-th highest request.
        let kth =
            |k| self.highest.iter().flatten().copied().filter(|v| self.support(*v) >= k).max();
        match (kth(self.cfg.quorum()), kth(self.cfg.blocking())) {
            (Some(view), _) if view > current => ViewVerdict::Enter(view),
            (_, Some(view)) if view > current && self.sent.is_none_or(|s| view > s) => {
                ViewVerdict::Echo(view)
            }
            _ => ViewVerdict::Idle,
        }
    }

    /// The view to ask for when the timer fires in `current`: the next one,
    /// or again the highest asked so far (pre-GST loss makes retransmission
    /// necessary for liveness). Marks it sent.
    pub fn timeout(&mut self, current: View) -> View {
        let view = current.next().max(self.sent.unwrap_or(View::ZERO));
        self.sent = Some(view);
        view
    }
}

/// A peer's latest proposal, suggest and proof.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeerRecord {
    proposal: Option<VoteInfo>,
    suggest: Option<(View, SuggestData)>,
    proof: Option<(View, ProofData)>,
}

impl PeerRecord {
    /// The latest proof received from this peer, if any.
    pub fn proof(&self) -> Option<(View, ProofData)> {
        self.proof
    }
}

/// Replace `slot` with `(view, payload)` if it is newer; equal-view
/// messages keep the original, as in [`VoteRegisters`].
fn upsert<T>(slot: &mut Option<(View, T)>, view: View, payload: T) {
    match slot {
        Some((held, _)) if view <= *held => {}
        _ => *slot = Some((view, payload)),
    }
}

/// TetraBFT's register file: the four vote phases in [`VoteRegisters`],
/// and one [`PeerRecord`] per peer, and nothing else: a conflicting
/// same-view message is dropped, not recorded as evidence. View-change
/// requests are counted by [`ViewChanges`], not here.
///
/// # Examples
///
/// ```
/// use tetrabft::{Message, Registers};
/// use tetrabft_types::{Config, NodeId, Phase, Value, View};
///
/// let cfg = Config::new(4)?;
/// let mut regs = Registers::new(&cfg);
/// regs.record(NodeId(2), &Message::Vote {
///     phase: Phase::VOTE1,
///     view: View(0),
///     value: Value::from_u64(5),
/// });
/// assert_eq!(regs.votes().count(Phase::VOTE1.index(), View(0), Value::from_u64(5)), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Registers {
    peers: Vec<PeerRecord>,
    votes: VoteRegisters<4>,
}

impl Registers {
    /// Creates an empty register file for `cfg.n()` peers.
    pub fn new(cfg: &Config) -> Self {
        Registers { peers: vec![PeerRecord::default(); cfg.n()], votes: VoteRegisters::new(cfg) }
    }

    /// The record of one peer.
    pub fn peer(&self, id: NodeId) -> &PeerRecord {
        &self.peers[id.index()]
    }

    /// The vote registers, indexed by [`Phase::index`](tetrabft_types::Phase::index).
    pub fn votes(&self) -> &VoteRegisters<4> {
        &self.votes
    }

    /// Folds `msg` from `from` into the registers.
    ///
    /// Stale messages (older view than the slot already holds) are dropped;
    /// equal-view duplicates keep the first-received copy.
    pub fn record(&mut self, from: NodeId, msg: &Message) {
        let peer = &mut self.peers[from.index()];
        match msg {
            Message::Proposal { view, value } => {
                if peer.proposal.is_none_or(|held| *view > held.view) {
                    peer.proposal = Some(VoteInfo::new(*view, *value));
                }
            }
            Message::Vote { phase, view, value } => {
                self.votes.record(from, phase.index(), *view, *value)
            }
            Message::Suggest { view, data } => upsert(&mut peer.suggest, *view, *data),
            Message::Proof { view, data } => upsert(&mut peer.proof, *view, *data),
            Message::ViewChange { .. } => {}
        }
    }

    /// The proposal the leader of `view` made in `view`, if received.
    pub fn proposal_of(&self, leader: NodeId, view: View) -> Option<Value> {
        self.peers[leader.index()].proposal.filter(|p| p.view == view).map(|p| p.value)
    }

    /// Writes the suggest payloads for exactly `view` into the caller's
    /// scratch buffer (cleared first), so callers that re-evaluate every
    /// step allocate at most once.
    pub fn suggests_into(&self, view: View, out: &mut Vec<SuggestData>) {
        out.clear();
        out.extend(
            self.peers.iter().filter_map(|p| p.suggest).filter(|(v, _)| *v == view).map(|(_, d)| d),
        );
    }

    /// Writes the proof payloads for exactly `view` into the caller's
    /// scratch buffer (cleared first).
    pub fn proofs_into(&self, view: View, out: &mut Vec<ProofData>) {
        out.clear();
        out.extend(
            self.peers.iter().filter_map(|p| p.proof).filter(|(v, _)| *v == view).map(|(_, d)| d),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_types::Phase;

    fn cfg() -> Config {
        Config::new(4).unwrap()
    }

    fn vote(phase: Phase, view: u64, value: u64) -> Message {
        Message::Vote { phase, view: View(view), value: Value::from_u64(value) }
    }

    fn held(regs: &Registers, peer: u16, phase: Phase) -> Option<VoteInfo> {
        regs.votes().get(NodeId(peer), phase.index())
    }

    #[test]
    fn newer_votes_replace_older() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(1), &vote(Phase::VOTE1, 0, 5));
        regs.record(NodeId(1), &vote(Phase::VOTE1, 2, 6));
        assert_eq!(held(&regs, 1, Phase::VOTE1), Some(VoteInfo::new(View(2), Value::from_u64(6))));
    }

    #[test]
    fn stale_votes_ignored() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(1), &vote(Phase::VOTE2, 5, 1));
        regs.record(NodeId(1), &vote(Phase::VOTE2, 3, 9));
        assert_eq!(held(&regs, 1, Phase::VOTE2), Some(VoteInfo::new(View(5), Value::from_u64(1))));
    }

    #[test]
    fn registers_keep_newest_view() {
        // Any phase count: a `K = 3` register keeps the newest view too.
        let mut votes: VoteRegisters<3> = VoteRegisters::new(&cfg());
        votes.record(NodeId(0), 1, View(1), Value::from_u64(1));
        votes.record(NodeId(0), 1, View(3), Value::from_u64(2));
        votes.record(NodeId(0), 1, View(2), Value::from_u64(3)); // stale
        assert_eq!(votes.get(NodeId(0), 1), Some(VoteInfo::new(View(3), Value::from_u64(2))));
    }

    #[test]
    fn tallies_and_counts() {
        let mut votes: VoteRegisters<1> = VoteRegisters::new(&cfg());
        for i in 0..3u16 {
            votes.record(NodeId(i), 0, View(0), Value::from_u64(9));
        }
        assert_eq!(votes.count(0, View(0), Value::from_u64(9)), 3);
        assert_eq!(votes.quorum_value(0, View(0)), Some(Value::from_u64(9)));
        assert_eq!(votes.quorum_value_any(0), Some(Value::from_u64(9)));
        assert_eq!(votes.iter_phase(0).count(), 3);
    }

    #[test]
    fn equivocation_within_a_view_does_not_flip_the_register() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(3), &vote(Phase::VOTE1, 1, 7));
        regs.record(NodeId(3), &vote(Phase::VOTE1, 1, 8)); // equivocation
        assert_eq!(held(&regs, 3, Phase::VOTE1), Some(VoteInfo::new(View(1), Value::from_u64(7))));
    }

    #[test]
    fn phases_use_independent_slots() {
        let mut regs = Registers::new(&cfg());
        regs.record(NodeId(0), &vote(Phase::VOTE1, 1, 1));
        regs.record(NodeId(0), &vote(Phase::VOTE4, 1, 1));
        assert!(held(&regs, 0, Phase::VOTE2).is_none());
        assert!(held(&regs, 0, Phase::VOTE1).is_some());
        assert!(held(&regs, 0, Phase::VOTE4).is_some());
    }

    #[test]
    fn counting_and_tallies() {
        let mut regs = Registers::new(&cfg());
        for i in 0..3 {
            regs.record(NodeId(i), &vote(Phase::VOTE1, 0, 5));
        }
        regs.record(NodeId(3), &vote(Phase::VOTE1, 0, 6));
        let (votes, one, two) = (regs.votes(), Phase::VOTE1.index(), Phase::VOTE2.index());
        assert_eq!(votes.count(one, View(0), Value::from_u64(5)), 3);
        assert_eq!(votes.count(one, View(0), Value::from_u64(6)), 1);
        assert_eq!(votes.count_value(one, Value::from_u64(5)), 3);
        assert_eq!(votes.count(one, View(1), Value::from_u64(5)), 0, "wrong view");
        assert_eq!(votes.count(two, View(0), Value::from_u64(5)), 0, "wrong phase");
        assert_eq!(votes.iter_phase(one).count(), 4);
        assert_eq!(votes.iter_phase(two).count(), 0);
    }

    #[test]
    fn proposal_filtering_by_view() {
        let mut regs = Registers::new(&cfg());
        let leader = NodeId(1);
        regs.record(leader, &Message::Proposal { view: View(1), value: Value::from_u64(9) });
        assert_eq!(regs.proposal_of(leader, View(1)), Some(Value::from_u64(9)));
        assert_eq!(regs.proposal_of(leader, View(2)), None);
        // A newer proposal replaces the register; the old view query now
        // misses, mirroring "only the current view matters".
        regs.record(leader, &Message::Proposal { view: View(2), value: Value::from_u64(10) });
        assert_eq!(regs.proposal_of(leader, View(2)), Some(Value::from_u64(10)));
        assert_eq!(regs.proposal_of(leader, View(1)), None);
    }

    #[test]
    fn suggest_and_proof_snapshots() {
        let mut regs = Registers::new(&cfg());
        let data = SuggestData::default();
        regs.record(NodeId(0), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(1), &Message::Suggest { view: View(2), data });
        regs.record(NodeId(2), &Message::Suggest { view: View(3), data });
        regs.record(NodeId(2), &Message::Proof { view: View(2), data: ProofData::default() });
        let mut suggests = vec![SuggestData::default(); 7]; // stale junk: must be cleared
        regs.suggests_into(View(2), &mut suggests);
        assert_eq!(suggests, vec![data; 2]);
        regs.suggests_into(View(3), &mut suggests);
        assert_eq!(suggests.len(), 1);
        let mut proofs = Vec::new();
        regs.proofs_into(View(2), &mut proofs);
        assert_eq!(proofs, vec![ProofData::default()]);
        regs.proofs_into(View(9), &mut proofs);
        assert!(proofs.is_empty());
    }

    #[test]
    fn view_change_support_counts_at_or_above() {
        let mut vc = ViewChanges::new(&cfg());
        vc.record(NodeId(0), View(1));
        vc.record(NodeId(1), View(2));
        vc.record(NodeId(2), View(5));
        assert_eq!(vc.support(View(1)), 3);
        assert_eq!(vc.support(View(2)), 2);
        assert_eq!(vc.support(View(5)), 1);
        assert_eq!(vc.support(View(6)), 0);
        vc.withdraw(NodeId(2));
        assert_eq!((vc.support(View(2)), vc.request(NodeId(2))), (1, None));
    }

    #[test]
    fn view_changes_echo_then_enter() {
        let mut vc = ViewChanges::new(&cfg());
        assert_eq!(vc.poll(View(0)), ViewVerdict::Idle);
        vc.record(NodeId(1), View(1));
        assert_eq!(vc.poll(View(0)), ViewVerdict::Idle);
        vc.record(NodeId(2), View(1));
        assert_eq!(vc.poll(View(0)), ViewVerdict::Echo(View(1)));
        vc.sent = Some(View(1));
        assert_eq!(vc.poll(View(0)), ViewVerdict::Idle);
        vc.record(NodeId(3), View(1));
        assert_eq!(vc.poll(View(0)), ViewVerdict::Enter(View(1)));
        assert_eq!(vc.poll(View(1)), ViewVerdict::Idle, "nothing above the current view");
        // The timer asks for the next view, or again for the highest sent.
        assert_eq!(vc.timeout(View(1)), View(2));
        assert_eq!(vc.timeout(View(0)), View(2));
        assert_eq!(vc.sent, Some(View(2)));
    }

    #[test]
    fn higher_requests_support_lower_views() {
        let mut vc = ViewChanges::new(&cfg());
        vc.record(NodeId(0), View(5));
        vc.record(NodeId(1), View(2));
        vc.record(NodeId(2), View(2));
        assert_eq!(vc.support(View(2)), 3);
        assert_eq!(vc.poll(View(0)), ViewVerdict::Enter(View(2)));
    }

    /// The value among `values` whose scan count reaches a quorum: the
    /// brute-force reference for the majority-pass quorum checks.
    fn scan_winner(values: &[u64], quorum: usize, count: impl Fn(Value) -> usize) -> Option<Value> {
        values.iter().map(|v| Value::from_u64(*v)).find(|v| count(*v) >= quorum)
    }

    /// The quorum checks must agree with a fresh peer scan after any
    /// history of replacements, equivocations, and stale votes, for any
    /// number of phases and peers.
    #[test]
    fn quorum_checks_match_a_peer_scan_after_replacements() {
        fn check<const K: usize>(n: usize) {
            let cfg = Config::new(n).unwrap();
            let mut regs: VoteRegisters<K> = VoteRegisters::new(&cfg);
            // A messy but deterministic vote history: every peer revotes
            // across views and phases, switching values, with stale and
            // duplicate messages sprinkled in.
            for round in 0..5u64 {
                for i in 0..n as u64 {
                    let (peer, phase) = (NodeId(i as u16), (round + i) as usize % K);
                    regs.record(peer, phase, View(round + i % 3), Value::from_u64((round + i) % 4));
                    // Stale re-delivery: must not perturb the registers.
                    regs.record(peer, phase, View(round / 2), Value::from_u64(99));
                }
            }
            // Every value that appeared (99 only ever arrives stale).
            let (values, q) = ([0, 1, 2, 3, 99], cfg.quorum());
            for phase in 0..K {
                let by_scan = scan_winner(&values, q, |v| regs.count_value(phase, v));
                assert_eq!(regs.quorum_value_any(phase), by_scan, "n={n} K={K} {phase} any-view");
                // Per-view, over every view that appeared.
                for view in (0..8).map(View) {
                    let by_scan = scan_winner(&values, q, |v| regs.count(phase, view, v));
                    assert_eq!(
                        regs.quorum_value(phase, view),
                        by_scan,
                        "n={n} K={K} {phase} {view:?}"
                    );
                }
            }
        }
        for n in [4, 7, 13] {
            check::<2>(n);
            check::<3>(n);
            check::<4>(n);
            check::<5>(n);
        }
    }

    /// Arbitrary `(peer, phase, view, value)` histories, few values and
    /// views so that quorums, near-misses and splits all occur: the quorum
    /// checks agree with the brute-force scan counts.
    mod props {
        use super::*;
        use proptest::prelude::*;

        const VALUES: [u64; 3] = [0, 1, 2];

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn quorum_checks_match_brute_force_counts(
                n in 1usize..14,
                history in proptest::collection::vec(
                    (0u16..13, 0usize..2, 0u64..3, 0u64..3),
                    0..60,
                ),
            ) {
                let cfg = Config::new(n).unwrap();
                let mut regs: VoteRegisters<2> = VoteRegisters::new(&cfg);
                for (peer, phase, view, value) in history {
                    let peer = NodeId(peer % n as u16);
                    regs.record(peer, phase, View(view), Value::from_u64(value));
                }
                let q = cfg.quorum();
                for phase in 0..2 {
                    let by_scan = scan_winner(&VALUES, q, |v| regs.count_value(phase, v));
                    prop_assert_eq!(regs.quorum_value_any(phase), by_scan);
                    for view in (0..3).map(View) {
                        let by_scan = scan_winner(&VALUES, q, |v| regs.count(phase, view, v));
                        prop_assert_eq!(regs.quorum_value(phase, view), by_scan);
                    }
                }
            }
        }
    }

    #[test]
    fn quorum_value_finds_the_unique_winner() {
        let mut regs = Registers::new(&cfg());
        for i in 0..3 {
            regs.record(NodeId(i), &vote(Phase::VOTE1, 2, 5));
        }
        regs.record(NodeId(3), &vote(Phase::VOTE1, 2, 6));
        let (votes, one, two) = (regs.votes(), Phase::VOTE1.index(), Phase::VOTE2.index());
        assert_eq!(votes.quorum_value(one, View(2)), Some(Value::from_u64(5)));
        assert_eq!(votes.quorum_value(one, View(1)), None, "wrong view");
        assert_eq!(votes.quorum_value(two, View(2)), None, "wrong phase");
        // A 2-of-4 split leaves each value one vote short of the quorum of 3.
        let mut split = Registers::new(&cfg());
        for i in 0..4 {
            split.record(NodeId(i), &vote(Phase::VOTE1, 2, 5 + u64::from(i % 2)));
        }
        assert_eq!(split.votes().quorum_value(one, View(2)), None, "threshold unmet");
        assert_eq!(split.votes().quorum_value_any(one), None, "threshold unmet");
    }

    #[test]
    fn quorum_value_any_sums_across_views() {
        let mut regs = Registers::new(&cfg());
        // Three peers back value 7, but in different views — the multi-shot
        // counting rule must still see a quorum.
        regs.record(NodeId(0), &vote(Phase::VOTE4, 1, 7));
        regs.record(NodeId(1), &vote(Phase::VOTE4, 2, 7));
        regs.record(NodeId(2), &vote(Phase::VOTE4, 3, 7));
        let four = Phase::VOTE4.index();
        assert_eq!(regs.votes().quorum_value_any(four), Some(Value::from_u64(7)));
        assert_eq!(regs.votes().quorum_value(four, View(1)), None, "no single view has 3");
    }

    #[test]
    fn equality_ignores_arrival_order() {
        // Same final registers via different arrival orders: equal.
        let mut a: VoteRegisters<1> = VoteRegisters::new(&cfg());
        let mut b = a.clone();
        a.record(NodeId(0), 0, View(1), Value::from_u64(5));
        a.record(NodeId(1), 0, View(1), Value::from_u64(6));
        b.record(NodeId(1), 0, View(1), Value::from_u64(6));
        b.record(NodeId(0), 0, View(1), Value::from_u64(5));
        assert_eq!(a, b);
    }

    #[test]
    fn view_change_register_is_monotone() {
        let mut vc = ViewChanges::new(&cfg());
        vc.record(NodeId(0), View(4));
        vc.record(NodeId(0), View(2));
        assert_eq!(vc.request(NodeId(0)), Some(View(4)));
    }
}
