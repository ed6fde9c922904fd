//! The abstract TetraBFT model: a faithful port of the TLA+ specification
//! in Appendix B of the paper, with the Byzantine node handled angelically
//! (see the crate docs).
//!
//! There is no network at this level: a vote is globally visible the moment
//! it is cast, and quorum predicates quantify directly over node state —
//! exactly the abstraction level of the TLA+ spec.

/// Hard cap on rounds, fixing the state representation size.
pub const MAX_ROUNDS: usize = 6;

/// Model bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCfg {
    /// Total nodes `n` (honest nodes are `n − byzantine`).
    pub nodes: usize,
    /// Byzantine nodes `f` (all angelic).
    pub byzantine: usize,
    /// Number of distinct values.
    pub values: u8,
    /// Number of rounds (views) explored.
    pub rounds: u8,
}

impl ModelCfg {
    /// The paper's verification instance: 4 nodes, 1 Byzantine, 3 values,
    /// 5 views.
    pub fn paper() -> Self {
        ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 5 }
    }

    /// Honest node count.
    pub fn honest(&self) -> usize {
        self.nodes - self.byzantine
    }

    /// Minimum number of *honest* nodes needed alongside the `f` angelic
    /// Byzantine members to form a quorum of `n − f`.
    pub fn honest_quorum(&self) -> usize {
        self.nodes - 2 * self.byzantine
    }

    /// Minimum number of *honest* claimants needed alongside the `f`
    /// Byzantine members to form a blocking set of `f + 1`.
    pub(crate) fn honest_blocking(&self) -> usize {
        1
    }
}

/// A vote in the abstract model: `(round, phase 1..=4, value)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Vote {
    /// Round the vote was cast in.
    pub round: u8,
    /// Phase 1–4.
    pub phase: u8,
    /// Value index.
    pub value: u8,
}

/// Per-honest-node vote table: at most one vote per (round, phase) — the
/// `OneValuePerPhasePerRound` invariant is structural here, as it is for
/// the well-behaved processes of the TLA+ spec.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VoteTable {
    slots: [[Option<u8>; 4]; MAX_ROUNDS],
}

impl VoteTable {
    /// The value voted in `(round, phase)`, if any.
    pub fn get(&self, round: u8, phase: u8) -> Option<u8> {
        self.slots[round as usize][phase as usize - 1]
    }

    /// Records a vote; replaces silently (callers guard).
    pub fn set(&mut self, round: u8, phase: u8, value: u8) {
        self.slots[round as usize][phase as usize - 1] = Some(value);
    }

    /// Iterates all votes in the table.
    pub fn iter(&self) -> impl Iterator<Item = Vote> + '_ {
        self.slots.iter().enumerate().flat_map(|(r, phases)| {
            phases.iter().enumerate().filter_map(move |(p, v)| {
                v.map(|value| Vote { round: r as u8, phase: p as u8 + 1, value })
            })
        })
    }
}

/// A global state of the abstract model (honest nodes only; the Byzantine
/// nodes have no state — they are resolved angelically inside predicates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct State {
    /// Honest nodes' votes.
    pub votes: Vec<VoteTable>,
    /// Honest nodes' current round; `-1` before the first `StartRound`.
    pub round: Vec<i8>,
}

impl State {
    /// The initial state.
    pub fn initial(cfg: &ModelCfg) -> Self {
        State { votes: vec![VoteTable::default(); cfg.honest()], round: vec![-1; cfg.honest()] }
    }

    /// A forged state built from concrete honest-node votes — the audit
    /// entry the adversary fuzzer uses to replay a sim finding inside the
    /// model checker (`Explorer::with_initial`). Each tuple is
    /// `(honest node index, round, phase 1..=4, value index)`; votes
    /// outside the model's bounds (`node ≥ cfg.honest()`,
    /// `round ≥ cfg.rounds`, `value ≥ cfg.values`, phase outside 1..=4)
    /// are skipped rather than panicking, since fuzzed runs reach views
    /// and values the bounded model does not carry. Within one table, the
    /// *first* vote per `(round, phase)` wins, preserving the structural
    /// one-vote-per-register invariant. Each node's round pointer is its
    /// highest voted round (`-1` with no votes).
    pub fn from_votes(cfg: &ModelCfg, votes: &[(usize, u8, u8, u8)]) -> State {
        let mut state = State::initial(cfg);
        for &(node, round, phase, value) in votes {
            if node >= cfg.honest()
                || round >= cfg.rounds
                || usize::from(round) >= MAX_ROUNDS
                || !(1..=4).contains(&phase)
                || value >= cfg.values
            {
                continue;
            }
            if state.votes[node].get(round, phase).is_none() {
                state.votes[node].set(round, phase, value);
                state.round[node] = state.round[node].max(round as i8);
            }
        }
        state
    }

    /// Canonical representative under honest-node symmetry: in safety mode
    /// the model has no leader, so honest nodes are interchangeable and
    /// states differing only by a permutation of them are equivalent.
    /// Sorting the per-node components picks one representative per orbit,
    /// shrinking the explored space by up to `honest!`.
    pub fn canonical(&self) -> State {
        let mut pairs: Vec<(VoteTable, i8)> =
            self.votes.iter().cloned().zip(self.round.iter().copied()).collect();
        pairs.sort();
        State {
            votes: pairs.iter().map(|(t, _)| t.clone()).collect(),
            round: pairs.iter().map(|(_, r)| *r).collect(),
        }
    }

    /// `Accepted(v, r, phase)`: a quorum voted `(r, phase, v)`; the `f`
    /// angelic members always help, so `n − 2f` honest votes suffice.
    pub(crate) fn accepted(&self, cfg: &ModelCfg, value: u8, round: u8, phase: u8) -> bool {
        let honest = self.votes.iter().filter(|t| t.get(round, phase) == Some(value)).count();
        honest >= cfg.honest_quorum()
    }

    /// `ClaimsSafeAt(v, r, r2, q, phase)` from the TLA+ spec, for honest `q`.
    pub(crate) fn claims_safe_at(&self, q: usize, value: u8, r: u8, r2: u8, phase: u8) -> bool {
        if r2 == 0 {
            return true;
        }
        self.votes[q].iter().any(|vt1| {
            vt1.round < r
                && r2 <= vt1.round
                && vt1.phase == phase
                && (vt1.value == value
                    || self.votes[q].iter().any(|vt2| {
                        r2 <= vt2.round
                            && vt2.round < vt1.round
                            && vt2.phase == phase
                            && vt2.value != vt1.value
                    }))
        })
    }

    /// `ShowsSafeAt(Q, v, r, phaseA, phaseB)`: is `value` safe at `round`?
    ///
    /// The existential quorum is resolved by counting honest members that
    /// satisfy the per-member conditions (the `f` Byzantine members can
    /// always be chosen to satisfy anything), and the blocking set needs
    /// only one honest claimant for the same reason.
    pub(crate) fn shows_safe_at(
        &self,
        cfg: &ModelCfg,
        value: u8,
        round: u8,
        phase_a: u8,
        phase_b: u8,
    ) -> bool {
        if round == 0 {
            return true;
        }
        // Case 2a: a quorum in round ≥ r never voted in phaseA before r.
        let fresh = (0..cfg.honest())
            .filter(|&q| {
                self.round[q] >= round as i8
                    && !self.votes[q].iter().any(|vt| vt.round < round && vt.phase == phase_a)
            })
            .count();
        if fresh >= cfg.honest_quorum() {
            return true;
        }
        // Case 2b: a pivot round r2 < r.
        for r2 in 0..round {
            let members = (0..cfg.honest())
                .filter(|&q| {
                    self.round[q] >= round as i8
                        && self.votes[q].iter().all(|vt| {
                            if vt.round < round && vt.phase == phase_a {
                                vt.round <= r2 && (vt.round != r2 || vt.value == value)
                            } else {
                                true
                            }
                        })
                })
                .count();
            if members < cfg.honest_quorum() {
                continue;
            }
            let claimants = (0..cfg.honest())
                .filter(|&q| self.claims_safe_at(q, value, round, r2, phase_b))
                .count();
            if r2 == 0 || claimants >= cfg.honest_blocking() {
                return true;
            }
        }
        false
    }

    /// Values decided in this state: a quorum of phase-4 votes in one round
    /// (`n − 2f` honest plus the angelic Byzantines).
    pub fn decided(&self, cfg: &ModelCfg) -> Vec<u8> {
        let mut out = Vec::new();
        for value in 0..cfg.values {
            for round in 0..cfg.rounds {
                if self.accepted(cfg, value, round, 4) && !out.contains(&value) {
                    out.push(value);
                }
            }
        }
        out
    }

    /// All actions enabled in this state.
    pub fn enabled_actions(&self, cfg: &ModelCfg) -> Vec<ModelAction> {
        // Hot path of both explorers: precompute the per-(round, phase,
        // value) honest vote counts once instead of rescanning every node's
        // table inside `accepted` for every candidate action.
        const MAX_COUNTED_VALUES: usize = 8;
        let mut counts = [[[0u8; MAX_COUNTED_VALUES]; 4]; MAX_ROUNDS];
        let use_counts = (cfg.values as usize) <= MAX_COUNTED_VALUES;
        if use_counts {
            for table in &self.votes {
                for vote in table.iter() {
                    counts[vote.round as usize][vote.phase as usize - 1][vote.value as usize] += 1;
                }
            }
        }
        let quorum = cfg.honest_quorum() as u8;
        let accepted = |value: u8, round: u8, phase: u8| {
            if use_counts {
                counts[round as usize][phase as usize - 1][value as usize] >= quorum
            } else {
                self.accepted(cfg, value, round, phase)
            }
        };

        let mut out = Vec::new();
        for p in 0..cfg.honest() {
            for r in 0..cfg.rounds {
                // StartRound
                if (r as i8) > self.round[p] {
                    out.push(ModelAction::StartRound { node: p, round: r });
                }
                for v in 0..cfg.values {
                    // Vote1: r = round[p], safe by (4, 1), not yet voted.
                    if self.round[p] == r as i8
                        && self.votes[p].get(r, 1).is_none()
                        && self.shows_safe_at(cfg, v, r, 4, 1)
                    {
                        out.push(ModelAction::Vote { node: p, phase: 1, round: r, value: v });
                    }
                    // Vote2..4: round[p] ≤ r, accepted in previous phase.
                    for phase in 2..=4u8 {
                        if self.round[p] <= r as i8
                            && self.votes[p].get(r, phase).is_none()
                            && accepted(v, r, phase - 1)
                        {
                            out.push(ModelAction::Vote { node: p, phase, round: r, value: v });
                        }
                    }
                }
            }
        }
        out
    }

    /// Applies an action (caller must have checked enabledness).
    pub fn apply(&self, action: ModelAction) -> State {
        let mut next = self.clone();
        match action {
            ModelAction::StartRound { node, round } => {
                next.round[node] = round as i8;
            }
            ModelAction::Vote { node, phase, round, value } => {
                next.votes[node].set(round, phase, value);
                if phase >= 2 {
                    // Vote2..4 fast-forward the node's round (TLA+ spec).
                    next.round[node] = next.round[node].max(round as i8);
                }
            }
        }
        next
    }
}

/// A transition of the abstract model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAction {
    /// `StartRound(p, r)`.
    StartRound {
        /// Honest node index.
        node: usize,
        /// Target round.
        round: u8,
    },
    /// `Vote{1,2,3,4}(p, v, r)`.
    Vote {
        /// Honest node index.
        node: usize,
        /// Phase 1–4.
        phase: u8,
        /// Round.
        round: u8,
        /// Value index.
        value: u8,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ModelCfg {
        ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 3 }
    }

    #[test]
    fn initial_state_has_only_startround_and_round0_votes() {
        let s = State::initial(&cfg());
        let actions = s.enabled_actions(&cfg());
        // Vote1 needs round[p] == r which is -1 initially: no votes at all.
        assert!(actions.iter().all(|a| matches!(a, ModelAction::StartRound { .. })));
        assert!(!actions.is_empty());
    }

    #[test]
    fn from_votes_builds_a_bounded_forged_state() {
        let c = cfg(); // 4 nodes, 1 byzantine → 3 honest; 2 values; 3 rounds
        let votes = [
            (0, 0, 1, 1), // kept
            (0, 0, 1, 0), // same register: first wins
            (1, 2, 4, 1), // kept, bumps node 1's round to 2
            (7, 0, 1, 1), // node out of range: skipped
            (2, 5, 1, 1), // round ≥ cfg.rounds: skipped
            (2, 0, 5, 1), // phase out of range: skipped
            (2, 0, 1, 9), // value ≥ cfg.values: skipped
        ];
        let s = State::from_votes(&c, &votes);
        assert_eq!(s.votes[0].get(0, 1), Some(1));
        assert_eq!(s.votes[1].get(2, 4), Some(1));
        assert!(s.votes[2].iter().next().is_none(), "all node-2 votes were out of bounds");
        assert_eq!(s.round, vec![0, 2, -1]);
    }

    #[test]
    fn round_zero_everything_is_safe() {
        let mut s = State::initial(&cfg());
        s.round = vec![0, 0, 0];
        assert!(s.shows_safe_at(&cfg(), 0, 0, 4, 1));
        assert!(s.shows_safe_at(&cfg(), 1, 0, 3, 2));
    }

    #[test]
    fn accepted_counts_honest_plus_angelic_byzantine() {
        let mut s = State::initial(&cfg());
        // One honest vote is not enough (needs n−2f = 2).
        s.votes[0].set(0, 1, 1);
        assert!(!s.accepted(&cfg(), 1, 0, 1));
        s.votes[1].set(0, 1, 1);
        assert!(s.accepted(&cfg(), 1, 0, 1));
    }

    #[test]
    fn vote_chain_becomes_enabled() {
        let mut s = State::initial(&cfg());
        s.round = vec![0, 0, 0];
        s.votes[0].set(0, 1, 1);
        s.votes[1].set(0, 1, 1);
        let actions = s.enabled_actions(&cfg());
        assert!(actions.contains(&ModelAction::Vote { node: 2, phase: 2, round: 0, value: 1 }));
        assert!(
            !actions.contains(&ModelAction::Vote { node: 2, phase: 3, round: 0, value: 1 }),
            "phase 3 needs a phase-2 quorum first"
        );
    }

    #[test]
    fn safety_gate_blocks_conflicting_round1_votes() {
        // Value 0 got a full phase-4 quorum in round 0; in round 1 only
        // value 0 may pass ShowsSafeAt(·, 1, 4, 1).
        let mut s = State::initial(&cfg());
        s.round = vec![1, 1, 1];
        for p in 0..3 {
            for phase in 1..=4 {
                s.votes[p].set(0, phase, 0);
            }
        }
        assert!(s.shows_safe_at(&cfg(), 0, 1, 4, 1), "decided value stays safe");
        assert!(!s.shows_safe_at(&cfg(), 1, 1, 4, 1), "conflicting value is unsafe");
    }

    #[test]
    fn decided_lists_quorum_backed_values() {
        let mut s = State::initial(&cfg());
        assert!(s.decided(&cfg()).is_empty());
        s.votes[0].set(2, 4, 1);
        s.votes[2].set(2, 4, 1);
        assert_eq!(s.decided(&cfg()), vec![1]);
    }

    #[test]
    fn claims_safe_via_prev_vote() {
        let mut s = State::initial(&cfg());
        // q voted phase-1 for value 0 at round 1, then value 1 at round 2.
        s.votes[0].set(1, 1, 0);
        s.votes[0].set(2, 1, 1);
        assert!(s.claims_safe_at(0, 1, 3, 2, 1), "matching highest vote");
        assert!(
            !s.claims_safe_at(0, 0, 3, 2, 1),
            "the second-highest different-valued vote (round 1) does not reach r2 = 2"
        );
        assert!(
            s.claims_safe_at(0, 0, 3, 1, 1),
            "…but it does reach r2 = 1, claiming any value safe there"
        );
        assert!(!s.claims_safe_at(0, 0, 3, 3, 1), "nothing reaches round 3");
    }
}
