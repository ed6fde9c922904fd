//! The original clone-based breadth-first explorer, kept as the reference
//! the packed engine is checked against (see `tests/scale.rs`).
//!
//! It stores full [`State`] clones in a single in-memory `HashSet` and
//! canonicalizes by honest-node permutation only — exactly the design
//! whose memory-per-state and allocation traffic capped exploration at
//! toy bounds. [`crate::Explorer`] replaces it; this one remains for
//! apples-to-apples comparisons and as an oracle in equivalence tests.

use std::collections::{HashSet, VecDeque};

use crate::invariants;
use crate::model::{ModelCfg, State, VoteTable};
use crate::report::Report;

/// The v1 explorer: `HashSet<State>` seen-set, in-RAM `VecDeque` frontier,
/// single-threaded, honest-node symmetry only.
///
/// # Examples
///
/// ```
/// use tetrabft_mc::{LegacyExplorer, ModelCfg};
///
/// let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 };
/// let report = LegacyExplorer::new(cfg).run(1_000_000);
/// assert!(report.exhausted);
/// assert_eq!(report.violations, 0);
/// ```
#[derive(Debug)]
pub struct LegacyExplorer {
    cfg: ModelCfg,
    check_inductive: bool,
}

impl LegacyExplorer {
    /// Creates an explorer for `cfg`.
    pub fn new(cfg: ModelCfg) -> Self {
        LegacyExplorer { cfg, check_inductive: false }
    }

    /// Additionally check the paper's `ConsistencyInvariant` on every
    /// reachable state (it must be an *invariant*, not just inductive).
    pub fn check_inductive(mut self, on: bool) -> Self {
        self.check_inductive = on;
        self
    }

    /// Approximate heap bytes this engine spends per stored state: the
    /// `State` header, its two heap blocks, and the hash-table slot
    /// amortized at the table's 7/8 maximum load. Used by the scale bench
    /// as the baseline for the ≥8× memory-per-state claim.
    pub fn approx_bytes_per_state(cfg: &ModelCfg) -> usize {
        let heap = cfg.honest() * std::mem::size_of::<VoteTable>() // votes buffer
            + cfg.honest(); // round buffer
        let entry = std::mem::size_of::<State>() + 1; // table slot + control byte
        heap + entry * 8 / 7
    }

    /// Explores up to `max_states` distinct states (modulo honest-node
    /// symmetry) from the initial state.
    pub fn run(&self, max_states: usize) -> Report {
        let initial = State::initial(&self.cfg).canonical();
        let mut seen: HashSet<State> = HashSet::new();
        let mut queue: VecDeque<(State, usize)> = VecDeque::new();
        seen.insert(initial.clone());
        queue.push_back((initial, 0));

        let mut report = Report::empty();
        while let Some((state, depth)) = queue.pop_front() {
            report.states += 1;
            report.depth = report.depth.max(depth);
            if state.decided(&self.cfg).len() > 1 {
                report.violations += 1;
            }
            if self.check_inductive && !invariants::consistency_invariant(&self.cfg, &state) {
                report.invariant_violations += 1;
            }
            for action in state.enabled_actions(&self.cfg) {
                report.transitions += 1;
                let next = state.apply(action).canonical();
                if seen.contains(&next) {
                    continue;
                }
                // A genuinely new state: store it, or count the dropped
                // discovery if the budget is spent. (`seen.len() <
                // max_states` *after* the loop misreported a space whose
                // size exactly equals the budget, and silently uncounted
                // every discovery refused here.)
                if seen.len() >= max_states {
                    report.dropped += 1;
                    continue;
                }
                seen.insert(next.clone());
                queue.push_back((next, depth + 1));
            }
        }
        report.truncated = report.dropped > 0;
        report.exhausted = !report.truncated;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_instance_is_exhausted_and_safe() {
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 };
        let report = LegacyExplorer::new(cfg).check_inductive(true).run(2_000_000);
        assert!(report.exhausted, "2 values × 1 round must be exhaustible");
        assert_eq!(report.violations, 0, "agreement must hold everywhere");
        assert_eq!(report.invariant_violations, 0, "invariant must hold everywhere");
        assert!(report.states > 100, "the space must be non-trivial");
    }

    #[test]
    fn single_round_three_values_safe() {
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 1 };
        let report = LegacyExplorer::new(cfg).run(2_000_000);
        assert!(report.exhausted);
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn budget_is_respected_and_truncation_reported() {
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 3 };
        let report = LegacyExplorer::new(cfg).run(500);
        assert_eq!(report.states, 500, "exactly the budget is stored and expanded");
        assert!(report.truncated);
        assert!(!report.exhausted);
        assert!(report.dropped > 0, "refused discoveries are counted");
        assert_eq!(report.violations, 0);
    }

    #[test]
    fn budget_exactly_equal_to_space_size_is_exhausted() {
        // Regression: `exhausted` used to be `seen.len() < max_states`
        // after the loop, so running with the budget set to the exact
        // space size claimed truncation despite exploring everything.
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 };
        let size = LegacyExplorer::new(cfg).run(2_000_000).states;
        let exact = LegacyExplorer::new(cfg).run(size);
        assert!(exact.exhausted, "budget == space size must report exhausted");
        assert!(!exact.truncated);
        assert_eq!(exact.dropped, 0);
        assert_eq!(exact.states, size);

        let short = LegacyExplorer::new(cfg).run(size - 1);
        assert!(short.truncated);
        assert!(short.dropped >= 1);
    }

    #[test]
    fn broken_model_detects_disagreement() {
        // Sanity-check the checker itself: a state with two decided values
        // must be flagged. We forge one directly.
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
        let mut s = State::initial(&cfg);
        for p in 0..2 {
            s.votes[p].set(0, 4, 0);
        }
        for p in 1..3 {
            s.votes[p].set(1, 4, 1);
        }
        assert_eq!(s.decided(&cfg).len(), 2, "the forged state disagrees");
        assert!(!crate::invariants::votes_safe(&cfg, &s), "and the inductive invariant rejects it");
    }
}
