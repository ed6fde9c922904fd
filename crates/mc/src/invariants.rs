//! The paper's `ConsistencyInvariant` (TLA+ Appendix B, lines 264–273),
//! ported clause by clause. The theorem chain the paper verifies with
//! Apalache is:
//!
//! ```text
//! Init ⇒ ConsistencyInvariant
//! ConsistencyInvariant ∧ Next ⇒ ConsistencyInvariant'   (inductiveness)
//! ConsistencyInvariant ⇒ Consistency                    (agreement)
//! ```
//!
//! The property tests in this crate sample the second obligation at the
//! paper's full bounds; [`crate::Explorer`] checks the first and third
//! exhaustively at reduced bounds.

use crate::model::{ModelCfg, State};

/// `Consistency`: no two different values are decided.
pub fn consistency(cfg: &ModelCfg, state: &State) -> bool {
    state.decided(cfg).len() <= 1
}

/// `NoFutureVote`: honest nodes never hold votes above their round.
pub fn no_future_vote(_cfg: &ModelCfg, state: &State) -> bool {
    state
        .votes
        .iter()
        .zip(&state.round)
        .all(|(table, round)| table.iter().all(|vt| (vt.round as i8) <= *round))
}

/// `VoteHasQuorumInPreviousPhase`: every phase ≥ 2 vote is justified by a
/// quorum in the previous phase (with the angelic Byzantine contribution).
pub fn vote_has_quorum_in_previous_phase(cfg: &ModelCfg, state: &State) -> bool {
    state.votes.iter().all(|table| {
        table
            .iter()
            .filter(|vt| vt.phase > 1)
            .all(|vt| state.accepted(cfg, vt.value, vt.round, vt.phase - 1))
    })
}

/// `NoneOtherChoosableAt(r, v)`: a quorum either voted `v` at `r` in phase 4
/// or can no longer vote at `r` (round passed, no phase-4 vote there).
fn none_other_choosable_at(cfg: &ModelCfg, state: &State, round: u8, value: u8) -> bool {
    let supporting = (0..cfg.honest())
        .filter(|&p| {
            let voted_for = state.votes[p].get(round, 4) == Some(value);
            let cannot_vote =
                state.round[p] > round as i8 && state.votes[p].get(round, 4).is_none();
            voted_for || cannot_vote
        })
        .count();
    supporting >= cfg.honest_quorum()
}

/// `SafeAt(r, v)`: no other value can gather a phase-4 quorum below `r`.
fn safe_at(cfg: &ModelCfg, state: &State, round: u8, value: u8) -> bool {
    (0..round).all(|c| none_other_choosable_at(cfg, state, c, value))
}

/// `VotesSafe`: every honest vote is for a value safe at its round.
pub fn votes_safe(cfg: &ModelCfg, state: &State) -> bool {
    state.votes.iter().all(|table| table.iter().all(|vt| safe_at(cfg, state, vt.round, vt.value)))
}

/// The full `ConsistencyInvariant` conjunction. (`TypeOK` and
/// `OneValuePerPhasePerRound` are structural in this representation.)
pub fn consistency_invariant(cfg: &ModelCfg, state: &State) -> bool {
    no_future_vote(cfg, state)
        && vote_has_quorum_in_previous_phase(cfg, state)
        && votes_safe(cfg, state)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ModelCfg {
        ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 5 }
    }

    #[test]
    fn initial_state_satisfies_everything() {
        let s = State::initial(&cfg());
        assert!(consistency_invariant(&cfg(), &s));
        assert!(consistency(&cfg(), &s));
    }

    #[test]
    fn future_vote_is_rejected() {
        let mut s = State::initial(&cfg());
        s.votes[0].set(2, 1, 0); // round 2 vote while round[0] = -1
        assert!(!no_future_vote(&cfg(), &s));
    }

    #[test]
    fn unjustified_phase2_vote_is_rejected() {
        let mut s = State::initial(&cfg());
        s.round[0] = 0;
        s.votes[0].set(0, 2, 0);
        assert!(!vote_has_quorum_in_previous_phase(&cfg(), &s));
        // With a phase-1 quorum behind it, it passes.
        s.votes[0].set(0, 1, 0);
        s.votes[1].set(0, 1, 0);
        s.round[1] = 0;
        assert!(vote_has_quorum_in_previous_phase(&cfg(), &s));
    }

    #[test]
    fn invariant_implies_consistency_on_forged_disagreement() {
        // A disagreeing state must violate VotesSafe — this is the
        // `ConsistencyInvariant ⇒ Consistency` theorem in miniature.
        let mut s = State::initial(&cfg());
        s.round = vec![1, 1, 1];
        for p in 0..2 {
            for phase in 1..=4 {
                s.votes[p].set(0, phase, 0);
            }
        }
        for p in 0..2 {
            for phase in 1..=4 {
                s.votes[p].set(1, phase, 1);
            }
        }
        assert!(!consistency(&cfg(), &s));
        assert!(!votes_safe(&cfg(), &s));
    }
}
