//! Model-checker cross-audit of safety findings.
//!
//! A safety violation found by the simulator is a concrete execution; the
//! bounded model in `tetrabft-mc` is an abstraction of the same voting
//! rules. [`cross_audit`] bridges them: it reads the honest nodes' vote
//! registers from the sim's wire recorder, forges the equivalent bounded-model
//! [`State`] with [`State::from_votes`], and asks
//! [`Explorer::with_initial`] whether the abstraction also reaches (or
//! already exhibits) an agreement violation from that state — yielding an
//! independent counterexample trace for the report.

use tetrabft_mc::{Explorer, ModelCfg, Report, State};

use crate::scenario::{Mode, RunReport, Scenario, Verdict};

/// Bound on states explored per audit; audits are advisory, not exhaustive.
const AUDIT_MAX_STATES: usize = 200_000;

/// Result of replaying a sim-found safety violation in the bounded model.
#[derive(Debug)]
pub struct McAudit {
    /// The bounded-model configuration the sim run was mapped onto.
    pub cfg: ModelCfg,
    /// The explorer's report, including a counterexample trace when the
    /// abstraction confirms the violation.
    pub report: Report,
}

impl McAudit {
    /// True when the bounded model also reaches an agreement violation from
    /// the forged state.
    pub fn confirmed(&self) -> bool {
        self.report.violations > 0
    }

    /// Rendered counterexample trace, if the explorer produced one.
    pub fn trace(&self) -> Option<String> {
        self.report.counterexample.as_ref().map(|t| t.to_string())
    }
}

/// Maps a single-shot safety violation onto the bounded model and replays
/// it. Returns `None` when the run is not auditable (chain mode, no safety
/// violation, or the scenario falls outside the model's bounds).
pub fn cross_audit(scenario: &Scenario, run: &RunReport) -> Option<McAudit> {
    if scenario.mode != Mode::Single || !matches!(run.verdict, Verdict::Safety(_)) {
        return None;
    }
    let honest = scenario.honest_ids();
    if honest.is_empty() || honest.len() > 16 {
        return None;
    }
    // The model's quorum is honest_quorum() = nodes − 2·byzantine; clamp the
    // Byzantine count so that stays non-negative even absurdly over budget.
    let byzantine = scenario.faults.len().min(honest.len());
    let nodes = honest.len() + byzantine;

    // Value table: decided values first (so the conflicting pair is always
    // representable), then wire votes in register order, capped at the model's
    // seven values.
    let mut values: Vec<u64> = Vec::new();
    let intern = |v: u64, values: &mut Vec<u64>| -> Option<u8> {
        if let Some(i) = values.iter().position(|x| *x == v) {
            return Some(i as u8);
        }
        if values.len() >= 7 {
            return None;
        }
        values.push(v);
        Some((values.len() - 1) as u8)
    };
    for (_, v) in &run.decided {
        intern(v.as_u64(), &mut values);
    }

    let mut votes: Vec<(usize, u8, u8, u8)> = Vec::new();
    let mut max_round: u8 = 0;
    for (node, claim) in &run.honest_votes {
        let (Some(node), Some(phase)) = (honest.iter().position(|h| h == node), claim.phase) else {
            continue;
        };
        if claim.view.0 >= tetrabft_mc::MAX_ROUNDS as u64 {
            continue;
        }
        let Some(value) = intern(claim.value.as_u64(), &mut values) else {
            continue;
        };
        let round = claim.view.0 as u8;
        votes.push((node, round, phase.as_u8(), value));
        max_round = max_round.max(round);
    }

    let cfg = ModelCfg {
        nodes,
        byzantine,
        values: (values.len() as u8).clamp(2, 7),
        rounds: (max_round + 1).clamp(1, tetrabft_mc::MAX_ROUNDS as u8),
    };
    let initial = State::from_votes(&cfg, &votes);
    let report = Explorer::new(cfg).trace(true).with_initial(initial).run(AUDIT_MAX_STATES);
    Some(McAudit { cfg, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Attack, FaultSpec};
    use tetrabft_types::{AuditClaim, NodeId, Phase, Value, View};

    fn over_budget_scenario() -> Scenario {
        Scenario {
            n: 4,
            delta_ms: 3,
            seed: 0xad17,
            horizon_ms: 4_000,
            mode: Mode::Single,
            faults: vec![
                FaultSpec { node: NodeId(0), attacks: vec![Attack::Equivocate] },
                FaultSpec { node: NodeId(1), attacks: vec![Attack::Equivocate] },
            ],
            plan: "default(delay=2,jitter=1)".parse().unwrap(),
        }
    }

    #[test]
    fn non_safety_runs_are_not_audited() {
        let scn = over_budget_scenario();
        let ok = RunReport {
            verdict: Verdict::Ok,
            evidence: vec![],
            equivocations: 0,
            decided: vec![],
            honest_votes: vec![],
            finalized: vec![],
        };
        assert!(cross_audit(&scn, &ok).is_none());
    }

    #[test]
    fn forged_disagreement_is_confirmed_by_the_model() {
        // Two honest nodes, two Byzantine: model quorum is 4 − 2·2 = 0, so a
        // forged split vote must reproduce as a model violation too.
        let scn = over_budget_scenario();
        let vote4 = |node, value| {
            let value = Value::from_u64(value);
            (
                NodeId(node),
                AuditClaim { slot: None, view: View(0), phase: Some(Phase::VOTE4), value },
            )
        };
        let run = RunReport {
            verdict: Verdict::Safety("forged".into()),
            evidence: vec![],
            equivocations: 2,
            decided: vec![(NodeId(2), Value::from_u64(0xa)), (NodeId(3), Value::from_u64(0xb))],
            honest_votes: vec![vote4(2, 0xa), vote4(3, 0xb)],
            finalized: vec![],
        };
        let audit = cross_audit(&scn, &run).expect("auditable");
        assert_eq!(audit.cfg.byzantine, 2);
        assert!(audit.confirmed(), "model should confirm the forged split");
        assert!(audit.trace().is_some(), "confirmation should carry a trace");
    }
}
