//! The five attackers `tetrabft::strategies` once hand-wrote, each run as
//! an [`Attack`](crate::Attack) at node 0 (the view-0 leader) of four on
//! 1–4 ms links. Their tests keep the names they had in core.

#[cfg(test)]
mod tests {
    use crate::{Attack, FaultSpec, Mode, Scenario, Verdict};
    use tetrabft_types::NodeId;

    /// Runs `attack` at node 0 of four, seeds 0..5, in each of `modes`, and
    /// asserts the honest nodes agree and progress.
    fn assert_agreement_with(attack: Attack, modes: &[Mode]) {
        for &mode in modes {
            for seed in 0..5 {
                let scn = Scenario {
                    n: 4,
                    delta_ms: 20,
                    seed,
                    horizon_ms: 3_000,
                    mode,
                    faults: vec![FaultSpec { node: NodeId(0), attacks: vec![attack.clone()] }],
                    plan: "default(delay=1,jitter=3)".parse().unwrap(),
                };
                let report = scn.run();
                let at = format!("{attack:?} in {mode:?} mode, seed {seed}");
                assert_eq!(report.verdict, Verdict::Ok, "{at}");
                match mode {
                    Mode::Single => assert_eq!(report.decided.len(), 3, "{at}"),
                    Mode::Chain => assert!(report.finalized.iter().all(|(_, n)| *n > 0), "{at}"),
                }
            }
        }
    }

    #[test]
    fn equivocating_leader_cannot_split_agreement() {
        assert_agreement_with(Attack::Equivocate, &[Mode::Single, Mode::Chain]);
    }

    #[test]
    fn vote_amplifier_cannot_break_agreement() {
        // Amplify is single-shot only: on the chain it sends nothing.
        assert_agreement_with(Attack::Amplify, &[Mode::Single]);
    }

    #[test]
    fn lying_historian_cannot_break_agreement() {
        assert_agreement_with(Attack::ForgeHistory, &[Mode::Single, Mode::Chain]);
    }

    #[test]
    fn stale_replayer_cannot_break_agreement() {
        let attack = Attack::SkewedReplay { view_offset: 1 };
        assert_agreement_with(attack, &[Mode::Single, Mode::Chain]);
    }

    #[test]
    fn late_crash_cannot_break_agreement() {
        assert_agreement_with(Attack::CrashAt { ms: 10 }, &[Mode::Single, Mode::Chain]);
    }
}
