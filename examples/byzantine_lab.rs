//! Byzantine lab: put every fuzzer `Attack` at the view-0 leader of a
//! single-shot run and watch agreement survive — the practical face of the
//! paper's Section 4 safety argument.
//!
//! ```sh
//! cargo run --example byzantine_lab
//! ```

use tetrabft_fuzz::{Attack, FaultSpec, Mode, Scenario, Verdict};
use tetrabft_types::NodeId;

fn main() {
    println!("attacker occupies node 0 (the leader of view 0); f = 1 of n = 4\n");
    let attacks = [
        Attack::Equivocate,
        Attack::SilenceToward(vec![NodeId(1)]),
        Attack::SkewedReplay { view_offset: 1 },
        Attack::ValueSpam { period_ms: 5 },
        Attack::RelaySpam,
        Attack::VoteThenSkip,
        Attack::Flap { period_ms: 5 },
        Attack::Amplify,
        Attack::ForgeHistory,
        Attack::CrashAt { ms: 10 },
    ];
    for attack in attacks {
        let (mut decided, mut agreed) = (0, 0);
        for seed in 0..10 {
            let scenario = Scenario {
                n: 4,
                delta_ms: 20,
                seed,
                horizon_ms: 5_000,
                mode: Mode::Single,
                faults: vec![FaultSpec { node: NodeId(0), attacks: vec![attack.clone()] }],
                plan: "default(delay=1,jitter=3)".parse().unwrap(),
            };
            let report = scenario.run();
            decided += usize::from(report.decided.len() == 3);
            agreed += usize::from(!matches!(report.verdict, Verdict::Safety(_)));
        }
        let name = format!("{attack:?}");
        println!("  {name:<40} {decided}/10 runs decided, agreement in {agreed}/10");
    }
    println!("\nno attacker with f ≤ 1 nodes can split the decision — Theorem 1.");
}
