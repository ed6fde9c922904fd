//! Seeded campaign runner.
//!
//! A campaign maps each seed to one [`Scenario`] via [`sample_scenario`]
//! (deterministically — same seed and config, same scenario, byte for
//! byte), runs it, and on violation shrinks it and cross-audits safety
//! hits against the bounded model. The whole [`CampaignReport`] is a pure
//! function of the [`CampaignCfg`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetrabft_sim::LinkPlan;
use tetrabft_types::{Config, NodeId};

use crate::audit::cross_audit;
use crate::scenario::{Attack, FaultSpec, Mode, RunReport, Scenario};
use crate::shrink::shrink;

/// Seed-stream salt so campaign RNG streams don't collide with the sim's
/// own per-seed RNG (which is seeded with the raw scenario seed).
const SEED_SALT: u64 = 0x5eed_ca3b_a1a5_0001;

/// Provisional horizon used while sampling partitions; the real horizon is
/// recomputed from the sampled plan afterwards.
const PLAN_HORIZON_MS: u64 = 2_000;

/// Campaign parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignCfg {
    /// Seeds to run, in order.
    pub seeds: Vec<u64>,
    /// Smallest sampled cluster size (≥ 4 for a nonzero fault budget).
    pub n_min: usize,
    /// Largest sampled cluster size.
    pub n_max: usize,
    /// Cap on faulty nodes per scenario (further clamped to the protocol's
    /// `f` unless [`over_budget`](Self::over_budget) is set).
    pub max_faulty: usize,
    /// Allow sampling more faults than the protocol tolerates. Safety
    /// violations then become *expected findings* used to exercise the
    /// shrinker, the cross-audit, and the evidence pipeline.
    pub over_budget: bool,
    /// Percentage (0..=100) of seeds run in chain mode instead of
    /// single-shot.
    pub chain_percent: u32,
    /// Cap on sampled partition windows per plan.
    pub max_partitions: usize,
    /// Evaluation budget for shrinking each violation (0 disables).
    pub shrink_budget: usize,
}

impl Default for CampaignCfg {
    fn default() -> Self {
        CampaignCfg {
            seeds: Vec::new(),
            n_min: 4,
            n_max: 6,
            max_faulty: 1,
            over_budget: false,
            chain_percent: 25,
            max_partitions: 2,
            shrink_budget: 48,
        }
    }
}

/// Everything one seed produced.
#[derive(Debug)]
pub struct SeedOutcome {
    /// The seed.
    pub seed: u64,
    /// The sampled scenario.
    pub scenario: Scenario,
    /// Oracle report from running it.
    pub report: RunReport,
    /// Shrunken scenario, when the run violated and shrinking was enabled.
    pub shrunk: Option<Scenario>,
    /// Whether the bounded model confirmed a safety hit (None: not audited).
    pub mc_confirmed: Option<bool>,
    /// Rendered model-checker counterexample trace, when one was produced.
    pub mc_trace: Option<String>,
}

/// Results of a whole campaign.
#[derive(Debug)]
pub struct CampaignReport {
    /// One outcome per seed, in seed order.
    pub outcomes: Vec<SeedOutcome>,
}

impl CampaignReport {
    /// Number of seeds whose oracles failed.
    pub fn violations(&self) -> usize {
        self.outcomes.iter().filter(|o| o.report.verdict.is_violation()).count()
    }

    /// Total accountability evidence records across all seeds.
    pub fn evidence_total(&self) -> usize {
        self.outcomes.iter().map(|o| o.report.evidence.len()).sum()
    }

    /// Deterministic human-readable summary (no timing, no ordering
    /// nondeterminism — safe to compare byte-for-byte across runs).
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "campaign: {} seeds, {} violations, {} evidence records",
            self.outcomes.len(),
            self.violations(),
            self.evidence_total(),
        );
        for o in &self.outcomes {
            let mode = match o.scenario.mode {
                Mode::Single => "single",
                Mode::Chain => "chain",
            };
            let _ = writeln!(
                s,
                "seed {:#018x}: n={} {} faults={} verdict={}",
                o.seed,
                o.scenario.n,
                mode,
                o.scenario.faults.len(),
                o.report.verdict,
            );
            for ev in &o.report.evidence {
                let _ = writeln!(s, "  evidence: {ev}");
            }
            if let Some(confirmed) = o.mc_confirmed {
                let _ = writeln!(
                    s,
                    "  mc cross-audit: {}",
                    if confirmed {
                        "CONFIRMED by bounded model"
                    } else {
                        "not reproduced in bounds"
                    }
                );
            }
            if let Some(shrunk) = &o.shrunk {
                let _ = writeln!(
                    s,
                    "  shrunk to: n={} faults={} partitions={} horizon={}ms",
                    shrunk.n,
                    shrunk.faults.len(),
                    shrunk.plan.partitions().len(),
                    shrunk.horizon_ms,
                );
            }
        }
        s
    }
}

/// Samples a random non-empty proper subset of `0..n` excluding `me`.
fn sample_targets(rng: &mut StdRng, n: usize, me: u16) -> Vec<NodeId> {
    let mut others: Vec<u16> = (0..n as u16).filter(|i| *i != me).collect();
    let take = rng.random_range(1..=others.len());
    for i in 0..take {
        let j = rng.random_range(i..others.len());
        others.swap(i, j);
    }
    let mut picked: Vec<NodeId> = others[..take].iter().copied().map(NodeId).collect();
    picked.sort_unstable();
    picked
}

/// Deterministically expands one seed into a full adversarial scenario.
pub fn sample_scenario(seed: u64, cfg: &CampaignCfg) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed ^ SEED_SALT);
    let n_min = cfg.n_min.max(1);
    let n_max = cfg.n_max.max(n_min);
    let n = rng.random_range(n_min..=n_max);
    let sys = Config::new(n).expect("campaign n is nonzero");

    let mode = if rng.random_range(0..100u64) < u64::from(cfg.chain_percent.min(100)) {
        Mode::Chain
    } else {
        Mode::Single
    };

    let budget = if cfg.over_budget {
        cfg.max_faulty.min(n.saturating_sub(1))
    } else {
        cfg.max_faulty.min(sys.f())
    };
    let faulty_count = rng.random_range(0..=budget as u64) as usize;

    // Distinct faulty ids via a partial Fisher–Yates shuffle.
    let mut ids: Vec<u16> = (0..n as u16).collect();
    for i in 0..faulty_count {
        let j = rng.random_range(i..ids.len());
        ids.swap(i, j);
    }
    let mut faulty: Vec<u16> = ids[..faulty_count].to_vec();
    faulty.sort_unstable();

    let mut faults = Vec::with_capacity(faulty_count);
    for node in faulty {
        // 15%: plain crash. Otherwise compose 1–2 distinct attack kinds.
        let attacks = if rng.random_range(0..100u64) < 15 {
            Vec::new()
        } else {
            // Relay spam (kind 7) needs a hand-off to abuse, vote-then-skip
            // (kind 8) a turn to skip and a flap (kind 9) a node that reads
            // the hint: they act in chain mode only. The amplifier (kind 4)
            // acts in single-shot mode only, and is drawn in both.
            let mut kinds: Vec<u8> = (0..if mode == Mode::Chain { 10 } else { 7 }).collect();
            let count = rng.random_range(1..=2u64) as usize;
            let mut attacks = Vec::with_capacity(count);
            for _ in 0..count {
                let pick = rng.random_range(0..kinds.len());
                attacks.push(match kinds.remove(pick) {
                    0 => Attack::Equivocate,
                    1 => Attack::SilenceToward(sample_targets(&mut rng, n, node)),
                    2 => Attack::SkewedReplay { view_offset: rng.random_range(1..=4) },
                    3 => Attack::ValueSpam { period_ms: rng.random_range(20..=80) },
                    4 => Attack::Amplify,
                    5 => Attack::ForgeHistory,
                    6 => Attack::CrashAt { ms: rng.random_range(0..=PLAN_HORIZON_MS / 2) },
                    7 => Attack::RelaySpam,
                    8 => Attack::VoteThenSkip,
                    _ => Attack::Flap { period_ms: rng.random_range(20..=80) },
                });
            }
            attacks
        };
        faults.push(FaultSpec { node: NodeId(node), attacks });
    }

    let plan = LinkPlan::sample(&mut rng, n, PLAN_HORIZON_MS, cfg.max_partitions);
    let delta_ms = plan.max_delay_ms(n).max(1);
    let mut scenario = Scenario { n, delta_ms, seed, horizon_ms: 0, mode, faults, plan };
    scenario.horizon_ms = scenario.recommended_horizon();
    scenario
}

/// Runs the whole campaign: sample, run, and on violation shrink and (for
/// safety hits in single-shot mode) cross-audit against the bounded model.
pub fn run_campaign(cfg: &CampaignCfg) -> CampaignReport {
    let mut outcomes = Vec::with_capacity(cfg.seeds.len());
    for &seed in &cfg.seeds {
        let scenario = sample_scenario(seed, cfg);
        let report = scenario.run();
        let (shrunk, mc_confirmed, mc_trace) = if report.verdict.is_violation() {
            let shrunk = (cfg.shrink_budget > 0).then(|| shrink(&scenario, cfg.shrink_budget));
            let audit = cross_audit(&scenario, &report);
            let mc_confirmed = audit.as_ref().map(|a| a.confirmed());
            let mc_trace = audit.as_ref().and_then(|a| a.trace());
            (shrunk, mc_confirmed, mc_trace)
        } else {
            (None, None, None)
        };
        outcomes.push(SeedOutcome { seed, scenario, report, shrunk, mc_confirmed, mc_trace });
    }
    CampaignReport { outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_is_deterministic_and_respects_budget() {
        let cfg = CampaignCfg::default();
        for seed in 0..32 {
            let a = sample_scenario(seed, &cfg);
            let b = sample_scenario(seed, &cfg);
            assert_eq!(a, b, "seed {seed} must sample identically twice");
            assert!(a.n >= 4 && a.n <= 6);
            assert!(a.faults.len() <= a.tolerated(), "seed {seed} over budget");
            assert!(a.delta_ms >= 1);
            assert!(a.horizon_ms >= 9 * a.delta_ms);
        }
    }

    #[test]
    fn over_budget_sampling_can_exceed_tolerance() {
        let cfg = CampaignCfg { max_faulty: 3, over_budget: true, ..CampaignCfg::default() };
        let mut seen_over = false;
        for seed in 0..64 {
            let scn = sample_scenario(seed, &cfg);
            assert!(scn.faults.len() < scn.n, "at least one honest node remains");
            seen_over |= scn.is_over_budget();
        }
        assert!(seen_over, "64 seeds should sample at least one over-budget scenario");
    }

    #[test]
    fn every_attack_kind_is_sampled() {
        // Each kind's index and whether it acts in single-shot mode. No
        // wildcard: a new variant does not compile until it is listed
        // here, and fails below until the sampler draws it.
        fn kind(attack: &Attack) -> (usize, bool) {
            match attack {
                Attack::Equivocate => (0, true),
                Attack::SilenceToward(_) => (1, true),
                Attack::SkewedReplay { .. } => (2, true),
                Attack::ValueSpam { .. } => (3, true),
                Attack::Amplify => (4, true),
                Attack::ForgeHistory => (5, true),
                Attack::CrashAt { .. } => (6, true),
                Attack::RelaySpam => (7, false),
                Attack::VoteThenSkip => (8, false),
                Attack::Flap { .. } => (9, false),
            }
        }
        let cfg = CampaignCfg::default();
        let (mut single, mut chain, mut acts_single) = ([false; 10], [false; 10], [false; 10]);
        for seed in 0..1024 {
            let scn = sample_scenario(seed, &cfg);
            for attack in scn.faults.iter().flat_map(|f| &f.attacks) {
                let (k, acts) = kind(attack);
                match scn.mode {
                    Mode::Single => single[k] = true,
                    Mode::Chain => (chain[k], acts_single[k]) = (true, acts),
                }
            }
        }
        assert_eq!(chain, [true; 10], "every kind in a chain scenario");
        assert_eq!(single, acts_single, "exactly the kinds that act there in a single-shot one");
    }

    #[test]
    fn campaign_reports_are_reproducible() {
        let cfg = CampaignCfg { seeds: (0..6).collect(), ..CampaignCfg::default() };
        let a = run_campaign(&cfg);
        let b = run_campaign(&cfg);
        assert_eq!(a.summary(), b.summary(), "summaries must match byte for byte");
        assert_eq!(a.outcomes.len(), 6);
    }
}
