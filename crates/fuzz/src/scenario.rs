//! Scenario description, execution, and oracles.
//!
//! A [`Scenario`] is a fully deterministic description of one hostile world:
//! node count, fault assignment with per-node [`Attack`] compositions, a
//! [`LinkPlan`], a seed, and a horizon. [`Scenario::run`] executes it in the
//! deterministic simulator and checks the safety and liveness oracles,
//! returning a [`RunReport`] with a [`Verdict`] and any accountability
//! [`Evidence`].

use std::fmt;

use tetrabft::{Message, Params, TetraNode};
use tetrabft_multishot::{Finalized, MsMessage, MultiShotNode};
use tetrabft_sim::{FilteredNode, LinkPlan, Node, SilentNode, Sim, SimBuilder, Time, TraceEvent};
use tetrabft_types::{Config, Evidence, NodeId, Value};

use crate::actors::{Behavior, ByzantineActor};
use crate::behaviors::{self, Crashing};

/// One component of a faulty node's strategy composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Attack {
    /// Split-brain equivocation: court even-numbered peers with one value
    /// and odd-numbered peers with a conflicting one, through the view-0
    /// proposal, all four vote phases, and per-recipient vote echoes.
    Equivocate,
    /// Drop all traffic toward the listed peers while talking normally to
    /// everyone else (selective silence / split-view).
    SilenceToward(Vec<NodeId>),
    /// Replay each delivered vote this many views later and earlier (the
    /// earlier copy only where it stays at or above view 0); in chain mode
    /// also in the same view one slot lower and one slot higher — a stale
    /// replayer across views and slots.
    SkewedReplay {
        /// How many views the replayed votes are moved.
        view_offset: u64,
    },
    /// Broadcast forged proposals/votes on a timer.
    ValueSpam {
        /// Milliseconds between spam bursts.
        period_ms: u64,
    },
    /// Chain mode only: on every input, lend every peer transactions it
    /// did not ask for — well-formed, empty, oversize, for slots it does
    /// not lead or has already proposed, copies of what is on the chain
    /// (`behaviors::ms_relay_spammer`). Single-shot consensus has no
    /// hand-off; there the attack does nothing.
    RelaySpam,
    /// Chain mode only: vote for every proposal, never propose
    /// (`behaviors::ms_vote_then_skip`) — a leader honest nodes can never
    /// take for dead. In single-shot mode the attack does nothing.
    VoteThenSkip,
    /// Chain mode only: the node's connections flap. Every period each
    /// honest node's transport reports that this node's stream ended
    /// (`Input::PeerDown`), while the node follows the rest of its
    /// composition — alone it is honest and keeps proposing. The most an
    /// adversary can do with the hint: it is raised locally, so it cannot
    /// be forged about a third party. Single-shot nodes ignore the hint;
    /// there the attack does nothing.
    Flap {
        /// Milliseconds between two reports.
        period_ms: u64,
    },
    /// Single-shot only: vote every `(view, value)` heard proposed or voted
    /// in all four phases of that view. In chain mode the attack does
    /// nothing.
    Amplify,
    /// Answer view changes with a forged history: suggest to the new view's
    /// leader and proof to everyone, both claiming votes one view earlier
    /// for a poison value derived from the scenario seed (in chain mode, per
    /// `(slot, view)` and for a hash no block has). The attack Rule 1 and
    /// Algorithm 4 exist to survive.
    ForgeHistory,
    /// Run the node's composition (the honest protocol, if nothing else
    /// speaks for it) until this virtual time, then go silent for good.
    CrashAt {
        /// When the node stops, in milliseconds.
        ms: u64,
    },
}

impl Attack {
    /// Renders this attack as a Rust expression (for scripted scenarios).
    fn to_source(&self) -> String {
        match self {
            Attack::Equivocate => "Attack::Equivocate".into(),
            Attack::SilenceToward(targets) => {
                let ids: Vec<String> =
                    targets.iter().map(|id| format!("NodeId({})", id.0)).collect();
                format!("Attack::SilenceToward(vec![{}])", ids.join(", "))
            }
            Attack::SkewedReplay { view_offset } => {
                format!("Attack::SkewedReplay {{ view_offset: {view_offset} }}")
            }
            Attack::ValueSpam { period_ms } => {
                format!("Attack::ValueSpam {{ period_ms: {period_ms} }}")
            }
            Attack::RelaySpam => "Attack::RelaySpam".into(),
            Attack::VoteThenSkip => "Attack::VoteThenSkip".into(),
            Attack::Flap { period_ms } => format!("Attack::Flap {{ period_ms: {period_ms} }}"),
            Attack::Amplify => "Attack::Amplify".into(),
            Attack::ForgeHistory => "Attack::ForgeHistory".into(),
            Attack::CrashAt { ms } => format!("Attack::CrashAt {{ ms: {ms} }}"),
        }
    }
}

/// Fault assignment for one node: which node, and what it does.
///
/// An empty attack list means a crash fault (the node stays silent forever).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// The faulty node.
    pub node: NodeId,
    /// Its strategy composition; empty = crashed.
    pub attacks: Vec<Attack>,
}

impl FaultSpec {
    fn to_source(&self) -> String {
        let attacks: Vec<String> = self.attacks.iter().map(Attack::to_source).collect();
        format!(
            "FaultSpec {{ node: NodeId({}), attacks: vec![{}] }}",
            self.node.0,
            attacks.join(", ")
        )
    }
}

/// Which protocol the scenario drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Single-shot consensus ([`TetraNode`]); agreement oracle.
    Single,
    /// Multi-shot chain ([`MultiShotNode`]); chain-prefix oracle.
    Chain,
}

/// A deterministic adversarial world: `run()` is a pure function of this
/// struct.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Number of nodes (n ≥ 4 for a nontrivial fault budget).
    pub n: usize,
    /// Protocol Δ in milliseconds (view timeout is 9Δ).
    pub delta_ms: u64,
    /// Seed for the simulator's RNG (link sampling).
    pub seed: u64,
    /// Virtual run length in milliseconds; also the liveness bound.
    pub horizon_ms: u64,
    /// Single-shot or chain.
    pub mode: Mode,
    /// Faulty nodes and their strategies.
    pub faults: Vec<FaultSpec>,
    /// Network conditions (delays, jitter, loss, partition windows).
    pub plan: LinkPlan,
}

/// Outcome class of a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// All armed oracles held.
    Ok,
    /// A safety oracle failed (disagreement or chain divergence).
    Safety(String),
    /// The liveness oracle was armed and progress did not happen in bound.
    Liveness(String),
}

impl Verdict {
    /// True for safety or liveness violations.
    pub fn is_violation(&self) -> bool {
        !matches!(self, Verdict::Ok)
    }

    /// Coarse class label, ignoring the detail string.
    pub fn class(&self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Safety(_) => "safety",
            Verdict::Liveness(_) => "liveness",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Ok => write!(f, "ok"),
            Verdict::Safety(detail) => write!(f, "SAFETY: {detail}"),
            Verdict::Liveness(detail) => write!(f, "LIVENESS: {detail}"),
        }
    }
}

/// One honest vote observed on the wire, in compact form for the
/// model-checker cross-audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HonestVote {
    /// Voting node.
    pub node: u16,
    /// View voted in.
    pub view: u64,
    /// Phase 1..=4.
    pub phase: u8,
    /// Value voted for.
    pub value: u64,
}

/// Everything a single scenario run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Oracle outcome.
    pub verdict: Verdict,
    /// Accountability evidence from the omniscient wire recorder.
    pub evidence: Vec<Evidence>,
    /// Total conflicting-claim count observed on the wire.
    pub equivocations: u64,
    /// Single-shot decisions per honest node (empty in chain mode).
    pub decided: Vec<(NodeId, Value)>,
    /// First vote per honest `(node, view, phase)` register, from the trace.
    pub honest_votes: Vec<HonestVote>,
    /// Finalized-block count per honest node (empty in single mode).
    pub finalized: Vec<(NodeId, u64)>,
}

impl Scenario {
    /// The system configuration for this scenario.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn cfg(&self) -> Config {
        Config::new(self.n).expect("scenario needs at least one node")
    }

    /// Fault budget `f = ⌊(n−1)/3⌋` the protocol tolerates at this `n`.
    pub fn tolerated(&self) -> usize {
        self.cfg().f()
    }

    /// True when more nodes are faulty than the protocol tolerates.
    pub fn is_over_budget(&self) -> bool {
        self.faults.len() > self.tolerated()
    }

    /// IDs of faulty nodes, ascending.
    pub fn faulty_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = self.faults.iter().map(|f| f.node).collect();
        ids.sort_unstable();
        ids
    }

    /// IDs of honest nodes, ascending.
    pub fn honest_ids(&self) -> Vec<NodeId> {
        let faulty = self.faulty_ids();
        (0..self.n as u16).map(NodeId).filter(|id| !faulty.contains(id)).collect()
    }

    /// Whether the liveness oracle is armed for this scenario.
    ///
    /// Liveness is only promised when the fault budget is respected and no
    /// message can be lost forever: partitions are fine (they heal), but
    /// probabilistic loss is not, since the sampled horizon cannot bound
    /// retransmission-free protocols under unbounded loss.
    pub fn liveness_armed(&self) -> bool {
        self.plan.is_lossless() && !self.is_over_budget()
    }

    /// A horizon that comfortably covers `views` view-changes after the last
    /// partition heals, given this plan's worst-case link delay.
    pub fn recommended_horizon(&self) -> u64 {
        let heal = self.plan.partitions().iter().map(|w| w.end_ms).max().unwrap_or(0);
        let delay = self.plan.max_delay_ms(self.n).max(1);
        let views = self.n as u64 + 3;
        heal + views * (9 * self.delta_ms + 4 * delay)
    }

    /// Runs the scenario deterministically and checks the oracles.
    pub fn run(&self) -> RunReport {
        match self.mode {
            Mode::Single => self.run_single(),
            Mode::Chain => self.run_chain(),
        }
    }

    fn fault_for(&self, id: NodeId) -> Option<&FaultSpec> {
        self.faults.iter().find(|f| f.node == id)
    }

    /// Who flaps, and how often, as `Flapped` wants it.
    fn flappers(&self) -> Vec<(NodeId, u64)> {
        let period = |a: &Attack| match a {
            Attack::Flap { period_ms } => Some((*period_ms).max(1)),
            _ => None,
        };
        let flaps = |f: &FaultSpec| f.attacks.iter().find_map(period).map(|p| (f.node, p));
        self.faults.iter().filter_map(flaps).collect()
    }

    fn make_single(&self, cfg: Config, params: Params, id: NodeId) -> BoxedNode<Message, Value> {
        let honest = || TetraNode::new(cfg, params, id, Value::from_u64(100 + u64::from(id.0)));
        match self.fault_for(id) {
            Some(spec) => faulty(spec, honest, |a| behaviors::single(a, self.seed)),
            None => Box::new(honest()),
        }
    }

    fn make_chain(
        &self,
        cfg: Config,
        params: Params,
        id: NodeId,
    ) -> BoxedNode<MsMessage, Finalized> {
        let honest = || MultiShotNode::new(cfg, params, id);
        match (self.fault_for(id), self.flappers()) {
            (Some(spec), _) => faulty(spec, honest, |a| behaviors::chain(a, self.seed)),
            (None, flappers) if flappers.is_empty() => Box::new(honest()),
            (None, flappers) => Box::new(behaviors::Flapped::new(honest(), flappers)),
        }
    }

    fn run_single(&self) -> RunReport {
        let cfg = self.cfg();
        let params = Params::new(self.delta_ms.max(1));
        let mut sim = SimBuilder::new(self.n)
            .seed(self.seed)
            .plan(&self.plan)
            .record_trace(true)
            .build_boxed(|id| self.make_single(cfg, params, id));
        sim.run_until(Time(self.horizon_ms));

        let honest = self.honest_ids();
        let mut decided: Vec<(NodeId, Value)> = Vec::new();
        for rec in sim.outputs() {
            if honest.contains(&rec.node) && !decided.iter().any(|(id, _)| *id == rec.node) {
                decided.push((rec.node, rec.output));
            }
        }
        let honest_votes = harvest_votes(&sim, &honest);
        let evidence = sim.metrics().evidence().to_vec();
        let equivocations = sim.metrics().equivocations();

        let mut verdict = Verdict::Ok;
        for (i, (node_a, val_a)) in decided.iter().enumerate() {
            for (node_b, val_b) in &decided[i + 1..] {
                if val_a != val_b {
                    verdict = Verdict::Safety(format!(
                        "agreement broken: node {node_a} decided {val_a} but node {node_b} decided {val_b}"
                    ));
                }
            }
        }
        if verdict == Verdict::Ok && self.liveness_armed() {
            let stuck: Vec<String> = honest
                .iter()
                .filter(|id| !decided.iter().any(|(d, _)| d == *id))
                .map(|id| id.to_string())
                .collect();
            if !stuck.is_empty() {
                verdict = Verdict::Liveness(format!(
                    "honest nodes [{}] undecided after {} ms",
                    stuck.join(", "),
                    self.horizon_ms
                ));
            }
        }

        RunReport { verdict, evidence, equivocations, decided, honest_votes, finalized: Vec::new() }
    }

    fn run_chain(&self) -> RunReport {
        let cfg = self.cfg();
        let params = Params::new(self.delta_ms.max(1));
        let mut sim = SimBuilder::new(self.n)
            .seed(self.seed)
            .plan(&self.plan)
            .build_boxed(|id| self.make_chain(cfg, params, id));
        sim.run_until(Time(self.horizon_ms));

        let honest = self.honest_ids();
        let mut chains: Vec<(NodeId, Vec<(u64, u64)>)> =
            honest.iter().map(|id| (*id, Vec::new())).collect();
        let mut verdict = Verdict::Ok;
        for rec in sim.outputs() {
            if let Some((node, chain)) = chains.iter_mut().find(|(id, _)| *id == rec.node) {
                chain.push((rec.output.slot.0, rec.output.hash.0));
                // Whatever a block's leader was lent, a block has a size.
                let (txs, cap) = (rec.output.block.txs.len(), params.max_block_txs());
                if txs > cap {
                    verdict = Verdict::Safety(format!(
                        "oversize block: node {node} finalized slot {} with {txs} transactions, \
                         max_block_txs is {cap}",
                        rec.output.slot.0
                    ));
                }
            }
        }
        let evidence = sim.metrics().evidence().to_vec();
        let equivocations = sim.metrics().equivocations();

        'outer: for (i, (node_a, chain_a)) in chains.iter().enumerate() {
            for (node_b, chain_b) in &chains[i + 1..] {
                let common = chain_a.len().min(chain_b.len());
                for k in 0..common {
                    if chain_a[k] != chain_b[k] {
                        let (slot_a, hash_a) = chain_a[k];
                        let (slot_b, hash_b) = chain_b[k];
                        verdict = Verdict::Safety(format!(
                            "chain divergence at position {k}: node {node_a} finalized slot {slot_a} hash {hash_a:016x}, node {node_b} finalized slot {slot_b} hash {hash_b:016x}"
                        ));
                        break 'outer;
                    }
                }
            }
        }
        if verdict == Verdict::Ok {
            // Each honest stream must be contiguous from slot 1.
            for (node, chain) in &chains {
                let contiguous = chain
                    .iter()
                    .enumerate()
                    .take_while(|(i, (slot, _))| *slot == *i as u64 + 1)
                    .count();
                if contiguous != chain.len() {
                    verdict = Verdict::Safety(format!(
                        "chain gap: node {node} finalized {} blocks but only {contiguous} form a contiguous prefix",
                        chain.len()
                    ));
                    break;
                }
            }
        }
        if verdict == Verdict::Ok && self.liveness_armed() {
            let stuck: Vec<String> = chains
                .iter()
                .filter(|(_, chain)| chain.is_empty())
                .map(|(id, _)| id.to_string())
                .collect();
            if !stuck.is_empty() {
                verdict = Verdict::Liveness(format!(
                    "honest nodes [{}] finalized nothing after {} ms",
                    stuck.join(", "),
                    self.horizon_ms
                ));
            }
        }

        let finalized = chains.iter().map(|(id, c)| (*id, c.len() as u64)).collect();
        RunReport {
            verdict,
            evidence,
            equivocations,
            decided: Vec::new(),
            honest_votes: Vec::new(),
            finalized,
        }
    }

    /// Renders this scenario as a self-contained `#[test]` function that
    /// replays it and asserts the given verdict class — the artifact the
    /// shrinker emits for regression corpora.
    pub fn to_rust_source(&self, test_name: &str, expect: &Verdict) -> String {
        let faults: Vec<String> = self.faults.iter().map(FaultSpec::to_source).collect();
        let assertion = match expect {
            Verdict::Ok => {
                "assert_eq!(report.verdict, Verdict::Ok, \"expected a clean run, got {:?}\", report.verdict);".to_string()
            }
            Verdict::Safety(_) => {
                "assert!(matches!(report.verdict, Verdict::Safety(_)), \"expected a safety violation, got {:?}\", report.verdict);".to_string()
            }
            Verdict::Liveness(_) => {
                "assert!(matches!(report.verdict, Verdict::Liveness(_)), \"expected a liveness violation, got {:?}\", report.verdict);".to_string()
            }
        };
        format!(
            "/// Auto-generated by tetrabft-fuzz (seed {seed:#x}, shrunken).\n\
             #[test]\n\
             fn {test_name}() {{\n\
             \x20   use tetrabft_fuzz::{{Attack, FaultSpec, Mode, Scenario, Verdict}};\n\
             \x20   use tetrabft_types::NodeId;\n\
             \n\
             \x20   let scenario = Scenario {{\n\
             \x20       n: {n},\n\
             \x20       delta_ms: {delta},\n\
             \x20       seed: {seed:#x},\n\
             \x20       horizon_ms: {horizon},\n\
             \x20       mode: Mode::{mode:?},\n\
             \x20       faults: vec![{faults}],\n\
             \x20       plan: \"{plan}\".parse().unwrap(),\n\
             \x20   }};\n\
             \x20   let report = scenario.run();\n\
             \x20   {assertion}\n\
             }}\n",
            seed = self.seed,
            n = self.n,
            delta = self.delta_ms,
            horizon = self.horizon_ms,
            mode = self.mode,
            faults = faults.join(", "),
            plan = self.plan,
        )
    }
}

type BoxedNode<M, O> = Box<dyn Node<Msg = M, Output = O>>;

/// A faulty node: crashed if its composition is empty; honest behind its
/// selective-silence filter if no attack in it speaks for the node;
/// otherwise a Byzantine actor sending what each attack `speak`s, ticking
/// at the fastest spam period. Either way stopped at its `CrashAt`, if any.
fn faulty<N: Node + 'static>(
    spec: &FaultSpec,
    honest: impl FnOnce() -> N,
    speak: impl Fn(&Attack) -> Option<Behavior<N::Msg>>,
) -> BoxedNode<N::Msg, N::Output>
where
    N::Msg: 'static,
    N::Output: 'static,
{
    let mut silenced: Vec<NodeId> = Vec::new();
    let (mut tick, mut crash) = (None, None);
    for attack in &spec.attacks {
        match attack {
            Attack::SilenceToward(targets) => silenced.extend(targets),
            Attack::ValueSpam { period_ms } => {
                tick = Some(tick.map_or(*period_ms, |t: u64| t.min(*period_ms)))
            }
            Attack::CrashAt { ms } => crash = Some(*ms),
            _ => {}
        }
    }
    silenced.sort_unstable();
    silenced.dedup();
    let quiet = |a: &Attack| {
        matches!(a, Attack::SilenceToward(_) | Attack::Flap { .. } | Attack::CrashAt { .. })
    };
    let node: BoxedNode<N::Msg, N::Output> = if spec.attacks.is_empty() {
        Box::new(SilentNode::new())
    } else if spec.attacks.iter().all(quiet) {
        Box::new(FilteredNode::new(honest(), silenced))
    } else {
        let behaviors = spec.attacks.iter().filter_map(speak).collect();
        Box::new(ByzantineActor::new(behaviors, silenced, tick))
    };
    match crash {
        Some(at) => Box::new(Crashing::new(node, at)),
        None => node,
    }
}

/// First vote per honest `(node, view, phase)` register seen on the wire.
fn harvest_votes(sim: &Sim<Message, Value>, honest: &[NodeId]) -> Vec<HonestVote> {
    let mut votes: Vec<HonestVote> = Vec::new();
    let Some(trace) = sim.trace() else {
        return votes;
    };
    for event in trace {
        let TraceEvent::Sent { from, msg, .. } = event else {
            continue;
        };
        if !honest.contains(from) {
            continue;
        }
        let Message::Vote { phase, view, value } = msg else {
            continue;
        };
        let vote =
            HonestVote { node: from.0, view: view.0, phase: phase.as_u8(), value: value.as_u64() };
        if !votes
            .iter()
            .any(|v| v.node == vote.node && v.view == vote.view && v.phase == vote.phase)
        {
            votes.push(vote);
        }
    }
    votes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_plan() -> LinkPlan {
        "default(delay=2,jitter=1)".parse().unwrap()
    }

    #[test]
    fn all_honest_single_shot_decides_one_value() {
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 7,
            horizon_ms: 2_000,
            mode: Mode::Single,
            faults: vec![],
            plan: quiet_plan(),
        };
        assert!(scn.liveness_armed());
        let report = scn.run();
        assert_eq!(report.verdict, Verdict::Ok, "{}", report.verdict);
        assert_eq!(report.decided.len(), 4);
        let first = report.decided[0].1;
        assert!(report.decided.iter().all(|(_, v)| *v == first));
        assert!(!report.honest_votes.is_empty());
    }

    #[test]
    fn crash_fault_within_budget_still_decides() {
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 11,
            horizon_ms: 3_000,
            mode: Mode::Single,
            faults: vec![FaultSpec { node: NodeId(3), attacks: vec![] }],
            plan: quiet_plan(),
        };
        let report = scn.run();
        assert_eq!(report.verdict, Verdict::Ok, "{}", report.verdict);
        assert_eq!(report.decided.len(), 3);
    }

    #[test]
    fn equivocator_within_budget_is_convicted_not_believed() {
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 13,
            horizon_ms: 3_000,
            mode: Mode::Single,
            faults: vec![FaultSpec { node: NodeId(0), attacks: vec![Attack::Equivocate] }],
            plan: quiet_plan(),
        };
        let report = scn.run();
        assert_eq!(report.verdict, Verdict::Ok, "{}", report.verdict);
        assert!(report.equivocations > 0, "equivocator should be seen on the wire");
        assert!(
            report.evidence.iter().any(|ev| ev.node == NodeId(0)),
            "evidence should name node 0: {:?}",
            report.evidence
        );
    }

    /// Two coordinated split-brain equivocators in a 4-node cluster (one
    /// past the f = 1 budget) hand each honest node a full quorum for a
    /// different value: the safety oracle must fire and the evidence must
    /// name the equivocators.
    #[test]
    fn over_budget_split_brain_breaks_safety_with_evidence() {
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 0xdead,
            horizon_ms: 3_000,
            mode: Mode::Single,
            faults: vec![
                FaultSpec { node: NodeId(0), attacks: vec![Attack::Equivocate] },
                FaultSpec { node: NodeId(1), attacks: vec![Attack::Equivocate] },
            ],
            plan: quiet_plan(),
        };
        assert!(scn.is_over_budget());
        let report = scn.run();
        assert!(
            matches!(report.verdict, Verdict::Safety(_)),
            "expected a safety split, got {:?} (decided: {:?})",
            report.verdict,
            report.decided
        );
        assert!(
            report.evidence.iter().any(|ev| ev.node == NodeId(0) || ev.node == NodeId(1)),
            "evidence must name an equivocator: {:?}",
            report.evidence
        );
        assert!(!report.honest_votes.is_empty(), "trace must carry honest votes for the audit");
    }

    #[test]
    fn chain_mode_finalizes_consistent_prefixes() {
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 17,
            horizon_ms: 1_500,
            mode: Mode::Chain,
            faults: vec![FaultSpec { node: NodeId(2), attacks: vec![] }],
            plan: quiet_plan(),
        };
        let report = scn.run();
        assert_eq!(report.verdict, Verdict::Ok, "{}", report.verdict);
        assert!(report.finalized.iter().all(|(_, count)| *count > 0));
    }

    #[test]
    fn relay_spam_within_budget_costs_nothing() {
        for node in 0..4 {
            let scn = Scenario {
                n: 4,
                delta_ms: 3,
                seed: 19,
                horizon_ms: 1_500,
                mode: Mode::Chain,
                faults: vec![FaultSpec { node: NodeId(node), attacks: vec![Attack::RelaySpam] }],
                plan: quiet_plan(),
            };
            assert!(scn.liveness_armed());
            let report = scn.run();
            assert_eq!(report.verdict, Verdict::Ok, "spammer {node}: {}", report.verdict);
            assert!(report.finalized.iter().all(|(_, count)| *count > 0));
        }
    }

    #[test]
    fn flapping_connections_within_budget_cost_neither_oracle() {
        // Alone the flapper is honest; composed, it spams while it flaps.
        let flap = Attack::Flap { period_ms: 7 };
        for (node, with) in (0..4).flat_map(|node| [(node, None), (node, Some(Attack::RelaySpam))])
        {
            let attacks = std::iter::once(flap.clone()).chain(with).collect();
            let scn = Scenario {
                n: 4,
                delta_ms: 3,
                seed: 23,
                horizon_ms: 1_500,
                mode: Mode::Chain,
                faults: vec![FaultSpec { node: NodeId(node), attacks }],
                plan: quiet_plan(),
            };
            assert!(scn.liveness_armed());
            let report = scn.run();
            assert_eq!(report.verdict, Verdict::Ok, "flapper {node}: {}", report.verdict);
            // (A spammer never proposes: its turns cost what a crash costs.)
            let floor = if scn.faults[0].attacks.len() == 1 { 100 } else { 0 };
            assert!(report.finalized.iter().all(|(_, count)| *count > floor), "{report:?}");
            let src = scn.to_rust_source("regress_flap", &Verdict::Ok);
            assert!(src.contains("Attack::Flap { period_ms: 7 }"), "{src}");
        }
        // Single-shot nodes do not read the hint: the flapper is just honest.
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 23,
            horizon_ms: 2_000,
            mode: Mode::Single,
            faults: vec![FaultSpec { node: NodeId(0), attacks: vec![flap] }],
            plan: quiet_plan(),
        };
        let report = scn.run();
        assert_eq!(report.verdict, Verdict::Ok, "{}", report.verdict);
        assert_eq!(report.decided.len(), 3, "decided counts honest nodes only");
    }

    #[test]
    fn scripted_source_round_trips_the_plan() {
        let every = [
            (Attack::Equivocate, "Attack::Equivocate"),
            (Attack::SilenceToward(vec![NodeId(2)]), "Attack::SilenceToward(vec![NodeId(2)])"),
            (Attack::SkewedReplay { view_offset: 2 }, "Attack::SkewedReplay { view_offset: 2 }"),
            (Attack::ValueSpam { period_ms: 30 }, "Attack::ValueSpam { period_ms: 30 }"),
            (Attack::RelaySpam, "Attack::RelaySpam"),
            (Attack::VoteThenSkip, "Attack::VoteThenSkip"),
            (Attack::Flap { period_ms: 7 }, "Attack::Flap { period_ms: 7 }"),
            (Attack::Amplify, "Attack::Amplify"),
            (Attack::ForgeHistory, "Attack::ForgeHistory"),
            (Attack::CrashAt { ms: 40 }, "Attack::CrashAt { ms: 40 }"),
        ];
        let scn = Scenario {
            n: 4,
            delta_ms: 3,
            seed: 0x2a,
            horizon_ms: 500,
            mode: Mode::Single,
            faults: vec![FaultSpec {
                node: NodeId(1),
                attacks: every.iter().map(|(attack, _)| attack.clone()).collect(),
            }],
            plan: "default(delay=2,jitter=1); part(10..40:0,1)".parse().unwrap(),
        };
        let src = scn.to_rust_source("regress_demo", &Verdict::Safety(String::new()));
        assert!(src.contains("fn regress_demo()"), "{src}");
        let rendered: Vec<&str> = every.iter().map(|(_, source)| *source).collect();
        assert!(src.contains(&format!("attacks: vec![{}]", rendered.join(", "))), "{src}");
        assert!(src.contains("part(10..40:0,1)"), "{src}");
        assert!(src.contains("matches!(report.verdict, Verdict::Safety(_))"), "{src}");
        // The embedded plan string must parse back to the same plan.
        let start = src.find("plan: \"").unwrap() + "plan: \"".len();
        let end = src[start..].find('"').unwrap() + start;
        assert_eq!(src[start..end].parse::<LinkPlan>().unwrap(), scn.plan);
    }
}
