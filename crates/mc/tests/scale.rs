//! Integration coverage for the scaled explorer: cross-engine
//! equivalence against the legacy clone-based BFS, thread and
//! disk-spill determinism, budget semantics, and counterexample traces.

use tetrabft_mc::{Codec, Explorer, LegacyExplorer, ModelCfg, State};

fn tiny() -> ModelCfg {
    ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 }
}

/// With value symmetry off, the packed engine explores exactly the same
/// quotient as the legacy engine (one representative per honest-node
/// orbit), so every aggregate must match — states, transitions, depth,
/// and verdicts. This pins the packed codec + incremental expansion to
/// the legacy `State::apply`/`canonical` semantics.
#[test]
fn packed_node_symmetry_matches_legacy_engine_exactly() {
    for cfg in [
        tiny(),
        ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 1 },
        ModelCfg { nodes: 5, byzantine: 1, values: 2, rounds: 1 },
    ] {
        let legacy = LegacyExplorer::new(cfg).check_inductive(true).run(5_000_000);
        let packed = Explorer::new(cfg).value_symmetry(false).check_inductive(true).run(5_000_000);
        assert!(legacy.exhausted && packed.exhausted, "{cfg:?} must be exhaustible");
        assert_eq!(legacy.states, packed.states, "{cfg:?}: orbit counts must match");
        assert_eq!(legacy.transitions, packed.transitions, "{cfg:?}");
        assert_eq!(legacy.depth, packed.depth, "{cfg:?}");
        assert_eq!(legacy.violations, packed.violations, "{cfg:?}");
        assert_eq!(legacy.invariant_violations, packed.invariant_violations, "{cfg:?}");
        assert_eq!(legacy.violations, 0);
    }
}

/// The full engine matrix — threads × frontier spill — produces one
/// identical report on an exhausted run.
#[test]
fn engine_matrix_is_deterministic() {
    let cfg = tiny();
    let reference = Explorer::new(cfg).run(5_000_000);
    assert!(reference.exhausted);
    for threads in [1, 2, 3] {
        for frontier_mem in [usize::MAX, 16] {
            let report =
                Explorer::new(cfg).threads(threads).frontier_mem(frontier_mem).run(5_000_000);
            assert_eq!(report, reference, "threads={threads} frontier_mem={frontier_mem} diverged");
        }
    }
}

/// Truncated single-threaded runs are reproducible and report exact
/// budget accounting.
#[test]
fn truncated_runs_report_budget_accounting() {
    let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
    let a = Explorer::new(cfg).run(10_000);
    let b = Explorer::new(cfg).run(10_000);
    assert_eq!(a, b, "single-threaded truncated runs must be reproducible");
    assert_eq!(a.states, 10_000);
    assert!(a.truncated && !a.exhausted);
    assert!(a.dropped > 0);
    assert_eq!(a.violations, 0);
}

/// The packed explorer sweeps a paper-bounds frontier (3 values ×
/// 5 rounds) through a deliberately tiny in-RAM frontier, exercising the
/// disk spill path, with zero violations of agreement or of the paper's
/// inductive invariant — at any thread count, and storing exactly its
/// budget.
#[test]
fn paper_bounds_sweep_spills_to_disk_and_stays_safe() {
    for threads in [1, 2] {
        let (report, stats) = Explorer::new(ModelCfg::paper())
            .check_inductive(true)
            .threads(threads)
            .frontier_mem(64)
            .run_with_stats(60_000);
        assert_eq!(report.states, 60_000, "budget fills at paper bounds (threads={threads})");
        assert!(report.truncated);
        assert!(stats.spilled_states > 0, "a 64-record frontier must spill at this scale");
        assert_eq!(report.violations, 0);
        assert_eq!(report.invariant_violations, 0, "ConsistencyInvariant must hold");
        assert_eq!(stats.frontier_record_bytes, 24, "paper bounds pack into three words");
    }
}

/// End-to-end counterexample flow: a forged near-disagreement yields a
/// shortest trace whose replay (modulo canonicalization) reproduces every
/// step and ends in two decided values.
#[test]
fn forged_disagreement_traces_to_two_decided_values() {
    let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
    let mut forged = State::initial(&cfg);
    forged.round = vec![1, 1, 1];
    for p in 0..2 {
        for phase in 1..=4 {
            forged.votes[p].set(0, phase, 0);
        }
        for phase in 1..=3 {
            forged.votes[p].set(1, phase, 1);
        }
    }
    for threads in [1, 4] {
        let report = Explorer::new(cfg)
            .with_initial(forged.clone())
            .trace(true)
            .threads(threads)
            .run(1_000_000);
        assert!(report.exhausted);
        assert!(report.violations > 0);
        let trace = report.counterexample.expect("violations imply a trace");
        assert_eq!(trace.decided.len(), 2, "trace ends in two decided values");
        assert_eq!(trace.steps.len(), 2, "a phase-4 quorum needs two more votes");
        assert_eq!(trace.last_state().decided(&cfg), trace.decided);

        let codec = Codec::new(&cfg, true);
        let mut replay = trace.initial.clone();
        for step in &trace.steps {
            replay = replay.apply(step.action);
            assert_eq!(
                codec.canonical(&replay),
                codec.canonical(&step.state),
                "replayed step must land in the recorded state's orbit"
            );
            replay = step.state.clone();
        }
        let rendered = format!("{trace}");
        assert!(rendered.contains("decided values"), "{rendered}");
    }
}

/// A forged state that *already* disagrees produces a zero-step trace.
#[test]
fn already_violating_initial_state_traces_immediately() {
    let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
    let mut forged = State::initial(&cfg);
    for p in 0..2 {
        forged.votes[p].set(0, 4, 0);
    }
    for p in 1..3 {
        forged.votes[p].set(1, 4, 1);
    }
    let report = Explorer::new(cfg).with_initial(forged).trace(true).run(100_000);
    assert!(report.violations > 0);
    let trace = report.counterexample.expect("trace");
    assert_eq!(trace.steps.len(), 0, "the initial state itself violates agreement");
    assert_eq!(trace.decided.len(), 2);
}

/// Section 5's agreement check, exhaustive wherever that fits a test: no
/// reachable state of 2 or 3 values × 1 round or of 2 values × 2 rounds
/// violates agreement or the paper's inductive invariant. At two rounds all
/// three engines exhaust the space, head to head: node symmetry alone
/// reproduces the legacy orbit count, value symmetry shrinks it, and a
/// packed state costs at least 8× less memory than a legacy clone. (Packed
/// states per second are ≈ 6× the legacy engine's in a release build; a
/// test does not assert wall-clock ratios.)
#[test]
fn two_rounds_exhausted_and_safe() {
    let safe = |cfg: ModelCfg| {
        let (report, stats) = Explorer::new(cfg).check_inductive(true).run_with_stats(5_000_000);
        assert!(report.exhausted, "{cfg:?} must be exhaustible in-test");
        assert_eq!(report.violations, 0, "{cfg:?}: agreement must hold");
        assert_eq!(report.invariant_violations, 0, "{cfg:?}: ConsistencyInvariant must hold");
        (report, stats)
    };
    safe(tiny());
    safe(ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 1 });

    let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
    let (packed, stats) = safe(cfg);
    assert!(packed.states > 100_000, "the space is six figures of canonical states");
    let v1 = LegacyExplorer::new(cfg).run(5_000_000);
    let node_only = Explorer::new(cfg).value_symmetry(false).run(5_000_000);
    assert!(v1.exhausted && node_only.exhausted);
    assert_eq!(v1.violations + node_only.violations, 0);
    assert_eq!(v1.states, node_only.states, "node symmetry alone must match the v1 orbit count");
    assert!(packed.states < v1.states, "value symmetry must shrink the space");
    let shrink = LegacyExplorer::approx_bytes_per_state(&cfg) as f64 * packed.states as f64
        / stats.seen_bytes as f64;
    assert!(shrink >= 8.0, "packed engine must be ≥8× smaller per state (got {shrink:.1}×)");
}
