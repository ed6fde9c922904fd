//! The packed parallel explorer.
//!
//! A level-synchronized breadth-first search over [`PackedState`]s:
//!
//! * the **seen-set** is the sharded, collision-checked [`Store`];
//! * the **frontier** is one disk-spilling [`SpillQueue`] per worker,
//!   sharded by successor fingerprint; workers drain their own queue first
//!   and steal from the others, so a level finishes only when every queue
//!   is empty;
//! * successor states are canonicalized **incrementally**: the per-node
//!   packed words of the expanded state are computed once per value
//!   permutation, and each action rewrites only the acting node's word
//!   before the (tiny) node re-sort — no `State` clone, no allocation on
//!   the per-transition path.
//!
//! Determinism: every stored state is expanded exactly once and all
//! [`Report`] counters are sums over that set (or level counts), so
//! exhausted runs produce identical counters for any thread count. Two
//! caveats: under truncation, *which* discoveries are dropped depends on
//! thread timing (only single-threaded truncated runs are
//! bit-reproducible), and with tracing on, a state discovered by two
//! same-level parents records whichever won the shard lock, so the
//! counterexample's *steps* may differ across multi-threaded runs — its
//! length (shortest) and final decided values never do.

use std::sync::Mutex;

use crate::encode::{Codec, PackedState, MAX_HONEST, MAX_WORDS};
use crate::frontier::SpillQueue;
use crate::invariants;
use crate::model::{ModelAction, ModelCfg, State};
use crate::report::Report;
use crate::store::{Outcome, Store};
use crate::trace;

/// Records popped from a frontier queue per lock acquisition.
const POP_BATCH: usize = 64;
/// Records buffered per target queue before flushing.
const PUSH_BATCH: usize = 256;

/// Memory-side statistics of a run (see [`Explorer::run_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreStats {
    /// Bytes of seen-set table capacity at the end of the run (keys plus
    /// any trace predecessor words) — the "are states cheap now?" counter.
    pub seen_bytes: usize,
    /// Bytes per packed frontier record.
    pub frontier_record_bytes: usize,
    /// States written to spill segments on disk over the whole run.
    pub spilled_states: u64,
}

/// Breadth-first explorer for the abstract model: bit-packed states, full
/// honest-node and value symmetry reduction, a disk-backed frontier, and
/// optional thread-parallel expansion and counterexample tracing.
///
/// Source-compatible with the original explorer: `Explorer::new(cfg)
/// .run(budget)` still returns a [`Report`]. The legacy clone-based
/// implementation survives as [`crate::LegacyExplorer`] for comparison.
///
/// # Examples
///
/// See the crate-level example.
///
/// # Panics
///
/// `run` panics if the bounds don't fit the packed codec: `values` must
/// be `1..=7`, `rounds ≤ MAX_ROUNDS`, honest nodes `1..=16` (the paper
/// instance is 4 nodes / 3 values / 5 rounds — well inside).
#[derive(Debug)]
pub struct Explorer {
    cfg: ModelCfg,
    check_inductive: bool,
    threads: usize,
    trace: bool,
    value_symmetry: bool,
    initial: Option<State>,
    frontier_mem: usize,
}

impl Explorer {
    /// Creates an explorer for `cfg`.
    pub fn new(cfg: ModelCfg) -> Self {
        Explorer {
            cfg,
            check_inductive: false,
            threads: 1,
            trace: false,
            value_symmetry: true,
            initial: None,
            frontier_mem: 1 << 18,
        }
    }

    /// Additionally check the paper's `ConsistencyInvariant` on every
    /// reachable state (it must be an *invariant*, not just inductive).
    pub fn check_inductive(mut self, on: bool) -> Self {
        self.check_inductive = on;
        self
    }

    /// Expands states with `k` worker threads (default 1). The aggregate
    /// counters of an exhausted run are identical for every `k`; with
    /// [`Explorer::trace`] on, the reconstructed counterexample keeps its
    /// (shortest) length but its exact steps may vary across runs for
    /// `k > 1` (see the module docs).
    pub fn threads(mut self, k: usize) -> Self {
        self.threads = k.max(1);
        self
    }

    /// Record predecessors so a shortest counterexample trace can be
    /// reconstructed into [`Report::counterexample`] if agreement is ever
    /// violated. Costs one extra packed state + action word per stored
    /// state.
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Toggle value-permutation symmetry reduction (default on). Disable
    /// to compare state counts with honest-node-only canonicalization.
    pub fn value_symmetry(mut self, on: bool) -> Self {
        self.value_symmetry = on;
        self
    }

    /// Start exploration from `state` instead of [`State::initial`] — for
    /// auditing how the checker reacts to forged or hypothetical states.
    ///
    /// # Panics
    ///
    /// `run` panics if `state`'s node count doesn't match the config.
    pub fn with_initial(mut self, state: State) -> Self {
        self.initial = Some(state);
        self
    }

    /// In-RAM frontier capacity, in packed records per queue buffer;
    /// beyond it the frontier spills to disk segments (default 2¹⁸).
    pub fn frontier_mem(mut self, records: usize) -> Self {
        self.frontier_mem = records.max(1);
        self
    }

    /// Explores up to `max_states` distinct states (modulo honest-node and
    /// value symmetry) from the initial state.
    pub fn run(&self, max_states: usize) -> Report {
        self.run_with_stats(max_states).0
    }

    /// Like [`Explorer::run`], also returning memory-side statistics.
    pub fn run_with_stats(&self, max_states: usize) -> (Report, ExploreStats) {
        let codec = Codec::new(&self.cfg, self.value_symmetry);
        let stride = codec.words_used();
        let k = self.threads;
        let store = Store::new(stride, (k * 4).next_power_of_two(), max_states, self.trace);

        let initial = self.initial.clone().unwrap_or_else(|| State::initial(&self.cfg));
        assert_eq!(
            initial.votes.len(),
            self.cfg.honest(),
            "initial state node count must match the config"
        );
        assert_eq!(initial.round.len(), self.cfg.honest());

        let new_queues = || -> Vec<Mutex<SpillQueue>> {
            (0..k).map(|_| Mutex::new(SpillQueue::new(stride, self.frontier_mem))).collect()
        };
        let mut current = new_queues();
        let mut next = new_queues();

        let mut report = Report::empty();
        let mut spilled: u64 = 0;
        let best_violation: Mutex<Option<(usize, PackedState)>> = Mutex::new(None);

        let packed_initial = codec.canonical(&initial);
        if store.try_insert(&packed_initial, codec.fingerprint(&packed_initial), None)
            == Outcome::Fresh
        {
            current[0].lock().unwrap().push(&packed_initial.words()[..stride]);
        }

        let mut level = 0usize;
        while current.iter().any(|q| !q.lock().unwrap().is_empty()) {
            report.depth = level;
            let counts = if k == 1 {
                self.work(0, &codec, &store, &current, &next, level, &best_violation)
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..k)
                        .map(|w| {
                            let (codec, store) = (&codec, &store);
                            let (current, next) = (&current, &next);
                            let best_violation = &best_violation;
                            scope.spawn(move || {
                                self.work(w, codec, store, current, next, level, best_violation)
                            })
                        })
                        .collect();
                    let mut total = Counts::default();
                    for h in handles {
                        total.add(h.join().expect("worker panicked"));
                    }
                    total
                })
            };
            report.transitions += counts.transitions;
            report.violations += counts.violations;
            report.invariant_violations += counts.invariant_violations;
            spilled += current.iter().map(|q| q.lock().unwrap().spilled()).sum::<u64>();
            std::mem::swap(&mut current, &mut next);
            // Replace the drained queues so spill statistics don't double
            // count and segment files from this level are reclaimed.
            next = new_queues();
            level += 1;
        }

        report.states = store.len();
        report.dropped = store.dropped();
        report.truncated = report.dropped > 0;
        report.exhausted = !report.truncated;
        if self.trace {
            if let Some((_, packed)) = *best_violation.lock().unwrap() {
                report.counterexample = Some(trace::reconstruct(&self.cfg, &codec, &store, packed));
            }
        }
        let stats = ExploreStats {
            seen_bytes: store.bytes(),
            frontier_record_bytes: stride * 8,
            spilled_states: spilled,
        };
        (report, stats)
    }

    /// One worker's share of one BFS level.
    #[allow(clippy::too_many_arguments)]
    fn work(
        &self,
        w: usize,
        codec: &Codec,
        store: &Store,
        current: &[Mutex<SpillQueue>],
        next: &[Mutex<SpillQueue>],
        level: usize,
        best_violation: &Mutex<Option<(usize, PackedState)>>,
    ) -> Counts {
        let cfg = &self.cfg;
        let k = current.len();
        let stride = codec.words_used();
        let honest = cfg.honest();
        let perms = codec.perms();
        let mut counts = Counts::default();

        // Reused buffers: popped records, per-permutation node words of the
        // state under expansion, per-target-queue outboxes.
        let mut in_buf: Vec<u64> = Vec::with_capacity(POP_BATCH * stride);
        let mut node_words: Vec<[u128; MAX_HONEST]> = vec![[0; MAX_HONEST]; perms.len()];
        let mut out_bufs: Vec<Vec<u64>> = vec![Vec::new(); k];

        let flush = |bufs: &mut Vec<Vec<u64>>, target: usize| {
            let mut q = next[target].lock().unwrap();
            for rec in bufs[target].chunks_exact(stride) {
                q.push(rec);
            }
            bufs[target].clear();
        };

        // Drain our own queue first, then steal from the others. Queues
        // only shrink during a level, so one sweep finding every queue
        // empty means the level is done for this worker.
        for j in 0..k {
            let qi = (w + j) % k;
            loop {
                in_buf.clear();
                {
                    let mut q = current[qi].lock().unwrap();
                    let mut rec = [0u64; MAX_WORDS];
                    for _ in 0..POP_BATCH {
                        if !q.pop(&mut rec[..stride]) {
                            break;
                        }
                        in_buf.extend_from_slice(&rec[..stride]);
                    }
                }
                if in_buf.is_empty() {
                    break;
                }
                // Split borrow: iterate a copy of the records so in_buf
                // can be refilled next iteration.
                let records: Vec<u64> = std::mem::take(&mut in_buf);
                for rec in records.chunks_exact(stride) {
                    self.expand(
                        rec,
                        codec,
                        store,
                        level,
                        best_violation,
                        &mut node_words,
                        &mut out_bufs,
                        &mut counts,
                        honest,
                        k,
                    );
                    for target in 0..k {
                        if out_bufs[target].len() >= PUSH_BATCH * stride {
                            flush(&mut out_bufs, target);
                        }
                    }
                }
                in_buf = records;
            }
        }
        for target in 0..k {
            if !out_bufs[target].is_empty() {
                flush(&mut out_bufs, target);
            }
        }
        counts
    }

    /// Expands one packed state: checks properties, enumerates actions,
    /// and inserts canonical successors.
    #[allow(clippy::too_many_arguments)]
    fn expand(
        &self,
        rec: &[u64],
        codec: &Codec,
        store: &Store,
        level: usize,
        best_violation: &Mutex<Option<(usize, PackedState)>>,
        node_words: &mut [[u128; MAX_HONEST]],
        out_bufs: &mut [Vec<u64>],
        counts: &mut Counts,
        honest: usize,
        k: usize,
    ) {
        let cfg = &self.cfg;
        let packed = PackedState::from_words(rec);
        let state = codec.decode(&packed);

        if state.decided(cfg).len() > 1 {
            counts.violations += 1;
            let mut best = best_violation.lock().unwrap();
            let candidate = (level, packed);
            if best.is_none_or(|b| candidate < b) {
                *best = Some(candidate);
            }
        }
        if self.check_inductive && !invariants::consistency_invariant(cfg, &state) {
            counts.invariant_violations += 1;
        }

        let actions = state.enabled_actions(cfg);
        if actions.is_empty() {
            return;
        }
        let perms = codec.perms();
        for (pi, perm) in perms.iter().enumerate() {
            for (slot, (table, &round)) in
                node_words[pi].iter_mut().zip(state.votes.iter().zip(&state.round))
            {
                *slot = codec.node_value(table, round, perm);
            }
        }
        for action in actions {
            counts.transitions += 1;
            let mut best: Option<PackedState> = None;
            for (pi, perm) in perms.iter().enumerate() {
                let mut arr = [0u128; MAX_HONEST];
                arr[..honest].copy_from_slice(&node_words[pi][..honest]);
                match action {
                    ModelAction::StartRound { node, round } => {
                        arr[node] = codec.node_with_round(arr[node], round as i8);
                    }
                    ModelAction::Vote { node, phase, round, value } => {
                        arr[node] =
                            codec.node_with_vote(arr[node], round, phase, perm[value as usize]);
                        if phase >= 2 && codec.node_round(arr[node]) < round as i8 {
                            arr[node] = codec.node_with_round(arr[node], round as i8);
                        }
                    }
                }
                arr[..honest].sort_unstable();
                let candidate = codec.pack_nodes(&arr[..honest]);
                if best.is_none_or(|b| candidate < b) {
                    best = Some(candidate);
                }
            }
            let successor = best.expect("at least the identity permutation");
            let fp = codec.fingerprint(&successor);
            let parent = if self.trace { Some((&packed, action)) } else { None };
            if store.try_insert(&successor, fp, parent) == Outcome::Fresh {
                let stride = codec.words_used();
                out_bufs[((fp >> 32) as usize) % k].extend_from_slice(&successor.words()[..stride]);
            }
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    transitions: usize,
    violations: usize,
    invariant_violations: usize,
}

impl Counts {
    fn add(&mut self, other: Counts) {
        self.transitions += other.transitions;
        self.violations += other.violations;
        self.invariant_violations += other.invariant_violations;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> ModelCfg {
        ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 1 }
    }

    #[test]
    fn tiny_instance_is_exhausted_and_safe() {
        let report = Explorer::new(small()).check_inductive(true).run(2_000_000);
        assert!(report.exhausted);
        assert!(!report.truncated);
        assert_eq!(report.dropped, 0);
        assert_eq!(report.violations, 0);
        assert_eq!(report.invariant_violations, 0);
        assert!(report.states > 50, "the space must be non-trivial");
    }

    #[test]
    fn thread_counts_agree_on_exhausted_reports() {
        let sequential = Explorer::new(small()).run(2_000_000);
        for k in [2, 4] {
            let parallel = Explorer::new(small()).threads(k).run(2_000_000);
            assert_eq!(parallel, sequential, "threads({k}) must match threads(1)");
        }
    }

    #[test]
    fn spilling_frontier_matches_in_ram_frontier() {
        let in_ram = Explorer::new(small()).run(2_000_000);
        let spilled = Explorer::new(small()).frontier_mem(8).run(2_000_000);
        assert_eq!(in_ram, spilled);
        let (_, stats) = Explorer::new(small()).frontier_mem(8).run_with_stats(2_000_000);
        assert!(stats.spilled_states > 0, "an 8-record frontier cap must spill to disk");
    }

    #[test]
    fn value_symmetry_shrinks_the_space_without_changing_verdicts() {
        let full = Explorer::new(small()).value_symmetry(false).run(2_000_000);
        let reduced = Explorer::new(small()).run(2_000_000);
        assert!(reduced.states < full.states, "value symmetry must merge orbits");
        assert!(full.exhausted && reduced.exhausted);
        assert_eq!(full.violations, 0);
        assert_eq!(reduced.violations, 0);
    }

    #[test]
    fn exact_budget_still_reports_exhausted() {
        let size = Explorer::new(small()).run(2_000_000).states;
        let exact = Explorer::new(small()).run(size);
        assert!(exact.exhausted, "a budget equal to the space size is an exhausted run");
        assert!(!exact.truncated);
        let short = Explorer::new(small()).run(size - 1);
        assert!(short.truncated);
        assert!(!short.exhausted);
        assert!(short.dropped >= 1);
        assert_eq!(short.states, size - 1);
    }

    #[test]
    fn forged_disagreement_yields_a_trace() {
        // The forged state of the legacy tests, one finishing vote short:
        // nodes 0 and 1 carried value 0 through all four phases of round 0
        // and value 1 through phases 1..=3 of round 1. The checker itself
        // must take the final phase-4 step and report the two-value trace.
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
        let mut s = State::initial(&cfg);
        s.round = vec![1, 1, 1];
        for p in 0..2 {
            for phase in 1..=4 {
                s.votes[p].set(0, phase, 0);
            }
            for phase in 1..=3 {
                s.votes[p].set(1, phase, 1);
            }
        }
        let report = Explorer::new(cfg).with_initial(s).trace(true).run(1_000_000);
        assert!(report.violations > 0, "disagreement must be reachable from the forged state");
        let trace = report.counterexample.expect("trace recorded");
        assert_eq!(trace.decided.len(), 2, "trace ends in two decided values");
        // Deciding value 1 needs an honest phase-4 *quorum* (2 of 3 nodes),
        // so the shortest completion is exactly two Vote4 actions.
        assert_eq!(trace.steps.len(), 2, "two phase-4 votes complete the disagreement");
        assert_eq!(trace.last_state().decided(&cfg).len(), 2);
        // Replaying the trace's actions from its initial state reproduces
        // each step state up to canonicalization.
        let codec = Codec::new(&cfg, true);
        let mut replay = trace.initial.clone();
        for step in &trace.steps {
            replay = replay.apply(step.action);
            assert_eq!(codec.canonical(&replay), codec.canonical(&step.state));
            replay = step.state.clone();
        }
    }

    #[test]
    fn reachable_space_has_no_trace() {
        let report = Explorer::new(small()).trace(true).run(2_000_000);
        assert_eq!(report.violations, 0);
        assert!(report.counterexample.is_none());
    }
}
