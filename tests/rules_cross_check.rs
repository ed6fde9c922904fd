//! Cross-checks between the paper's lemmas, the abstract model, and the
//! production rules engine.
//!
//! * **Lemma 1** as a property test: a well-behaved node that voted for
//!   `val` in view `v` keeps *claiming* `val` safe at every view `≤ v` in
//!   all of its later proof/suggest messages — tested directly against
//!   [`tetrabft_types::VoteBook`] + Algorithm 1.
//! * **Lemma 8 / agreement bridge**: coherent global histories generated by
//!   random walks of the abstract model (`tetrabft-mc`) are translated into
//!   proof messages and fed to the *production* `node_determine_safe`
//!   (Algorithm 5); once a value is decided, Rule 3 must reject every
//!   conflicting value in every later view.
//! * **The view-change rule**: [`ViewChanges::poll`], allocation-free,
//!   against the sort–dedup–scan it replaced, and the view it makes a
//!   chain slot enter against the k-th-highest formula slots used before.

use proptest::prelude::*;

use tetrabft::rules::{claims_safe, node_determine_safe};
use tetrabft::{ProofData, ViewChanges, ViewVerdict};
use tetrabft_mc::{ModelCfg, State};
use tetrabft_types::{Config, NodeId, Phase, Value, View, VoteBook, VoteInfo};

proptest! {
    /// Lemma 1, first statement: vote-1 history ⇒ persistent proof claims.
    #[test]
    fn lemma1_proof_claims_persist(
        raw_votes in proptest::collection::vec((1u64..40, 0u64..4), 1..25)
    ) {
        // Build a well-behaved voting history: strictly increasing views.
        let mut votes = raw_votes;
        votes.sort_by_key(|(v, _)| *v);
        votes.dedup_by_key(|(v, _)| *v);

        let mut book = VoteBook::new();
        for (i, (view, value)) in votes.iter().enumerate() {
            book.record(Phase::VOTE1, View(*view), Value::from_u64(*value));
            // After every later vote, every *past* vote's claim must hold
            // at every view at or below it (Lemma 1 applies the claim in
            // messages of views greater than v; the claim predicate itself
            // is what we check).
            for (past_view, past_value) in &votes[..=i] {
                for probe in [0, past_view / 2, *past_view] {
                    prop_assert!(
                        claims_safe(
                            book.highest(Phase::VOTE1),
                            book.prev(Phase::VOTE1),
                            View(probe),
                            Value::from_u64(*past_value),
                        ),
                        "vote ({past_view},{past_value}) must stay claimed at {probe}"
                    );
                }
            }
        }
    }

    /// Lemma 1, second statement, for vote-2/suggest claims.
    #[test]
    fn lemma1_suggest_claims_persist(
        raw_votes in proptest::collection::vec((1u64..40, 0u64..4), 1..25)
    ) {
        let mut votes = raw_votes;
        votes.sort_by_key(|(v, _)| *v);
        votes.dedup_by_key(|(v, _)| *v);
        let mut book = VoteBook::new();
        for (view, value) in &votes {
            book.record(Phase::VOTE2, View(*view), Value::from_u64(*value));
        }
        for (view, value) in &votes {
            prop_assert!(claims_safe(
                book.highest(Phase::VOTE2),
                book.prev(Phase::VOTE2),
                View(*view),
                Value::from_u64(*value),
            ));
        }
    }
}

/// Derives the proof message an honest node of the abstract model would
/// send: highest vote-1, highest different-valued vote-1 below it, highest
/// vote-4.
fn proof_from_table(state: &State, node: usize) -> ProofData {
    let mut v1: Option<VoteInfo> = None;
    let mut v4: Option<VoteInfo> = None;
    for vote in state.votes[node].iter() {
        let info =
            VoteInfo::new(View(u64::from(vote.round)), Value::from_u64(u64::from(vote.value)));
        match vote.phase {
            1 if v1.is_none_or(|h| info.view > h.view) => v1 = Some(info),
            4 if v4.is_none_or(|h| info.view > h.view) => v4 = Some(info),
            _ => {}
        }
    }
    let prev_v1 = v1.and_then(|highest| {
        state.votes[node]
            .iter()
            .filter(|vt| vt.phase == 1)
            .map(|vt| {
                VoteInfo::new(View(u64::from(vt.round)), Value::from_u64(u64::from(vt.value)))
            })
            .filter(|vi| vi.value != highest.value && vi.view < highest.view)
            .max_by_key(|vi| vi.view)
    });
    ProofData { vote1: v1, prev_vote1: prev_v1, vote4: v4 }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Once the abstract model decides a value, the production Rule 3
    /// engine must refuse to certify any *other* value from the honest
    /// proofs — the heart of Lemma 8, checked against real histories.
    #[test]
    fn rule3_never_certifies_against_a_decision(seed in any::<u64>(), steps in 10usize..80) {
        let mcfg = ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 4 };
        let cfg = Config::with_faults(3, 0).unwrap(); // the 3 honest nodes…
        // …but Rule 3 quorums in the real system count f Byzantine helpers;
        // mirror the angelic treatment by using the full system's honest
        // quorum: n−2f = 2 of 3 honest proofs + the (absent) adversary.
        let real_cfg = Config::with_faults(4, 1).unwrap();
        let _ = cfg;

        let mut state = State::initial(&mcfg);
        let mut rng = seed | 1;
        for _ in 0..steps {
            let actions = state.enabled_actions(&mcfg);
            if actions.is_empty() {
                break;
            }
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            state = state.apply(actions[(rng as usize) % actions.len()]);
        }
        let decided = state.decided(&mcfg);
        prop_assume!(decided.len() == 1);
        let winner = Value::from_u64(u64::from(decided[0]));

        // Honest proofs as they would be sent when entering a later view.
        let proofs: Vec<ProofData> = (0..mcfg.honest()).map(|p| proof_from_table(&state, p)).collect();
        // In the real 4-node system a Byzantine node may add one arbitrary
        // proof; Rule 3's quorum needs n−f = 3 proofs, so the adversary's
        // forged proof plus 2 honest ones could also form the quorum. Test
        // both: honest-only, and honest ∪ {worst-case forged proof}.
        let forged = ProofData {
            vote1: Some(VoteInfo::new(View(3), Value::from_u64(9))),
            prev_vote1: Some(VoteInfo::new(View(2), Value::from_u64(8))),
            vote4: None,
        };
        for later_view in [1u64, 2, 3, 4, 5] {
            for v in 0..mcfg.values {
                let value = Value::from_u64(u64::from(v));
                if value == winner {
                    continue;
                }
                let mut with_forged = proofs.clone();
                with_forged.push(forged);
                prop_assert!(
                    !node_determine_safe(&real_cfg, &proofs, View(later_view), value),
                    "honest proofs certified {value} against decided {winner} at view {later_view}"
                );
                prop_assert!(
                    !node_determine_safe(&real_cfg, &with_forged, View(later_view), value),
                    "forged proof let {value} past the decision at view {later_view}"
                );
            }
        }
        // And the decided value itself must stay certifiable from the full
        // honest set (Lemma 4's flip side) in the immediate next view.
        let next = View(u64::from(
            state.votes.iter().flat_map(|t| t.iter()).map(|v| v.round).max().unwrap_or(0) + 1,
        ));
        prop_assert!(
            node_determine_safe(&real_cfg, &proofs, next, winner),
            "the decided value must remain certifiable at {next}"
        );
    }
}

/// The view-change counter as it was before [`ViewChanges`], its `poll`
/// verbatim: the reference the allocation-free one is checked against.
struct Reference {
    highest: Vec<Option<View>>,
    sent: Option<View>,
}

impl Reference {
    fn support(&self, view: View) -> usize {
        self.highest.iter().flatten().filter(|v| **v >= view).count()
    }

    fn poll(&self, cfg: &Config, current: View) -> ViewVerdict {
        let mut candidates: Vec<View> =
            self.highest.iter().flatten().copied().filter(|v| *v > current).collect();
        candidates.sort_unstable();
        candidates.dedup();
        candidates.reverse();
        for v in &candidates {
            if cfg.is_quorum(self.support(*v)) {
                return ViewVerdict::Enter(*v);
            }
        }
        for v in &candidates {
            if cfg.is_blocking(self.support(*v)) && self.sent.is_none_or(|s| *v > s) {
                return ViewVerdict::Echo(*v);
            }
        }
        ViewVerdict::Idle
    }
}

/// The view a chain slot entered before [`ViewChanges`]: the quorum-th
/// highest request, verbatim.
fn kth_highest(requests: &[Option<View>], quorum: usize) -> Option<View> {
    if requests.iter().flatten().count() < quorum {
        return None;
    }
    let mut views: Vec<View> = requests.iter().flatten().copied().collect();
    views.sort_unstable();
    views.reverse();
    Some(views[quorum - 1])
}

/// Replays `history` into both counters for `n` peers, both carrying the
/// `sent` mark: `(peer, view, 0)` withdraws `peer`'s request, any other
/// third field records one (peer indices wrap).
fn replay(n: usize, history: &[(u16, u64, u8)], sent: Option<View>) -> (ViewChanges, Reference) {
    let mut vc = ViewChanges::new(&Config::new(n).unwrap());
    let mut reference = Reference { highest: vec![None; n], sent };
    vc.sent = sent;
    for &(peer, view, op) in history {
        let peer = NodeId(peer % n as u16);
        if op == 0 {
            vc.withdraw(peer);
            reference.highest[peer.index()] = None;
        } else {
            vc.record(peer, View(view));
            let held = &mut reference.highest[peer.index()];
            *held = (*held).max(Some(View(view)));
        }
    }
    (vc, reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same requests, same `sent` mark: at every current view, the same
    /// verdict as the sort–dedup–scan, the same support, and — where a
    /// chain slot would enter a view — the view the k-th-highest formula
    /// names.
    #[test]
    fn view_changes_poll_matches_the_code_it_replaced(
        n in 4usize..14,
        history in proptest::collection::vec((0u16..13, 0u64..8, 0u8..4), 0..40),
        sent in proptest::option::of(0u64..8),
    ) {
        let cfg = Config::new(n).unwrap();
        let (vc, reference) = replay(n, &history, sent.map(View));
        for view in (0..9).map(View) {
            let verdict = vc.poll(view);
            prop_assert_eq!(verdict, reference.poll(&cfg, view), "current {:?}", view);
            prop_assert_eq!(vc.support(view), reference.support(view));
            let entered = match verdict {
                ViewVerdict::Enter(target) => Some(target),
                _ => None,
            };
            let formula = kth_highest(&reference.highest, cfg.quorum()).filter(|v| *v > view);
            prop_assert_eq!(entered, formula, "current {:?}", view);
        }
    }
}
