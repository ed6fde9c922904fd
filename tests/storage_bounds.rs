//! Constant-storage guarantees under sustained adversity — the Table 1
//! storage column, tested rather than asserted.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;

use tetrabft_suite::prelude::*;
use tetrabft_suite::sim::{Context, EdgeSpec, FnNode, LinkPlan, PartitionWindow};
use tetrabft_types::{Phase, VoteBook};

#[test]
fn vote_book_is_constant_over_arbitrarily_many_views() {
    let mut book = VoteBook::new();
    let baseline = book.persistent_bytes();
    for view in 0..100_000u64 {
        for phase in Phase::ALL {
            book.record(phase, View(view), Value::from_u64(view % 7));
        }
        assert_eq!(book.persistent_bytes(), baseline);
    }
}

#[test]
fn node_persistent_state_is_view_independent() {
    // Run a node through dozens of forced view changes (silent leader
    // rotation) and confirm its persistent footprint never grows.
    let cfg = Config::new(4).unwrap();
    let probe = TetraNode::new(cfg, Params::new(5), NodeId(1), Value::from_u64(1));
    let baseline = probe.persistent_bytes();

    let pre_gst = PartitionWindow::from_group(0, 400, (0..4).map(NodeId)).lose(1.0);
    let mut sim = SimBuilder::new(4)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(pre_gst))
        .build_boxed(move |id| {
            if id == NodeId(0) {
                Box::new(tetrabft_suite::sim::SilentNode::new())
            } else {
                Box::new(TetraNode::new(cfg, Params::new(5), id, Value::from_u64(7)))
            }
        });
    sim.run_until_outputs(3, 5_000_000);
    // The type makes the bound structural; this exercises the claim end to
    // end: a fresh node reports the same footprint the whole run through.
    let after =
        TetraNode::new(cfg, Params::new(5), NodeId(1), Value::from_u64(1)).persistent_bytes();
    assert_eq!(after, baseline);
}

#[test]
fn multishot_suspicion_and_evidence_registers_are_constant_per_peer() {
    // One durable node driven by hand through what feeds its per-peer
    // registers: votes far beyond its window (catch-up evidence: a flag a
    // peer, spent on asking), view changes naming ever-higher slots, and
    // the timer of a never-proposed slot, over and over (the silent bit of
    // its leader), and a hostile catch-up responder forging a new block for
    // the next slot every round (one candidate a peer vouches for, the old
    // one withdrawn), and a transport that reports a peer's stream ended,
    // each peer in turn (the same silent bit, and one request per live slot
    // the peer leads). `Debug` prints every field, so the length of the
    // rendering bounds the whole state: it must not grow with the rounds.
    use tetrabft_suite::sim::{ActionBuf, TimerId};
    use tetrabft_suite::types::FsyncPolicy;
    let dir = std::env::temp_dir().join(format!("tetrabft-peer-registers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = Config::new(4).unwrap();
    let params = Params::new(30).with_fsync(FsyncPolicy::Never);
    let mut node = MultiShotNode::durable(cfg, params, NodeId(0), &dir).unwrap();
    let mut asks = 0;
    // Counts the catch-up requests; returns how many `ViewChange`s went out.
    let mut feed = |node: &mut MultiShotNode, input: Input<MsMessage>| {
        use tetrabft_suite::sim::Action;
        let mut actions = ActionBuf::new();
        node.handle(input, &mut Context::buffered(NodeId(0), 4, Time(0), &mut actions));
        let mut requests = 0;
        for action in actions {
            match action {
                Action::Send { msg: MsMessage::CatchUp { .. }, .. } => asks += 1,
                Action::Send { msg: MsMessage::ViewChange { .. }, .. } => requests += 1,
                _ => {}
            }
        }
        requests
    };
    feed(&mut node, Input::Start);
    let (mut rendered, mut hinted) = (Vec::new(), 0);
    for round in 0..2_000u64 {
        for from in [NodeId(1), NodeId(2), NodeId(3)] {
            let far = Slot(1_000 + round);
            let vote = MsMessage::Vote { slot: far, view: View::ZERO, hash: BlockHash(round + 1) };
            feed(&mut node, Input::Deliver { from, msg: vote });
            let request =
                MsMessage::ViewChange { slot: Slot(2 + round), view: View(1 + round % 7) };
            feed(&mut node, Input::Deliver { from, msg: request });
        }
        feed(&mut node, Input::Timer { id: TimerId(1) });
        // One request per live slot the peer leads and has not been asked
        // out of yet, never one per call.
        let requests = feed(&mut node, Input::PeerDown { peer: NodeId(1 + (round % 3) as u16) });
        assert!(requests <= tetrabft_multishot::SLOT_WINDOW, "round {round}: {requests}");
        hinted += requests;
        let forged = Block::new(Slot(1), GENESIS_HASH, vec![round.to_be_bytes().to_vec()]);
        feed(
            &mut node,
            Input::Deliver { from: NodeId(3), msg: MsMessage::Blocks { blocks: vec![forged] } },
        );
        if round == 100 || round == 1_999 {
            rendered.push(format!("{node:?}").len());
        }
    }
    // f + 1 = 2 distinct peers spend their flags on one request: every
    // round asks once with the first two votes, the third starts the next.
    assert!((2_900..=3_100).contains(&asks), "evidence must keep asking, asked {asks} times");
    assert!(node.active_slots() <= tetrabft_multishot::SLOT_WINDOW as usize);
    // Slot 1 is the one live slot, node 1 leads it: asked out of view 0
    // once in 2,000 hints.
    assert_eq!(hinted, 1, "one request per suspected slot, not one per hint");
    // Numbers print wider as they grow; structures must not.
    assert!(rendered[1] <= rendered[0] + 64, "state grew: {rendered:?} bytes of Debug");
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// The vote book's `prev` register always satisfies the paper's
    /// definition: highest different-valued vote below the highest vote.
    #[test]
    fn vote_book_prev_register_definition(
        votes in proptest::collection::vec((0u64..50, 0u64..4), 1..40)
    ) {
        // Feed strictly increasing views (well-behaved pattern).
        let mut sorted = votes;
        sorted.sort_by_key(|(v, _)| *v);
        sorted.dedup_by_key(|(v, _)| *v);

        let mut book = VoteBook::new();
        for (view, value) in &sorted {
            book.record(Phase::VOTE2, View(*view), Value::from_u64(*value));
        }
        let highest = book.highest(Phase::VOTE2).unwrap();
        // Reference computation from the raw history.
        let expected_prev = sorted
            .iter()
            .filter(|(_, value)| Value::from_u64(*value) != highest.value)
            .max_by_key(|(view, _)| *view)
            .map(|(view, value)| (View(*view), Value::from_u64(*value)));
        prop_assert_eq!(
            book.prev(Phase::VOTE2).map(|p| (p.view, p.value)),
            expected_prev
        );
    }
}

proptest! {
    // Every case renders four nodes after every input of the run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-shot nodes prune: the active window and everything else a
    /// node holds stay bounded no matter how long the chain runs.
    #[test]
    fn multishot_active_state_is_bounded(horizon in 50u64..400) {
        let cfg = Config::new(4).unwrap();
        // Each node notes, after every input it handles, the tick, its live
        // slot count and the length of its `Debug` rendering.
        let probe = Rc::new(RefCell::new(Vec::new()));
        let mut sim = SimBuilder::new(4).build(|id| {
            let mut inner = MultiShotNode::new(cfg, Params::new(1_000_000), id);
            let seen = Rc::clone(&probe);
            FnNode::new(move |input, ctx: &mut Context<'_, MsMessage, Finalized>| {
                let now = ctx.now().0;
                inner.handle(input, ctx);
                seen.borrow_mut().push((now, inner.active_slots(), format!("{inner:?}").len()));
            })
        });
        sim.run_until(Time(horizon));
        // The chain grows with the horizon…
        let blocks = sim.outputs().iter().filter(|o| o.node == NodeId(0)).count();
        prop_assert!(blocks as u64 >= horizon.saturating_sub(10));
        // …while the window bounds live instances after every single input…
        let seen = probe.borrow();
        let window = tetrabft_multishot::SLOT_WINDOW as usize;
        prop_assert!(seen.iter().all(|(_, active, _)| *active <= window));
        // …and the whole state is no larger at the horizon than at tick 50
        // (numbers print wider as they grow; structures must not).
        let rendered_by = |tick| seen.iter().take_while(|(at, ..)| *at <= tick).map(|s| s.2).max();
        let (early, late) = (rendered_by(50).unwrap(), seen.iter().map(|s| s.2).max().unwrap());
        prop_assert!(late <= early + 256, "state grew: {early} -> {late} bytes of Debug");
    }
}
