use std::sync::Arc;

use super::*;
use crate::block::GENESIS_HASH;
use crate::chain::{SlotState, SLOT_WINDOW};
use crate::liveness::SlotWatch;
use tetrabft::SuggestData;
use tetrabft::ViewVerdict::{Echo, Enter, Idle};
use tetrabft_sim::{Context, EdgeSpec, LinkPlan, PartitionWindow, SimBuilder, Time};
use tetrabft_types::Phase;

fn cfg(n: usize) -> Config {
    Config::new(n).unwrap()
}

fn chain_of(sim: &tetrabft_sim::Sim<MsMessage, Finalized>, node: NodeId) -> Vec<(Slot, BlockHash)> {
    sim.outputs()
        .iter()
        .filter(|o| o.node == node)
        .map(|o| (o.output.slot, o.output.hash))
        .collect()
}

/// The first way the chains of `sim`'s `n` nodes break consistency, if
/// any: each must run 1, 2, 3, … and any two must be prefix-comparable.
fn disagreement(sim: &tetrabft_sim::Sim<MsMessage, Finalized>, n: usize) -> Option<String> {
    let chains: Vec<_> = (0..n as u16).map(|i| chain_of(sim, NodeId(i))).collect();
    let longest = chains.iter().max_by_key(|c| c.len()).unwrap();
    for (node, chain) in chains.iter().enumerate() {
        if let Some((i, (slot, _))) =
            chain.iter().enumerate().find(|(i, (s, _))| s.0 != *i as u64 + 1)
        {
            return Some(format!(
                "node {node} finalized {slot} at position {i}: not in slot order"
            ));
        }
        if longest[..chain.len()] != chain[..] {
            return Some(format!("node {node}'s chain is no prefix of the longest: {chain:?}"));
        }
    }
    None
}

fn assert_consistency(sim: &tetrabft_sim::Sim<MsMessage, Finalized>, n: usize) {
    assert_eq!(disagreement(sim, n), None, "finalized chains must be consistent");
}

#[test]
fn good_case_one_block_per_delay() {
    let n = 4;
    let mut sim = SimBuilder::new(n).build(|id| MultiShotNode::new(cfg(4), Params::new(100), id));
    sim.run_until(Time(30));
    let chain = chain_of(&sim, NodeId(0));
    assert!(chain.len() >= 24, "expected ~1 block/delay, got {}", chain.len());
    let times: Vec<u64> =
        sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| o.time.0).collect();
    assert_eq!(times[0], 5, "first finalization at 5 message delays");
    for pair in times.windows(2) {
        assert_eq!(pair[1] - pair[0], 1, "then one block per message delay");
    }
    assert_consistency(&sim, n);
}

#[test]
fn idle_pacing_throttles_empty_blocks_without_stalling() {
    let n = 4;
    // Message delay 1, pace 10: an idle paced chain advances roughly
    // one slot per pause instead of one per delay.
    let mut sim = SimBuilder::new(n)
        .build(|id| MultiShotNode::new(cfg(4), Params::new(100).with_idle_pacing(10), id));
    sim.run_until(Time(300));
    let chain = chain_of(&sim, NodeId(0));
    assert!(!chain.is_empty(), "a paced chain still finalizes");
    assert!(
        chain.len() <= 60,
        "pacing must throttle the idle chain, got {} slots in 300 delays",
        chain.len()
    );
    assert_consistency(&sim, n);
}

#[test]
fn crashed_slot_leader_recovers_via_view_change() {
    // Node 3 is silent; it leads slots 3, 7, 11, … (view 0). The chain
    // must stall there, view-change, and continue.
    let n = 4;
    let mut sim = SimBuilder::new(n).build_boxed(|id| {
        if id == NodeId(3) {
            Box::new(tetrabft_sim::SilentNode::new())
        } else {
            Box::new(MultiShotNode::new(cfg(4), Params::new(5), id))
        }
    });
    sim.run_until(Time(400));
    let chain = chain_of(&sim, NodeId(0));
    assert!(
        chain.iter().any(|(s, _)| s.0 >= 4),
        "chain must pass the dead leader's slot, got up to {:?}",
        chain.last()
    );
    assert_consistency(&sim, n);
}

#[test]
fn jittered_network_keeps_chains_consistent() {
    for seed in 0..5 {
        let n = 4;
        let mut sim = SimBuilder::new(n)
            .seed(seed)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(5)))
            .build(|id| MultiShotNode::new(cfg(4), Params::new(30), id));
        sim.run_until(Time(600));
        assert_consistency(&sim, n);
        assert!(
            !chain_of(&sim, NodeId(0)).is_empty(),
            "some blocks must finalize under jitter (seed {seed})"
        );
    }
}

#[test]
fn submitted_transaction_reaches_the_chain() {
    let n = 4;
    let tx = b"pay alice 5".to_vec();
    let tx2 = tx.clone();
    let mut sim = SimBuilder::new(n).build(move |id| {
        let mut node = MultiShotNode::new(cfg(4), Params::new(100), id);
        node.submit_tx(tx2.clone()).unwrap();
        node
    });
    sim.run_until(Time(40));
    let included = sim
        .outputs()
        .iter()
        .filter(|o| o.node == NodeId(0))
        .any(|o| o.output.block.txs.iter().any(|t| t == &tx));
    assert!(included, "submitted tx must be included in the finalized chain");
}

#[test]
fn degenerate_and_overflow_submissions_are_refused() {
    use crate::mempool::SubmitError;
    const MAX: usize = Params::DEFAULT_MAX_TX_BYTES;
    let params = Params::new(100).with_mempool_capacity(2);
    let mut node = MultiShotNode::new(cfg(4), params, NodeId(0));
    assert_eq!(node.submit_tx(vec![]), Err(SubmitError::Empty));
    assert_eq!(
        node.submit_tx(vec![0; MAX + 1]),
        Err(SubmitError::TooLarge { size: MAX + 1, max: MAX })
    );
    node.submit_tx(b"a".to_vec()).unwrap();
    assert_eq!(node.submit_tx(b"a".to_vec()), Err(SubmitError::Duplicate));
    node.submit_tx(b"b".to_vec()).unwrap();
    assert_eq!(node.submit_tx(b"c".to_vec()), Err(SubmitError::Full { capacity: 2 }));
    assert_eq!(node.mempool_len(), 2);
}

#[test]
fn a_transaction_of_the_cap_is_admitted_and_one_byte_longer_refused() {
    use crate::mempool::SubmitError;
    const MAX: usize = Params::DEFAULT_MAX_TX_BYTES;
    let mut node = MultiShotNode::new(cfg(4), Params::new(100), NodeId(0));
    node.submit_tx(vec![1; MAX]).unwrap();
    assert_eq!(
        node.submit_tx(vec![2; MAX + 1]),
        Err(SubmitError::TooLarge { size: MAX + 1, max: MAX })
    );
    assert_eq!(node.mempool_len(), 1);
}

#[test]
fn leader_batches_respect_max_block_txs() {
    let n = 4;
    let params = Params::new(100).with_max_block_txs(3);
    let mut sim = SimBuilder::new(n).build(move |id| {
        let mut node = MultiShotNode::new(cfg(4), params, id);
        for k in 0..20u8 {
            node.submit_tx(vec![id.0 as u8 + 1, k + 1]).unwrap();
        }
        node
    });
    sim.run_until(Time(40));
    let blocks: Vec<&Block> =
        sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| &o.output.block).collect();
    assert!(blocks.len() > 8);
    assert!(blocks.iter().all(|b| b.txs.len() <= 3), "no block may exceed max_block_txs");
    assert!(blocks.iter().any(|b| b.txs.len() == 3), "leaders fill blocks to the cap");
}

/// Runs `node` on one input by hand; returns the messages it sent.
fn sent(node: &mut MultiShotNode, input: Input<MsMessage>) -> Vec<MsMessage> {
    let mut actions = tetrabft_sim::ActionBuf::new();
    let (me, n) = (node.chain.me, node.chain.cfg.n());
    node.handle(input, &mut Context::buffered(me, n, Time(0), &mut actions));
    actions
        .into_iter()
        .filter_map(|action| match action {
            tetrabft_sim::Action::Send { msg, .. } => Some(msg),
            _ => None,
        })
        .collect()
}

/// Runs `node` on one input by hand; returns how many payloads it digested
/// doing so (each [`Block::hash`] digests each of its transactions once),
/// and the messages it sent.
fn hashed(node: &mut MultiShotNode, input: Input<MsMessage>) -> (u64, Vec<MsMessage>) {
    let count = || crate::txn::HASHES.with(std::cell::Cell::get);
    let before = count();
    let out = sent(node, input);
    (count() - before, out)
}

#[test]
fn a_block_is_hashed_once_by_its_leader_and_once_by_each_follower() {
    // Node 1 leads slot 1 in view 0, with a batch of its own to carry:
    // the batch is owed to the block's hash from the moment it is minted.
    let leader = NodeId(1);
    let mut node = MultiShotNode::new(cfg(4), Params::new(100), leader);
    node.submit_tx(b"own".to_vec()).unwrap();
    sent(&mut node, Input::Start);
    let (minted, out) = hashed(&mut node, Input::Timer { id: PACE_TIMER });
    let [proposal @ MsMessage::Proposal { block, .. }] = &out[..] else { panic!("{out:?}") };
    assert_eq!(*block.txs, [b"own".to_vec()]);
    let vote = MsMessage::Vote { slot: Slot(1), view: View::ZERO, hash: block.hash() };
    // Loopback brings the proposal back to its leader, who votes for it.
    let (looped, out) = hashed(&mut node, Input::Deliver { from: leader, msg: proposal.clone() });
    assert!(out.contains(&vote), "{out:?}");
    assert_eq!((minted, looped), (1, 0), "mint, propose and loopback share one digest");

    let mut follower = MultiShotNode::new(cfg(4), Params::new(100), NodeId(2));
    sent(&mut follower, Input::Start);
    let (received, out) =
        hashed(&mut follower, Input::Deliver { from: leader, msg: proposal.clone() });
    assert!(out.contains(&vote), "{out:?}");
    assert_eq!(received, 1, "a follower hashes the block it receives once");
}

#[test]
fn fresh_verdict_re_proposes_a_notarized_block_and_spares_the_mempool() {
    let peers = [NodeId(0), NodeId(1), NodeId(3)];
    for notarized in [true, false] {
        // Node 2 leads slot 1 in view 1 (and slot 2 in view 0).
        let mut node = MultiShotNode::new(cfg(4), Params::new(100), NodeId(2));
        sent(&mut node, Input::Start);
        let theirs = Block::new(Slot(1), GENESIS_HASH, vec![b"theirs".to_vec()]);
        let msg = MsMessage::Proposal { view: View::ZERO, block: theirs.clone() };
        sent(&mut node, Input::Deliver { from: NodeId(1), msg });
        let ours = sent(&mut node, Input::Timer { id: PACE_TIMER });
        assert!(matches!(&ours[..], [MsMessage::Proposal { block, .. }] if block.slot == Slot(2)));
        // Our slot-2 proposal is out: what we admit now stays queued.
        node.submit_tx(b"ours".to_vec()).unwrap();
        if notarized {
            for from in peers {
                let msg = MsMessage::Vote { slot: Slot(1), view: View::ZERO, hash: theirs.hash() };
                sent(&mut node, Input::Deliver { from, msg });
            }
        }
        for from in peers {
            let msg = MsMessage::ViewChange { slot: Slot(1), view: View(1) };
            sent(&mut node, Input::Deliver { from, msg });
        }
        // No peer ever cast a vote-3 for slot 1: Rule 1 says FRESH.
        let mut proposals = Vec::new();
        for from in peers {
            let msg =
                MsMessage::Suggest { slot: Slot(1), view: View(1), data: SuggestData::default() };
            proposals.extend(sent(&mut node, Input::Deliver { from, msg }).into_iter().filter_map(
                |msg| match msg {
                    MsMessage::Proposal { view, block } => Some((view, block)),
                    _ => None,
                },
            ));
        }
        assert_eq!(proposals.len(), 1, "one proposal for (slot 1, view 1)");
        let (view, block) = &proposals[0];
        assert_eq!((*view, block.slot), (View(1), Slot(1)));
        if notarized {
            assert_eq!(block.hash(), theirs.hash(), "the notarized block is re-proposed");
            assert_eq!(node.mempool_len(), 1, "and no batch is drained into a doomed rival");
        } else {
            assert_eq!(*block.txs, vec![b"ours".to_vec()], "nothing notarized: a fresh block");
            assert_eq!(node.mempool_len(), 0);
        }
    }
}

fn relay(slot: u64, txs: &[&[u8]]) -> MsMessage {
    let txs = Arc::new(txs.iter().map(|tx| tx.to_vec()).collect());
    MsMessage::Relay { slot: Slot(slot), txs }
}

#[test]
fn what_is_lent_is_owed_and_nothing_drains_past_a_loan_in_doubt() {
    // Node 0 leads slots 4 and 8. It holds three transactions as it
    // votes for slot 1: nodes 2 and 3 lead the next two slots, so the
    // queue (two to a block) goes to node 3, ahead of the vote.
    let params = Params::new(100).with_max_block_txs(2);
    let mut node = MultiShotNode::new(cfg(4), params, NodeId(0));
    sent(&mut node, Input::Start);
    for tx in [b"a", b"b", b"c"] {
        node.submit_tx(tx.to_vec()).unwrap();
    }
    let b1 = Block::new(Slot(1), GENESIS_HASH, Vec::new());
    let propose = |block: &Block| MsMessage::Proposal { view: View::ZERO, block: block.clone() };
    let out = sent(&mut node, Input::Deliver { from: NodeId(1), msg: propose(&b1) });
    let vote = MsMessage::Vote { slot: Slot(1), view: View::ZERO, hash: b1.hash() };
    assert_eq!(out, [relay(3, &[b"a", b"b"]), vote], "the loan, then the vote");
    assert_eq!(queue_of(&node), [b"c"]);
    assert_eq!(node.handoff.owed[&Slot(3)].carried, None, "in doubt until slot 3 is proposed");

    // Slot 2: the earlier loan is in doubt, so nothing more is lent.
    let notarize = |node: &mut MultiShotNode, block: &Block| {
        for from in [NodeId(1), NodeId(2), NodeId(3)] {
            let msg = MsMessage::Vote { slot: block.slot, view: View::ZERO, hash: block.hash() };
            sent(node, Input::Deliver { from, msg });
        }
    };
    notarize(&mut node, &b1);
    let b2 = Block::new(Slot(2), b1.hash(), Vec::new());
    let out = sent(&mut node, Input::Deliver { from: NodeId(2), msg: propose(&b2) });
    assert!(matches!(&out[..], [MsMessage::Vote { slot: Slot(2), .. }]), "{out:?}");
    assert_eq!(queue_of(&node), [b"c"]);

    // The borrower's block carries half the loan: that half stays owed
    // by slot 3, the other is back at the head of the queue at once.
    let b3 = Block::new(Slot(3), b2.hash(), vec![b"theirs".to_vec(), b"b".to_vec()]);
    sent(&mut node, Input::Deliver { from: NodeId(3), msg: propose(&b3) });
    assert_eq!(queue_of(&node), [b"a", b"c"]);
    let owed = &node.handoff.owed[&Slot(3)];
    assert_eq!((&owed.txs[..], owed.carried), (&[b"b".to_vec()][..], Some(b3.hash())));

    // Nothing is in doubt and slot 3's block is on the chain slot 4
    // extends: this node's own block drains the queue again.
    notarize(&mut node, &b2);
    let ours = sent(&mut node, Input::Timer { id: PACE_TIMER });
    let [MsMessage::Proposal { block, .. }] = &ours[..] else { panic!("{ours:?}") };
    assert_eq!((block.slot, block.parent), (Slot(4), b3.hash()));
    assert_eq!(*block.txs, [b"a".to_vec(), b"c".to_vec()]);
    // On any other chain the batch owed by slot 3 is not known carried,
    // and a block of this node's would carry nothing of its own.
    node.submit_tx(b"d".to_vec()).unwrap();
    let rival = node.chain.store.insert(Block::new(Slot(7), BlockHash(9), Vec::new()));
    assert!(node.build_block(Slot(8), rival).0.txs.is_empty());
    assert_eq!(queue_of(&node), [b"d"]);
}

#[test]
fn a_borrower_trusts_nothing_and_keeps_nothing() {
    // Node 2 leads slots 2, 6 and 10; the window is slots 1..=8.
    let params = Params::new(100).with_max_block_txs(4);
    let too_long = vec![b't'; Params::DEFAULT_MAX_TX_BYTES + 1];
    let mut node = MultiShotNode::new(cfg(4), params, NodeId(2));
    sent(&mut node, Input::Start);
    let offer = |node: &mut MultiShotNode, from: u16, msg: MsMessage| {
        let (digests, _) = hashed(node, Input::Deliver { from: NodeId(from), msg });
        assert_eq!(digests, 0, "a loan is vetted by its bytes, never digested");
        node.handoff.borrowed.values().flatten().map(|loan| loan.txs.len()).sum::<usize>()
    };
    assert_eq!(offer(&mut node, 2, relay(6, &[b"me"])), 0, "not from itself");
    assert_eq!(offer(&mut node, 0, relay(5, &[b"x"])), 0, "not for a slot it does not lead");
    assert_eq!(offer(&mut node, 0, relay(10, &[b"x"])), 0, "not beyond the window");
    assert_eq!(offer(&mut node, 0, relay(0, &[b"x"])), 0, "not for a finalized slot");
    // Each payload passes the checks a submission passes, or is left out.
    assert_eq!(offer(&mut node, 0, relay(6, &[b"a", b"", &too_long, b"b"])), 2);
    // One block's worth per slot, whoever lends.
    assert_eq!(offer(&mut node, 1, relay(6, &[b"c", b"d", b"e"])), 4);
    assert_eq!(offer(&mut node, 3, relay(6, &[b"f"])), 4);

    // The chain below slot 6, and who voted for what at slot 4: node 0
    // for the block slot 6 will have there, node 1 for a rival.
    let mut parent = GENESIS_HASH;
    let mut chain = Vec::new();
    for slot in 1..=5 {
        parent = node.chain.store.insert(Block::new(Slot(slot), parent, Vec::new()));
        chain.push(parent);
    }
    let mut at_4 = SlotState::new(&cfg(4));
    let vote = |hash: BlockHash| CoreMessage::Vote {
        phase: Phase::VOTE1,
        view: View::ZERO,
        value: hash.as_value(),
    };
    at_4.regs.record(NodeId(0), &vote(chain[3]));
    at_4.regs.record(NodeId(1), &vote(BlockHash(77)));
    node.chain.slots.insert(Slot(4), at_4);
    node.submit_tx(b"mine".to_vec()).unwrap();
    let (block, _) = node.build_block(Slot(6), chain[4]);
    assert_eq!(
        *block.txs,
        [b"mine".to_vec(), b"a".to_vec(), b"b".to_vec()],
        "own first, then the loan whose lender voted for this chain"
    );
    assert!(node.handoff.borrowed.is_empty(), "what did not make the block is not kept");

    // A slot that is proposed, or has left view 0, borrows no more.
    let mut done = SlotState::new(&cfg(4));
    done.proposed = true;
    node.chain.slots.insert(Slot(2), done);
    assert_eq!(offer(&mut node, 0, relay(2, &[b"x"])), 0);
    let mut moved = SlotState::new(&cfg(4));
    moved.view = View(1);
    node.chain.slots.insert(Slot(6), moved);
    assert_eq!(offer(&mut node, 0, relay(6, &[b"x"])), 0);
}

#[test]
fn proposal_at_the_window_edge_starts_the_next_slot_once_the_window_moves() {
    // Node 1 leads slot 9. The chain runs ahead of its finalizations:
    // it sees the proposal for slot 8 = finalized + SLOT_WINDOW before
    // the votes that finalize slot 1.
    let mut node = MultiShotNode::new(cfg(4), Params::new(100), NodeId(1));
    sent(&mut node, Input::Start);
    let mut parent = GENESIS_HASH;
    for slot in 1..=4u64 {
        let block = Block::new(Slot(slot), parent, Vec::new());
        parent = block.hash();
        let from = MultiShotNode::leader_of(&cfg(4), Slot(slot), View::ZERO);
        let msg = MsMessage::Proposal { view: View::ZERO, block };
        sent(&mut node, Input::Deliver { from, msg });
    }
    let edge = Block::new(Slot(SLOT_WINDOW), BlockHash(7), Vec::new());
    let msg = MsMessage::Proposal { view: View::ZERO, block: edge };
    sent(&mut node, Input::Deliver { from: NodeId(0), msg });
    assert!(!node.chain.slots.contains_key(&Slot(9)), "slot 9 is beyond the window");
    for from in [NodeId(0), NodeId(2), NodeId(3)] {
        let msg = MsMessage::Vote { slot: Slot(4), view: View::ZERO, hash: parent };
        sent(&mut node, Input::Deliver { from, msg });
    }
    assert_eq!(node.finalized_slot(), Slot(1));
    assert!(node.chain.slots.contains_key(&Slot(9)), "the window moved: slot 9 must start");
}

fn journal_dir(tag: &str) -> std::path::PathBuf {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let case = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("tetrabft-journal-{}-{tag}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn queue_of(node: &MultiShotNode) -> Vec<Vec<u8>> {
    node.handoff.mempool.iter().map(<[u8]>::to_vec).collect()
}

#[test]
fn restart_re_bases_the_journal_on_what_the_mempool_took_back() {
    let dir = journal_dir("rebase");
    let params = Params::new(100)
        .with_mempool_capacity(4)
        .with_max_block_txs(3)
        .with_fsync(tetrabft_types::FsyncPolicy::Never);
    let open = || MultiShotNode::durable(cfg(4), params, NodeId(0), &dir).unwrap();
    let mut node = open();
    for k in 1..=4u8 {
        node.submit_tx(vec![k]).unwrap();
    }
    let (lost, _) = node.build_block(Slot(1), GENESIS_HASH);
    assert_eq!(lost.txs.len(), 3);
    for k in 5..=7u8 {
        node.submit_tx(vec![k]).unwrap();
    }
    // The slot commits another block: the batch comes back, and may
    // overshoot the capacity; a restart may not.
    let won = node.chain.store.insert(Block::new(Slot(1), GENESIS_HASH, Vec::new()));
    node.handoff.settle(Slot(1), &node.chain.store, won, true);
    assert_eq!(node.mempool_len(), 7);
    node.persist();
    drop(node);
    let mut node = open();
    assert_eq!(queue_of(&node), [[1], [2], [3], [4]], "the first `capacity` survive");
    // Drain counts now mean the same on disk as in memory.
    node.build_block(Slot(1), GENESIS_HASH);
    node.persist();
    drop(node);
    assert_eq!(queue_of(&open()), [[4]]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[derive(Debug, Clone)]
enum QueueOp {
    Submit(usize),
    Build,
    Lose(usize),
    Seal,
    Reopen,
}

fn queue_ops() -> impl proptest::prelude::Strategy<Value = Vec<QueueOp>> {
    use proptest::prelude::*;
    proptest::collection::vec(
        prop_oneof![
            (1usize..6).prop_map(QueueOp::Submit),
            (1usize..6).prop_map(QueueOp::Submit),
            Just(QueueOp::Build),
            Just(QueueOp::Build),
            (0usize..4).prop_map(QueueOp::Lose),
            Just(QueueOp::Seal),
            Just(QueueOp::Seal),
            Just(QueueOp::Reopen),
        ],
        1..60,
    )
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

    /// Whatever mix of admissions, block builds and lost blocks the
    /// seals fall between, a restart finds the queue exactly as the
    /// last seal left it — in admission order, however many batches
    /// were out at once and in whatever order they came back.
    #[test]
    fn journal_restores_the_queue_as_of_the_last_seal(ops in queue_ops()) {
        use proptest::prelude::*;
        let dir = journal_dir("model");
        let params = Params::new(100)
            .with_max_block_txs(4)
            .with_fsync(tetrabft_types::FsyncPolicy::Never);
        let open = || MultiShotNode::durable(cfg(4), params, NodeId(0), &dir).unwrap();
        let mut node = open();
        // The model: the queue is the admitted numbers not in a block,
        // ascending; beside it the blocks that hold a batch, and a copy
        // of the queue as of the last seal.
        let mut model: BTreeSet<u32> = BTreeSet::new();
        let mut out: Vec<Block> = Vec::new();
        let mut sealed = model.clone();
        let (mut next_tx, mut tip) = (0u32, (Slot(0), GENESIS_HASH));
        let number = |tx: &Vec<u8>| u32::from_be_bytes(tx[..].try_into().unwrap());
        for op in ops.into_iter().chain([QueueOp::Seal, QueueOp::Reopen]) {
            match op {
                QueueOp::Submit(count) => {
                    for _ in 0..count {
                        next_tx += 1;
                        node.submit_tx(next_tx.to_be_bytes().to_vec()).unwrap();
                        model.insert(next_tx);
                    }
                }
                QueueOp::Build => {
                    // Each block extends the last, so every batch still
                    // out is on the chain and the drain is allowed.
                    let (block, _) = node.build_block(tip.0.next(), tip.1);
                    let batch: Vec<u32> = model.iter().copied().take(4).collect();
                    prop_assert_eq!(block.txs.iter().map(number).collect::<Vec<_>>(), &batch[..]);
                    model.retain(|k| !batch.contains(k));
                    tip = (block.slot, node.chain.store.insert(block.clone()));
                    if !batch.is_empty() {
                        out.push(block);
                    }
                }
                QueueOp::Lose(pick) => {
                    // Any of the slots still out commits a rival block.
                    if !out.is_empty() {
                        let lost = out.remove(pick % out.len());
                        let rival = Block::new(lost.slot, BlockHash(7), Vec::new());
                        let rival = node.chain.store.insert(rival);
                        node.handoff.settle(lost.slot, &node.chain.store, rival, true);
                        model.extend(lost.txs.iter().map(number));
                    }
                }
                QueueOp::Seal => {
                    node.persist();
                    sealed = model.clone();
                }
                QueueOp::Reopen => {
                    drop(node);
                    node = open();
                    model = sealed.clone();
                    out.clear();
                }
            }
            let queue: Vec<u32> = queue_of(&node).iter().map(number).collect();
            prop_assert_eq!(queue, model.iter().copied().collect::<Vec<_>>());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn pre_gst_chaos_then_progress() {
    let n = 4;
    let pre_gst = PartitionWindow::from_group(0, 200, (0..4).map(NodeId)).lose(1.0);
    let mut sim = SimBuilder::new(n)
        .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(pre_gst))
        .build(|id| MultiShotNode::new(cfg(4), Params::new(10), id));
    sim.run_until(Time(1500));
    assert_consistency(&sim, n);
    let chain = chain_of(&sim, NodeId(0));
    assert!(!chain.is_empty(), "chain must grow after GST");
}

/// A fresh slot, as the core and the driver each hold it.
fn fresh(n: usize) -> (SlotState, SlotWatch) {
    let cfg = Config::new(n).unwrap();
    (SlotState::new(&cfg), SlotWatch::new(&cfg))
}

#[test]
fn fresh_instance_defaults() {
    let (st, watch) = fresh(4);
    assert_eq!(st.view, View::ZERO);
    assert!(!st.proposed && !st.saw_proposal && !watch.timer_expired);
    assert_eq!(st.notarized, None);
    assert_eq!(watch.requests.poll(st.view), Idle);
}

#[test]
fn support_is_monotone_per_peer() {
    let (_, mut watch) = fresh(4);
    watch.requests.record(NodeId(0), View(3));
    watch.requests.record(NodeId(0), View(1)); // lower request cannot regress the register
    assert_eq!(watch.requests.request(NodeId(0)), Some(View(3)));
    watch.requests.record(NodeId(0), View(5));
    assert_eq!(watch.requests.request(NodeId(0)), Some(View(5)));
}

#[test]
fn entered_view_is_the_kth_highest() {
    let (mut st, mut watch) = fresh(4);
    watch.requests.record(NodeId(0), View(5));
    watch.requests.record(NodeId(1), View(2));
    assert_eq!(watch.requests.poll(st.view), Echo(View(2)), "two supporters < quorum");
    watch.requests.record(NodeId(2), View(2));
    // Views sorted desc: [5, 2, 2] → the 3rd highest is 2: a quorum
    // supports view ≥ 2 (the view-5 request also covers view 2).
    assert_eq!(watch.requests.poll(st.view), Enter(View(2)));
    watch.requests.record(NodeId(3), View(7));
    assert_eq!(watch.requests.poll(st.view), Enter(View(2)));
    watch.requests.record(NodeId(1), View(6));
    // Now [7, 6, 5, 2] → quorum of 3 agrees on ≥ 5.
    assert_eq!(watch.requests.poll(st.view), Enter(View(5)));
    st.view = View(5);
    assert_eq!(watch.requests.poll(st.view), Echo(View(6)), "enter only above its view");
}

#[test]
fn a_lone_node_enters_the_view_it_asks_for() {
    let (st, mut watch) = fresh(1);
    watch.requests.record(NodeId(0), View(9));
    assert_eq!(watch.requests.poll(st.view), Enter(View(9)));
}

/// An honest node whose views chaos enters, through the safety core alone
/// — the two things the liveness driver may do to it, at moments no driver
/// would choose. Every [`CHAOS_EPOCH`] ms, drawn from the seed alone and so
/// the same at every node, a slot of the window is told to enter a view
/// (the epoch's number), at each node's next input; and before any input
/// a node may, on its own, enter a higher view at a random live slot or
/// open a random slot of the window.
struct Chaos {
    node: MultiShotNode,
    seed: u64,
    epoch: u64,
    rng: rand::rngs::StdRng,
}

/// Ms between two views every node is told to enter.
const CHAOS_EPOCH: u64 = 100;

/// One input in this many is preceded by a view a node enters on its own,
/// and one by a slot it opens.
const CHAOS_ODDS: u32 = 64;

impl Chaos {
    fn enter(&mut self, slot: Slot, view: View, ctx: &mut Ctx<'_>) {
        if let Some((suggest, proof)) = self.node.chain.enter(slot, view) {
            ctx.send(self.node.chain.leader(slot, view), suggest);
            ctx.broadcast(proof);
        }
    }
}

impl Node for Chaos {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Ctx<'_>) {
        use rand::{Rng, SeedableRng};
        while self.epoch < ctx.now().0 / CHAOS_EPOCH {
            self.epoch += 1;
            let mut shared = rand::rngs::StdRng::seed_from_u64(self.seed ^ self.epoch);
            let slot = Slot(self.node.chain.finalized.0 + shared.random_range(1..=4u64));
            self.enter(slot, View(self.epoch), ctx);
        }
        let live: Vec<Slot> = self.node.chain.live_slots().collect();
        match self.rng.random_range(0..CHAOS_ODDS) {
            0 if !live.is_empty() => {
                let slot = live[self.rng.random_range(0..live.len())];
                let view = self.node.chain.slots[&slot].view.0 + self.rng.random_range(1..=3u64);
                self.enter(slot, View(view), ctx);
            }
            1 => {
                let ahead = self.rng.random_range(1..=SLOT_WINDOW);
                self.node.chain.open(Slot(self.node.chain.finalized.0 + ahead));
            }
            _ => {}
        }
        self.node.handle(input, ctx);
    }
}

proptest::proptest! {
    #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

    /// Safety cannot read a timer: the paper's proof says any schedule of
    /// entered views is safe, so whatever views chaos enters and whenever —
    /// seven nodes, one of them silent, on 1–5 ms links that jitter by
    /// 10–80 ms, lose up to 2 % of frames and cut one node off for a while —
    /// the honest chains agree. A safety core that finalized a block on
    /// its notarization alone fails this within 64 cases.
    #[test]
    fn chains_agree_whatever_views_are_entered(
        (seed, delay, jitter, loss) in (proptest::prelude::any::<u64>(), 1u64..=5, 10u64..=80, 0u32..=20_000),
        (silent, isolated, cut, heal) in (0u16..7, 0u16..7, 0u64..1_000, 1u64..300),
    ) {
        use rand::SeedableRng;
        use tetrabft_sim::SilentNode;
        let edge = EdgeSpec::delay(delay).with_jitter(jitter).with_drop(f64::from(loss) / 1e6);
        let split = PartitionWindow::isolate(cut, cut + heal, [NodeId(isolated)]);
        let plan = LinkPlan::uniform(edge).partition(split);
        let mut sim = SimBuilder::new(7).seed(seed).plan(&plan).build_boxed(|id| {
            if id == NodeId(silent) {
                return Box::new(SilentNode::new());
            }
            // Each node queues transactions of its own, so that two leaders
            // of one slot propose two different blocks.
            let mut node = MultiShotNode::new(cfg(7), Params::new(10).with_max_block_txs(2), id);
            for k in 0..200u32 {
                node.submit_tx([u32::from(id.0).to_be_bytes(), k.to_be_bytes()].concat()).unwrap();
            }
            let rng = rand::rngs::StdRng::seed_from_u64(seed ^ (u64::from(id.0) << 32));
            Box::new(Chaos { node, seed, epoch: 0, rng })
        });
        sim.run_until(Time(2_000));
        proptest::prop_assert_eq!(disagreement(&sim, 7), None);
    }
}
