//! The Basic TetraBFT node state machine (Section 3.2).

use tetrabft_engine::{Context, Input, Node, TimerId};
use tetrabft_types::{Config, NodeId, Phase, Value, View, VoteBook};

use crate::msg::Message;
use crate::params::Params;
use crate::records::{Registers, ViewChanges, ViewVerdict};
use crate::rules::{leader_determine_safe, node_determine_safe};

/// The single protocol timer: the per-view timeout of `9Δ`.
const VIEW_TIMER: TimerId = TimerId(0);

/// A well-behaved Basic TetraBFT node.
///
/// The node is a deterministic state machine ([`tetrabft_engine::Node`]); its
/// complete persistent state is the [`VoteBook`] (six registers — the
/// constant-storage claim of Table 1), and its volatile state is the
/// per-peer [`Registers`] and [`ViewChanges`] snapshot (O(1) per peer).
///
/// A node emits its decided [`Value`] exactly once as its output, then keeps
/// participating so that slower nodes can still decide (its vote book makes
/// every future vote safe, so it simply keeps confirming the decided value
/// in later views).
///
/// # Examples
///
/// See the crate-level example for the 5-message-delay good case.
#[derive(Debug, Clone)]
pub struct TetraNode {
    cfg: Config,
    params: Params,
    me: NodeId,
    input: Value,
    view: View,
    book: VoteBook,
    regs: Registers,
    vc: ViewChanges,
    /// Leader flag: already proposed in the current view.
    proposed: bool,
    decided: Option<Value>,
    /// Reusable scratch for view-change suggest collection: filled by
    /// `Registers::suggests_into` each re-evaluation, so collecting
    /// allocates at most once (capacity is retained across steps).
    scratch_suggests: Vec<crate::msg::SuggestData>,
    /// Reusable scratch for proof collection, same pattern.
    scratch_proofs: Vec<crate::msg::ProofData>,
}

impl TetraNode {
    /// Creates a node with the given identity and input (initial) value.
    pub fn new(cfg: Config, params: Params, me: NodeId, input: Value) -> Self {
        TetraNode {
            cfg,
            params,
            me,
            input,
            view: View::ZERO,
            book: VoteBook::new(),
            regs: Registers::new(&cfg),
            vc: ViewChanges::new(&cfg),
            proposed: false,
            decided: None,
            scratch_suggests: Vec::new(),
            scratch_proofs: Vec::new(),
        }
    }

    /// Bytes of persistent storage — constant, per the Table 1 claim.
    pub fn persistent_bytes(&self) -> usize {
        // Vote book + current view + highest view-change sent + decided.
        self.book.persistent_bytes() + 8 + 9 + 9
    }

    fn leader(&self, view: View) -> NodeId {
        self.cfg.leader_of(view)
    }

    fn enter_view(&mut self, view: View, ctx: &mut Context<'_, Message, Value>) {
        debug_assert!(view > self.view || (view.is_zero() && self.view.is_zero()));
        self.view = view;
        self.proposed = false;
        ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
        if !view.is_zero() {
            // Step 1 of a view: broadcast a proof, send a suggest to the
            // leader (which may be this node; loopback handles that).
            let (vote1, prev_vote1, vote4) = self.book.proof_fields();
            ctx.broadcast(Message::Proof {
                view,
                data: crate::msg::ProofData { vote1, prev_vote1, vote4 },
            });
            let (vote2, prev_vote2, vote3) = self.book.suggest_fields();
            ctx.send(
                self.leader(view),
                Message::Suggest {
                    view,
                    data: crate::msg::SuggestData { vote2, prev_vote2, vote3 },
                },
            );
        }
    }

    /// Runs every enabled protocol step to fixpoint. Each step is guarded by
    /// a monotone flag (voted / proposed / view number / decided), so the
    /// loop terminates.
    fn drive(&mut self, ctx: &mut Context<'_, Message, Value>) {
        loop {
            let mut dirty = false;
            dirty |= self.step_view_change(ctx);
            dirty |= self.step_lead(ctx);
            dirty |= self.step_vote1(ctx);
            dirty |= self.step_vote_chain(ctx);
            dirty |= self.step_decide(ctx);
            if !dirty {
                break;
            }
        }
    }

    /// View change: enter on `n − f` support, echo on `f + 1`.
    fn step_view_change(&mut self, ctx: &mut Context<'_, Message, Value>) -> bool {
        match self.vc.poll(self.view) {
            ViewVerdict::Enter(view) => self.enter_view(view, ctx),
            ViewVerdict::Echo(view) => {
                self.vc.sent = Some(view);
                ctx.broadcast(Message::ViewChange { view });
            }
            ViewVerdict::Idle => return false,
        }
        true
    }

    /// Step 2: the leader proposes once a safe value is certified (Rule 1).
    fn step_lead(&mut self, ctx: &mut Context<'_, Message, Value>) -> bool {
        if self.proposed || self.leader(self.view) != self.me {
            return false;
        }
        // View 0 needs no suggests — pass an empty slice instead of
        // materializing a `Vec`; later views fill the retained scratch
        // buffer in place.
        let value = if self.view.is_zero() {
            leader_determine_safe(&self.cfg, &[], self.view, self.input)
        } else {
            self.regs.suggests_into(self.view, &mut self.scratch_suggests);
            leader_determine_safe(&self.cfg, &self.scratch_suggests, self.view, self.input)
        };
        let Some(value) = value else {
            return false;
        };
        self.proposed = true;
        ctx.broadcast(Message::Proposal { view: self.view, value });
        true
    }

    /// Step 3: vote-1 for a proposal certified safe by Rule 3.
    fn step_vote1(&mut self, ctx: &mut Context<'_, Message, Value>) -> bool {
        if self.book.has_voted_at_or_after(Phase::VOTE1, self.view) {
            return false;
        }
        let Some(value) = self.regs.proposal_of(self.leader(self.view), self.view) else {
            return false;
        };
        let safe = if self.view.is_zero() {
            true
        } else {
            self.regs.proofs_into(self.view, &mut self.scratch_proofs);
            node_determine_safe(&self.cfg, &self.scratch_proofs, self.view, value)
        };
        if !safe {
            return false;
        }
        self.cast(Phase::VOTE1, value, ctx);
        true
    }

    /// Steps 4–6: each vote phase follows a quorum of the previous phase.
    fn step_vote_chain(&mut self, ctx: &mut Context<'_, Message, Value>) -> bool {
        let mut dirty = false;
        for phase in [Phase::VOTE2, Phase::VOTE3, Phase::VOTE4] {
            if self.book.has_voted_at_or_after(phase, self.view) {
                continue;
            }
            let prev = phase.prev().expect("vote-2..4 always have a predecessor");
            let Some(value) = self.quorum_at_current_view(prev) else {
                continue;
            };
            self.cast(phase, value, ctx);
            dirty = true;
        }
        dirty
    }

    /// Step 7: decide on a quorum of vote-4.
    fn step_decide(&mut self, ctx: &mut Context<'_, Message, Value>) -> bool {
        if self.decided.is_some() {
            return false;
        }
        let Some(value) = self.quorum_at_current_view(Phase::VOTE4) else {
            return false;
        };
        self.decided = Some(value);
        ctx.output(value);
        true
    }

    /// The value holding a quorum of latest `phase` votes at the current
    /// view, if any: an allocation-free count over the registers.
    fn quorum_at_current_view(&self, phase: Phase) -> Option<Value> {
        self.regs.votes().quorum_value(phase.index(), self.view)
    }

    fn cast(&mut self, phase: Phase, value: Value, ctx: &mut Context<'_, Message, Value>) {
        self.book.record(phase, self.view, value);
        ctx.broadcast(Message::Vote { phase, view: self.view, value });
    }
}

impl Node for TetraNode {
    type Msg = Message;
    type Output = Value;

    fn handle(&mut self, input: Input<Message>, ctx: &mut Context<'_, Message, Value>) {
        match input {
            Input::Start => {
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                // View 0 needs no suggest/proof phase; the leader proposes
                // its input immediately (all values are safe at view 0).
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                match msg {
                    Message::ViewChange { view } => self.vc.record(from, view),
                    msg => self.regs.record(from, &msg),
                }
                self.drive(ctx);
            }
            Input::Timer { id } if id == VIEW_TIMER => {
                ctx.broadcast(Message::ViewChange { view: self.vc.timeout(self.view) });
                // Re-arm: the view is still stuck, keep escalating/retransmitting.
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                self.drive(ctx);
            }
            Input::Timer { .. } | Input::PeerDown { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_sim::{EdgeSpec, LinkPlan, PartitionWindow, SimBuilder, Time};

    fn cfg(n: usize) -> Config {
        Config::new(n).unwrap()
    }

    fn honest_sim(n: usize, delta: u64) -> tetrabft_sim::Sim<Message, Value> {
        SimBuilder::new(n).build(move |id| {
            TetraNode::new(cfg(n), Params::new(delta), id, Value::from_u64(id.0 as u64 + 1))
        })
    }

    #[test]
    fn good_case_decides_in_five_message_delays() {
        // The headline result: proposal + 4 vote phases = 5 delays at view 0.
        for n in [4, 7, 10] {
            let mut sim = honest_sim(n, 100);
            assert!(sim.run_until_outputs(n, 1_000_000), "n={n} must decide");
            for o in sim.outputs() {
                assert_eq!(o.time, Time(5), "n={n}");
                assert_eq!(o.output, Value::from_u64(1), "leader 0's input wins");
            }
        }
    }

    #[test]
    fn agreement_all_nodes_same_value() {
        let mut sim = honest_sim(7, 50);
        assert!(sim.run_until_outputs(7, 1_000_000));
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
    }

    #[test]
    fn validity_unanimous_input_is_decided() {
        let n = 4;
        let mut sim = SimBuilder::new(n)
            .build(move |id| TetraNode::new(cfg(n), Params::new(100), id, Value::from_u64(42)));
        assert!(sim.run_until_outputs(n, 1_000_000));
        assert!(sim.outputs().iter().all(|o| o.output == Value::from_u64(42)));
    }

    #[test]
    fn single_node_decides_alone() {
        let mut sim = honest_sim(1, 10);
        assert!(sim.run_until_outputs(1, 10_000));
        assert_eq!(sim.outputs()[0].output, Value::from_u64(1));
    }

    #[test]
    fn crashed_leader_forces_view_change_then_decision() {
        let n = 4;
        let mut sim = SimBuilder::new(n).build_boxed(move |id| {
            if id == NodeId(0) {
                // Leader of view 0 is down.
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(TetraNode::new(
                    cfg(n),
                    Params::new(10),
                    id,
                    Value::from_u64(id.0 as u64 + 1),
                ))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000), "must decide in view 1");
        // Decision happens after the 9Δ timeout.
        assert!(sim.outputs()[0].time > Time(90));
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
        // View 1's leader is node 1, so its input (2) is the natural winner.
        assert_eq!(first, Value::from_u64(2));
    }

    #[test]
    fn crashed_follower_does_not_delay_good_case() {
        let n = 4;
        let mut sim = SimBuilder::new(n).build_boxed(move |id| {
            if id == NodeId(3) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(TetraNode::new(cfg(n), Params::new(100), id, Value::from_u64(7)))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000));
        assert!(sim.outputs().iter().all(|o| o.time == Time(5)));
    }

    #[test]
    fn pre_gst_loss_is_survived() {
        // Messages are lost until GST=500; with Δ=10 and δ=1 the system
        // recovers via view changes and decides shortly after GST.
        let n = 4;
        let pre_gst = PartitionWindow::from_group(0, 500, (0..n as u16).map(NodeId)).lose(1.0);
        let mut sim = SimBuilder::new(n)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(pre_gst))
            .build(move |id| {
                TetraNode::new(cfg(n), Params::new(10), id, Value::from_u64(id.0 as u64))
            });
        assert!(sim.run_until_outputs(n, 5_000_000), "must decide after GST");
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
        assert!(sim.outputs()[0].time > Time(500));
    }

    #[test]
    fn jittered_network_preserves_agreement() {
        for seed in 0..10 {
            let n = 4;
            let mut sim = SimBuilder::new(n)
                .seed(seed)
                .plan(&LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(8)))
                .build(move |id| {
                    TetraNode::new(cfg(n), Params::new(20), id, Value::from_u64(id.0 as u64))
                });
            assert!(sim.run_until_outputs(n, 5_000_000), "seed {seed}");
            let first = sim.outputs()[0].output;
            assert!(
                sim.outputs().iter().all(|o| o.output == first),
                "agreement violated at seed {seed}"
            );
        }
    }

    #[test]
    fn persistent_storage_is_constant() {
        let node = TetraNode::new(cfg(4), Params::new(10), NodeId(0), Value::from_u64(0));
        let before = node.persistent_bytes();
        let pre_gst = PartitionWindow::from_group(0, 300, (0..4).map(NodeId)).lose(1.0);
        let mut sim = SimBuilder::new(4)
            .plan(&LinkPlan::uniform(EdgeSpec::delay(1)).partition(pre_gst))
            .build(move |id| {
                TetraNode::new(cfg(4), Params::new(10), id, Value::from_u64(id.0 as u64))
            });
        sim.run_until_outputs(4, 5_000_000);
        // Storage never grew despite many views having executed.
        // (Checked structurally: persistent_bytes is view-independent.)
        let after = TetraNode::new(cfg(4), Params::new(10), NodeId(0), Value::from_u64(0))
            .persistent_bytes();
        assert_eq!(before, after);
    }

    #[test]
    fn communication_is_linear_per_node_in_good_case() {
        // Per node and per view, TetraBFT sends O(n) constant-size messages.
        let bytes_for = |n: usize| {
            let mut sim = honest_sim(n, 100);
            sim.run_until_outputs(n, 10_000_000);
            sim.metrics().max_node_bytes_sent() as f64
        };
        let b10 = bytes_for(10);
        let b40 = bytes_for(40);
        let ratio = b40 / b10;
        assert!(ratio < 8.0, "4x nodes must cost ~4x bytes per node (linear), got ratio {ratio}");
    }
}
