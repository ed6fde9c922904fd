//! Sequentially repeated single-shot TetraBFT — the non-pipelined baseline
//! the paper compares Multi-shot TetraBFT against: "pipelined TetraBFT …
//! achieves a maximal throughput of 5 times the throughput that would be
//! achieved by simply repeating instances of single-shot TetraBFT"
//! (Section 1). Experiment E7 measures exactly that ratio.
//!
//! Each consensus instance is a fresh [`tetrabft::TetraNode`]; instance `i+1`
//! starts only after instance `i` decides locally. Messages are tagged with
//! their instance number; one future-instance message per peer is buffered
//! (a faster peer's traffic must not be lost on the instance boundary).

use tetrabft::{Message as CoreMessage, Params, TetraNode};
use tetrabft_engine::{Action, ActionBuf, Context, Dest, Input, Node, WireSize};
use tetrabft_types::{Config, NodeId, Value};
use tetrabft_wire::Wire;

/// A single-shot TetraBFT message tagged with its instance number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeqMsg {
    /// Consensus instance the message belongs to.
    pub instance: u64,
    /// The wrapped single-shot message.
    pub inner: CoreMessage,
}

impl WireSize for SeqMsg {
    fn wire_size(&self) -> usize {
        crate::encoded_len(|w| {
            w.put_u64(self.instance);
            self.inner.encode(w);
        })
    }
}

/// A node running single-shot TetraBFT instances back to back.
///
/// Outputs `(instance, value)` pairs. Intended for good-case throughput
/// comparisons (E7); it assumes the post-GST regime for progress across
/// instance boundaries.
#[derive(Debug)]
pub struct RepeatedTetra {
    cfg: Config,
    params: Params,
    me: NodeId,
    instance: u64,
    node: TetraNode,
    /// One buffered future-instance message per peer.
    pending: Vec<Option<SeqMsg>>,
    /// The inner node's effects, drained after every `forward`.
    buf: ActionBuf<CoreMessage, Value>,
}

impl RepeatedTetra {
    /// Creates the node; instance `i` proposes the value `base + i`.
    pub fn new(cfg: Config, params: Params, me: NodeId) -> Self {
        RepeatedTetra {
            cfg,
            params,
            me,
            instance: 0,
            node: TetraNode::new(cfg, params, me, Value::from_u64(0)),
            pending: vec![None; cfg.n()],
            buf: ActionBuf::new(),
        }
    }

    /// Forwards one input to the inner node, translating its effects:
    /// messages get instance-tagged, a decision rolls over to the next
    /// instance.
    fn forward(&mut self, input: Input<CoreMessage>, ctx: &mut Ctx<'_>) {
        let mut inner_ctx = Context::buffered(self.me, self.cfg.n(), ctx.now(), &mut self.buf);
        self.node.handle(input, &mut inner_ctx);
        let mut decided = None;
        for action in self.buf.drain(..) {
            match action {
                Action::Send { dest, msg } => {
                    let tagged = SeqMsg { instance: self.instance, inner: msg };
                    match dest {
                        Dest::All => ctx.broadcast(tagged),
                        Dest::Node(to) => ctx.send(to, tagged),
                    }
                }
                Action::SetTimer { id, after } => ctx.set_timer(id, after),
                Action::CancelTimer { id } => ctx.cancel_timer(id),
                Action::Output(value) => decided = Some(value),
            }
        }
        if let Some(value) = decided {
            ctx.output((self.instance, value));
            self.next_instance(ctx);
        }
    }

    fn next_instance(&mut self, ctx: &mut Ctx<'_>) {
        self.instance += 1;
        self.node = TetraNode::new(self.cfg, self.params, self.me, Value::from_u64(self.instance));
        self.forward(Input::Start, ctx);
        // Replay buffered traffic that was ahead of us.
        for peer in 0..self.cfg.n() {
            if let Some(msg) = self.pending[peer].take() {
                if msg.instance == self.instance {
                    self.forward(Input::Deliver { from: NodeId(peer as u16), msg: msg.inner }, ctx);
                } else if msg.instance > self.instance {
                    self.pending[peer] = Some(msg);
                }
            }
        }
    }
}

type Ctx<'a> = Context<'a, SeqMsg, (u64, Value)>;

impl Node for RepeatedTetra {
    type Msg = SeqMsg;
    type Output = (u64, Value);

    fn handle(&mut self, input: Input<SeqMsg>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => self.forward(Input::Start, ctx),
            Input::Deliver { from, msg } => {
                if msg.instance == self.instance {
                    self.forward(Input::Deliver { from, msg: msg.inner }, ctx);
                } else if msg.instance > self.instance {
                    // Keep the newest future message per peer.
                    let slot = &mut self.pending[from.index()];
                    if slot.as_ref().is_none_or(|held| msg.instance >= held.instance) {
                        *slot = Some(msg);
                    }
                } // stale instances are dropped: that consensus is done
            }
            Input::Timer { id } => self.forward(Input::Timer { id }, ctx),
            Input::PeerDown { peer } => self.forward(Input::PeerDown { peer }, ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_sim::{SimBuilder, Time};

    #[test]
    fn one_decision_every_five_delays() {
        let cfg = Config::new(4).unwrap();
        let mut sim =
            SimBuilder::new(4).build(move |id| RepeatedTetra::new(cfg, Params::new(100), id));
        sim.run_until(Time(50));
        let times: Vec<u64> =
            sim.outputs().iter().filter(|o| o.node == NodeId(0)).map(|o| o.time.0).collect();
        assert!(times.len() >= 9, "50 delays / 5 per instance ≈ 10 decisions");
        assert_eq!(times[0], 5);
        for pair in times.windows(2) {
            assert_eq!(pair[1] - pair[0], 5, "repeated single-shot: 5 delays each");
        }
    }

    #[test]
    fn instances_decide_their_own_values_in_order() {
        let cfg = Config::new(4).unwrap();
        let mut sim =
            SimBuilder::new(4).build(move |id| RepeatedTetra::new(cfg, Params::new(100), id));
        sim.run_until(Time(26));
        let mine: Vec<(u64, Value)> =
            sim.outputs().iter().filter(|o| o.node == NodeId(1)).map(|o| o.output).collect();
        for (i, (instance, value)) in mine.iter().enumerate() {
            assert_eq!(*instance, i as u64);
            // Instance i's leader is node (i % 4)… at view 0 leader is node
            // 0 of that instance; all instances propose Value(instance)
            // because every node's input for instance i is i.
            assert_eq!(*value, Value::from_u64(i as u64));
        }
    }
}
