//! A bounded-storage PBFT-style protocol — Table 1's latency champion
//! (3 message delays: pre-prepare, prepare, commit) whose weakness is the
//! view change: view-change messages carry O(n)-sized prepared
//! certificates and the new-view message carries the full set of n−f
//! view-changes (O(n²) bytes), for a worst-case total of **O(n³)** bits —
//! the scaling that experiment E6 measures and that makes the protocol
//! impractical at blockchain scale (Section 1.2).
//!
//! Recovery takes the paper's 7 delays: request → view-change → new-view →
//! ack → pre-prepare → prepare → commit. (The ack sits after new-view here
//! rather than before it as in Castro's thesis; the hop count — four extra
//! messages — is identical, which is what Table 1 records.)

use tetrabft_engine::{Context, Input, Node, TimerId, WireSize};
use tetrabft_types::{Config, NodeId, Value, View, VoteInfo};
use tetrabft_wire::{Wire, Writer};

use tetrabft::{Params, ViewChanges, ViewVerdict, VoteRegisters};

const PREPARE: usize = 0;
const COMMIT: usize = 1;

/// The view timer.
const VIEW_TIMER: TimerId = TimerId(0);

/// One prepare vote inside a certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrepareRecord {
    /// Voter.
    pub node: NodeId,
    /// View of the prepare.
    pub view: View,
    /// Prepared value.
    pub value: Value,
}

impl PrepareRecord {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        self.view.encode(w);
        self.value.encode(w);
    }
}

/// A full view-change record as bundled into a new-view message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VcRecord {
    /// Originator of the view-change.
    pub node: NodeId,
    /// Its prepared value, if any.
    pub prepared: Option<VoteInfo>,
    /// Its prepared certificate — O(n) entries.
    pub cert: Vec<PrepareRecord>,
}

impl VcRecord {
    fn encode(&self, w: &mut Writer) {
        self.node.encode(w);
        self.prepared.encode(w);
        put_list(w, &self.cert, PrepareRecord::encode);
    }
}

/// Writes `items` as the wire codec writes a `Vec`: a varint count, then
/// each item.
fn put_list<T>(w: &mut Writer, items: &[T], put: fn(&T, &mut Writer)) {
    w.put_varint(items.len() as u64);
    for item in items {
        put(item, w);
    }
}

/// PBFT-style message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// Leader's proposal.
    PrePrepare {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// First voting phase.
    Prepare {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Second voting phase; a quorum decides.
    Commit {
        /// View.
        view: View,
        /// Value.
        value: Value,
    },
    /// Timeout signal, requesting a move to `view`.
    Request {
        /// Requested view.
        view: View,
    },
    /// Certificate-carrying view change: O(n) bytes.
    ViewChange {
        /// Target view.
        view: View,
        /// Sender's prepared value.
        prepared: Option<VoteInfo>,
        /// Sender's prepared certificate.
        cert: Vec<PrepareRecord>,
    },
    /// The new leader's installation message: bundles n−f view-changes,
    /// O(n²) bytes.
    NewView {
        /// The new view.
        view: View,
        /// Value the leader will re-propose.
        value: Value,
        /// The collected view-change records.
        certs: Vec<VcRecord>,
    },
    /// Acknowledgement that the sender installed the new view.
    Ack {
        /// The acknowledged view.
        view: View,
    },
}

impl PbftMsg {
    /// Appends the message's wire encoding to `w`.
    fn encode(&self, w: &mut Writer) {
        match self {
            PbftMsg::PrePrepare { view, value } => {
                w.put_u8(1);
                view.encode(w);
                value.encode(w);
            }
            PbftMsg::Prepare { view, value } => {
                w.put_u8(2);
                view.encode(w);
                value.encode(w);
            }
            PbftMsg::Commit { view, value } => {
                w.put_u8(3);
                view.encode(w);
                value.encode(w);
            }
            PbftMsg::Request { view } => {
                w.put_u8(4);
                view.encode(w);
            }
            PbftMsg::ViewChange { view, prepared, cert } => {
                w.put_u8(5);
                view.encode(w);
                prepared.encode(w);
                put_list(w, cert, PrepareRecord::encode);
            }
            PbftMsg::NewView { view, value, certs } => {
                w.put_u8(6);
                view.encode(w);
                value.encode(w);
                put_list(w, certs, VcRecord::encode);
            }
            PbftMsg::Ack { view } => {
                w.put_u8(7);
                view.encode(w);
            }
        }
    }
}

impl WireSize for PbftMsg {
    fn wire_size(&self) -> usize {
        crate::encoded_len(|w| self.encode(w))
    }
}

/// A peer's latest view-change: `(view, prepared, certificate)`.
type VcSlot = (View, Option<VoteInfo>, Vec<PrepareRecord>);

/// A well-behaved bounded-PBFT node.
#[derive(Debug)]
pub struct PbftNode {
    cfg: Config,
    params: Params,
    me: NodeId,
    input: Value,
    view: View,
    regs: VoteRegisters<2>,
    requests: ViewChanges,
    /// Per-peer latest view-change record.
    vcs: Vec<Option<VcSlot>>,
    /// Per-peer highest new-view ack.
    acks: Vec<Option<View>>,
    proposal: Option<(View, Value)>,
    sent: [Option<View>; 2],
    proposed: Option<View>,
    vc_broadcast: Option<View>,
    newview_sent: Option<View>,
    ack_sent: Option<View>,
    /// Set when an actual PrePrepare for the view arrived (a NewView's
    /// value announcement alone must not trigger prepares).
    preprepared: Option<View>,
    /// Persistent: the prepared value and its certificate.
    prepared: Option<VoteInfo>,
    cert: Vec<PrepareRecord>,
    decided: Option<Value>,
}

impl PbftNode {
    /// Creates a node with the given identity and input value.
    pub fn new(cfg: Config, params: Params, me: NodeId, input: Value) -> Self {
        PbftNode {
            cfg,
            params,
            me,
            input,
            view: View::ZERO,
            regs: VoteRegisters::new(&cfg),
            requests: ViewChanges::new(&cfg),
            vcs: vec![None; cfg.n()],
            acks: vec![None; cfg.n()],
            proposal: None,
            sent: [None; 2],
            proposed: None,
            vc_broadcast: None,
            newview_sent: None,
            ack_sent: None,
            preprepared: None,
            prepared: None,
            cert: Vec::new(),
            decided: None,
        }
    }

    fn leader(&self, view: View) -> NodeId {
        self.cfg.leader_of(view)
    }

    fn already(&self, phase: usize) -> bool {
        self.sent[phase].is_some_and(|v| v >= self.view)
    }

    fn drive(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let mut dirty = false;
            dirty |= self.step_request_engine(ctx);
            dirty |= self.step_new_view(ctx);
            dirty |= self.step_propose(ctx);
            dirty |= self.step_phases(ctx);
            dirty |= self.step_decide(ctx);
            if !dirty {
                break;
            }
        }
    }

    /// Requests (timeout signals) gather like view-changes: echo at f+1;
    /// at a quorum, broadcast the certificate-carrying ViewChange.
    fn step_request_engine(&mut self, ctx: &mut Ctx<'_>) -> bool {
        match self.requests.poll(self.view) {
            ViewVerdict::Echo(v) => {
                self.requests.sent = Some(v);
                ctx.broadcast(PbftMsg::Request { view: v });
                true
            }
            ViewVerdict::Enter(v) => {
                if self.vc_broadcast.is_some_and(|b| b >= v) {
                    return false;
                }
                self.vc_broadcast = Some(v);
                ctx.broadcast(PbftMsg::ViewChange {
                    view: v,
                    prepared: self.prepared,
                    cert: self.cert.clone(),
                });
                true
            }
            ViewVerdict::Idle => false,
        }
    }

    /// The new leader bundles n−f view-changes into the O(n²)-byte NewView.
    fn step_new_view(&mut self, ctx: &mut Ctx<'_>) -> bool {
        // Highest view with a quorum of view-change records.
        let mut views: Vec<View> = self.vcs.iter().flatten().map(|(v, _, _)| *v).collect();
        views.sort_unstable();
        views.reverse();
        views.dedup();
        for v in views {
            if v <= self.view || self.leader(v) != self.me {
                continue;
            }
            if self.newview_sent.is_some_and(|s| s >= v) {
                continue;
            }
            let records: Vec<VcRecord> = self
                .vcs
                .iter()
                .enumerate()
                .filter_map(|(i, slot)| slot.as_ref().map(|s| (i, s)))
                .filter(|(_, (vv, _, _))| *vv >= v)
                .map(|(i, (_, prepared, cert))| VcRecord {
                    node: NodeId(i as u16),
                    prepared: *prepared,
                    cert: cert.clone(),
                })
                .collect();
            if !self.cfg.is_quorum(records.len()) {
                continue;
            }
            let value = records
                .iter()
                .filter_map(|r| r.prepared)
                .max_by_key(|p| p.view)
                .map_or(self.input, |p| p.value);
            self.newview_sent = Some(v);
            ctx.broadcast(PbftMsg::NewView { view: v, value, certs: records });
            return true;
        }
        false
    }

    fn enter_view(&mut self, view: View, ctx: &mut Ctx<'_>) {
        self.view = view;
        ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
    }

    /// The leader pre-prepares: instantly at view 0; after a quorum of
    /// installation acks in later views (the fourth recovery hop).
    fn step_propose(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.leader(self.view) != self.me || self.proposed.is_some_and(|v| v >= self.view) {
            return false;
        }
        let value = if self.view.is_zero() {
            self.input
        } else {
            let acked = self.acks.iter().flatten().filter(|v| **v >= self.view).count();
            if !self.cfg.is_quorum(acked) {
                return false;
            }
            match self.proposal.filter(|(v, _)| *v == self.view) {
                Some((_, value)) => value, // the value announced in NewView
                None => return false,
            }
        };
        self.proposed = Some(self.view);
        ctx.broadcast(PbftMsg::PrePrepare { view: self.view, value });
        true
    }

    fn step_phases(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let mut dirty = false;
        // pre-prepare → prepare.
        if !self.already(PREPARE) {
            if let Some((view, value)) = self.proposal.filter(|(v, _)| *v == self.view) {
                // Only the actual PrePrepare (not just the NewView
                // announcement) triggers a prepare.
                let preprepared = self.preprepared.is_some_and(|p| p >= view);
                let accept = self.prepared.is_none_or(|p| p.value == value || view > p.view);
                if preprepared && accept {
                    self.sent[PREPARE] = Some(view);
                    ctx.broadcast(PbftMsg::Prepare { view, value });
                    dirty = true;
                }
            }
        }
        // prepare quorum → commit (and record the certificate).
        if !self.already(COMMIT) {
            if let Some(value) = self.regs.quorum_value(PREPARE, self.view) {
                self.prepared = Some(VoteInfo::new(self.view, value));
                self.cert = self
                    .regs
                    .iter_phase(PREPARE)
                    .filter(|(_, vi)| vi.view == self.view && vi.value == value)
                    .map(|(node, vi)| PrepareRecord { node, view: vi.view, value: vi.value })
                    .collect();
                self.sent[COMMIT] = Some(self.view);
                ctx.broadcast(PbftMsg::Commit { view: self.view, value });
                dirty = true;
            }
        }
        dirty
    }

    fn step_decide(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.decided.is_some() {
            return false;
        }
        let Some(value) = self.regs.quorum_value(COMMIT, self.view) else {
            return false;
        };
        self.decided = Some(value);
        ctx.output(value);
        true
    }
}

type Ctx<'a> = Context<'a, PbftMsg, Value>;

impl Node for PbftNode {
    type Msg = PbftMsg;
    type Output = Value;

    fn handle(&mut self, input: Input<PbftMsg>, ctx: &mut Ctx<'_>) {
        match input {
            Input::Start => {
                ctx.set_timer(VIEW_TIMER, self.params.view_timeout());
                self.drive(ctx);
            }
            Input::Deliver { from, msg } => {
                match msg {
                    PbftMsg::PrePrepare { view, value } => {
                        if from == self.leader(view) && view == self.view {
                            self.proposal = Some((view, value));
                            if self.preprepared.is_none_or(|p| view > p) {
                                self.preprepared = Some(view);
                            }
                        }
                    }
                    PbftMsg::Prepare { view, value } => {
                        self.regs.record(from, PREPARE, view, value)
                    }
                    PbftMsg::Commit { view, value } => self.regs.record(from, COMMIT, view, value),
                    PbftMsg::Request { view } => self.requests.record(from, view),
                    PbftMsg::ViewChange { view, prepared, cert } => {
                        let slot = &mut self.vcs[from.index()];
                        if slot.as_ref().is_none_or(|(v, _, _)| view > *v) {
                            *slot = Some((view, prepared, cert));
                        }
                    }
                    PbftMsg::NewView { view, value, certs } => {
                        if from == self.leader(view)
                            && view > self.view
                            && self.cfg.is_quorum(certs.len())
                        {
                            self.enter_view(view, ctx);
                            self.proposal = Some((view, value));
                            if self.ack_sent.is_none_or(|a| view > a) {
                                self.ack_sent = Some(view);
                                ctx.send(from, PbftMsg::Ack { view });
                            }
                        }
                    }
                    PbftMsg::Ack { view } => {
                        let slot = &mut self.acks[from.index()];
                        if slot.is_none_or(|held| view > held) {
                            *slot = Some(view);
                        }
                    }
                }
                self.drive(ctx);
            }
            Input::Timer { id } if id == VIEW_TIMER => {
                ctx.broadcast(PbftMsg::Request { view: self.requests.timeout(self.view) });
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
    use tetrabft_sim::{SimBuilder, Time};

    #[test]
    fn good_case_is_three_message_delays() {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4)
            .build(move |id| PbftNode::new(cfg, Params::new(100), id, Value::from_u64(7)));
        assert!(sim.run_until_outputs(4, 1_000_000));
        for o in sim.outputs() {
            assert_eq!(o.time, Time(3), "PBFT good case is 3 delays (Table 1)");
        }
    }

    #[test]
    fn view_change_costs_seven_delays() {
        let cfg = Config::new(4).unwrap();
        let mut sim = SimBuilder::new(4).build_boxed(move |id| {
            if id == NodeId(0) {
                Box::new(tetrabft_sim::SilentNode::new())
            } else {
                Box::new(PbftNode::new(cfg, Params::new(10), id, Value::from_u64(7)))
            }
        });
        assert!(sim.run_until_outputs(3, 1_000_000));
        // Timeout at 90, then request, vc, new-view, ack, pre-prepare,
        // prepare, commit: decide at 90 + 7.
        assert_eq!(sim.outputs()[0].time, Time(97));
        let first = sim.outputs()[0].output;
        assert!(sim.outputs().iter().all(|o| o.output == first));
    }

    #[test]
    fn view_change_messages_are_big() {
        // The certificate machinery must actually show up on the wire:
        // a ViewChange with a full cert and a NewView bundling a quorum of
        // them scale O(n) and O(n²).
        let n = 16;
        let cert: Vec<PrepareRecord> = (0..n)
            .map(|i| PrepareRecord {
                node: NodeId(i as u16),
                view: View(1),
                value: Value::from_u64(5),
            })
            .collect();
        let vc = PbftMsg::ViewChange {
            view: View(2),
            prepared: Some(VoteInfo::new(View(1), Value::from_u64(5))),
            cert: cert.clone(),
        };
        let nv = PbftMsg::NewView {
            view: View(2),
            value: Value::from_u64(5),
            certs: (0..n)
                .map(|i| VcRecord { node: NodeId(i as u16), prepared: None, cert: cert.clone() })
                .collect(),
        };
        // Under wire format v2 a PrepareRecord costs ≥ 10 bytes (varint
        // node + varint view + 8-byte value); the scaling is what matters.
        assert!(vc.wire_size() > n * 10, "view-change must be O(n)");
        assert!(nv.wire_size() > n * n * 10, "new-view must be O(n²)");
    }
}
