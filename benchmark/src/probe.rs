//! The benchmark-owned `Node` adapter around `MultiShotNode`. It forwards
//! `handle`/`persist`/`accept` unchanged and adds the two things only a
//! wrapper can: under `Sim` (which has no client path) it injects the
//! schedule at its virtual due instants, and on a traced run it stamps
//! every call and the `Proposal`/`Finalized` actions it sees, keeping
//! spans keyed by `TxId` in memory until the run ends.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use tetrabft_engine::{
    Action, ActionBuf, Context, Dest, Input, Node, Submitter, Time, TimerId, WireSize,
};
use tetrabft_multishot::{Block, Finalized, MsMessage, MultiShotNode, SubmitError, Tx, TxId};
use tetrabft_types::NodeId;

use crate::procfs::current_tid;
use crate::schedule::Schedule;
use crate::spec::{CLIENT_NODES, N};
use crate::stats::now_ns;

/// Timer the injector owns. Slot timers use the slot number and the node
/// reserves the top two ids, so this one cannot collide with either.
const INJECT_TIMER: TimerId = TimerId(u64::MAX - 2);

/// Messages and blocks kept per node as inputs for the timed direct calls.
const SAMPLE_CAP: usize = 512;

/// Virtual ms at which the schedule's time zero falls under `Sim`: after
/// the set-up barrier (first finalizations land within ~100 ms).
pub const REPLAY_ORIGIN_MS: u64 = 1_000;

/// What one node's probe recorded. Stamps are on the run's clock: wall
/// ns since process start over TCP, virtual ns under `Sim`.
#[derive(Default)]
pub struct NodeTrace {
    pub events: u64,
    pub handle_ns: u64,
    pub accepts: u64,
    pub accept_ns: u64,
    pub seals: u64,
    pub persist_ns: u64,
    /// Wall ns the probe spent on its own bookkeeping.
    pub probe_ns: u64,
    /// Network copies of every message sent (a broadcast is n − 1).
    pub msgs_sent: u64,
    pub bytes_sent: u64,
    /// Of those, view-change / suggest / proof copies.
    pub viewchange_msgs: u64,
    pub admitted: HashMap<TxId, u64>,
    pub proposed: HashMap<TxId, u64>,
    /// `(slot, stamp)` of every `Finalized` this node emitted.
    pub finalized: Vec<(u64, u64)>,
    /// Threads `handle` ran on: the node's engine thread(s).
    pub tids: Vec<u32>,
    pub sample_msgs: Vec<MsMessage>,
    pub sample_blocks: Vec<Block>,
}

/// One shared trace per node id; a restarted node keeps writing to its
/// predecessor's.
pub type Traces = Arc<[Mutex<NodeTrace>; N]>;

pub fn new_traces() -> Traces {
    Arc::new(std::array::from_fn(|_| Mutex::new(NodeTrace::default())))
}

/// Feeds one node its share of the schedule in virtual time.
struct Injector {
    schedule: Arc<Schedule>,
    conn: u8,
    next: usize,
}

impl Injector {
    /// Virtual tick at which transaction `i` is handed to the node: the
    /// first whole ms at or after its due instant.
    fn tick(&self, i: usize) -> u64 {
        REPLAY_ORIGIN_MS + self.schedule.due_ns[i].div_ceil(1_000_000)
    }

    fn skip_foreign(&mut self) {
        while self.next < self.schedule.len() && self.schedule.conn[self.next] != self.conn {
            self.next += 1;
        }
    }
}

/// See the module docs.
pub struct Probe {
    inner: MultiShotNode,
    me: NodeId,
    inject: Option<Injector>,
    trace: Option<Traces>,
    /// Stamp with virtual time (`Sim`) instead of the wall clock.
    virtual_clock: bool,
    now: Time,
    tid: u32,
    /// Delivered messages this probe has put into its trace's sample.
    sampled: usize,
}

impl Probe {
    /// A probe for the TCP runtime: tracing only.
    pub fn traced(inner: MultiShotNode, me: NodeId, traces: Traces) -> Probe {
        Probe {
            inner,
            me,
            inject: None,
            trace: Some(traces),
            virtual_clock: false,
            now: Time(0),
            tid: 0,
            sampled: 0,
        }
    }

    /// A probe for `Sim`: injects `me`'s share of `schedule`, and traces
    /// if `traces` is given.
    pub fn replaying(
        inner: MultiShotNode,
        me: NodeId,
        schedule: &Arc<Schedule>,
        traces: Option<Traces>,
    ) -> Probe {
        let inject = CLIENT_NODES.iter().position(|n| *n == me).map(|conn| Injector {
            schedule: Arc::clone(schedule),
            conn: conn as u8,
            next: 0,
        });
        Probe {
            inner,
            me,
            inject,
            trace: traces,
            virtual_clock: true,
            now: Time(0),
            tid: 0,
            sampled: 0,
        }
    }

    fn stamp(&self) -> u64 {
        if self.virtual_clock {
            self.now.0 * 1_000_000
        } else {
            now_ns()
        }
    }

    /// Hands the node everything due by now and re-arms for the next due
    /// tick. Like the TCP submit path, admission does not run the node.
    fn inject(&mut self, ctx: &mut Context<'_, MsMessage, Finalized>) {
        let Some(mut injector) = self.inject.take() else { return };
        let now = ctx.now().0;
        loop {
            injector.skip_foreign();
            let i = injector.next;
            if i >= injector.schedule.len() {
                break;
            }
            let tick = injector.tick(i);
            if tick > now {
                ctx.set_timer(INJECT_TIMER, tick - now);
                break;
            }
            // Refusals show as transactions that never commit.
            let _ = self.accept(Tx::raw(injector.schedule.payloads[i].clone()));
            injector.next += 1;
        }
        self.inject = Some(injector);
    }

    fn handle_traced(
        &mut self,
        input: Input<MsMessage>,
        ctx: &mut Context<'_, MsMessage, Finalized>,
        traces: &Traces,
    ) {
        let me = ctx.me();
        let sample = match &input {
            Input::Deliver { msg, .. } if self.sampled < SAMPLE_CAP => {
                self.sampled += 1;
                Some(msg.clone())
            }
            _ => None,
        };
        let mut actions: ActionBuf<MsMessage, Finalized> = ActionBuf::new();
        let started = now_ns();
        {
            let mut inner = Context::buffered(me, ctx.n(), ctx.now(), &mut actions);
            self.inner.handle(input, &mut inner);
        }
        let handled = now_ns();
        let stamp = self.stamp();
        let mut t = traces[me.index()].lock().expect("probe bookkeeping does not panic");
        t.events += 1;
        t.handle_ns += handled - started;
        if self.tid == 0 {
            self.tid = current_tid();
        }
        if !t.tids.contains(&self.tid) {
            t.tids.push(self.tid);
        }
        t.sample_msgs.extend(sample);
        for action in actions {
            match action {
                Action::Send { dest, msg } => {
                    let copies = match dest {
                        Dest::All => ctx.n() as u64 - 1,
                        Dest::Node(to) => u64::from(to != me),
                    };
                    t.msgs_sent += copies;
                    t.bytes_sent += copies * msg.wire_size() as u64;
                    match &msg {
                        MsMessage::Proposal { block, .. } => {
                            for tx in block.txs.iter() {
                                t.proposed.entry(TxId::of(tx)).or_insert(stamp);
                            }
                        }
                        MsMessage::ViewChange { .. }
                        | MsMessage::Suggest { .. }
                        | MsMessage::Proof { .. } => t.viewchange_msgs += copies,
                        _ => {}
                    }
                    match dest {
                        Dest::All => ctx.broadcast(msg),
                        Dest::Node(to) => ctx.send(to, msg),
                    }
                }
                Action::SetTimer { id, after } => ctx.set_timer(id, after),
                Action::CancelTimer { id } => ctx.cancel_timer(id),
                Action::Output(fin) => {
                    t.finalized.push((fin.slot.0, stamp));
                    if !fin.block.txs.is_empty() && t.sample_blocks.len() < SAMPLE_CAP {
                        t.sample_blocks.push(fin.block.clone());
                    }
                    ctx.output(fin);
                }
            }
        }
        t.probe_ns += now_ns() - handled;
    }
}

impl Node for Probe {
    type Msg = MsMessage;
    type Output = Finalized;

    fn handle(&mut self, input: Input<MsMessage>, ctx: &mut Context<'_, MsMessage, Finalized>) {
        self.now = ctx.now();
        if matches!(input, Input::Timer { id } if id == INJECT_TIMER) {
            self.inject(ctx);
            return;
        }
        let booting = matches!(input, Input::Start);
        match self.trace.take() {
            Some(traces) => {
                self.handle_traced(input, ctx, &traces);
                self.trace = Some(traces);
            }
            None => self.inner.handle(input, ctx),
        }
        if booting {
            self.inject(ctx);
        }
    }

    fn persist(&mut self) {
        let Some(traces) = &self.trace else { return self.inner.persist() };
        let started = now_ns();
        self.inner.persist();
        let elapsed = now_ns() - started;
        let mut t = traces[self.me.index()].lock().expect("probe bookkeeping does not panic");
        t.seals += 1;
        t.persist_ns += elapsed;
    }

    fn incarnation(&self) -> u64 {
        self.inner.incarnation()
    }
}

impl Submitter for Probe {
    type Request = Tx;
    type SubmitError = SubmitError;

    fn accept(&mut self, tx: Tx) -> Result<(), SubmitError> {
        let Some(traces) = &self.trace else { return self.inner.accept(tx) };
        let id = tx.id();
        let started = now_ns();
        let verdict = self.inner.accept(tx);
        let accepted = now_ns();
        let stamp = self.stamp();
        let mut t = traces[self.me.index()].lock().expect("probe bookkeeping does not panic");
        t.accepts += 1;
        t.accept_ns += accepted - started;
        if verdict.is_ok() {
            t.admitted.insert(id, stamp);
        }
        t.probe_ns += now_ns() - accepted;
        verdict
    }
}
