//! The engine loop shared by every runtime.
//!
//! Both the deterministic simulator (`tetrabft-sim`) and the TCP runtime
//! (`tetrabft-net`) used to hand-roll the same three pieces of machinery:
//! timer generations (a re-armed timer must orphan its queued firing),
//! [`Action`] dispatch, and the persist-then-flush seal that closes a batch
//! of [`Node`] inputs, with the bookkeeping of whether a batch ran anything
//! to seal. [`Engine`] owns all three once, behind one input door
//! ([`Engine::feed`]); runtimes shrink to [`Transport`] implementations
//! that only know how to move bytes, schedule wakeups, and surface outputs.

use std::collections::HashMap;

use tetrabft_types::NodeId;

use crate::node::{Action, ActionBuf, Context, Dest, Input, Node, TimerId};
use crate::time::Time;

/// One input a runtime feeds an [`Engine`] ([`Engine::feed`]) — everything
/// that reaches a node after [`Engine::start`] except client requests
/// ([`Engine::submit`]).
#[derive(Debug, Clone)]
pub enum Event<M> {
    /// A message arrived from `from` (loopback included).
    Deliver {
        /// The true sender of the message.
        from: NodeId,
        /// The message.
        msg: M,
    },
    /// A timer armed through [`Transport::arm_timer`] came due.
    Timer {
        /// Which timer.
        id: TimerId,
        /// The generation the arming carried, echoed back unread.
        generation: u64,
    },
    /// The transport saw `peer`'s stream end ([`Input::PeerDown`]).
    PeerDown {
        /// The peer whose connection ended.
        peer: NodeId,
    },
}

/// What an [`Engine`] asks its runtime to do.
///
/// A transport is intentionally dumber than a [`Node`] context: it never
/// sees cancellations (the engine absorbs them into generation bumps) and
/// every arming it sees already carries the generation that makes stale
/// firings detectable.
pub trait Transport<M, O> {
    /// Ship `msg` to `dest` (a peer or everyone, loopback included).
    fn send(&mut self, dest: Dest, msg: M);

    /// Schedule timer `id` to fire `after` ticks from now, tagged with
    /// `generation`. The runtime must echo the tag back in an
    /// [`Event::Timer`]; it never interprets it.
    fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64);

    /// Surface a protocol output to the application.
    fn deliver_output(&mut self, out: O);

    /// Called exactly once per sealed batch of inputs — by
    /// [`Engine::finish_batch`] when the batch ran the node, and by
    /// [`Engine::start`] for the boot input — after every action of the
    /// batch has been dispatched.
    /// Buffering transports hand their staged sends to the network here —
    /// one handoff per batch rather than one per message — so a broadcast
    /// plus its follow-ups leave together. The default is a no-op for
    /// transports that ship eagerly.
    fn flush(&mut self) {}
}

/// A node that accepts client-submitted requests ([`Engine::submit`]) —
/// the third input class next to deliveries and timers.
///
/// Admission is synchronous and may be refused (backpressure): a bounded
/// mempool returns its typed rejection here rather than growing without
/// bound.
pub trait Submitter: Node {
    /// What clients submit.
    type Request;
    /// Why a submission may be refused.
    type SubmitError;

    /// Accepts or rejects one client request.
    fn accept(&mut self, req: Self::Request) -> Result<(), Self::SubmitError>;
}

/// A request clients can ship over a byte-framed transport: the decode
/// half of the submit path, for runtimes where submissions arrive as
/// length-prefixed frames on a socket rather than through an in-process
/// [`Engine::submit`] call.
///
/// The encode half is the client's business (for opaque-payload requests
/// the frame payload *is* the request); a runtime serving framed clients
/// requires `Submitter::Request: FrameRequest` to turn each frame back
/// into a typed request at the door.
pub trait FrameRequest: Sized {
    /// Decodes one request from a client frame's payload; `None` drops
    /// the frame (malformed client traffic is ignored, like malformed
    /// peer traffic).
    fn from_frame(bytes: &[u8]) -> Option<Self>;
}

/// The protocol-driving loop around one [`Node`].
///
/// The engine owns the node, its timer-generation table, and the
/// translation of node [`Action`]s into [`Transport`] calls. A runtime
/// boots it once ([`Engine::start`]), then feeds whatever its sources
/// have queued, one [`Event`] at a time, through [`Engine::feed`] — with
/// the current time and a transport to act through — and closes every such
/// batch, of one event or many, with [`Engine::finish_batch`], which seals
/// only a batch that ran the node; client requests enter beside them
/// through [`Engine::submit`].
///
/// # Timer generations
///
/// `SetTimer` tags the arming with a generation drawn from one counter
/// that is global across all timer ids and never reused; a firing whose
/// generation is not the id's current one is ignored, which implements
/// both replace and cancel without the runtime ever deleting queued
/// events. Because generations are globally unique, entries for fired and
/// cancelled timers can be dropped immediately — an orphaned queued
/// firing can never collide with a later arming — so the table holds only
/// the currently-armed timers (O(armed), not O(ids ever used); protocols
/// that key timers by an unbounded sequence number, like multi-shot's
/// per-slot view timers, would otherwise leak an entry per key).
///
/// # Examples
///
/// ```
/// use tetrabft_engine::{Context, Dest, Engine, Input, Node, Time, Transport, WireSize};
/// use tetrabft_types::NodeId;
///
/// #[derive(Clone)]
/// struct Ping;
/// impl WireSize for Ping {
///     fn wire_size(&self) -> usize { 1 }
/// }
/// struct Hello;
/// impl Node for Hello {
///     type Msg = Ping;
///     type Output = &'static str;
///     fn handle(&mut self, input: Input<Ping>, ctx: &mut Context<'_, Ping, &'static str>) {
///         if matches!(input, Input::Start) {
///             ctx.broadcast(Ping);
///             ctx.output("booted");
///         }
///     }
/// }
///
/// #[derive(Default)]
/// struct Recorder { sends: usize, outputs: Vec<&'static str> }
/// impl Transport<Ping, &'static str> for Recorder {
///     fn send(&mut self, _dest: Dest, _msg: Ping) { self.sends += 1 }
///     fn arm_timer(&mut self, _id: tetrabft_engine::TimerId, _generation: u64, _after: u64) {}
///     fn deliver_output(&mut self, out: &'static str) { self.outputs.push(out) }
/// }
///
/// let mut engine = Engine::new(Hello, NodeId(0), 4);
/// let mut transport = Recorder::default();
/// engine.start(Time(0), &mut transport);
/// assert_eq!(transport.sends, 1);
/// assert_eq!(transport.outputs, vec!["booted"]);
/// ```
#[derive(Debug)]
pub struct Engine<N: Node> {
    node: N,
    me: NodeId,
    n: usize,
    /// Live generation per *armed* timer; fired/cancelled entries are
    /// removed (safe because generations are never reused across ids).
    generations: HashMap<TimerId, u64>,
    next_generation: u64,
    /// The node's effects, drained after every dispatch: its capacity is
    /// kept, so a warmed engine allocates nothing to buffer them.
    actions: ActionBuf<N::Msg, N::Output>,
    /// Whether the node ran since the last seal.
    ran: bool,
}

impl<N: Node> Engine<N> {
    /// Wraps `node` (node `me` of `n`) in an engine with no armed timers.
    pub fn new(node: N, me: NodeId, n: usize) -> Self {
        Engine {
            node,
            me,
            n,
            generations: HashMap::new(),
            next_generation: 0,
            actions: ActionBuf::new(),
            ran: false,
        }
    }

    /// Number of currently armed timers (the size of the generation
    /// table — bounded by the protocol's live timers, not its history).
    #[cfg(test)]
    fn armed_timers(&self) -> usize {
        self.generations.len()
    }

    /// Boots the node (deliver exactly once, before any other event) and
    /// seals: the boot input is a batch of its own.
    pub fn start<T: Transport<N::Msg, N::Output>>(&mut self, now: Time, transport: &mut T) {
        self.dispatch(Input::Start, now, transport);
        self.finish_batch(transport);
    }

    /// Feeds one runtime [`Event`] to the node, unless it is a timer firing
    /// whose generation is stale (the timer was replaced or cancelled after
    /// the firing was queued). Returns whether the node ran.
    ///
    /// The persist/flush seal is deferred to [`Engine::finish_batch`]: a
    /// runtime that drains several queued events in one go pays one storage
    /// sync and one network handoff per *batch* instead of per event. Every
    /// sequence of `feed` calls **must** be closed with
    /// [`Engine::finish_batch`] before the runtime goes back to waiting —
    /// otherwise staged sends sit unflushed and durable votes unpersisted.
    pub fn feed<T: Transport<N::Msg, N::Output>>(
        &mut self,
        event: Event<N::Msg>,
        now: Time,
        transport: &mut T,
    ) -> bool {
        let input = match event {
            Event::Deliver { from, msg } => Input::Deliver { from, msg },
            Event::PeerDown { peer } => Input::PeerDown { peer },
            Event::Timer { id, generation } => {
                // Consume the arming: the handler may re-arm with a fresh,
                // never-reused generation, so removal cannot resurrect any
                // queued firing.
                if self.generations.get(&id) != Some(&generation) {
                    return false;
                }
                self.generations.remove(&id);
                Input::Timer { id }
            }
        };
        self.dispatch(input, now, transport);
        true
    }

    /// Seals a batch of [`Engine::feed`] calls: if any of them ran the
    /// node, persists the node once, then flushes the transport once. The
    /// write-ahead ordering holds for the whole batch — everything the
    /// batch's inputs changed is durable before any message they produced
    /// leaves the process. A batch that ran nothing (only stale timer
    /// firings, or only [`Engine::submit`]s) is not sealed.
    pub fn finish_batch<T: Transport<N::Msg, N::Output>>(&mut self, transport: &mut T) {
        if std::mem::take(&mut self.ran) {
            self.node.persist();
            transport.flush();
        }
    }

    /// Runs the node on one input and interprets its actions, without the
    /// persist/flush seal (a batch seals once, at the end).
    fn dispatch<T: Transport<N::Msg, N::Output>>(
        &mut self,
        input: Input<N::Msg>,
        now: Time,
        transport: &mut T,
    ) {
        // The retained buffer is taken out so the node and the generation
        // table can be borrowed beside it, and put back, empty, after.
        let mut actions = std::mem::take(&mut self.actions);
        self.node.handle(input, &mut Context::buffered(self.me, self.n, now, &mut actions));
        for action in actions.drain(..) {
            match action {
                Action::Send { dest, msg } => transport.send(dest, msg),
                Action::SetTimer { id, after } => {
                    self.next_generation += 1;
                    let generation = self.next_generation;
                    self.generations.insert(id, generation);
                    transport.arm_timer(id, generation, after);
                }
                Action::CancelTimer { id } => {
                    // Dropping the entry orphans any queued firing: its
                    // generation can never match a future arming's.
                    self.generations.remove(&id);
                }
                Action::Output(out) => transport.deliver_output(out),
            }
        }
        self.actions = actions;
        self.ran = true;
    }
}

impl<N: Submitter> Engine<N> {
    /// Admits one client request into the node (mempool admission); the
    /// typed error is the backpressure signal.
    pub fn submit(&mut self, req: N::Request) -> Result<(), N::SubmitError> {
        self.node.accept(req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::WireSize;

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn deliver(k: u64) -> Event<Msg> {
        Event::Deliver { from: NodeId(0), msg: Msg(k) }
    }

    fn fire(id: u64, generation: u64) -> Event<Msg> {
        Event::Timer { id: TimerId(id), generation }
    }

    /// A node that re-arms timer 1 on start and echoes timer firings.
    struct TimerNode;
    impl Node for TimerNode {
        type Msg = Msg;
        type Output = u64;
        fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
            match input {
                Input::Start => {
                    ctx.set_timer(TimerId(1), 10);
                    ctx.set_timer(TimerId(1), 3); // replaces the first arming
                    ctx.set_timer(TimerId(2), 5);
                    ctx.cancel_timer(TimerId(2));
                }
                Input::Timer { id } => ctx.output(id.0),
                Input::Deliver { msg, .. } => ctx.output(msg.0),
                Input::PeerDown { .. } => {}
            }
        }
    }

    #[derive(Default)]
    struct Recorder {
        sends: Vec<(Dest, Msg)>,
        armed: Vec<(TimerId, u64, u64)>,
        outputs: Vec<u64>,
        flushes: usize,
    }
    impl Transport<Msg, u64> for Recorder {
        fn send(&mut self, dest: Dest, msg: Msg) {
            self.sends.push((dest, msg));
        }
        fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64) {
            self.armed.push((id, generation, after));
        }
        fn deliver_output(&mut self, out: u64) {
            self.outputs.push(out);
        }
        fn flush(&mut self) {
            self.flushes += 1;
        }
    }

    #[test]
    fn replaced_and_cancelled_timers_are_generation_filtered() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        // Generations come from one global never-reused counter: timer 1
        // armed twice (gen 1, then replaced by gen 2), timer 2 once
        // (gen 3, then cancelled — its entry is dropped, not bumped).
        assert_eq!(t.armed, vec![(TimerId(1), 1, 10), (TimerId(1), 2, 3), (TimerId(2), 3, 5)]);
        // The replaced arming is stale; the replacement fires.
        assert!(!engine.feed(fire(1, 1), Time(10), &mut t));
        assert!(engine.feed(fire(1, 2), Time(3), &mut t));
        // The cancelled timer's queued firing is stale too.
        assert!(!engine.feed(fire(2, 3), Time(5), &mut t));
        assert_eq!(t.outputs, vec![1]);
        // A consumed firing cannot replay.
        assert!(!engine.feed(fire(1, 2), Time(3), &mut t));
        engine.finish_batch(&mut t);
        assert_eq!(t.flushes, 2, "start sealed itself; the batch sealed once");
    }

    #[test]
    fn generation_table_stays_bounded_by_armed_timers() {
        // A protocol keying timers by an unbounded sequence number (one
        // fresh id per "slot", fired or cancelled soon after) must not
        // leak a table entry per id — the production-longevity regression.
        struct Churn;
        impl Node for Churn {
            type Msg = Msg;
            type Output = u64;
            fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
                if let Input::Deliver { msg, .. } = input {
                    ctx.set_timer(TimerId(msg.0), 1); // arm slot timer
                    if msg.0 >= 2 {
                        ctx.cancel_timer(TimerId(msg.0 - 2)); // retire an old one
                    }
                }
            }
        }
        let mut engine = Engine::new(Churn, NodeId(0), 1);
        let mut t = Recorder::default();
        for k in 0..10_000 {
            engine.feed(deliver(k), Time(k), &mut t);
            engine.finish_batch(&mut t);
        }
        assert!(engine.armed_timers() <= 2, "got {}", engine.armed_timers());
        // And firing the survivors empties the table entirely.
        for (id, generation, _) in t.armed.clone().iter().rev().take(2) {
            engine.feed(fire(id.0, *generation), Time(10_000), &mut t);
        }
        engine.finish_batch(&mut t);
        assert_eq!(engine.armed_timers(), 0);
    }

    #[test]
    fn deliveries_reach_the_node_and_outputs_the_transport() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.feed(deliver(42), Time(1), &mut t);
        engine.finish_batch(&mut t);
        assert_eq!(t.outputs, vec![42]);
    }

    /// A submitter whose pool holds one request.
    struct OneSlot {
        held: Option<u64>,
    }
    impl Node for OneSlot {
        type Msg = Msg;
        type Output = u64;
        fn handle(&mut self, input: Input<Msg>, ctx: &mut Context<'_, Msg, u64>) {
            if matches!(input, Input::Start) {
                if let Some(v) = self.held.take() {
                    ctx.output(v);
                }
            }
        }
    }
    impl Submitter for OneSlot {
        type Request = u64;
        type SubmitError = &'static str;
        fn accept(&mut self, req: u64) -> Result<(), &'static str> {
            if self.held.is_some() {
                return Err("full");
            }
            self.held = Some(req);
            Ok(())
        }
    }

    #[test]
    fn buffered_dispatches_seal_once_per_batch() {
        let mut engine = Engine::new(TimerNode, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.feed(deliver(1), Time(1), &mut t);
        engine.feed(deliver(2), Time(1), &mut t);
        engine.feed(deliver(3), Time(1), &mut t);
        assert_eq!(t.flushes, 0, "nothing seals until finish_batch");
        assert_eq!(t.outputs, vec![1, 2, 3], "actions still dispatch eagerly");
        engine.finish_batch(&mut t);
        assert_eq!(t.flushes, 1, "one flush covers the whole batch");
    }

    #[test]
    fn a_batch_seals_only_if_an_input_ran() {
        let mut engine = Engine::new(OneSlot { held: None }, NodeId(0), 1);
        let mut t = Recorder::default();
        engine.start(Time(0), &mut t);
        assert_eq!(t.flushes, 1, "the boot input is a batch of its own");
        // Nothing armed these timers, so both firings are stale.
        assert!(!engine.feed(fire(1, 1), Time(1), &mut t));
        assert!(!engine.feed(fire(2, 2), Time(1), &mut t));
        engine.finish_batch(&mut t);
        assert_eq!(t.flushes, 1, "a batch of stale timers is not sealed");
        assert_eq!(engine.submit(7), Ok(()));
        engine.finish_batch(&mut t);
        assert_eq!(t.flushes, 1, "a batch of submissions is not sealed");
        assert!(!engine.feed(fire(1, 1), Time(2), &mut t));
        assert!(engine.feed(deliver(1), Time(2), &mut t));
        engine.finish_batch(&mut t);
        engine.finish_batch(&mut t);
        assert_eq!(t.flushes, 2, "one delivery seals its batch exactly once");
    }

    #[test]
    fn submit_mux_applies_backpressure() {
        let mut engine = Engine::new(OneSlot { held: None }, NodeId(0), 1);
        let mut t = Recorder::default();
        assert_eq!(engine.submit(7), Ok(()));
        assert_eq!(engine.submit(8), Err("full"), "pool is full");
        engine.start(Time(0), &mut t);
        assert_eq!(t.outputs, vec![7], "the admitted request drains on start");
    }
}
