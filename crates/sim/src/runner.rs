//! The simulation engine: a deterministic virtual-time [`Transport`]
//! underneath the shared [`tetrabft_engine::Engine`] loop.
//!
//! The simulator owns no protocol-driving logic — timer generations,
//! action dispatch, and the persist/flush seal (and whether a batch needs
//! one) live in `tetrabft-engine`. What remains here is purely the
//! *environment*: a global virtual-time event queue, a seeded
//! [`LinkPlan`], metrics, and traces.

use rand::rngs::StdRng;
use rand::SeedableRng;

use tetrabft_engine::{
    Dest, EdgeSpec, Engine, Event, LinkPlan, Node, Time, TimerId, Transport, WireSize,
};
use tetrabft_types::{AuditClaim, NodeId};

use crate::metrics::Metrics;
use crate::queue::EventQueue;
use crate::trace::TraceEvent;

/// A protocol output captured by the harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutputRecord<O> {
    /// Node that produced the output.
    pub node: NodeId,
    /// Virtual time of the output.
    pub time: Time,
    /// The output itself.
    pub output: O,
}

/// Builder for a [`Sim`].
///
/// # Examples
///
/// See the crate-level example.
#[derive(Debug)]
pub struct SimBuilder {
    n: usize,
    seed: u64,
    plan: LinkPlan,
    record_trace: bool,
}

impl SimBuilder {
    /// Starts building a simulation of `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "simulation needs at least one node");
        SimBuilder { n, seed: 0, plan: LinkPlan::uniform(EdgeSpec::delay(1)), record_trace: false }
    }

    /// Seeds the deterministic RNG (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Routes every message through `plan` — the same plan the TCP layer
    /// (`tetrabft-net`) consumes, so one scenario description drives both
    /// runtimes (one tick = one millisecond). The default is one tick per
    /// hop on every link, so decision times count message delays.
    pub fn plan(mut self, plan: &LinkPlan) -> Self {
        self.plan = plan.clone();
        self
    }

    /// Enables the event trace (off by default; it grows with the run).
    pub fn record_trace(mut self, on: bool) -> Self {
        self.record_trace = on;
        self
    }

    /// Does nothing: every simulation steps in batches (see [`Sim::step`]),
    /// so there is no mode left to select and `_on` is ignored. Kept only
    /// because the frozen `benchmark/src/replay.rs` still calls it; the
    /// first PR after a `benchmark` PR drops that call removes it.
    pub fn batched(self, _on: bool) -> Self {
        self
    }

    /// Instantiates the simulation, creating each node with `make`.
    ///
    /// `make` receives the node id so Byzantine actors can be placed at
    /// chosen positions (return different implementations behind a `Box`).
    pub fn build<M, O, N>(self, mut make: impl FnMut(NodeId) -> N) -> Sim<M, O>
    where
        M: WireSize + Clone + 'static,
        O: 'static,
        N: Node<Msg = M, Output = O> + 'static,
    {
        self.build_boxed(|id| Box::new(make(id)))
    }

    /// Like [`SimBuilder::build`] but the factory returns boxed nodes,
    /// allowing heterogeneous actor types (honest + Byzantine mixes).
    pub fn build_boxed<M, O>(
        self,
        mut make: impl FnMut(NodeId) -> Box<dyn Node<Msg = M, Output = O>>,
    ) -> Sim<M, O>
    where
        M: WireSize + Clone + 'static,
        O: 'static,
    {
        let n = self.n;
        let engines: Vec<_> =
            (0..n as u16).map(|i| Engine::new(make(NodeId(i)), NodeId(i), n)).collect();
        let mut sim = Sim {
            n,
            engines,
            plan: self.plan,
            rng: StdRng::seed_from_u64(self.seed),
            queue: EventQueue::new(),
            now: Time::ZERO,
            outputs: Vec::new(),
            metrics: Metrics::new(n),
            trace: self.record_trace.then(Vec::new),
        };
        sim.start();
        sim
    }
}

/// The virtual-time transport: routes sends through the link plan into
/// the global event queue, queues timer firings with their generation tag,
/// and records outputs. One instance is materialized per dispatch, borrowing
/// the simulation's shared state on behalf of the dispatching node.
struct SimTransport<'a, M, O> {
    me: NodeId,
    n: usize,
    now: Time,
    queue: &'a mut EventQueue<M>,
    plan: &'a LinkPlan,
    rng: &'a mut StdRng,
    metrics: &'a mut Metrics,
    trace: Option<&'a mut Vec<TraceEvent<M>>>,
    outputs: &'a mut Vec<OutputRecord<O>>,
}

/// What the wire recorder charges each copy of one send — size, kind and
/// audit claim — read once per send: a size or claim can cost a full encode
/// (and a proposal's block hash).
type Price = (usize, &'static str, Option<AuditClaim>);

impl<M: WireSize + Clone, O> SimTransport<'_, M, O> {
    /// Routes one copy of a send. `price` is filled by the send's first
    /// copy that leaves the node and reused by the rest.
    fn route(&mut self, to: NodeId, msg: M, price: &mut Option<Price>) {
        let from = self.me;
        if from == to {
            // Loopback: instantaneous, free, and lossless.
            if let Some(trace) = self.trace.as_deref_mut() {
                trace.push(TraceEvent::Sent { at: self.now, from, to, msg: msg.clone() });
            }
            self.queue.push(self.now, to, Event::Deliver { from, msg });
            return;
        }
        let (size, kind, claim) =
            *price.get_or_insert_with(|| (msg.wire_size(), msg.wire_kind(), msg.audit_claim()));
        self.metrics.on_send(from, kind, size);
        if let Some(claim) = claim {
            self.metrics.on_claim(from, claim);
        }
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.push(TraceEvent::Sent { at: self.now, from, to, msg: msg.clone() });
        }
        match self.plan.route_at(from, to, self.now.0, self.rng) {
            Some(at) => self.queue.push(Time(at), to, Event::Deliver { from, msg }),
            None => {
                self.metrics.msgs_dropped += 1;
                if let Some(trace) = self.trace.as_deref_mut() {
                    trace.push(TraceEvent::Dropped { at: self.now, from, to });
                }
            }
        }
    }
}

impl<M: WireSize + Clone, O> Transport<M, O> for SimTransport<'_, M, O> {
    fn send(&mut self, dest: Dest, msg: M) {
        match dest {
            Dest::All => {
                // One clone per recipient, but protocol messages keep their
                // bulk payloads behind `Arc` (a multi-shot proposal's tx
                // batch, a TCP frame's bytes), so each clone is a
                // refcount bump over one shared buffer — never a per-
                // recipient copy of the payload itself.
                let mut price = None;
                for to in 0..self.n as u16 {
                    self.route(NodeId(to), msg.clone(), &mut price);
                }
            }
            Dest::Node(to) => self.route(to, msg, &mut None),
        }
    }

    fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64) {
        self.queue.push(self.now + after, self.me, Event::Timer { id, generation });
    }

    fn deliver_output(&mut self, out: O) {
        self.outputs.push(OutputRecord { node: self.me, time: self.now, output: out });
    }
}

/// A running simulation over `n` protocol state machines, each wrapped in
/// a [`tetrabft_engine::Engine`].
///
/// Drive it with [`Sim::step`], [`Sim::run_until`], or
/// [`Sim::run_until_quiet`]; inspect results via [`Sim::outputs`],
/// [`Sim::metrics`], and [`Sim::trace`].
pub struct Sim<M: WireSize + Clone, O> {
    n: usize,
    engines: Vec<Engine<Box<dyn Node<Msg = M, Output = O>>>>,
    plan: LinkPlan,
    rng: StdRng,
    queue: EventQueue<M>,
    now: Time,
    outputs: Vec<OutputRecord<O>>,
    metrics: Metrics,
    trace: Option<Vec<TraceEvent<M>>>,
}

/// Splits a `Sim`'s fields into the dispatching node's engine plus a
/// `SimTransport` borrowing everything else — a macro because a `&mut
/// self` helper method could not hand out the engine and the transport's
/// disjoint field borrows at once.
macro_rules! engine_and_transport {
    ($sim:expr, $node:expr) => {{
        let transport = SimTransport {
            me: $node,
            n: $sim.n,
            now: $sim.now,
            queue: &mut $sim.queue,
            plan: &$sim.plan,
            rng: &mut $sim.rng,
            metrics: &mut $sim.metrics,
            trace: $sim.trace.as_mut(),
            outputs: &mut $sim.outputs,
        };
        (&mut $sim.engines[$node.index()], transport)
    }};
}

impl<M: WireSize + Clone, O> Sim<M, O> {
    /// Boots every node; the builder calls this once.
    fn start(&mut self) {
        for i in 0..self.n {
            self.metrics.events_processed += 1;
            let (engine, mut transport) = engine_and_transport!(self, NodeId(i as u16));
            engine.start(self.now, &mut transport);
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// All outputs produced so far, in emission order.
    pub fn outputs(&self) -> &[OutputRecord<O>] {
        &self.outputs
    }

    /// Communication metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&[TraceEvent<M>]> {
        self.trace.as_deref()
    }

    /// Processes one *batch* of queued events: the earliest event plus
    /// every consecutively queued event for the same node at the same
    /// virtual time, each fed through [`Engine::feed`], then closed with
    /// [`Engine::finish_batch`] (which seals — persist + flush — only if
    /// the node ran). Returns `false` when the queue is empty.
    ///
    /// A batch only ever takes the event that would be popped next anyway,
    /// so events are processed in exactly queue order — the batch decides
    /// only where the seals fall. `tests/batched_stepping.rs` pins whole
    /// runs against recordings made with a seal after every event.
    pub fn step(&mut self) -> bool {
        let Some(mut entry) = self.queue.pop() else { return false };
        debug_assert!(entry.at >= self.now, "time must be monotone");
        let (at, target) = (entry.at, entry.node);
        self.now = at;
        let (engine, mut transport) = engine_and_transport!(self, target);
        loop {
            if let (Some(trace), Event::Deliver { from, msg }) =
                (transport.trace.as_deref_mut(), &entry.event)
            {
                trace.push(TraceEvent::Delivered { at, from: *from, to: target, msg: msg.clone() });
            }
            // Stale timer firings die in the engine's generation filter; at
            // most one queued firing can carry the current generation, so
            // no removal is needed.
            if engine.feed(entry.event, at, &mut transport) {
                transport.metrics.events_processed += 1;
            }
            // The event may have pushed follow-ups (a loopback delivery
            // lands at `at` for `target`); peeking after each one keeps the
            // pop order exactly the queue's, extending the batch only while
            // the globally next event stays on this node at this instant.
            match transport.queue.peek_target() {
                Some(next) if next == (at, target) => {
                    entry = transport.queue.pop().expect("peeked event must pop");
                }
                _ => break,
            }
        }
        engine.finish_batch(&mut transport);
        true
    }

    /// Runs until the queue is empty or virtual time would exceed `horizon`.
    pub fn run_until(&mut self, horizon: Time) {
        while let Some(t) = self.queue.peek_time() {
            if t > horizon {
                break;
            }
            self.step();
        }
    }

    /// Runs until the event queue drains, with a hard cap of `max_steps`
    /// [`Sim::step`] calls — batches, each one or more events (protection
    /// against livelock in protocol bugs). Returns `true` if the queue
    /// drained.
    pub fn run_until_quiet(&mut self, max_steps: u64) -> bool {
        let mut steps = 0;
        while steps < max_steps {
            if !self.step() {
                return true;
            }
            steps += 1;
        }
        self.queue.peek_time().is_none()
    }

    /// Runs until at least `count` outputs exist or the queue drains or
    /// `max_steps` [`Sim::step`] calls were made. Returns `true` if the
    /// output target was reached.
    pub fn run_until_outputs(&mut self, count: usize, max_steps: u64) -> bool {
        let mut steps = 0;
        while self.outputs.len() < count && steps < max_steps {
            if !self.step() {
                break;
            }
            steps += 1;
        }
        self.outputs.len() >= count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actors::{FnNode, SilentNode};
    use crate::PartitionWindow;
    use std::cell::Cell;
    use std::rc::Rc;
    use tetrabft_engine::Input;
    use tetrabft_types::{Value, View};

    #[derive(Clone, Debug, PartialEq)]
    struct Msg(u64);
    impl WireSize for Msg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    #[test]
    fn a_broadcast_is_priced_once_and_charged_per_copy() {
        // Counts the calls to `wire_size` and to `audit_claim`.
        #[derive(Clone)]
        struct Counted(Rc<Cell<(u32, u32)>>);
        impl WireSize for Counted {
            fn wire_size(&self) -> usize {
                self.0.set((self.0.get().0 + 1, self.0.get().1));
                8
            }
            fn audit_claim(&self) -> Option<AuditClaim> {
                self.0.set((self.0.get().0, self.0.get().1 + 1));
                let value = Value::from_u64(1);
                Some(AuditClaim { slot: None, view: View(0), phase: None, value })
            }
        }
        let calls = Rc::new(Cell::new((0, 0)));
        let probe = calls.clone();
        let mut sim = SimBuilder::new(4).build(move |id| {
            let probe = probe.clone();
            FnNode::<Counted, (), _>::new(move |input, ctx| {
                if matches!(input, Input::Start) && id == NodeId(0) {
                    ctx.broadcast(Counted(probe.clone()));
                }
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(calls.get(), (1, 1), "one broadcast is sized and audited once");
        // Each of the three copies that leave node 0 is still charged.
        assert_eq!((sim.metrics().total_msgs_sent(), sim.metrics().total_bytes_sent()), (3, 24));
    }

    #[test]
    fn start_is_delivered_to_every_node() {
        let mut sim = SimBuilder::new(3).build(|_| {
            FnNode::<Msg, (), _>::new(|input, ctx| {
                if matches!(input, Input::Start) {
                    ctx.output(());
                }
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 3);
    }

    #[test]
    fn broadcast_reaches_all_including_self() {
        let mut sim = SimBuilder::new(4).build(|id| {
            FnNode::<Msg, (NodeId, NodeId), _>::new(move |input, ctx| match input {
                Input::Start if id == NodeId(0) => ctx.broadcast(Msg(1)),
                Input::Deliver { from, .. } => ctx.output((from, ctx.me())),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 4);
        // Loopback delivered at t=0; network copies at t=1.
        let self_delivery = sim.outputs().iter().find(|o| o.node == NodeId(0)).unwrap();
        assert_eq!(self_delivery.time, Time(0));
        for o in sim.outputs().iter().filter(|o| o.node != NodeId(0)) {
            assert_eq!(o.time, Time(1));
        }
        // Loopback is free: 3 network messages only.
        assert_eq!(sim.metrics().total_msgs_sent(), 3);
        assert_eq!(sim.metrics().total_bytes_sent(), 24);
    }

    #[test]
    fn timers_fire_once_and_replacement_works() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(7), 10);
                    ctx.set_timer(TimerId(7), 3); // replaces the first arming
                }
                Input::Timer { id } => ctx.output(id.0 + ctx.now().0),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.outputs().len(), 1, "replaced timer must fire once");
        assert_eq!(sim.outputs()[0].time, Time(3));
    }

    #[test]
    fn rearming_after_a_fire_cannot_resurrect_an_orphaned_event() {
        // Arm (gen 1, due t=100), replace (gen 2, due t=10), fire at t=10,
        // re-arm from the handler. The orphaned gen-1 event still queued for
        // t=100 must stay dead; only the re-armed timer (t=110) may fire.
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(7), 100);
                    ctx.set_timer(TimerId(7), 10);
                }
                Input::Timer { .. } if ctx.now() == Time(10) => {
                    ctx.output(ctx.now().0);
                    ctx.set_timer(TimerId(7), 100);
                }
                Input::Timer { .. } => ctx.output(ctx.now().0),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        let times: Vec<u64> = sim.outputs().iter().map(|o| o.output).collect();
        assert_eq!(times, vec![10, 110], "orphaned t=100 firing must not resurrect");
    }

    #[test]
    fn cancelled_timer_never_fires() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, (), _>::new(|input, ctx| match input {
                Input::Start => {
                    ctx.set_timer(TimerId(1), 5);
                    ctx.cancel_timer(TimerId(1));
                }
                Input::Timer { .. } => ctx.output(()),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        assert!(sim.outputs().is_empty());
    }

    #[test]
    fn silent_node_does_nothing() {
        let mut sim = SimBuilder::new(2).record_trace(true).build_boxed(|id| {
            if id == NodeId(0) {
                Box::new(FnNode::<Msg, (), _>::new(|input, ctx| {
                    if matches!(input, Input::Start) {
                        ctx.broadcast(Msg(9));
                    }
                }))
            } else {
                Box::new(SilentNode::new())
            }
        });
        sim.run_until_quiet(100);
        assert!(sim.outputs().is_empty());
        assert_eq!(sim.metrics().node(NodeId(1)).msgs_sent, 0);
        let to_silent: Vec<_> = sim
            .trace()
            .unwrap()
            .iter()
            .filter_map(|event| match event {
                TraceEvent::Delivered { from, to: NodeId(1), msg, .. } => Some((*from, msg)),
                _ => None,
            })
            .collect();
        assert_eq!(to_silent, [(NodeId(0), &Msg(9))], "the broadcast reached the silent node");
    }

    #[test]
    fn drops_are_counted() {
        let lossy = PartitionWindow::from_group(0, 100, [NodeId(0), NodeId(1)]).lose(1.0);
        let plan = LinkPlan::uniform(EdgeSpec::delay(1)).partition(lossy);
        let mut sim = SimBuilder::new(2).plan(&plan).build(|id| {
            FnNode::<Msg, (), _>::new(move |input, ctx| {
                if matches!(input, Input::Start) && id == NodeId(0) {
                    ctx.send(NodeId(1), Msg(1));
                }
            })
        });
        sim.run_until_quiet(100);
        assert_eq!(sim.metrics().msgs_dropped, 1);
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let plan = LinkPlan::uniform(EdgeSpec::delay(1).with_jitter(6));
            let mut sim = SimBuilder::new(3).seed(seed).plan(&plan).build(|id| {
                FnNode::<Msg, (NodeId, u64), _>::new(move |input, ctx| match input {
                    Input::Start if id == NodeId(0) => ctx.broadcast(Msg(0)),
                    Input::Deliver { msg: Msg(k), .. } if k < 3 => ctx.broadcast(Msg(k + 1)),
                    Input::Deliver { msg: Msg(k), .. } => ctx.output((ctx.me(), k)),
                    _ => {}
                })
            });
            sim.run_until_quiet(10_000);
            (sim.outputs().to_vec(), sim.metrics().total_bytes_sent())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).1, 0);
    }

    #[test]
    fn trace_records_send_and_delivery() {
        let mut sim = SimBuilder::new(2).record_trace(true).build(|id| {
            FnNode::<Msg, (), _>::new(move |input, ctx| {
                if matches!(input, Input::Start) && id == NodeId(0) {
                    ctx.send(NodeId(1), Msg(5));
                }
            })
        });
        sim.run_until_quiet(100);
        let trace = sim.trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert!(matches!(trace[0], TraceEvent::Sent { .. }));
        assert!(matches!(trace[1], TraceEvent::Delivered { .. }));
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut sim = SimBuilder::new(1).build(|_| {
            FnNode::<Msg, u64, _>::new(|input, ctx| match input {
                Input::Start => ctx.set_timer(TimerId(0), 10),
                Input::Timer { .. } => {
                    ctx.output(ctx.now().0);
                    ctx.set_timer(TimerId(0), 10);
                }
                _ => {}
            })
        });
        sim.run_until(Time(35));
        assert_eq!(sim.outputs().len(), 3); // t=10, 20, 30
        assert_eq!(sim.now(), Time(30));
    }

    #[test]
    fn policy_mirrors_the_plan_in_virtual_time() {
        // Node 0 is cut off until tick 600; nodes 0 and 1 each send node 2
        // one message at tick 0, and node 2 reports when each arrives.
        let plan = LinkPlan::uniform(EdgeSpec::delay(30)).partition(PartitionWindow::isolate(
            0,
            600,
            [NodeId(0)],
        ));
        let mut sim = SimBuilder::new(3).plan(&plan).build(|id| {
            FnNode::<Msg, (NodeId, u64), _>::new(move |input, ctx| match input {
                Input::Start if id != NodeId(2) => ctx.send(NodeId(2), Msg(0)),
                Input::Deliver { from, .. } => ctx.output((from, ctx.now().0)),
                _ => {}
            })
        });
        sim.run_until_quiet(100);
        let arrivals: Vec<_> = sim.outputs().iter().map(|o| o.output).collect();
        // Severed traffic heals at the window end plus the edge delay.
        assert_eq!(arrivals, [(NodeId(1), 30), (NodeId(0), 630)]);
    }
}
