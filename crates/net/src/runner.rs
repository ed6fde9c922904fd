//! Drives one protocol state machine over real sockets and timers — the
//! reactor-backed TCP [`Transport`] underneath the shared
//! [`tetrabft_engine::Engine`] loop.
//!
//! Each node runs exactly **two** threads, independent of cluster size and
//! client count:
//!
//! * the **reactor** (`reactor.rs`): one readiness-polled event loop
//!   owning the listener, every inbound peer/client connection, and every
//!   supervised outbound link;
//! * the **engine loop** (this module): drains the node's single event
//!   channel (deliveries, due timers, client submissions), steps the
//!   engine in bounded batches, and keeps the wall-clock timer heap
//!   locally — armings never cross a thread.
//!
//! Outbound messages are staged per event batch: each wakeup drains every
//! already-queued event (bounded by `MAX_BATCH`) through the engine's
//! `*_buffered` entry points, the transport frames each message once and
//! parks it in a per-peer outbox, and one [`Transport::flush`] at the end
//! of the batch hands each peer's staged frames to the reactor in a single
//! channel operation plus one poller wakeup.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use polling::Poller;
use tetrabft_engine::{Dest, Engine, Node, Submitter, Time, TimerId, Transport};
use tetrabft_sim::LinkPlan;
use tetrabft_types::NodeId;
use tetrabft_wire::frame::encode_frame_into;
use tetrabft_wire::{Wire, Writer};

use crate::link::LinkSetup;
use crate::reactor::{run_reactor, ReactorConfig, SubmitCodec};
use crate::topology::{NetError, Topology};

/// Internal events multiplexed into the node's single-threaded loop.
/// (Timer firings no longer appear here: the engine loop owns its timer
/// heap outright, so a due timer is a heap pop, not a channel message.)
pub(crate) enum Event<M, R> {
    Deliver { from: NodeId, msg: M },
    Submit(R),
    // The peer's newest inbound stream ended and its address refuses a dial.
    PeerDown(NodeId),
}

/// An armed timer in the engine loop's local deadline heap.
type Arming = (Instant, u64, TimerId);

/// A spawned node: its stop handle plus the event channel feeding its
/// engine mux (kept internal; submitters wrap it in a [`SubmitHandle`]).
type Spawned<M, R> = (NodeHandle, mpsc::Sender<Event<M, R>>);

/// Frames staged for one peer, handed to the reactor on flush.
type Batch = Vec<Arc<Vec<u8>>>;

/// How many queued events one wakeup may drain before it must seal:
/// bounds both worst-case flush latency and how long persisted state can
/// trail the newest processed input.
const MAX_BATCH: usize = 64;

/// Upper bound on one engine-loop wait, so the stop flag is noticed
/// promptly even on an idle node.
const ENGINE_POLL: Duration = Duration::from_millis(20);

/// Handle to a running node.
///
/// The node's event loop stops when the handle is aborted or dropped; its
/// reactor unwinds with it, closing every socket it owns.
#[derive(Debug)]
pub struct NodeHandle {
    stop: Arc<AtomicBool>,
}

impl NodeHandle {
    /// Stops the node.
    pub fn abort(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.abort();
    }
}

/// A client's way into a running node's engine mux: submissions travel the
/// same event channel as deliveries and timer firings.
///
/// Admission happens on the node's own thread; a transaction the mempool
/// refuses (full, oversized, duplicate) is dropped there — at the TCP
/// boundary backpressure is best-effort, while in-process embedders get
/// the typed error from the node's own submit API.
pub struct SubmitHandle<R> {
    send: Box<dyn Fn(R) -> Result<(), SubmitClosed> + Send>,
}

impl<R> std::fmt::Debug for SubmitHandle<R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitHandle").finish_non_exhaustive()
    }
}

/// The node this handle fed has shut down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitClosed;

impl std::fmt::Display for SubmitClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node is no longer running")
    }
}

impl std::error::Error for SubmitClosed {}

impl<R> SubmitHandle<R> {
    /// Enqueues one client request for the node's engine mux. Accepts
    /// anything convertible into the node's request type — for
    /// `MultiShotNode` that is the typed `Tx` envelope, so both typed
    /// transactions and legacy `Vec<u8>` payloads submit directly.
    ///
    /// # Errors
    ///
    /// [`SubmitClosed`] if the node has stopped.
    pub fn submit(&self, req: impl Into<R>) -> Result<(), SubmitClosed> {
        (self.send)(req.into())
    }
}

/// The reactor-backed TCP transport: frames staged into per-peer outboxes
/// and handed to the reactor on flush (one channel send per peer plus one
/// poller wakeup), armings into the engine loop's local timer heap,
/// loopback deliveries back into the event channel, outputs to the
/// application channel.
struct TcpTransport<'a, M, R, O> {
    me: NodeId,
    n: usize,
    cmds: &'a mpsc::Sender<(NodeId, Batch)>,
    poller: &'a Poller,
    events: &'a mpsc::Sender<Event<M, R>>,
    timers: &'a mut BinaryHeap<Reverse<Arming>>,
    outputs: &'a mpsc::Sender<(NodeId, O)>,
    /// Scratch encoder reused across sends: payload bytes land here, then
    /// are framed straight into the one outbound allocation per message.
    scratch: &'a mut Writer,
    /// Per-peer staging (indexed by node id), drained by [`flush`]. Lives
    /// outside the per-event transport so its allocations are reused.
    outbox: &'a mut [Batch],
}

impl<M: Wire, R, O> TcpTransport<'_, M, R, O> {
    /// Encodes `msg` into a varint-length-prefixed frame, or `None` if the
    /// payload exceeds the frame limit. Oversize payloads are dropped at
    /// this boundary — a lost message the protocol recovers from via view
    /// change — instead of panicking the node thread as v1 framing did.
    fn frame(&mut self, msg: &M) -> Option<Arc<Vec<u8>>> {
        self.scratch.clear();
        msg.encode(self.scratch);
        let mut framed = Vec::with_capacity(self.scratch.len() + 3);
        match encode_frame_into(self.scratch.as_bytes(), &mut framed) {
            Ok(()) => Some(Arc::new(framed)),
            Err(_) => None,
        }
    }
}

impl<M: Wire, R, O> Transport<M, O> for TcpTransport<'_, M, R, O> {
    fn send(&mut self, dest: Dest, msg: M) {
        match dest {
            Dest::All => {
                if let Some(bytes) = self.frame(&msg) {
                    for i in 0..self.n {
                        if i != self.me.index() {
                            self.outbox[i].push(Arc::clone(&bytes));
                        }
                    }
                }
                // Loopback, like the simulator: instantaneous (and exempt
                // from the frame limit — it never touches a socket).
                let _ = self.events.send(Event::Deliver { from: self.me, msg });
            }
            Dest::Node(to) if to == self.me => {
                let _ = self.events.send(Event::Deliver { from: self.me, msg });
            }
            Dest::Node(to) => {
                if to.index() < self.n {
                    if let Some(bytes) = self.frame(&msg) {
                        self.outbox[to.index()].push(bytes);
                    }
                }
            }
        }
    }

    fn arm_timer(&mut self, id: TimerId, generation: u64, after: u64) {
        let due = Instant::now() + Duration::from_millis(after);
        self.timers.push(Reverse((due, generation, id)));
    }

    fn deliver_output(&mut self, out: O) {
        let _ = self.outputs.send((self.me, out));
    }

    fn flush(&mut self) {
        // One channel handoff per peer per engine batch, then a single
        // reactor wakeup: everything this batch produced for a peer
        // travels (and is later written) together.
        let mut handed_off = false;
        for (i, batch) in self.outbox.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if self.cmds.send((NodeId(i as u16), std::mem::take(batch))).is_ok() {
                handed_off = true;
            } else {
                batch.clear();
            }
        }
        if handed_off {
            let _ = self.poller.notify();
        }
    }
}

/// Runs `node` as `me`, listening on `listener` and dialing the peers of
/// `topology` (indexed by [`NodeId`]); outputs are forwarded to `outputs`.
///
/// Every outbound link is supervised reactor state: it dials with capped
/// jittered backoff, re-handshakes after drops, and resends unretired
/// frames, so peers may boot in any order and flapping connections only
/// delay traffic. One protocol tick is one millisecond of wall-clock time.
///
/// # Errors
///
/// [`NetError`] if the listener or poller cannot be configured.
pub fn run_node<N>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    topology: Topology,
    outputs: mpsc::Sender<(NodeId, N::Output)>,
) -> Result<NodeHandle, NetError>
where
    N: Node + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
{
    let links = LinkSetup::new(LinkPlan::ideal(), topology.len(), 0);
    let (handle, _event_tx) = run_node_inner::<N, std::convert::Infallible>(
        node,
        me,
        listener,
        topology,
        outputs,
        links,
        None,
        |_, never| match never {},
    )?;
    Ok(handle)
}

/// Like [`run_node`] for nodes accepting client submissions
/// ([`Submitter`]): the returned [`SubmitHandle`] feeds requests into the
/// node's engine mux alongside deliveries and timers.
///
/// # Errors
///
/// As [`run_node`].
pub fn run_submitter<N>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    topology: Topology,
    outputs: mpsc::Sender<(NodeId, N::Output)>,
) -> Result<(NodeHandle, SubmitHandle<N::Request>), NetError>
where
    N: Submitter + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
    N::Request: Send + 'static,
{
    let links = LinkSetup::new(LinkPlan::ideal(), topology.len(), 0);
    run_submitter_inner(node, me, listener, topology, outputs, links, None)
}

pub(crate) fn run_submitter_inner<N>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    topology: Topology,
    outputs: mpsc::Sender<(NodeId, N::Output)>,
    links: LinkSetup,
    codec: Option<SubmitCodec<N::Request>>,
) -> Result<(NodeHandle, SubmitHandle<N::Request>), NetError>
where
    N: Submitter + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
    N::Request: Send + 'static,
{
    let (handle, event_tx) = run_node_inner::<N, N::Request>(
        node,
        me,
        listener,
        topology,
        outputs,
        links,
        codec,
        // Refused submissions (mempool full, degenerate tx) are dropped
        // here; the admission verdict lives on the node's thread.
        |engine, req| {
            let _ = engine.submit(req);
        },
    )?;
    let submit = SubmitHandle {
        send: Box::new(move |req| event_tx.send(Event::Submit(req)).map_err(|_| SubmitClosed)),
    };
    Ok((handle, submit))
}

#[allow(clippy::too_many_arguments)] // internal seam; public entry points are narrow
pub(crate) fn run_node_inner<N, R>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    topology: Topology,
    outputs: mpsc::Sender<(NodeId, N::Output)>,
    links: LinkSetup,
    codec: Option<SubmitCodec<R>>,
    mut on_submit: impl FnMut(&mut Engine<N>, R) + Send + 'static,
) -> Result<Spawned<N::Msg, R>, NetError>
where
    N: Node + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
    R: Send + 'static,
{
    let n = topology.len();
    let stop = Arc::new(AtomicBool::new(false));
    let (event_tx, event_rx) = mpsc::channel::<Event<N::Msg, R>>();
    // Captured before the node moves into its thread: announced in every
    // outbound hello and echoed as the handshake ack, so peers can fence
    // frames buffered for a previous incarnation of this node.
    let my_incarnation = node.incarnation();

    let poller = Arc::new(Poller::new().map_err(|source| NetError::Listener { source })?);
    let (cmd_tx, cmd_rx) = mpsc::channel::<(NodeId, Batch)>();

    // Thread 1 of 2: the reactor — listener, inbound connections, and
    // supervised outbound links, all multiplexed on one poller.
    let reactor_cfg = ReactorConfig {
        me,
        my_incarnation,
        listener,
        topology,
        links,
        codec,
        stop: Arc::clone(&stop),
    };
    let reactor_poller = Arc::clone(&poller);
    let reactor_events = event_tx.clone();
    thread::spawn(move || {
        run_reactor::<N::Msg, R>(reactor_cfg, reactor_poller, cmd_rx, reactor_events)
    });

    // Thread 2 of 2: the engine loop, with the timer heap held locally —
    // an arming is a heap push, a firing is a heap pop, no thread hop.
    let loop_stop = Arc::clone(&stop);
    let loop_events = event_tx.clone();
    thread::spawn(move || {
        let start = Instant::now();
        let mut engine = Engine::new(node, me, n);
        let mut scratch = Writer::new();
        let mut outbox: Vec<Batch> = vec![Vec::new(); n];
        let mut timer_heap: BinaryHeap<Reverse<Arming>> = BinaryHeap::new();
        let mut due_timers: Vec<(TimerId, u64)> = Vec::new();
        let now = || Time(start.elapsed().as_millis() as u64);

        // Boot the state machine.
        {
            let mut transport = TcpTransport {
                me,
                n,
                cmds: &cmd_tx,
                poller: &poller,
                events: &loop_events,
                timers: &mut timer_heap,
                outputs: &outputs,
                scratch: &mut scratch,
                outbox: &mut outbox,
            };
            engine.start(now(), &mut transport);
        }

        while !loop_stop.load(Ordering::Relaxed) {
            // Pop everything due; the batch below dispatches it. Armings
            // made *during* the batch land in the heap through the
            // transport and are picked up next iteration.
            let now_wall = Instant::now();
            while timer_heap.peek().is_some_and(|Reverse((due, _, _))| *due <= now_wall) {
                let Reverse((_, generation, id)) = timer_heap.pop().expect("peeked entry exists");
                due_timers.push((id, generation));
            }
            let first = if due_timers.is_empty() {
                let wait = match timer_heap.peek() {
                    Some(Reverse((due, _, _))) => {
                        ENGINE_POLL.min(due.saturating_duration_since(now_wall))
                    }
                    None => ENGINE_POLL,
                };
                match event_rx.recv_timeout(wait.max(Duration::from_millis(1))) {
                    Ok(event) => Some(event),
                    Err(mpsc::RecvTimeoutError::Timeout) => None,
                    Err(mpsc::RecvTimeoutError::Disconnected) => return,
                }
            } else {
                event_rx.try_recv().ok()
            };
            if due_timers.is_empty() && first.is_none() {
                continue;
            }
            let mut transport = TcpTransport {
                me,
                n,
                cmds: &cmd_tx,
                poller: &poller,
                events: &loop_events,
                timers: &mut timer_heap,
                outputs: &outputs,
                scratch: &mut scratch,
                outbox: &mut outbox,
            };
            // Drain whatever is already queued (due timers, bursts of
            // deliveries) in the same wakeup: one persist/flush seal and
            // one reactor wakeup per *batch* instead of per event.
            let mut dispatched = false;
            let mut drained = 0;
            for (id, generation) in due_timers.drain(..) {
                // Stale (replaced or cancelled) firings die in the
                // engine's generation filter.
                dispatched |= engine.on_timer_buffered(id, generation, now(), &mut transport);
                drained += 1;
            }
            let mut event = first;
            while let Some(ev) = event.take() {
                match ev {
                    Event::Deliver { from, msg } => {
                        engine.on_deliver_buffered(from, msg, now(), &mut transport);
                        dispatched = true;
                    }
                    Event::Submit(req) => on_submit(&mut engine, req),
                    Event::PeerDown(peer) => {
                        engine.on_peer_down_buffered(peer, now(), &mut transport);
                        dispatched = true;
                    }
                }
                drained += 1;
                if drained < MAX_BATCH {
                    event = event_rx.try_recv().ok();
                }
            }
            if dispatched {
                engine.finish_batch(&mut transport);
            }
        }
    });

    Ok((NodeHandle { stop }, event_tx))
}
