//! Drives one protocol state machine over real sockets and timers — the
//! reactor-backed TCP [`Transport`] underneath the shared
//! [`tetrabft_engine::Engine`] loop.
//!
//! Each node runs exactly **one** thread, independent of cluster size and
//! client count: the reactor (`reactor.rs`) owns every socket, and the
//! engine steps on the same thread between two waits, with the wall-clock
//! timer heap and the input queue held locally. No request crosses a
//! thread — clients, in-process ones included, write frames to the node's
//! port — only the stop flag and the links' cut flags do. One pass of the
//! loop:
//!
//! 1. supervise the links (dials, deadlines, due-frame writes), then wait
//!    once, until a socket is ready or the earliest link deadline, engine
//!    timer, pending stream-end hint, or the 25-ms poll tick;
//! 2. read every ready socket: decoded peer frames, client requests and
//!    stream-end hints join the input queue;
//! 3. feed the due timers, that queue and loopback deliveries to the engine
//!    one [`Event`] at a time through [`Engine::feed`] (client requests go
//!    to [`Engine::submit`]), closing a batch with
//!    [`Engine::finish_batch`] after every `MAX_BATCH` inputs and at the
//!    end of the pass — the engine seals (persist, then flush) only a
//!    batch in which the node ran;
//! 4. each seal's [`Transport::flush`] hands each peer's frames, framed
//!    once, straight to its link, which writes what is due at once.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::convert::Infallible;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use polling::Poller;
use tetrabft_engine::{
    Dest, Engine, Event, FrameRequest, Node, Submitter, Time, TimerId, Transport,
};
use tetrabft_types::NodeId;
use tetrabft_wire::frame::encode_frame_into;
use tetrabft_wire::{Wire, Writer};

use crate::link::LinkSetup;
use crate::reactor::{Reactor, ReactorConfig, SubmitCodec};
use crate::topology::{NetError, Topology};

/// One input waiting in the node's queue: an event for [`Engine::feed`]
/// (a peer-down hint means the peer's newest inbound stream ended and its
/// address refuses a dial), or a client request for [`Engine::submit`].
pub(crate) enum Queued<M, R> {
    Event(Event<M>),
    Submit(R),
}

/// An armed timer in the node's local deadline heap.
type Arming = (Instant, u64, TimerId);

/// Frames staged for one peer, handed to its link on flush.
type Batch = Vec<Arc<Vec<u8>>>;

/// How many queued inputs one pass may dispatch before it must seal:
/// bounds both worst-case flush latency and how long persisted state can
/// trail the newest processed input.
const MAX_BATCH: usize = 64;

/// A running node's thread. Dropping the handle stops the node and waits
/// for its thread to exit, closing every socket it owns.
#[derive(Debug)]
pub(crate) struct NodeHandle {
    stop: Arc<AtomicBool>,
    poller: Arc<Poller>,
    thread: Option<JoinHandle<()>>,
}

impl NodeHandle {
    /// Stops the node — its thread wakes, sees the flag and exits — and
    /// returns once the thread has exited.
    pub(crate) fn join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.poller.notify();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for NodeHandle {
    fn drop(&mut self) {
        self.join();
    }
}

/// The reactor-backed TCP transport, owned by the node's thread: frames
/// staged into per-peer outboxes and handed to the links on flush,
/// armings into the local timer heap, loopback deliveries back into the
/// input queue, outputs to the application channel.
struct TcpTransport<M, R, O> {
    me: NodeId,
    reactor: Reactor<R>,
    inputs: VecDeque<Queued<M, R>>,
    timers: BinaryHeap<Reverse<Arming>>,
    outputs: mpsc::Sender<(NodeId, O)>,
    /// Scratch encoder reused across sends: payload bytes land here, then
    /// are framed straight into the one outbound allocation per message.
    scratch: Writer,
    /// Per-peer staging (indexed by node id), drained by [`flush`].
    outbox: Vec<Batch>,
}

impl<M: Wire, R, O> TcpTransport<M, R, O> {
    /// Encodes `msg` into a varint-length-prefixed frame, or `None` if the
    /// payload exceeds the frame limit. Oversize payloads are dropped at
    /// this boundary — a lost message the protocol recovers from via view
    /// change — instead of panicking the node thread as v1 framing did.
    fn frame(&mut self, msg: &M) -> Option<Arc<Vec<u8>>> {
        self.scratch.clear();
        msg.encode(&mut self.scratch);
        let mut framed = Vec::with_capacity(self.scratch.len() + 3);
        match encode_frame_into(self.scratch.as_bytes(), &mut framed) {
            Ok(()) => Some(Arc::new(framed)),
            Err(_) => None,
        }
    }
}

impl<M: Wire, R, O> Transport<M, O> for TcpTransport<M, R, O> {
    fn send(&mut self, dest: Dest, msg: M) {
        let n = self.outbox.len();
        match dest {
            Dest::All => {
                if let Some(bytes) = self.frame(&msg) {
                    for i in 0..n {
                        if i != self.me.index() {
                            self.outbox[i].push(Arc::clone(&bytes));
                        }
                    }
                }
                // Loopback, like the simulator: instantaneous (and exempt
                // from the frame limit — it never touches a socket).
                self.inputs.push_back(Queued::Event(Event::Deliver { from: self.me, msg }));
            }
            Dest::Node(to) if to == self.me => {
                self.inputs.push_back(Queued::Event(Event::Deliver { from: self.me, msg }));
            }
            Dest::Node(to) => {
                if to.index() < n {
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
        // Everything this batch produced for a peer travels (and is
        // written) together.
        let now = Instant::now();
        for (i, batch) in self.outbox.iter_mut().enumerate() {
            if !batch.is_empty() {
                self.reactor.enqueue(NodeId(i as u16), batch.drain(..), now);
            }
        }
    }
}

/// What a node takes from its cluster: where every node listens, where its
/// outputs go, and its links' setup (conditioners, metrics, cut flags).
#[derive(Debug)]
pub(crate) struct Wiring<O> {
    pub topology: Topology,
    pub outputs: mpsc::Sender<(NodeId, O)>,
    pub links: LinkSetup,
}

/// Starts a peer-only node as `me` on `listener`, on a thread of its own:
/// it hangs up on client hellos.
pub(crate) fn spawn_peer<N>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    wiring: &Wiring<N::Output>,
) -> Result<NodeHandle, NetError>
where
    N: Node + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
{
    spawn::<N, Infallible>(node, me, listener, wiring, None, |_, never| match never {})
}

/// Like [`spawn_peer`] for a node that also serves clients on its listen
/// port: each client frame decodes through [`FrameRequest`] and is admitted
/// on the node's thread.
pub(crate) fn spawn_serving<N>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    wiring: &Wiring<N::Output>,
) -> Result<NodeHandle, NetError>
where
    N: Submitter + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
    N::Request: FrameRequest + Send + 'static,
{
    // Refused submissions (mempool full, degenerate tx) are dropped here;
    // the admission verdict lives on the node's thread.
    let admit = |engine: &mut Engine<N>, req| {
        let _ = engine.submit(req);
    };
    spawn(node, me, listener, wiring, Some(N::Request::from_frame), admit)
}

fn spawn<N, R>(
    node: N,
    me: NodeId,
    listener: TcpListener,
    wiring: &Wiring<N::Output>,
    codec: Option<SubmitCodec<R>>,
    admit: impl Fn(&mut Engine<N>, R) + Send + 'static,
) -> Result<NodeHandle, NetError>
where
    N: Node + Send + 'static,
    N::Msg: Wire + Send + 'static,
    N::Output: Send + 'static,
    R: Send + 'static,
{
    let (n, outputs) = (wiring.topology.len(), wiring.outputs.clone());
    let stop = Arc::new(AtomicBool::new(false));
    let poller = Arc::new(Poller::new().map_err(|source| NetError::Listener { source })?);
    // The incarnation is announced in every outbound hello and echoed as
    // the handshake ack, so peers can fence frames buffered for a previous
    // incarnation of this node.
    let reactor_cfg = ReactorConfig {
        me,
        my_incarnation: node.incarnation(),
        listener,
        topology: wiring.topology.clone(),
        links: wiring.links.clone(),
        codec,
    };
    let reactor = Reactor::new(reactor_cfg, Arc::clone(&poller))
        .map_err(|source| NetError::Listener { source })?;

    let loop_stop = Arc::clone(&stop);
    let thread = thread::spawn(move || {
        let start = Instant::now();
        let now = || Time(start.elapsed().as_millis() as u64);
        let mut engine = Engine::new(node, me, n);
        let mut io = TcpTransport {
            me,
            reactor,
            inputs: VecDeque::new(),
            timers: BinaryHeap::new(),
            outputs,
            scratch: Writer::new(),
            outbox: vec![Vec::new(); n],
        };
        engine.start(now(), &mut io);

        loop {
            let wall = Instant::now();
            let mut wait = io.reactor.supervise(wall, &mut io.inputs);
            if let Some(Reverse((due, _, _))) = io.timers.peek() {
                wait = wait.min(due.saturating_duration_since(wall));
            }
            if !io.inputs.is_empty() {
                wait = Duration::ZERO;
            }
            if io.reactor.wait(wait).is_err() || loop_stop.load(Ordering::Relaxed) {
                return; // drops the listener, every conn, and every link
            }
            let wall = Instant::now();
            while io.timers.peek().is_some_and(|Reverse((due, _, _))| *due <= wall) {
                let Reverse((_, generation, id)) = io.timers.pop().expect("peeked entry exists");
                io.inputs.push_back(Queued::Event(Event::Timer { id, generation }));
            }
            io.reactor.read(wall, &mut io.inputs);

            // Loopback deliveries join the back of the queue and are
            // dispatched in the same pass. Stale (replaced or cancelled)
            // firings die in the engine's generation filter, and the engine
            // seals a batch only if something in it ran.
            let mut batched = 0;
            while let Some(queued) = io.inputs.pop_front() {
                match queued {
                    Queued::Event(event) => {
                        engine.feed(event, now(), &mut io);
                    }
                    Queued::Submit(req) => admit(&mut engine, req),
                }
                batched += 1;
                if batched == MAX_BATCH || io.inputs.is_empty() {
                    engine.finish_batch(&mut io);
                    batched = 0;
                }
            }
        }
    });

    Ok(NodeHandle { stop, poller, thread: Some(thread) })
}
