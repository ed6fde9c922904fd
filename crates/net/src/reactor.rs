//! The I/O half of a node's one thread: every socket the node touches — its
//! listener, every inbound peer/client connection, every supervised outbound
//! link — multiplexed with readiness-based polling (the `polling` shim
//! over Linux epoll).
//!
//! The engine steps on the same thread between two waits (`runner.rs`), so
//! a node runs exactly **one** thread, independent of cluster size or client
//! count: where the old runtime spawned an accept thread, a reader thread per
//! inbound connection, a supervisor thread per outbound edge, a timer thread
//! and then an engine thread, the reactor holds them all as state:
//!
//! * the listener is polled for accept readiness; accepted connections
//!   run a non-blocking hello state machine (10-byte hello in, 8-byte
//!   incarnation ack out) before streaming length-prefixed frames into
//!   the zero-copy [`FrameDecoder`];
//! * a hello naming the reserved client id (`0xFFFF`) marks a **client
//!   submission connection** (only honored when the node runs with a
//!   request codec — see `ClusterBuilder::spawn_serving`): its frames
//!   decode as client requests and join the engine's input queue as
//!   submissions — the only way a request reaches the engine — which is
//!   how one node serves thousands of submitting clients without a thread
//!   per connection;
//! * outbound links are [`Link`] state machines (dial → handshake → up,
//!   with jittered backoff, incarnation fencing, bounded buffered
//!   resume — see `supervisor.rs`);
//! * the engine's flush hands each peer's staged frames straight to its
//!   link ([`Reactor::enqueue`]), which writes what is due at once;
//!   `NetControl` cut flags and scripted partition windows are observed
//!   within one poll tick (25 ms);
//! * when a peer's newest inbound stream has ended and this node's own
//!   dial to the peer has failed since, the engine is told so
//!   (`Input::PeerDown`) through the input queue that carried the stream's
//!   frames — in a later pass than the last of them, so behind it.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Event as PollEvent, Events, Poller};

use tetrabft_engine::Event;
use tetrabft_types::NodeId;
use tetrabft_wire::frame::FrameDecoder;
use tetrabft_wire::{Wire, WireError};

use crate::link::LinkSetup;
use crate::runner::Queued;
use crate::supervisor::{Link, LinkConfig};
use crate::topology::Topology;

/// The hello id that marks a client submission connection instead of a
/// peer. Never a valid [`NodeId`] slot (topologies are far smaller), so
/// peers and clients share one listen port. A TCP client dials a node,
/// sends the 10-byte hello (`CLIENT_HELLO_ID` big-endian + 8 zero bytes),
/// reads the 8-byte ack, then streams length-prefixed request frames.
pub const CLIENT_HELLO_ID: u16 = 0xFFFF;

/// Upper bound on one poller wait, so cut flags, partition-window starts,
/// and the stop flag are noticed promptly even on an idle node.
const POLL: Duration = Duration::from_millis(25);

/// Per readiness event, how many buffer-fulls one connection may read
/// before the reactor moves on (re-arming keeps the remainder pending), so
/// one firehose connection cannot starve the rest of the node.
const READS_PER_EVENT: usize = 16;

const LISTENER_KEY: usize = 0;

/// Decodes one client frame into a request.
pub(crate) type SubmitCodec<R> = fn(&[u8]) -> Option<R>;

/// Everything the reactor needs to run one node's I/O.
pub(crate) struct ReactorConfig<R> {
    pub me: NodeId,
    pub my_incarnation: u64,
    pub listener: TcpListener,
    pub topology: Topology,
    pub links: LinkSetup,
    /// Decodes a client frame into a request; `None` refuses client
    /// connections (peer-only node).
    pub codec: Option<SubmitCodec<R>>,
}

/// One accepted connection's progress through hello → ack → streaming.
enum InState {
    /// Reading the 10-byte hello (sender id + sender incarnation).
    Hello { buf: [u8; 10], got: usize },
    /// Writing our 8-byte incarnation ack back.
    Ack { from: Option<NodeId>, sent: usize },
    /// Streaming frames; `None` is a client submission connection.
    Streaming { from: Option<NodeId> },
}

struct Inbound {
    stream: TcpStream,
    state: InState,
    decoder: FrameDecoder,
}

/// One node's sockets. Dropping it closes the listener, every connection
/// and every link.
pub(crate) struct Reactor<R> {
    cfg: ReactorConfig<R>,
    poller: Arc<Poller>,
    /// Outbound links, keyed 1 + peer index (our own slot stays None).
    links: Vec<Option<Link>>,
    conns: HashMap<usize, Inbound>,
    next_key: usize,
    /// Per peer, the key of the newest connection that said hello as it —
    /// the only one whose end is news — and, once that one has ended, when
    /// (`hint_due`): news the engine hears if the peer is gone, not if its
    /// link flapped, so it waits for this node's own dial to fail, and is
    /// forgotten when the peer says hello again.
    newest: Vec<Option<usize>>,
    ended: Vec<Option<(Instant, Instant)>>,
    poll_events: Events,
    read_buf: Vec<u8>,
    /// Streaming connections read this pass, in readiness order.
    fed: Vec<usize>,
}

impl<R> Reactor<R> {
    /// Registers the listener with `poller` and sets up one supervised link
    /// per peer (each dials on the first [`Reactor::supervise`]).
    pub(crate) fn new(cfg: ReactorConfig<R>, poller: Arc<Poller>) -> io::Result<Self> {
        cfg.listener.set_nonblocking(true)?;
        poller.add(&cfg.listener, PollEvent::readable(LISTENER_KEY))?;
        let n = cfg.topology.len();
        let links = (0..n)
            .map(|i| {
                let peer = NodeId(i as u16);
                if peer == cfg.me {
                    return None;
                }
                let link_cfg = LinkConfig {
                    me: cfg.me,
                    my_incarnation: cfg.my_incarnation,
                    addr: cfg.topology.addr(peer),
                    conditioner: cfg.links.conditioner(cfg.me, peer),
                    cut: cfg.links.cut_flag(cfg.me, peer),
                    metrics: Arc::clone(&cfg.links.metrics),
                };
                // One jitter stream per directed edge, seeded by the edge.
                let jitter_seed = (u64::from(cfg.me.0) << 16) | u64::from(peer.0);
                Some(Link::new(link_cfg, 1 + i, jitter_seed))
            })
            .collect();
        Ok(Reactor {
            cfg,
            poller,
            links,
            conns: HashMap::new(),
            next_key: n + 1,
            newest: vec![None; n],
            ended: vec![None; n],
            poll_events: Events::new(),
            read_buf: vec![0u8; 64 * 1024],
            fed: Vec::new(),
        })
    }

    /// Hands frames the engine flushed for `peer` to its link, which writes
    /// what is due right away.
    pub(crate) fn enqueue(
        &mut self,
        peer: NodeId,
        frames: impl IntoIterator<Item = Arc<Vec<u8>>>,
        now: Instant,
    ) {
        if let Some(link) = self.links.get_mut(peer.index()).and_then(Option::as_mut) {
            link.enqueue(frames, now);
            link.housekeep(now, &self.poller);
        }
    }

    /// Supervision pass — dials, deadlines, due-frame writes — and every
    /// stream-end hint whose time has come, into `inputs`. Returns how long
    /// the node may wait before the reactor needs it again.
    pub(crate) fn supervise<M>(
        &mut self,
        now: Instant,
        inputs: &mut VecDeque<Queued<M, R>>,
    ) -> Duration {
        let mut wait = POLL;
        for link in self.links.iter_mut().flatten() {
            if let Some(deadline) = link.housekeep(now, &self.poller) {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }
        // A stream's end becomes a hint once its hold is over and a dial of
        // ours has found nobody listening since.
        for (peer, slot) in self.ended.iter_mut().enumerate() {
            let Some((seen, due)) = *slot else { continue };
            if due > now {
                wait = wait.min(due - now);
            } else if self.links[peer].as_ref().is_some_and(|link| link.dial_failed_since(seen)) {
                *slot = None;
                self.cfg.links.metrics.peer_downs.fetch_add(1, Ordering::Relaxed);
                inputs.push_back(Queued::Event(Event::PeerDown { peer: NodeId(peer as u16) }));
            }
        }
        wait
    }

    /// Blocks until a socket is ready, a [`Poller::notify`], or `timeout`.
    pub(crate) fn wait(&mut self, timeout: Duration) -> io::Result<usize> {
        self.cfg.links.metrics.poll_wakeups.fetch_add(1, Ordering::Relaxed);
        self.poller.wait(&mut self.poll_events, Some(timeout))
    }

    /// Serves every socket the last [`Reactor::wait`] found ready: accepts,
    /// link progress, and inbound reads, whose decoded peer frames and client
    /// requests join `inputs`.
    pub(crate) fn read<M: Wire>(&mut self, now: Instant, inputs: &mut VecDeque<Queued<M, R>>) {
        let n = self.links.len();
        let mut closing = Vec::new();
        for ev in self.poll_events.iter() {
            match ev.key {
                LISTENER_KEY => {
                    accept_all(&self.cfg, &self.poller, &mut self.conns, &mut self.next_key);
                    // The listener's oneshot registration needs re-arming.
                    let _ =
                        self.poller.modify(&self.cfg.listener, PollEvent::readable(LISTENER_KEY));
                }
                key if key <= n => {
                    if let Some(link) = self.links.get_mut(key - 1).and_then(Option::as_mut) {
                        link.on_event(ev, now, &self.poller);
                    }
                }
                key => {
                    let Some(conn) = self.conns.get_mut(&key) else { continue };
                    let greeting = matches!(conn.state, InState::Hello { .. });
                    let keep = advance_inbound(&self.cfg, conn, &mut self.read_buf);
                    // A peer that has just said hello is up: dial it back
                    // now if this node's own link to it is waiting to.
                    let greeted = match conn.state {
                        InState::Ack { from, .. } | InState::Streaming { from } if greeting => from,
                        _ => None,
                    };
                    if let Some(peer) = greeted {
                        self.newest[peer.index()] = Some(key);
                        self.ended[peer.index()] = None;
                        if let Some(link) = self.links[peer.index()].as_mut() {
                            link.peer_dialed(now);
                        }
                    }
                    if keep {
                        let interest = match conn.state {
                            InState::Hello { .. } | InState::Streaming { .. } => {
                                PollEvent::readable(key)
                            }
                            InState::Ack { .. } => PollEvent::writable(key),
                        };
                        let _ = self.poller.modify(&conn.stream, interest);
                        if matches!(conn.state, InState::Streaming { .. }) {
                            self.fed.push(key);
                        }
                    } else {
                        // The stream's last frames, then its end.
                        while let Ok(true) = next_input(&self.cfg, conn, inputs) {}
                        closing.push(key);
                    }
                }
            }
        }
        // One frame per connection in turn, so a node that was busy while
        // several peers sent hears them about in arrival order — as a
        // reader thread of its own would have — not one whole backlog
        // before the next (a proposal read ahead of the votes that bring
        // its slot into the window is dropped).
        while !self.fed.is_empty() {
            let (cfg, conns) = (&self.cfg, &mut self.conns);
            self.fed.retain(|key| {
                let conn = conns.get_mut(key).expect("fed connections are open");
                next_input(cfg, conn, inputs).unwrap_or_else(|_| {
                    closing.push(*key); // a framing desync is unrecoverable
                    false
                })
            });
        }
        for key in closing {
            self.close(key, now);
        }
    }

    /// Closes inbound connection `key`; the end of a peer's newest stream
    /// starts the wait for its hint.
    fn close(&mut self, key: usize, now: Instant) {
        let Some(conn) = self.conns.remove(&key) else { return };
        if let InState::Streaming { from: Some(peer) } = conn.state {
            // A superseded connection's end is stale news.
            if self.newest[peer.index()] == Some(key) {
                self.newest[peer.index()] = None;
                self.ended[peer.index()] = hint_due(&self.cfg.links, peer, self.cfg.me, now);
            }
        }
        let _ = self.poller.delete(&conn.stream);
    }
}

/// `peer`'s stream to `me` ended at `now`: when it ended, and when the
/// engine may hear of it at the earliest — no sooner than a frame on that
/// edge would have arrived (the FIN must not outrun the plan's frames).
/// `None` inside a scripted partition of the edge: the sender tore the
/// socket down to enact it, and a partition sends no FIN.
fn hint_due(
    links: &LinkSetup,
    peer: NodeId,
    me: NodeId,
    now: Instant,
) -> Option<(Instant, Instant)> {
    let at_ms = now.saturating_duration_since(links.epoch).as_millis() as u64;
    if links.plan.release_time(peer, me, at_ms) > at_ms {
        return None;
    }
    Some((now, now + Duration::from_millis(links.plan.edge_spec(peer, me).delay_ms)))
}

/// Accepts every pending connection and registers it in hello state.
fn accept_all<R>(
    cfg: &ReactorConfig<R>,
    poller: &Poller,
    conns: &mut HashMap<usize, Inbound>,
    next_key: &mut usize,
) {
    loop {
        match cfg.listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let key = *next_key;
                *next_key += 1;
                if poller.add(&stream, PollEvent::readable(key)).is_ok() {
                    conns.insert(
                        key,
                        Inbound {
                            stream,
                            state: InState::Hello { buf: [0; 10], got: 0 },
                            decoder: FrameDecoder::new(),
                        },
                    );
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // Transient per-connection accept failures (ECONNABORTED & co);
            // the listener itself stays healthy.
            Err(_) => return,
        }
    }
}

/// Drives one inbound connection as far as its socket allows, buffering
/// what it streams in its decoder. Returns `false` when the connection
/// should be closed.
fn advance_inbound<R>(cfg: &ReactorConfig<R>, conn: &mut Inbound, read_buf: &mut [u8]) -> bool {
    loop {
        match &mut conn.state {
            InState::Hello { buf, got } => {
                while *got < buf.len() {
                    match (&conn.stream).read(&mut buf[*got..]) {
                        Ok(0) => return false,
                        Ok(k) => *got += k,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return false,
                    }
                }
                let claimed = u16::from_be_bytes([buf[0], buf[1]]);
                // (The dialer's incarnation, buf[2..10], is carried for
                // symmetry and future inbound fencing; attribution alone
                // doesn't need it.)
                let from = if claimed == CLIENT_HELLO_ID && cfg.codec.is_some() {
                    None // a client submission connection
                } else if usize::from(claimed) >= cfg.topology.len() || claimed == cfg.me.0 {
                    // The hello is a claim, and on a real (non-localhost)
                    // topology anything can reach the listen port: a claimed
                    // id outside the cluster — or our own, which only the
                    // in-process loopback path may use — would index
                    // per-peer state out of bounds downstream. Hang up.
                    return false;
                } else {
                    Some(NodeId(claimed))
                };
                conn.state = InState::Ack { from, sent: 0 };
            }
            InState::Ack { from, sent } => {
                // Ack with our incarnation: the dialer compares it against
                // the one it last saw and discards frames buffered for a
                // previous life of this node; a client reads it as
                // connection acceptance.
                let ack = cfg.my_incarnation.to_be_bytes();
                while *sent < ack.len() {
                    match (&conn.stream).write(&ack[*sent..]) {
                        Ok(0) => return false,
                        Ok(k) => *sent += k,
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return false,
                    }
                }
                conn.state = InState::Streaming { from: *from };
            }
            InState::Streaming { from } => {
                for _ in 0..READS_PER_EVENT {
                    match (&conn.stream).read(read_buf) {
                        Ok(0) => return false,
                        Ok(k) => {
                            cfg.links.metrics.note_received(k as u64, *from);
                            conn.decoder.extend(&read_buf[..k]);
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => return false,
                    }
                }
                // Budget spent; the oneshot re-arm redelivers the pending
                // readability so the remainder is read on the next pass.
                return true;
            }
        }
    }
}

/// Decodes the next complete frame a streaming connection has buffered
/// into `inputs`. `Ok(false)` when there is none; an error is a framing
/// desync, which is unrecoverable.
fn next_input<M, R>(
    cfg: &ReactorConfig<R>,
    conn: &mut Inbound,
    inputs: &mut VecDeque<Queued<M, R>>,
) -> Result<bool, WireError>
where
    M: Wire,
{
    let InState::Streaming { from } = conn.state else { return Ok(false) };
    // Frames are decoded zero-copy out of the decoder's buffer.
    let Some(frame) = conn.decoder.next_frame()? else { return Ok(false) };
    match from {
        // Malformed traffic is an adversarial act; ignore the frame but keep
        // the (authenticated) channel alive.
        Some(peer) => {
            if let Ok(msg) = M::from_bytes(frame) {
                inputs.push_back(Queued::Event(Event::Deliver { from: peer, msg }));
            }
        }
        // A frame that fails the request codec is dropped like any other
        // malformed traffic.
        None => {
            let decode = cfg.codec.expect("client connections require a codec");
            if let Some(req) = decode(frame) {
                inputs.push_back(Queued::Submit(req));
            }
        }
    }
    Ok(true)
}
