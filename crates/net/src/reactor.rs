//! The per-node event loop: every socket the node touches — its listener,
//! every inbound peer/client connection, every supervised outbound link —
//! multiplexed onto **one** thread with readiness-based polling (the
//! `polling` shim: epoll, with a portable `poll(2)` fallback).
//!
//! Together with the engine loop in `runner.rs` this fixes the node's
//! thread budget at **two**, independent of cluster size or client count:
//! where the old runtime spawned an accept thread, a reader thread per
//! inbound connection, a supervisor thread per outbound edge, and a timer
//! thread, the reactor holds them all as state:
//!
//! * the listener is polled for accept readiness; accepted connections
//!   run a non-blocking hello state machine (10-byte hello in, 8-byte
//!   incarnation ack out) before streaming length-prefixed frames into
//!   the zero-copy [`FrameDecoder`];
//! * a hello naming the reserved client id (`0xFFFF`) marks a **client
//!   submission connection** (only honored when the node runs with a
//!   request codec — see `Cluster::spawn_serving`): its frames decode as
//!   client requests and enter the engine mux as submissions, which is
//!   how one node serves thousands of submitting clients without a
//!   thread per connection;
//! * outbound links are [`Link`] state machines (dial → handshake → up,
//!   with jittered backoff, incarnation fencing, bounded buffered
//!   resume — see `supervisor.rs`);
//! * the engine hands staged frame batches over a channel and wakes the
//!   reactor via [`Poller::notify`]; `NetControl` cut flags and scripted
//!   partition windows are observed within one poll tick (25 ms);
//! * when a peer's newest inbound stream has ended and this node's own
//!   dial to the peer has failed since, the engine is told so
//!   (`Input::PeerDown`) through the channel that carried the stream's
//!   frames, hence behind the last of them.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use polling::{Event as PollEvent, Events, Poller};

use tetrabft_types::NodeId;
use tetrabft_wire::frame::FrameDecoder;
use tetrabft_wire::Wire;

use crate::link::LinkSetup;
use crate::runner::Event;
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

/// Decodes one client frame into a request; `None` at a use site means
/// the node refuses client connections entirely (peer-only node).
pub(crate) type SubmitCodec<R> = fn(&[u8]) -> Option<R>;

/// Everything the reactor thread needs to run one node's I/O.
pub(crate) struct ReactorConfig<R> {
    pub me: NodeId,
    pub my_incarnation: u64,
    pub listener: TcpListener,
    pub topology: Topology,
    pub links: LinkSetup,
    /// Decodes a client frame into a request; `None` refuses client
    /// connections (peer-only node).
    pub codec: Option<SubmitCodec<R>>,
    pub stop: Arc<AtomicBool>,
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

/// Runs one node's reactor until the stop flag is raised or the engine
/// side goes away. `cmd_rx` carries staged outbound batches from the
/// engine's flush (paired with a [`Poller::notify`]); `events` feeds
/// decoded inputs into the engine mux.
pub(crate) fn run_reactor<M, R>(
    cfg: ReactorConfig<R>,
    poller: Arc<Poller>,
    cmd_rx: mpsc::Receiver<(NodeId, Vec<Arc<Vec<u8>>>)>,
    events: mpsc::Sender<Event<M, R>>,
) where
    M: Wire,
{
    let n = cfg.topology.len();
    if cfg.listener.set_nonblocking(true).is_err() {
        return;
    }
    if poller.add(&cfg.listener, PollEvent::readable(LISTENER_KEY)).is_err() {
        return;
    }

    // Outbound links, keyed 1 + peer index (our own slot stays None).
    let mut links: Vec<Option<Link>> = (0..n)
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
            // An independent jitter stream per directed edge, offset from
            // the conditioner's seed derivation so the two never correlate.
            let jitter_seed = cfg.links.seed.wrapping_mul(0xA076_1D64_78BD_642F)
                ^ ((u64::from(cfg.me.0) << 16) | u64::from(peer.0));
            Some(Link::new(link_cfg, 1 + i, jitter_seed))
        })
        .collect();

    let mut conns: HashMap<usize, Inbound> = HashMap::new();
    let mut next_key = n + 1;
    // Per peer, the key of the newest connection that said hello as it —
    // the only one whose end is news — and, once that one has ended, when
    // (`hint_due`): news the engine hears if the peer is gone, not if its
    // link flapped, so it waits for this node's own dial to fail, and is
    // forgotten when the peer says hello again.
    let mut newest: Vec<Option<usize>> = vec![None; n];
    let mut ended: Vec<Option<(Instant, Instant)>> = vec![None; n];
    let mut poll_events = Events::new();
    let mut read_buf = vec![0u8; 64 * 1024];

    loop {
        if cfg.stop.load(Ordering::Relaxed) {
            return; // drops the listener, every conn, and every link
        }

        // Stage whatever the engine flushed since the last pass.
        let mut now = Instant::now();
        loop {
            match cmd_rx.try_recv() {
                Ok((peer, batch)) => {
                    if let Some(link) = links.get_mut(peer.index()).and_then(Option::as_mut) {
                        link.enqueue(batch, now);
                    }
                }
                Err(mpsc::TryRecvError::Empty) => break,
                Err(mpsc::TryRecvError::Disconnected) => return, // engine gone
            }
        }

        // Supervision pass: dials, deadlines, due-frame writes; collect the
        // earliest instant anything needs us again.
        let mut wait = POLL;
        for link in links.iter_mut().flatten() {
            if let Some(deadline) = link.housekeep(now, &poller) {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }

        // A stream's end becomes a hint once its hold is over and a dial of
        // ours has found nobody listening since.
        for (peer, slot) in ended.iter_mut().enumerate() {
            let Some((seen, due)) = *slot else { continue };
            if due > now {
                wait = wait.min(due - now);
            } else if links[peer].as_ref().is_some_and(|link| link.dial_failed_since(seen)) {
                *slot = None;
                cfg.links.metrics.peer_downs.fetch_add(1, Ordering::Relaxed);
                if events.send(Event::PeerDown(NodeId(peer as u16))).is_err() {
                    return; // node shut down
                }
            }
        }

        cfg.links.metrics.poll_wakeups.fetch_add(1, Ordering::Relaxed);
        if poller.wait(&mut poll_events, Some(wait)).is_err() {
            return;
        }
        now = Instant::now();

        for ev in poll_events.iter() {
            match ev.key {
                LISTENER_KEY => {
                    accept_all(&cfg, &poller, &mut conns, &mut next_key);
                    // The listener's oneshot registration needs re-arming.
                    let _ = poller.modify(&cfg.listener, PollEvent::readable(LISTENER_KEY));
                }
                key if key <= n => {
                    if let Some(link) = links.get_mut(key - 1).and_then(Option::as_mut) {
                        link.on_event(ev, now, &poller);
                    }
                }
                key => {
                    let Some(conn) = conns.get_mut(&key) else { continue };
                    let greeting = matches!(conn.state, InState::Hello { .. });
                    let keep = advance_inbound(&cfg, conn, &mut read_buf, &events);
                    // A peer that has just said hello is up: dial it back
                    // now if this node's own link to it is waiting to.
                    let greeted = match conn.state {
                        InState::Ack { from, .. } | InState::Streaming { from } if greeting => from,
                        _ => None,
                    };
                    if let Some(peer) = greeted {
                        newest[peer.index()] = Some(key);
                        ended[peer.index()] = None;
                        if let Some(link) = links[peer.index()].as_mut() {
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
                        let _ = poller.modify(&conn.stream, interest);
                    } else {
                        if let InState::Streaming { from: Some(peer) } = conn.state {
                            // A superseded connection's end is stale news.
                            if newest[peer.index()] == Some(key) {
                                newest[peer.index()] = None;
                                ended[peer.index()] = hint_due(&cfg.links, peer, cfg.me, now);
                            }
                        }
                        let _ = poller.delete(&conn.stream);
                        conns.remove(&key);
                    }
                }
            }
        }
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

/// Drives one inbound connection as far as its socket allows. Returns
/// `false` when the connection should be closed.
fn advance_inbound<M, R>(
    cfg: &ReactorConfig<R>,
    conn: &mut Inbound,
    read_buf: &mut [u8],
    events: &mpsc::Sender<Event<M, R>>,
) -> bool
where
    M: Wire,
{
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
                            if !drain_frames(cfg, &mut conn.decoder, *from, events) {
                                return false;
                            }
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

/// Decodes every complete frame buffered in `decoder` and feeds it into
/// the engine mux. Returns `false` if the stream is corrupt or the engine
/// is gone.
fn drain_frames<M, R>(
    cfg: &ReactorConfig<R>,
    decoder: &mut FrameDecoder,
    from: Option<NodeId>,
    events: &mpsc::Sender<Event<M, R>>,
) -> bool
where
    M: Wire,
{
    loop {
        // Frames are decoded zero-copy out of the decoder's buffer.
        let frame = match decoder.next_frame() {
            Ok(Some(frame)) => frame,
            Ok(None) => return true,
            Err(_) => return false, // framing desync is unrecoverable
        };
        match from {
            Some(peer) => match M::from_bytes(frame) {
                Ok(msg) => {
                    if events.send(Event::Deliver { from: peer, msg }).is_err() {
                        return false; // node shut down
                    }
                }
                Err(_) => {
                    // Malformed traffic is an adversarial act; ignore the
                    // frame but keep the (authenticated) channel alive.
                }
            },
            None => {
                let decode = cfg.codec.expect("client connections require a codec");
                if let Some(req) = decode(frame) {
                    if events.send(Event::Submit(req)).is_err() {
                        return false;
                    }
                }
                // A frame that fails the request codec is dropped like any
                // other malformed traffic.
            }
        }
    }
}
