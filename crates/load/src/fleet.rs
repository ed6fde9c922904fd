//! The client fleet: `k` open-loop Poisson submitters multiplexed onto
//! **one** reactor thread over the `polling` shim.
//!
//! Every client is a non-blocking TCP connection speaking the
//! [`CLIENT_HELLO_ID`] dial protocol of `tetrabft-net`'s reactor: a
//! 10-byte hello, an 8-byte incarnation ack, then varint-framed
//! transaction payloads. Submissions are **open loop** — each client
//! draws exponential inter-arrival gaps (seeded `rand` shim, hand-rolled
//! inverse-CDF) and timestamps a transaction the moment it is *due*, not
//! the moment the socket accepts it, so queueing delay under saturation
//! shows up in the latency percentiles instead of silently throttling
//! the offered rate.
//!
//! Confirmations flow back out of band: the harness observes block
//! finalizations on the cluster side and feeds the finalized [`TxId`]s
//! to the fleet over an in-process channel. The frame payload *is* the
//! raw transaction, and both sides digest it with the same FNV-1a
//! [`TxId::of`], so submissions and finalizations pair up with no extra
//! protocol.

use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{os::connect_stream, Event, Events, Poller};
use rand::{Rng, SeedableRng, StdRng};
use tetrabft_multishot::TxId;
use tetrabft_wire::frame::encode_frame_into;

use crate::CLIENT_HELLO_ID;

/// Hard ceiling on concurrently in-flight dials, so a large fleet's ramp
/// never overruns a node listener's accept backlog.
const DIAL_WAVE: usize = 512;

/// Reactor tick when the fleet has nothing scheduled sooner.
const POLL: Duration = Duration::from_millis(25);

/// Give up on clients whose dial never resolves after this long.
const DIAL_PHASE_CAP: Duration = Duration::from_secs(60);

/// How long after the submit window the fleet keeps matching late
/// confirmations if its control channel is never closed (safety net; the
/// harness normally closes the channel much earlier).
const LINGER_CAP: Duration = Duration::from_secs(30);

/// What one fleet run is asked to do.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Node addresses; client `c` dials `addrs[c % addrs.len()]`.
    pub addrs: Vec<SocketAddr>,
    /// Number of concurrent client connections.
    pub clients: usize,
    /// Aggregate offered load, transactions per second across the fleet.
    pub rate_tps: u64,
    /// Length of the submit window, measured from the GO signal.
    pub duration: Duration,
    /// Payload size per transaction (floored at 20 bytes of unique header).
    pub payload_bytes: usize,
    /// Seed for the Poisson arrival process and payload tags.
    pub seed: u64,
}

/// What one fleet run measured.
#[derive(Debug, Clone, Default)]
pub struct FleetReport {
    /// Clients sustained to the end of the run: completed the hello/ack
    /// handshake and never torn down mid-window.
    pub connected: u64,
    /// Transactions submitted during the window.
    pub submitted: u64,
    /// Submitted transactions matched to a finalization.
    pub confirmed: u64,
    /// High-water mark of submitted-but-unconfirmed transactions.
    pub inflight_hwm: u64,
    /// Commit latency samples, microseconds, one per confirmation.
    pub samples_us: Vec<u32>,
}

/// Control messages the harness sends into a running fleet.
#[derive(Debug)]
pub enum FleetMsg {
    /// Start the submit window now.
    Go,
    /// One transaction id was finalized by the cluster.
    Finalized(TxId),
}

/// Caller-side handle pairing the control channel with the fleet's
/// poller, so every send can wake the reactor out of `wait`.
#[derive(Clone)]
pub struct FleetLink {
    tx: Sender<FleetMsg>,
    poller: Arc<Poller>,
}

impl FleetLink {
    /// Sends one control message and wakes the fleet reactor.
    pub fn send(&self, msg: FleetMsg) {
        if self.tx.send(msg).is_ok() {
            let _ = self.poller.notify();
        }
    }
}

/// Spawns the fleet reactor on its own thread.
///
/// Returns once every client has been dialed and the handshakes have
/// settled, i.e. when the fleet is ready for [`FleetMsg::Go`]. Dropping
/// all [`FleetLink`] clones (closing the channel) ends the run; the
/// join handle then yields the [`FleetReport`].
///
/// # Errors
///
/// Propagates poller or thread creation failure; per-client dial
/// failures show up in [`FleetReport::connected`] instead of failing
/// the run.
pub fn spawn_fleet(
    spec: FleetSpec,
) -> io::Result<(FleetLink, std::thread::JoinHandle<FleetReport>)> {
    let poller = Arc::new(Poller::new()?);
    let (tx, rx) = std::sync::mpsc::channel();
    let link = FleetLink { tx, poller: Arc::clone(&poller) };
    let (ready_tx, ready_rx) = std::sync::mpsc::channel();
    let handle = std::thread::Builder::new()
        .name("load-fleet".into())
        .spawn(move || run_fleet(&spec, &poller, &rx, &ready_tx))?;
    match ready_rx.recv() {
        Ok(()) => Ok((link, handle)),
        // The fleet thread died before signalling readiness.
        Err(_) => match handle.join() {
            Ok(_) => Err(io::Error::other("fleet exited before becoming ready")),
            Err(panic) => std::panic::resume_unwind(panic),
        },
    }
}

/// Per-connection progress through the dial protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ClientState {
    /// Non-blocking connect in flight.
    Connecting,
    /// Connected; writing the 10-byte client hello.
    Hello,
    /// Hello sent; reading the node's 8-byte incarnation ack.
    Ack { got: usize },
    /// Streaming framed transactions.
    Up,
    /// Dial failed or the node hung up; the client sits out the run.
    Dead,
}

struct Client {
    /// Poller key == index in the fleet's client table.
    key: usize,
    stream: Option<TcpStream>,
    state: ClientState,
    /// Framed bytes the socket has not accepted yet (open-loop queue).
    out: Vec<u8>,
    cursor: usize,
    /// Interest currently armed with the poller, oneshot-style.
    armed: Option<(bool, bool)>,
    /// Transactions this client has generated (payload tag).
    seq: u64,
}

impl Client {
    fn new(key: usize) -> Client {
        Client {
            key,
            stream: None,
            state: ClientState::Dead,
            out: Vec::new(),
            cursor: 0,
            armed: None,
            seq: 0,
        }
    }

    /// Writes as much pending output as the socket will take; leaves
    /// writable interest armed iff bytes remain. Returns `false` on a
    /// dead connection.
    fn flush(&mut self, poller: &Poller) -> bool {
        let Some(stream) = self.stream.as_ref() else { return false };
        while self.cursor < self.out.len() {
            match stream_write(stream, &self.out[self.cursor..]) {
                Ok(0) => return false,
                Ok(n) => self.cursor += n,
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => return false,
            }
        }
        if self.cursor == self.out.len() {
            self.out.clear();
            self.cursor = 0;
        }
        let want_write = !self.out.is_empty();
        self.sync_interest(poller, (false, want_write));
        true
    }

    /// Oneshot re-arm: modifies registered interest only when it changed.
    fn sync_interest(&mut self, poller: &Poller, want: (bool, bool)) {
        if self.armed == Some(want) {
            return;
        }
        if let Some(stream) = self.stream.as_ref() {
            let ev = Event { key: self.key, readable: want.0, writable: want.1 };
            if poller.modify(stream, ev).is_ok() {
                self.armed = Some(want);
            }
        }
    }

    /// Deregisters and drops the socket; the client sits out the run.
    fn retire(&mut self, poller: &Poller) {
        if let Some(stream) = self.stream.take() {
            // Poll-backend registrations key on the raw fd: always
            // delete before the fd closes.
            let _ = poller.delete(&stream);
        }
        self.state = ClientState::Dead;
        self.armed = None;
        self.out.clear();
        self.cursor = 0;
    }

    /// Starts one non-blocking dial and registers it writable.
    fn dial(&mut self, addr: SocketAddr, poller: &Poller) -> io::Result<()> {
        let stream = connect_stream(&addr)?;
        stream.set_nodelay(true)?;
        poller.add(&stream, Event { key: self.key, readable: false, writable: true })?;
        self.stream = Some(stream);
        self.state = ClientState::Connecting;
        self.armed = Some((false, true));
        Ok(())
    }

    /// Drives connect → hello → ack one readiness event at a time.
    fn advance_handshake(&mut self, poller: &Poller) {
        if self.stream.is_none() {
            self.state = ClientState::Dead;
            return;
        }
        if self.state == ClientState::Connecting {
            match self.stream.as_ref().expect("stream present").take_error() {
                Ok(None) => {
                    self.state = ClientState::Hello;
                    self.out.clear();
                    self.cursor = 0;
                    self.out.extend_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
                    self.out.extend_from_slice(&0u64.to_be_bytes());
                }
                _ => {
                    self.retire(poller);
                    return;
                }
            }
        }
        if self.state == ClientState::Hello {
            if !self.flush(poller) {
                self.retire(poller);
                return;
            }
            if self.out.is_empty() {
                self.state = ClientState::Ack { got: 0 };
                self.sync_interest(poller, (true, false));
            } else {
                return; // hello partially written; flush left writable armed
            }
        }
        if let ClientState::Ack { got } = self.state {
            let mut got = got;
            let mut buf = [0u8; 8];
            loop {
                let read = {
                    let mut stream = self.stream.as_ref().expect("stream present");
                    stream.read(&mut buf[..8 - got])
                };
                match read {
                    Ok(0) => {
                        self.retire(poller);
                        return;
                    }
                    Ok(n) => {
                        got += n;
                        if got == 8 {
                            self.state = ClientState::Up;
                            self.sync_interest(poller, (false, false));
                            return;
                        }
                        self.state = ClientState::Ack { got };
                    }
                    Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.state = ClientState::Ack { got };
                        self.sync_interest(poller, (true, false));
                        return;
                    }
                    Err(_) => {
                        self.retire(poller);
                        return;
                    }
                }
            }
        }
    }
}

/// EINTR-tolerant write on a shared non-blocking stream.
fn stream_write(mut stream: &TcpStream, buf: &[u8]) -> io::Result<usize> {
    loop {
        match stream.write(buf) {
            Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
            other => return other,
        }
    }
}

/// Draws one exponential inter-arrival gap for a process of
/// `rate_per_us` events per microsecond (inverse CDF over the top 53
/// bits of a uniform draw — the `rand` shim has no float sampling of
/// its own).
fn exp_gap(rng: &mut StdRng, rate_per_us: f64) -> Duration {
    let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0);
    let gap_us = -u.ln() / rate_per_us;
    // Cap pathological tail draws so one unlucky sample cannot idle a
    // client past the whole submit window.
    Duration::from_micros(gap_us.min(10_000_000.0) as u64)
}

fn run_fleet(
    spec: &FleetSpec,
    poller: &Poller,
    ctl: &Receiver<FleetMsg>,
    ready: &Sender<()>,
) -> FleetReport {
    let mut clients: Vec<Client> = (0..spec.clients).map(Client::new).collect();
    let mut report = FleetReport::default();
    let mut events = Events::new();

    // ---- dial phase: ramp every client up, DIAL_WAVE at a time --------
    let dial_deadline = Instant::now() + DIAL_PHASE_CAP;
    let mut next_dial = 0usize;
    let mut in_flight = 0usize;
    let mut settled = 0usize;
    while settled + in_flight < spec.clients || in_flight > 0 {
        while in_flight < DIAL_WAVE && next_dial < spec.clients {
            let key = next_dial;
            next_dial += 1;
            let addr = spec.addrs[key % spec.addrs.len()];
            match clients[key].dial(addr, poller) {
                Ok(()) => in_flight += 1,
                Err(_) => settled += 1, // stays Dead
            }
        }
        if Instant::now() > dial_deadline {
            for client in clients.iter_mut().filter(|c| c.state != ClientState::Up) {
                client.retire(poller);
            }
            break;
        }
        if poller.wait(&mut events, Some(POLL)).is_err() {
            break;
        }
        for ev in events.iter() {
            let client = &mut clients[ev.key];
            client.armed = Some((false, false));
            let was_pending = !matches!(client.state, ClientState::Up | ClientState::Dead);
            client.advance_handshake(poller);
            if was_pending && matches!(client.state, ClientState::Up | ClientState::Dead) {
                settled += 1;
                in_flight -= 1;
                if client.state == ClientState::Up {
                    report.connected += 1;
                }
            }
        }
    }
    let _ = ready.send(());

    // ---- wait for GO ---------------------------------------------------
    loop {
        match ctl.recv() {
            Ok(FleetMsg::Go) => break,
            Ok(FleetMsg::Finalized(_)) => {} // nothing submitted yet
            Err(_) => return report,         // harness gave up before GO
        }
    }

    // ---- submit window -------------------------------------------------
    let started = Instant::now();
    let deadline = started + spec.duration;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let per_client_rate = spec.rate_tps as f64 / 1e6 / report.connected.max(1) as f64;

    let mut due: BinaryHeap<std::cmp::Reverse<(Instant, usize)>> = BinaryHeap::new();
    for client in &clients {
        if client.state == ClientState::Up {
            due.push(std::cmp::Reverse((started + exp_gap(&mut rng, per_client_rate), client.key)));
        }
    }

    let mut pending: HashMap<TxId, Instant> = HashMap::new();
    let mut payload = vec![0u8; spec.payload_bytes.max(20)];
    let mut frame: Vec<u8> = Vec::with_capacity(payload.len() + 4);
    payload[..8].copy_from_slice(&spec.seed.to_le_bytes());

    loop {
        let now = Instant::now();

        // 1. Confirmations (channel close = end of run).
        loop {
            match ctl.try_recv() {
                Ok(FleetMsg::Finalized(id)) => {
                    if let Some(at) = pending.remove(&id) {
                        let us = now.saturating_duration_since(at).as_micros();
                        report.samples_us.push(u32::try_from(us).unwrap_or(u32::MAX));
                        report.confirmed += 1;
                    }
                }
                Ok(FleetMsg::Go) => {}
                Err(TryRecvError::Empty) => break,
                // `connected` reports what was *sustained*: every client
                // that died mid-window has subtracted itself.
                Err(TryRecvError::Disconnected) => return report,
            }
        }

        // 2. Due submissions (open loop: timestamp at the due instant).
        while let Some(&std::cmp::Reverse((at, key))) = due.peek() {
            if at >= deadline {
                due.clear();
                break;
            }
            if at > now {
                break;
            }
            due.pop();
            let client = &mut clients[key];
            if client.state != ClientState::Up {
                continue;
            }
            client.seq += 1;
            payload[8..12].copy_from_slice(&(key as u32).to_le_bytes());
            payload[12..20].copy_from_slice(&client.seq.to_le_bytes());
            let id = TxId::of(&payload);
            pending.insert(id, at);
            report.submitted += 1;
            report.inflight_hwm = report.inflight_hwm.max(pending.len() as u64);
            frame.clear();
            encode_frame_into(&payload, &mut frame).expect("payload under frame limit");
            client.out.extend_from_slice(&frame);
            if client.flush(poller) {
                due.push(std::cmp::Reverse((at + exp_gap(&mut rng, per_client_rate), key)));
            } else {
                client.retire(poller);
                report.connected -= 1;
            }
        }

        // 3. Sleep until the next due submission (or a notify).
        if now >= deadline + LINGER_CAP {
            return report;
        }
        let wait = match due.peek() {
            Some(&std::cmp::Reverse((at, _))) => at.saturating_duration_since(now).min(POLL),
            None => POLL,
        };
        if poller.wait(&mut events, Some(wait.max(Duration::from_millis(1)))).is_err() {
            return report;
        }
        for ev in events.iter() {
            let client = &mut clients[ev.key];
            client.armed = Some((false, false));
            if client.state == ClientState::Up {
                if ev.writable && !client.flush(poller) {
                    client.retire(poller);
                    report.connected -= 1;
                }
            } else if client.state != ClientState::Dead {
                client.advance_handshake(poller);
            }
        }
    }
}
