//! Link conditioning and fault injection for the TCP layer.
//!
//! The declarative scenario ([`LinkPlan`]) is shared with the simulator;
//! this module is its wall-clock interpretation. Each directed edge gets an
//! [`EdgeConditioner`] that prices outbound frames with the simulator's own
//! [`LinkPlan::route_at`] — a due time, or a drop — and reports the windows
//! that sever its socket, all deterministically from a per-edge seed.
//! [`NetControl`] is the test/benchmark handle: aggregated link metrics
//! plus one-shot socket kills.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use tetrabft_engine::LinkPlan;
use tetrabft_types::NodeId;

/// Aggregated counters of every supervised link of one cluster/node.
#[derive(Debug, Default)]
pub(crate) struct NetMetrics {
    pub reconnects: AtomicU64,
    pub peer_downs: AtomicU64,
    pub frames_resent: AtomicU64,
    pub frames_dropped: AtomicU64,
    pub frames_shed: AtomicU64,
    pub frames_dropped_stale: AtomicU64,
    /// Deepest any link's send queue has ever been (reactor gauge).
    pub send_queue_hwm: AtomicU64,
    /// Reactor wakeups (one per poller wait that returned), cluster-wide.
    pub poll_wakeups: AtomicU64,
    /// Client-connection ingress (submissions over TCP, not peer traffic).
    pub client_bytes_in: AtomicU64,
    /// Per-peer socket traffic, indexed by [`NodeId`]: bytes received from
    /// that peer / bytes sent to it, summed over the whole cluster.
    pub per_peer: Vec<PeerCounters>,
}

/// One peer's byte counters (see [`NetMetrics::per_peer`]).
#[derive(Debug, Default)]
pub(crate) struct PeerCounters {
    pub bytes_in: AtomicU64,
    pub bytes_out: AtomicU64,
}

impl NetMetrics {
    pub(crate) fn new(n: usize) -> Self {
        NetMetrics {
            per_peer: std::iter::repeat_with(PeerCounters::default).take(n).collect(),
            ..NetMetrics::default()
        }
    }

    /// Records a send-queue depth observation, keeping the high-water mark.
    pub(crate) fn note_queue_depth(&self, depth: u64) {
        self.send_queue_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts `bytes` written to peer `to`.
    pub(crate) fn note_sent(&self, bytes: u64, to: NodeId) {
        if let Some(c) = self.per_peer.get(to.index()) {
            c.bytes_out.fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Counts `bytes` read from peer `from` (`None` = a client connection).
    pub(crate) fn note_received(&self, bytes: u64, from: Option<NodeId>) {
        match from.and_then(|id| self.per_peer.get(id.index())) {
            Some(c) => c.bytes_in.fetch_add(bytes, Ordering::Relaxed),
            None => self.client_bytes_in.fetch_add(bytes, Ordering::Relaxed),
        };
    }

    pub(crate) fn snapshot(&self) -> NetStats {
        let bytes_out = self.per_peer.iter().map(|c| c.bytes_out.load(Ordering::Relaxed)).sum();
        let peer_in: u64 = self.per_peer.iter().map(|c| c.bytes_in.load(Ordering::Relaxed)).sum();
        NetStats {
            reconnects: self.reconnects.load(Ordering::Relaxed),
            peer_downs: self.peer_downs.load(Ordering::Relaxed),
            frames_resent: self.frames_resent.load(Ordering::Relaxed),
            frames_dropped: self.frames_dropped.load(Ordering::Relaxed),
            frames_shed: self.frames_shed.load(Ordering::Relaxed),
            frames_dropped_stale: self.frames_dropped_stale.load(Ordering::Relaxed),
            send_queue_hwm: self.send_queue_hwm.load(Ordering::Relaxed),
            poll_wakeups: self.poll_wakeups.load(Ordering::Relaxed),
            bytes_in: peer_in + self.client_bytes_in.load(Ordering::Relaxed),
            bytes_out,
        }
    }
}

/// A point-in-time snapshot of link-layer health.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections re-established after a drop (initial dials excluded).
    pub reconnects: u64,
    /// Stream-end hints raised (`Input::PeerDown`), summed over every
    /// node's reactor: one each time a peer's newest inbound connection
    /// ended outside a scripted partition and the peer's address then
    /// refused a redial. 0 on a run in which no node went away (a cut link
    /// redials and is answered).
    pub peer_downs: u64,
    /// Frames rewritten because a connection broke before their flush was
    /// confirmed (delivery across reconnects is at-least-once).
    pub frames_resent: u64,
    /// Frames the [`LinkPlan`] dropped: edge loss or a lose window.
    pub frames_dropped: u64,
    /// Frames shed because a link's bounded resend buffer overflowed (a
    /// slow, down, or severed link outlasting 4096 queued frames); a shed
    /// frame is lost like a plan drop and recovered via view change.
    pub frames_shed: u64,
    /// Buffered frames discarded because the handshake showed the peer
    /// restarted (its incarnation counter advanced): pre-crash frames
    /// addressed a state the peer no longer holds, and replaying them
    /// would resurrect a conversation the restart ended.
    pub frames_dropped_stale: u64,
    /// Reactor gauge: the deepest any link's send queue has ever been
    /// (frames conditioned and waiting for the socket). Compare against
    /// the 4096-frame buffer bound to see how close a run came to
    /// shedding.
    pub send_queue_hwm: u64,
    /// Reactor gauge: poller wakeups so far, summed over every node's
    /// reactor. Divide by wall-clock runtime for wakeups/s — the "how busy
    /// are the event loops" number.
    pub poll_wakeups: u64,
    /// Total bytes read off every socket (peer links and client
    /// submissions).
    pub bytes_in: u64,
    /// Total bytes written to every peer socket.
    pub bytes_out: u64,
}

/// One row of [`NetControl::peer_traffic`]: a peer and the bytes the
/// cluster's reactors have exchanged with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerTraffic {
    /// Which peer.
    pub peer: NodeId,
    /// Bytes read from this peer's inbound connections.
    pub bytes_in: u64,
    /// Bytes written to this peer over outbound links.
    pub bytes_out: u64,
}

/// Handle to a running cluster's link layer: aggregated [`NetStats`] and
/// one-shot fault injection.
///
/// Cutting a link kills the live sockets of both directions; the
/// supervisors immediately re-dial with capped exponential backoff,
/// re-handshake, and resend every frame whose flush was not confirmed, so
/// a cut delays buffered traffic rather than losing it (up to the bounded
/// per-link buffer — see [`NetStats::frames_shed`]).
#[derive(Debug, Clone)]
pub struct NetControl {
    metrics: Arc<NetMetrics>,
    cuts: Arc<HashMap<(u16, u16), Arc<AtomicBool>>>,
}

impl NetControl {
    /// Current link-layer counters, aggregated over every edge.
    pub fn stats(&self) -> NetStats {
        self.metrics.snapshot()
    }

    /// Per-peer socket traffic: for each [`NodeId`], the bytes every
    /// reactor has read from that peer's connections and written to its
    /// links (cluster-wide sums; client-submission ingress is not
    /// attributed to any peer and only appears in [`NetStats::bytes_in`]).
    pub fn peer_traffic(&self) -> Vec<PeerTraffic> {
        self.metrics
            .per_peer
            .iter()
            .enumerate()
            .map(|(i, c)| PeerTraffic {
                peer: NodeId(i as u16),
                bytes_in: c.bytes_in.load(Ordering::Relaxed),
                bytes_out: c.bytes_out.load(Ordering::Relaxed),
            })
            .collect()
    }

    /// Kills the live sockets between `a` and `b` (both directions), once.
    /// The links re-establish on their own; buffered frames flush after
    /// the re-handshake.
    pub fn cut(&self, a: NodeId, b: NodeId) {
        for key in [(a.0, b.0), (b.0, a.0)] {
            if let Some(flag) = self.cuts.get(&key) {
                flag.store(true, Ordering::Relaxed);
            }
        }
    }
}

/// Everything the per-node runner needs to condition and supervise its
/// outbound links: the shared plan, the common epoch partition windows are
/// measured from, the metrics sink, and the cut flags (one per directed
/// edge, shared with [`NetControl`]).
#[derive(Debug, Clone)]
pub(crate) struct LinkSetup {
    pub plan: Arc<LinkPlan>,
    pub epoch: Instant,
    pub metrics: Arc<NetMetrics>,
    pub cuts: Arc<HashMap<(u16, u16), Arc<AtomicBool>>>,
}

impl LinkSetup {
    /// A cluster's setup: the given plan, fresh metrics, and cut flags for
    /// every directed edge of an `n`-node mesh.
    pub(crate) fn new(plan: LinkPlan, n: usize) -> Self {
        let mut cuts = HashMap::new();
        for a in 0..n as u16 {
            for b in 0..n as u16 {
                if a != b {
                    cuts.insert((a, b), Arc::new(AtomicBool::new(false)));
                }
            }
        }
        LinkSetup {
            plan: Arc::new(plan),
            epoch: Instant::now(),
            metrics: Arc::new(NetMetrics::new(n)),
            cuts: Arc::new(cuts),
        }
    }

    pub(crate) fn cut_flag(&self, from: NodeId, to: NodeId) -> Arc<AtomicBool> {
        self.cuts.get(&(from.0, to.0)).cloned().unwrap_or_default()
    }

    pub(crate) fn control(&self) -> NetControl {
        NetControl { metrics: Arc::clone(&self.metrics), cuts: Arc::clone(&self.cuts) }
    }

    pub(crate) fn conditioner(&self, from: NodeId, to: NodeId) -> EdgeConditioner {
        EdgeConditioner::new(Arc::clone(&self.plan), from, to, self.epoch)
    }
}

/// The wall-clock interpretation of one directed edge of a [`LinkPlan`]:
/// stamps frames with due times, samples drops, and translates partition
/// windows into absolute instants.
#[derive(Debug)]
pub(crate) struct EdgeConditioner {
    plan: Arc<LinkPlan>,
    edge: (NodeId, NodeId),
    epoch: Instant,
    rng: StdRng,
    /// Links are FIFO: a jittered frame never overtakes its predecessor.
    last_due: Instant,
}

impl EdgeConditioner {
    pub(crate) fn new(plan: Arc<LinkPlan>, from: NodeId, to: NodeId, epoch: Instant) -> Self {
        // One deterministic stream per directed edge, seeded by the edge —
        // runs are reproducible modulo wall-clock jitter.
        let edge = (u64::from(from.0) << 16) | u64::from(to.0);
        let rng = StdRng::seed_from_u64(edge);
        EdgeConditioner { plan, edge: (from, to), epoch, rng, last_due: epoch }
    }

    /// Admits one frame enqueued at `now`: `None` if the plan loses it,
    /// otherwise the instant it becomes writable — `now` plus the offset
    /// [`LinkPlan::route_at`] gives it in the simulator, FIFO-clamped so
    /// jitter cannot reorder a TCP stream.
    pub(crate) fn admit(&mut self, now: Instant) -> Option<Instant> {
        let at_ms = now.saturating_duration_since(self.epoch).as_millis() as u64;
        let at = self.plan.route_at(self.edge.0, self.edge.1, at_ms, &mut self.rng)?;
        let due = (now + Duration::from_millis(at - at_ms)).max(self.last_due);
        self.last_due = due;
        Some(due)
    }

    /// If a window isolating a group severs this edge at `now`, the instant
    /// the (possibly chained) windows heal; `None` when connected. Other
    /// windows keep the socket up: [`Self::admit`] prices their frames.
    pub(crate) fn severed_until(&self, now: Instant) -> Option<Instant> {
        if self.plan.partitions().is_empty() {
            return None;
        }
        let at_ms = now.saturating_duration_since(self.epoch).as_millis() as u64;
        let heal = self.plan.release_time(self.edge.0, self.edge.1, at_ms);
        (heal > at_ms).then(|| self.epoch + Duration::from_millis(heal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrabft_engine::{EdgeSpec, PartitionWindow};

    #[test]
    fn conditioner_preserves_fifo_under_jitter() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(5).with_jitter(20));
        let mut c = plan_conditioner(&plan);
        let now = Instant::now();
        let mut prev = now;
        for _ in 0..100 {
            let due = c.admit(now).unwrap();
            assert!(due >= prev, "a later frame must not be due before an earlier one");
            prev = due;
        }
    }

    #[test]
    fn frames_admitted_while_severed_are_due_at_heal_plus_delay() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(30)).partition(PartitionWindow::isolate(
            0,
            500,
            [NodeId(0)],
        ));
        let mut c = plan_conditioner(&plan);
        let due = c.admit(c.epoch + Duration::from_millis(100)).unwrap();
        // Same pricing as LinkPlan::route_at: release at 500, then 30 ms.
        assert_eq!(due.duration_since(c.epoch), Duration::from_millis(530));
    }

    #[test]
    fn severed_window_translates_to_instants() {
        let plan = LinkPlan::uniform(EdgeSpec::IDEAL).partition(PartitionWindow::isolate(
            0,
            50,
            [NodeId(0)],
        ));
        let c = plan_conditioner(&plan);
        let heal = c.severed_until(c.epoch).expect("severed at the epoch");
        assert_eq!(heal.duration_since(c.epoch), Duration::from_millis(50));
        assert!(c.severed_until(c.epoch + Duration::from_millis(60)).is_none());
    }

    #[test]
    fn unrelated_edges_are_never_severed() {
        // Nor do hold and lose windows, or buffers that isolate no group.
        let plan = LinkPlan::uniform(EdgeSpec::IDEAL)
            .partition(PartitionWindow::isolate(0, 50, [NodeId(3)]))
            .partition(PartitionWindow::from_group(0, 50, [NodeId(0)]).hold())
            .partition(PartitionWindow::to_group(0, 50, [NodeId(1)]).lose(1.0))
            .partition(PartitionWindow::from_group(0, 50, [NodeId(0)]));
        let c = plan_conditioner(&plan); // edge 0 → 1
        assert!(c.severed_until(c.epoch).is_none());
    }

    #[test]
    fn lossy_edges_drop_deterministically_per_seed() {
        let plan = Arc::new(LinkPlan::uniform(EdgeSpec::delay(1).with_drop(0.5)));
        let count = || {
            let mut c = EdgeConditioner::new(plan.clone(), NodeId(0), NodeId(1), Instant::now());
            let now = Instant::now();
            (0..200).filter(|_| c.admit(now).is_none()).count()
        };
        assert_eq!(count(), count());
        assert!((50..150).contains(&count()));
    }

    /// One plan with a hold window and a lose window on edge 0 → 1: the
    /// conditioner drops exactly the frames the simulator drops, and gives
    /// every frame the FIFO clamp leaves alone the simulator's offset.
    #[test]
    fn admit_prices_frames_as_the_simulator_routes_them() {
        let plan = LinkPlan::uniform(EdgeSpec::delay(5).with_jitter(10))
            .partition(PartitionWindow::from_group(100, 300, [NodeId(0)]).hold())
            .partition(PartitionWindow::to_group(250, 400, [NodeId(1)]).lose(0.5));
        let mut c = plan_conditioner(&plan);
        let mut sim_rng = c.rng.clone();
        let (mut lost, mut held, mut clamped) = (0, 0, 0);
        for at_ms in (0..500).step_by(3) {
            let now = c.epoch + Duration::from_millis(at_ms) + Duration::from_micros(at_ms % 1000);
            let before = c.last_due;
            let routed = plan.route_at(NodeId(0), NodeId(1), at_ms, &mut sim_rng);
            let due = c.admit(now);
            assert_eq!(due.is_none(), routed.is_none(), "frame sent at {at_ms} ms");
            let (Some(due), Some(routed)) = (due, routed) else {
                lost += 1;
                continue;
            };
            held += usize::from(routed == 300);
            let offset = Duration::from_millis(routed - at_ms);
            if due - now != offset {
                assert!(due == before && before > now + offset, "only the clamp moves a frame");
                clamped += 1;
            }
        }
        assert!(lost > 0 && held > 0 && clamped > 0, "{lost} lost, {held} held, {clamped} clamped");
    }

    fn plan_conditioner(plan: &LinkPlan) -> EdgeConditioner {
        EdgeConditioner::new(Arc::new(plan.clone()), NodeId(0), NodeId(1), Instant::now())
    }
}
