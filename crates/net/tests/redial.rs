//! Redial on an inbound hello: a node that restarts dials its peers at
//! once, but their links to it have been failing for as long as it was
//! down and sit in a backoff of up to 1.5 s. A peer that completes the
//! restarted node's hello must dial back then and there — what it owes the
//! node (the answer to its catch-up request, first of all) would otherwise
//! wait out the backoff and then be fenced as stale.
//!
//! Its own binary: the assertions are wall-clock bounds on four beacons
//! that ping each other every 5 ms.

use std::time::{Duration, Instant};

use tetrabft_engine::{Context, Input, Node, TimerId, WireSize};
use tetrabft_net::ClusterBuilder;
use tetrabft_types::NodeId;
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// A beacon's broadcast: which life of the sender it comes from, and when
/// it was handed to the transport (µs since the test's epoch).
#[derive(Debug, Clone, Copy)]
struct Ping {
    incarnation: u64,
    sent_us: u64,
}

impl Wire for Ping {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.incarnation);
        w.put_u64(self.sent_us);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Ping { incarnation: r.get_u64()?, sent_us: r.get_u64()? })
    }
}

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        16
    }
}

/// A ping as its receiver saw it.
#[derive(Debug)]
struct Heard {
    from: NodeId,
    ping: Ping,
    at_us: u64,
}

/// Pings everyone on start and every 5 ms after; reports every ping heard.
struct Beacon {
    incarnation: u64,
    epoch: Instant,
}

impl Beacon {
    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }
}

impl Node for Beacon {
    type Msg = Ping;
    type Output = Heard;

    fn handle(&mut self, input: Input<Ping>, ctx: &mut Context<'_, Ping, Heard>) {
        match input {
            Input::Start | Input::Timer { .. } => {
                ctx.broadcast(Ping { incarnation: self.incarnation, sent_us: self.now_us() });
                ctx.set_timer(TimerId(0), 5);
            }
            Input::Deliver { from, msg } if from != ctx.me() => {
                ctx.output(Heard { from, ping: msg, at_us: self.now_us() });
            }
            Input::Deliver { .. } | Input::PeerDown { .. } => {}
        }
    }

    fn incarnation(&self) -> u64 {
        self.incarnation
    }
}

#[test]
fn a_restarted_nodes_hello_is_answered_with_a_dial_not_a_backoff() {
    const VICTIM: NodeId = NodeId(1);
    let epoch = Instant::now();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let (mut cluster, net) =
        ClusterBuilder::new(4).spawn(|_| Beacon { incarnation: 0, epoch }).expect("cluster spawns");

    // Every directed link carries traffic before the fault.
    let mut up = [[false; 4]; 4];
    while up.iter().flatten().filter(|heard| **heard).count() < 12 {
        let (node, heard) =
            cluster.next_output_timeout(Duration::from_secs(10)).expect("links come up");
        up[node.index()][heard.from.index()] = true;
    }
    assert_eq!(net.stats().reconnects, 0, "nothing has broken yet");
    assert_eq!(net.stats().peer_downs, 0, "and no stream has ended");

    // Down for 2.5 s: each peer's link to the victim fails dial after dial
    // (10 ms doubling to the 1-s cap, +50 % jitter), so at the restart the
    // next attempt is up to 1.5 s away, and some 500 pings are queued.
    cluster.kill(VICTIM);
    std::thread::sleep(Duration::from_millis(2_500));
    let restarted_us = now_us();
    cluster.restart_node(VICTIM, Beacon { incarnation: 1, epoch }).expect("victim rebinds");

    // Per peer: when it first heard the victim's new life (the victim's
    // link to it is up: its hello came just before), and when the victim
    // first heard the peer again (the peer's link to the victim is up).
    let mut hello_us = [None; 4];
    let mut up_us = [None; 4];
    let peers = [0usize, 2, 3];
    let deadline = Instant::now() + Duration::from_secs(5);
    while peers.iter().any(|p| hello_us[*p].is_none() || up_us[*p].is_none()) {
        let left = deadline.saturating_duration_since(Instant::now());
        let (node, heard) = cluster.next_output_timeout(left).expect("every link re-establishes");
        if node == VICTIM && heard.at_us >= restarted_us {
            // The 500 pings queued for the victim's old life were fenced at
            // the handshake, not replayed into the new one.
            assert!(
                heard.ping.sent_us >= restarted_us,
                "a ping sent {} µs before the restart reached the new incarnation",
                restarted_us - heard.ping.sent_us
            );
            up_us[heard.from.index()].get_or_insert(heard.at_us);
        } else if heard.from == VICTIM && heard.ping.incarnation == 1 {
            hello_us[node.index()].get_or_insert(heard.at_us);
        }
    }
    for peer in peers {
        let (hello, up) = (hello_us[peer].unwrap(), up_us[peer].unwrap());
        assert!(
            up <= hello + 50_000,
            "node {peer} heard the restarted node at {hello} µs but its own link was up only at \
             {up} µs: it waited out its backoff"
        );
    }
    let stats = net.stats();
    assert_eq!(stats.reconnects, 3, "one reconnect per edge into the victim: {stats:?}");
    // Each peer saw the victim's stream end once; the dials it refused
    // while down never became streams, and its new life ended none.
    assert_eq!(stats.peer_downs, 3, "one hint per peer that lost the victim: {stats:?}");
    assert!(stats.frames_dropped_stale >= 3 * 100, "the outage's pings were fenced: {stats:?}");
}
