//! The stream-end hint (`Input::PeerDown`): when a peer's newest inbound
//! connection has ended and this node's own dial to the peer has found
//! nobody listening since, the reactor tells the engine — behind every
//! frame that connection carried, once per life of the peer, and never for
//! a scripted partition, a superseded connection, a link that flapped
//! under a live peer, or a client.
//!
//! Its own binary: the assertions are wall-clock bounds on four beacons
//! that ping each other every 2 ms over 10-ms links.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use tetrabft_engine::{Context, Input, Node, Submitter, TimerId, WireSize};
use tetrabft_net::{
    Cluster, ClusterBuilder, EdgeSpec, FrameRequest, LinkPlan, NetControl, PartitionWindow,
    CLIENT_HELLO_ID,
};
use tetrabft_types::NodeId;
use tetrabft_wire::{Reader, Wire, WireError, Writer};

/// The plan's one-way delay: no hint may outrun a frame.
const HOP: Duration = Duration::from_millis(10);

/// Long enough for any hint to have come: the 25-ms poll tick in which a
/// killed reactor notices its stop flag, the hold, the first redial (10 ms,
/// +50 % jitter) finding the port closed, and scheduling.
const SETTLE: Duration = Duration::from_millis(300);

#[derive(Debug, Clone, Copy)]
struct Ping;

impl Wire for Ping {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(0);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.get_u64().map(|_| Ping)
    }
}

impl WireSize for Ping {
    fn wire_size(&self) -> usize {
        8
    }
}

/// What a recorder saw, in the order it saw it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Seen {
    Ping { from: NodeId },
    Down { peer: NodeId, at: Instant },
}

/// Pings everyone every 2 ms and reports every ping and every hint.
struct Recorder;

impl Node for Recorder {
    type Msg = Ping;
    type Output = Seen;

    fn handle(&mut self, input: Input<Ping>, ctx: &mut Context<'_, Ping, Seen>) {
        match input {
            Input::Start | Input::Timer { .. } => {
                ctx.broadcast(Ping);
                ctx.set_timer(TimerId(0), 2);
            }
            Input::Deliver { from, .. } if from != ctx.me() => ctx.output(Seen::Ping { from }),
            Input::Deliver { .. } => {}
            Input::PeerDown { peer } => ctx.output(Seen::Down { peer, at: Instant::now() }),
        }
    }
}

/// A client request nobody reads.
struct Opaque;

impl FrameRequest for Opaque {
    fn from_frame(_: &[u8]) -> Option<Self> {
        Some(Opaque)
    }
}

impl Submitter for Recorder {
    type Request = Opaque;
    type SubmitError = ();

    fn accept(&mut self, _: Opaque) -> Result<(), ()> {
        Ok(())
    }
}

/// Each node's record so far, fed from the cluster's output channel.
struct Records {
    cluster: Cluster<Seen>,
    seen: [Vec<Seen>; 4],
}

impl Records {
    fn new(cluster: Cluster<Seen>) -> Records {
        Records { cluster, seen: Default::default() }
    }

    /// Reads outputs for `span`.
    fn watch(&mut self, span: Duration) {
        let until = Instant::now() + span;
        while let Some((node, seen)) =
            self.cluster.next_output_timeout(until.saturating_duration_since(Instant::now()))
        {
            self.seen[node.index()].push(seen);
        }
    }

    /// Reads outputs until every directed link among `nodes` has carried a
    /// ping since the call.
    fn until_meshed(&mut self, nodes: &[u16]) {
        let mut up = [[false; 4]; 4];
        let pairs = nodes.len() * (nodes.len() - 1);
        while up.iter().flatten().filter(|heard| **heard).count() < pairs {
            let (node, seen) =
                self.cluster.next_output_timeout(Duration::from_secs(10)).expect("links come up");
            if let Seen::Ping { from } = seen {
                up[node.index()][from.index()] |=
                    nodes.contains(&node.0) && nodes.contains(&from.0);
            }
            self.seen[node.index()].push(seen);
        }
    }

    /// When `node` was told that `peer` is down, each time.
    fn downs(&self, node: u16, peer: u16) -> Vec<Instant> {
        let told = |seen: &Seen| match seen {
            Seen::Down { peer: p, at } if p.0 == peer => Some(*at),
            _ => None,
        };
        self.seen[usize::from(node)].iter().filter_map(told).collect()
    }

    fn all_downs(&self) -> usize {
        self.seen.iter().flatten().filter(|seen| matches!(seen, Seen::Down { .. })).count()
    }
}

fn ten_ms_links() -> ClusterBuilder {
    ClusterBuilder::new(4).plan(LinkPlan::uniform(EdgeSpec::delay(HOP.as_millis() as u64)))
}

/// Dials `node` as `claimed`, says hello, reads the ack: a stream.
fn dial_as(records: &Records, node: u16, claimed: u16) -> TcpStream {
    let mut stream = TcpStream::connect(records.cluster.topology().addr(NodeId(node))).unwrap();
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&claimed.to_be_bytes());
    stream.write_all(&hello).unwrap();
    stream.read_exact(&mut [0u8; 8]).expect("the hello is acked");
    stream
}

#[test]
fn a_killed_peer_is_hinted_once_per_life_behind_its_last_frame() {
    const VICTIM: u16 = 1;
    let (cluster, net) = ten_ms_links().spawn(|_| Recorder).expect("cluster spawns");
    let mut records = Records::new(cluster);
    records.until_meshed(&[0, 1, 2, 3]);
    assert_eq!(net.stats().peer_downs, 0, "no stream has ended yet");

    for life in 1..=2 {
        let killed = Instant::now();
        records.cluster.kill(NodeId(VICTIM));
        records.watch(SETTLE);
        for peer in [0, 2, 3] {
            let downs = records.downs(peer, VICTIM);
            assert_eq!(downs.len(), life, "node {peer}: one hint per life of the victim");
            let after = downs[life - 1].duration_since(killed);
            assert!(after >= HOP, "node {peer}: the hint outran a frame, {after:?} after the kill");
            assert!(after <= Duration::from_millis(200), "node {peer}: hinted {after:?} late");
            // Nothing of the victim's is read behind the hint.
            let record = &records.seen[usize::from(peer)];
            let hint = record.iter().rposition(|seen| matches!(seen, Seen::Down { .. })).unwrap();
            let from_victim = |seen: &Seen| *seen == Seen::Ping { from: NodeId(VICTIM) };
            let last = record.iter().rposition(from_victim).expect("the victim was heard");
            assert!(last < hint, "node {peer}: a frame of the victim's behind the hint");
        }
        assert_eq!(records.all_downs(), 3 * life, "and nobody is told anything else");
        assert_eq!(net.stats().peer_downs, 3 * life as u64);
        if life == 1 {
            records.cluster.restart_node(NodeId(VICTIM), Recorder).expect("victim rebinds");
            records.until_meshed(&[0, 1, 2, 3]);
        }
    }
}

#[test]
fn a_flapped_link_a_superseded_stream_and_a_client_are_not_the_peer() {
    let ((cluster, _handles), net): (_, NetControl) =
        ten_ms_links().spawn_serving(|_| Recorder).expect("serving cluster spawns");
    let mut records = Records::new(cluster);
    records.until_meshed(&[0, 1, 2, 3]);

    // A cut kills the live sockets of both directions. Both links redial
    // and find the peer listening: a link flapped, no peer did.
    net.cut(NodeId(1), NodeId(0));
    records.watch(SETTLE);
    assert!(net.stats().reconnects >= 2, "the cut must be felt: {:?}", net.stats());
    assert_eq!(records.all_downs(), 0, "a link flapped, no peer did");

    // A client's stream ends: never news. Nor is a stream that claimed to
    // be node 1 while node 0's own link to node 1 is up.
    drop(dial_as(&records, 0, CLIENT_HELLO_ID));
    drop(dial_as(&records, 0, 1));
    records.watch(SETTLE);
    assert_eq!(records.all_downs(), 0, "a client and an impostor raise nothing");

    // Node 1 dies while a newer stream at node 0 says it is node 1: the
    // real one's end is stale news there, and news at nodes 2 and 3.
    let newest = dial_as(&records, 0, 1);
    records.watch(Duration::from_millis(50));
    records.cluster.kill(NodeId(1));
    records.watch(SETTLE);
    assert_eq!(records.downs(0, 1).len(), 0, "a superseded stream's end raises nothing");
    assert_eq!((records.downs(2, 1).len(), records.downs(3, 1).len()), (1, 1));
    // The newest ends too: node 0's next dial (at most 1.5 s away) finds
    // the port closed, and that is its one hint.
    drop(newest);
    records.watch(Duration::from_secs(2));
    assert_eq!(records.downs(0, 1).len(), 1);
    assert_eq!(records.all_downs(), 3);
    assert_eq!(net.stats().peer_downs, 3);
}

#[test]
fn a_scripted_partition_sends_no_fin() {
    // Node 1 is cut off from 300 ms to 600 ms after the spawn: every link
    // to and from it is torn down to enact the window, and redials at the
    // heal. A partition is silence, and silence is the timer's business.
    let window = PartitionWindow::isolate(300, 600, [NodeId(1)]);
    let plan = LinkPlan::uniform(EdgeSpec::delay(HOP.as_millis() as u64)).partition(window);
    let (cluster, net) = ClusterBuilder::new(4).plan(plan).spawn(|_| Recorder).unwrap();
    let mut records = Records::new(cluster);
    records.watch(Duration::from_millis(700));
    records.until_meshed(&[0, 1, 2, 3]);
    records.watch(SETTLE);
    assert!(net.stats().reconnects >= 6, "the window must be enacted: {:?}", net.stats());
    assert_eq!(records.all_downs(), 0);
    assert_eq!(net.stats().peer_downs, 0);
}
