//! Reactor-runtime contracts the thread-per-connection design could never
//! offer: one thread per node regardless of cluster size or client count,
//! and client submissions served over plain TCP connections (the hello-id
//! `0xFFFF` path) instead of per-client threads or in-process handles.
//!
//! Kept in its own integration-test binary: thread counting is process
//! global, and sharing a process with unrelated concurrently-running
//! tests would make the census meaningless. The tests here take turns
//! through [`CENSUS`] for the same reason.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use tetrabft::{Params, TetraNode};
use tetrabft_multishot::{MultiShotNode, TxId};
use tetrabft_net::{Cluster, ClusterBuilder, CLIENT_HELLO_ID};
use tetrabft_types::{Config, NodeId, Value};
use tetrabft_wire::frame::encode_frame;

/// Held by each test for its whole run, so no census counts another
/// test's threads.
static CENSUS: Mutex<()> = Mutex::new(());

/// Every test in this binary. libtest may spawn a test's thread while
/// another test already holds [`CENSUS`]: the new thread starts with the
/// process's `comm`, then takes the test's name, of which the kernel keeps
/// the first 15 bytes.
const TESTS: [&str; 2] = [
    "reactor_runtime_is_one_thread_per_node_and_serves_tcp_clients",
    "a_hundred_raw_clients_fan_in_and_each_submission_finalizes_once",
];

/// Takes [`CENSUS`] and the baseline for [`started_since`]. The calling
/// thread is renamed first: the unnamed threads a cluster spawns from it
/// inherit its `comm`, which must never pass for the harness's.
fn take_census() -> (MutexGuard<'static, ()>, HashSet<u64>) {
    let census = CENSUS.lock().unwrap_or_else(PoisonError::into_inner);
    std::fs::write("/proc/thread-self/comm", "census").expect("procfs");
    (census, live_threads())
}

/// Kernel task ids of this process's live threads.
fn live_threads() -> HashSet<u64> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| task.ok()?.file_name().to_str()?.parse().ok())
        .collect()
}

/// Threads started since `before`, less the test harness's own: a thread
/// libtest spawns for another test of this binary is no thread of the
/// cluster under census.
fn started_since(before: &HashSet<u64>) -> usize {
    let process = std::fs::read_to_string("/proc/self/comm").expect("procfs");
    let harness = |comm: &str| {
        comm == process.trim_end()
            || TESTS.iter().any(|test| test.as_bytes().get(..15) == Some(comm.as_bytes()))
    };
    live_threads()
        .difference(before)
        .filter(|tid| {
            // A thread that exited since the listing has no `comm` to read.
            std::fs::read_to_string(format!("/proc/self/task/{tid}/comm"))
                .is_ok_and(|comm| !harness(comm.trim_end()))
        })
        .count()
}

/// Dials `addr` as a TCP client: a 10-byte hello (client id + zero
/// incarnation), then the node's 8-byte ack. Framed transactions may
/// follow on the returned stream.
fn dial_client(addr: SocketAddr) -> TcpStream {
    let mut client = TcpStream::connect(addr).expect("client dials");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    client.write_all(&hello).expect("hello");
    let mut ack = [0u8; 8];
    client.read_exact(&mut ack).expect("the node acks every client");
    client
}

#[test]
fn reactor_runtime_is_one_thread_per_node_and_serves_tcp_clients() {
    let (_census, before) = take_census();
    let n = 4;

    // --- Thread budget on a plain (non-serving) cluster. -----------------
    let cfg = Config::new(n).unwrap();
    let mut cluster =
        Cluster::spawn(n, |id| TetraNode::new(cfg, Params::new(500), id, Value::from_u64(7)))
            .expect("cluster spawns");
    for _ in 0..n {
        cluster.next_output_timeout(Duration::from_secs(30)).expect("decides");
    }
    // Consensus has run end to end, so every node's I/O is fully up; the
    // runtime must be at its steady state: one thread per node, the engine
    // stepping on its reactor's, nothing per connection (a 4-node mesh has
    // 12 directed links and 12 inbound connections — the thread-per-socket
    // runtime held 30+ threads here, the reactor beside an engine loop 8).
    assert_at_most_one_thread_per_node(n, started_since(&before));
    drop(cluster);
    // A joined thread can linger in `/proc` until the kernel reaps it: the
    // serving cluster's census starts from here.
    let before = live_threads();

    // --- TCP client submissions against a serving multishot cluster. -----
    let ((mut cluster, _handles), _net) = ClusterBuilder::new(n)
        .spawn_serving(|id| MultiShotNode::new(cfg, Params::new(500), id))
        .expect("serving cluster spawns");

    // Dial node 0 as a TCP client, then stream framed transactions.
    let mut client = dial_client(cluster.topology().addr(NodeId(0)));

    // Stream submissions for a while, taking the census as they flow: a
    // serving node admits them on the same one thread.
    let payloads: Vec<Vec<u8>> =
        (0..200).map(|i| format!("tcp-client-tx-{i}").into_bytes()).collect();
    let mut busiest = 0;
    for chunk in payloads.chunks(10) {
        for payload in chunk {
            let frame = encode_frame(payload).expect("frame");
            client.write_all(&frame).expect("submit");
        }
        std::thread::sleep(Duration::from_millis(5));
        busiest = busiest.max(started_since(&before));
    }
    assert_at_most_one_thread_per_node(n, busiest);

    // Every submitted transaction must be finalized, identified by the
    // same TxId digest the client can compute locally.
    let mut wanted: std::collections::HashSet<TxId> =
        payloads.iter().map(|p| TxId::of(p)).collect();
    let deadline = Instant::now() + Duration::from_secs(30);
    while !wanted.is_empty() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (_, fin) = cluster
            .next_output_timeout(remaining)
            .expect("finalizations keep arriving while client txs are pending");
        for tx in fin.block.txs.iter() {
            wanted.remove(&TxId::of(tx));
        }
    }
}

#[test]
fn a_hundred_raw_clients_fan_in_and_each_submission_finalizes_once() {
    let (_census, before) = take_census();
    let (n, clients, per_client) = (4, 128, 3);
    let cfg = Config::new(n).unwrap();
    let ((mut cluster, _handles), _net) = ClusterBuilder::new(n)
        .spawn_serving(|id| MultiShotNode::new(cfg, Params::new(500), id))
        .expect("serving cluster spawns");

    // Raw sockets, round-robin over the nodes, every one acked before the
    // next dials; then a few submissions from each, interleaved.
    let mut streams: Vec<TcpStream> =
        (0..clients).map(|c| dial_client(cluster.topology().addr(NodeId(c % n as u16)))).collect();
    let mut wanted = HashSet::new();
    let mut busiest = 0;
    for k in 0..per_client {
        for (c, stream) in streams.iter_mut().enumerate() {
            let payload = format!("fan-in-{c}-{k}").into_bytes();
            stream.write_all(&encode_frame(&payload).expect("frame")).expect("submit");
            wanted.insert(TxId::of(&payload));
        }
        busiest = busiest.max(started_since(&before));
    }
    assert_eq!(wanted.len(), clients as usize * per_client);
    assert_at_most_one_thread_per_node(n, busiest);

    // Each node's chain carries every submission, and none twice.
    let mut seen: Vec<HashMap<TxId, usize>> = vec![HashMap::new(); n];
    let deadline = Instant::now() + Duration::from_secs(60);
    while seen.iter().any(|counts| counts.len() < wanted.len()) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        let (node, fin) = cluster
            .next_output_timeout(remaining)
            .expect("finalizations keep arriving while client txs are pending");
        for id in fin.block.txs.iter().map(|tx| TxId::of(tx)).filter(|id| wanted.contains(id)) {
            *seen[node.index()].entry(id).or_default() += 1;
        }
    }
    for (node, counts) in seen.iter().enumerate() {
        let twice = counts.values().filter(|&&count| count > 1).count();
        assert_eq!(twice, 0, "node {node} finalized {twice} submissions more than once");
    }
    drop(streams);
}

fn assert_at_most_one_thread_per_node(n: usize, started: usize) {
    assert!(
        started <= n,
        "one thread per node: expected at most {n} threads started by a {n}-node cluster, \
         found {started}",
    );
}
