//! Reactor-runtime contracts the thread-per-connection design could never
//! offer: one thread per node regardless of cluster size or client count,
//! and client submissions served over plain TCP connections (the hello-id
//! `0xFFFF` path) instead of per-client threads or in-process handles.
//!
//! Kept in its own integration-test binary: thread counting is process
//! global, and sharing a process with unrelated concurrently-running
//! tests would make the census meaningless.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use tetrabft::{Params, TetraNode};
use tetrabft_multishot::{MultiShotNode, TxId};
use tetrabft_net::{Cluster, ClusterBuilder, CLIENT_HELLO_ID};
use tetrabft_types::{Config, NodeId, Value};
use tetrabft_wire::frame::encode_frame;

/// Live threads of this process, per the kernel.
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task").expect("procfs").count()
}

#[test]
fn reactor_runtime_is_one_thread_per_node_and_serves_tcp_clients() {
    let n = 4;
    let before = thread_count();

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
    assert_at_most_one_thread_per_node(before, n, thread_count());
    drop(cluster);

    // --- TCP client submissions against a serving multishot cluster. -----
    let ((mut cluster, _handles), _net) = ClusterBuilder::new(n)
        .spawn_serving(|id| MultiShotNode::new(cfg, Params::new(500), id))
        .expect("serving cluster spawns");

    // Dial node 0 as a TCP client: 10-byte hello (client id + zero
    // incarnation), read the 8-byte ack, then stream framed transactions.
    let addr = cluster.topology().addr(NodeId(0));
    let mut client = TcpStream::connect(addr).expect("client dials");
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    client.write_all(&hello).expect("hello");
    let mut ack = [0u8; 8];
    client.read_exact(&mut ack).expect("ack");

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
        busiest = busiest.max(thread_count());
    }
    assert_at_most_one_thread_per_node(before, n, busiest);

    // Every submitted transaction must be finalized, identified by the
    // same TxId digest the client can compute locally.
    let mut wanted: std::collections::HashSet<TxId> =
        payloads.iter().map(|p| TxId::of(p)).collect();
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while !wanted.is_empty() {
        let remaining = deadline.saturating_duration_since(std::time::Instant::now());
        let (_, fin) = cluster
            .next_output_timeout(remaining)
            .expect("finalizations keep arriving while client txs are pending");
        for tx in fin.block.txs.iter() {
            wanted.remove(&TxId::of(tx));
        }
    }
}

fn assert_at_most_one_thread_per_node(before: usize, n: usize, found: usize) {
    assert!(
        found <= before + n,
        "one thread per node: expected at most {} threads ({before} baseline + 1 per node), \
         found {found}",
        before + n,
    );
}
