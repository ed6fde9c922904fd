//! `Cluster::kill` means gone: once it returns, the killed node writes
//! nothing more — not to a socket, not to its directory — so a restart may
//! open that directory at once, with no sleep for a dying writer.
//!
//! Its own binary: it watches one node's files for 200 ms of wall clock
//! while the rest of the cluster runs under load.

use std::fs;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use tetrabft::Params;
use tetrabft_multishot::MultiShotNode;
use tetrabft_net::{ClusterBuilder, CLIENT_HELLO_ID};
use tetrabft_types::{Config, NodeId};
use tetrabft_wire::frame::encode_frame;

const VICTIM: NodeId = NodeId(1);

fn durable_node(base: &Path, id: NodeId) -> MultiShotNode {
    let cfg = Config::new(4).unwrap();
    MultiShotNode::durable(cfg, Params::new(100), id, base.join(format!("n{}", id.0)))
        .expect("durable store opens")
}

/// Every file of `dir` by name: its length and an FNV-1a hash of its bytes.
fn digest(dir: &Path) -> Vec<(PathBuf, u64, u64)> {
    let mut files: Vec<(PathBuf, u64, u64)> = fs::read_dir(dir)
        .expect("node directory")
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let bytes = fs::read(&path).expect("node file");
            let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
            });
            (path, bytes.len() as u64, hash)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn a_killed_node_writes_nothing_after_kill_returns_and_restarts_at_once() {
    let base = std::env::temp_dir().join(format!("tetrabft-kill-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let ((mut cluster, handles), _net) =
        ClusterBuilder::new(4).spawn_serving(|id| durable_node(&base, id)).expect("cluster spawns");

    // Every node, the victim included, admits a transaction every
    // millisecond until the end; the victim's handle fails while it is
    // down and dials the restarted node.
    let stop = Arc::new(AtomicBool::new(false));
    let load = {
        let stop = Arc::clone(&stop);
        thread::spawn(move || {
            for k in 0u64.. {
                if stop.load(Ordering::Relaxed) {
                    return;
                }
                for (node, handle) in handles.iter().enumerate() {
                    let _ = handle.submit(format!("n{node}-t{k}").as_bytes());
                }
                thread::sleep(Duration::from_millis(1));
            }
        })
    };

    let mut tip = 0;
    while tip < 5 {
        let (_, fin) = cluster.next_output_timeout(Duration::from_secs(30)).expect("finalizes");
        tip = tip.max(fin.slot.0);
    }

    cluster.kill(VICTIM);
    let dir = base.join(format!("n{}", VICTIM.0));
    let at_kill = digest(&dir);
    let quiet_until = Instant::now() + Duration::from_millis(200);
    let mut peers_finalized = 0;
    while let Some((node, fin)) =
        cluster.next_output_timeout(quiet_until.saturating_duration_since(Instant::now()))
    {
        if node != VICTIM {
            peers_finalized += 1;
        }
        tip = tip.max(fin.slot.0);
    }
    assert!(peers_finalized > 0, "the rest of the cluster keeps finalizing");
    assert_eq!(digest(&dir), at_kill, "the killed node's files changed after kill returned");

    // No sleep: the directory is the restarted node's alone.
    cluster.restart_submitter(VICTIM, durable_node(&base, VICTIM)).expect("victim rebinds");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let (node, fin) = cluster.next_output_timeout(left).expect("the victim rejoins");
        if node == VICTIM && fin.slot.0 > tip {
            break;
        }
    }
    stop.store(true, Ordering::Relaxed);
    load.join().unwrap();
    drop(cluster);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn a_node_restarted_into_a_serving_cluster_serves_clients_again() {
    let base = std::env::temp_dir().join(format!("tetrabft-reserve-{}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    let ((mut cluster, _handles), _net) = ClusterBuilder::new(4)
        .spawn_serving(|id| durable_node(&base, id))
        .expect("serving cluster spawns");
    cluster.next_output_timeout(Duration::from_secs(30)).expect("finalizes");

    cluster.kill(VICTIM);
    cluster.restart_submitter(VICTIM, durable_node(&base, VICTIM)).expect("victim rebinds");

    let mut client = TcpStream::connect(cluster.topology().addr(VICTIM)).expect("client dials");
    client.set_read_timeout(Some(Duration::from_secs(10))).expect("read timeout");
    let mut hello = [0u8; 10];
    hello[..2].copy_from_slice(&CLIENT_HELLO_ID.to_be_bytes());
    client.write_all(&hello).expect("hello");
    let mut ack = [0u8; 8];
    client.read_exact(&mut ack).expect("the restarted node acks a client");

    let payload = b"after-the-restart".to_vec();
    client.write_all(&encode_frame(&payload).expect("frame")).expect("submit");
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        let (_, fin) = cluster.next_output_timeout(left).expect("the payload finalizes");
        if fin.block.txs.contains(&payload) {
            break;
        }
    }
    drop(cluster);
    let _ = fs::remove_dir_all(&base);
}
