//! Fault-injection tests for the supervised TCP layer: killed sockets
//! must reconnect and flush their buffers, scripted partitions must heal,
//! lossy links must be survivable, and explicit topologies must work —
//! all without ever diverging from an unfaulted run. The two
//! responsiveness tests run one declarative [`LinkPlan`] in both runtimes
//! — the simulator (one tick = 1 ms) prices it exactly, the TCP cluster
//! reproduces it in wall-clock time — and commit latency must follow the
//! injected delay, never the `9Δ` view timeout.

use std::time::{Duration, Instant};

use tetrabft::{Params, TetraNode};
use tetrabft_multishot::MultiShotNode;
use tetrabft_net::{ClusterBuilder, EdgeSpec, LinkPlan, NetError, PartitionWindow, Topology};
use tetrabft_sim::SimBuilder;
use tetrabft_types::{Config, NodeId, Value};

/// Δ for the TCP runs: a 27 s view timeout, far from any commit below.
const TCP_DELTA_MS: u64 = 3_000;

/// Δ for the simulator runs: a timeout-bound commit would read ≥ 900,000.
const SIM_DELTA_MS: u64 = 100_000;

/// First-decision time in virtual ms, and every node's decided value, of
/// an `n`-node single-shot run under `plan` in the simulator.
fn sim_commit(n: usize, plan: &LinkPlan) -> (u64, Vec<Value>) {
    let cfg = Config::new(n).unwrap();
    let mut sim = SimBuilder::new(n).plan(plan).build(|id| {
        TetraNode::new(cfg, Params::new(SIM_DELTA_MS), id, Value::from_u64(u64::from(id.0) + 1))
    });
    assert!(sim.run_until_outputs(n, 50_000_000), "the scenario must decide");
    (sim.outputs()[0].time.0, sim.outputs().iter().map(|o| o.output).collect())
}

/// Wall-clock time from before the spawn to the first decision, and every
/// node's decided value, of an `n`-node TCP cluster under `plan`.
fn tcp_commit(n: usize, plan: LinkPlan) -> (Duration, Vec<Value>) {
    let cfg = Config::new(n).unwrap();
    let started = Instant::now();
    let (mut cluster, _net) = ClusterBuilder::new(n)
        .plan(plan)
        .spawn(|id| {
            TetraNode::new(cfg, Params::new(TCP_DELTA_MS), id, Value::from_u64(u64::from(id.0) + 1))
        })
        .expect("cluster spawns");
    let mut next = || cluster.next_output_timeout(Duration::from_secs(30)).expect("decide").1;
    let first = next();
    let elapsed = started.elapsed();
    (elapsed, std::iter::once(first).chain((1..n).map(|_| next())).collect())
}

/// Runs a 4-node multishot cluster with deterministic preloaded traffic
/// and returns node 0's finalized chain over the first `slots` slots.
/// When `cut` is set, the sockets of two links are killed mid-run.
fn multishot_chain(cut: bool, slots: u64) -> Vec<(u64, u64)> {
    let cfg = Config::new(4).unwrap();
    // Δ = 3 s ⇒ a 27 s view timeout: socket kills delay messages by a few
    // backoff rounds but never trigger a view change, so block packing is
    // a pure function of the preloaded mempools and the chain must come
    // out identical with and without faults.
    let params = Params::new(3_000).with_max_block_txs(2);
    let (mut cluster, net) = ClusterBuilder::new(4)
        .spawn(|id| {
            let mut node = MultiShotNode::new(cfg, params, id);
            for t in 0..6 {
                node.submit_tx(format!("n{id}-t{t}").into_bytes()).unwrap();
            }
            node
        })
        .expect("cluster spawns");

    let mut chain = Vec::new();
    let mut injected = false;
    while chain.len() < slots as usize {
        let (node, fin) =
            cluster.next_output_timeout(Duration::from_secs(30)).expect("finalize within 30s");
        if node != NodeId(0) {
            continue;
        }
        if fin.slot.0 <= slots {
            chain.push((fin.slot.0, fin.hash.0));
        }
        // Kill live sockets once real traffic has proven the links are up.
        if cut && !injected && fin.slot.0 >= 2 {
            injected = true;
            net.cut(NodeId(1), NodeId(2));
            net.cut(NodeId(0), NodeId(3));
        }
    }
    if cut {
        // The chain can finalize on the quorum {0, 1, 2}, which uses
        // neither cut link, before the 0↔3 and 1↔2 handshakes are done:
        // give the redials time to land before counting them.
        let deadline = Instant::now() + Duration::from_secs(10);
        while net.stats().reconnects < 4 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = net.stats();
        assert!(
            stats.reconnects >= 4,
            "all four killed directions must re-establish, got {stats:?}"
        );
        assert_eq!(stats.frames_shed, 0, "nothing may be shed on a healthy run: {stats:?}");
    }
    chain
}

#[test]
fn killed_sockets_reconnect_and_the_chain_matches_an_unfaulted_run() {
    let unfaulted = multishot_chain(false, 10);
    let faulted = multishot_chain(true, 10);
    assert_eq!(
        faulted, unfaulted,
        "buffered frames must flush after reconnect: same chain, same order"
    );
}

#[test]
fn scripted_partition_heals_and_the_cluster_decides() {
    // Node 0 (the view-0 leader) is severed from everyone for the first
    // 600 ms: no quorum can form, so no decision can exist before the
    // heal. Both runtimes must decide right after it — the responsiveness
    // claim in miniature — and on the same value: leader 0's.
    let (heal, hop) = (600, 5);
    let plan = LinkPlan::uniform(EdgeSpec::delay(hop)).partition(PartitionWindow::isolate(
        0,
        heal,
        [NodeId(0)],
    ));

    let (sim_ms, sim_values) = sim_commit(4, &plan);
    assert!(
        (heal..=heal + 10 * hop).contains(&sim_ms),
        "the simulator decides right after the heal at {heal} ms, got {sim_ms}"
    );
    assert!(sim_values.iter().all(|v| *v == Value::from_u64(1)), "sim: {sim_values:?}");

    let (elapsed, tcp_values) = tcp_commit(4, plan);
    assert!(
        elapsed >= Duration::from_millis(heal - 50),
        "no quorum exists before the heal at {heal} ms, yet TCP decided after {elapsed:?}"
    );
    assert!(
        elapsed < Duration::from_millis(Params::new(TCP_DELTA_MS).view_timeout() / 2),
        "the decision must follow the heal, not the 27 s view timeout ({elapsed:?})"
    );
    assert!(
        tcp_values.iter().all(|v| *v == Value::from_u64(1)),
        "no divergence between runtimes, TCP decides the simulator's value: {tcp_values:?}"
    );
}

#[test]
fn lossy_links_drop_frames_without_blocking_agreement() {
    let cfg = Config::new(4).unwrap();
    // Only the 2↔3 edge is lossy; quorums avoiding it keep the cluster at
    // network speed while the drop counter proves frames really died.
    let plan = LinkPlan::uniform(EdgeSpec::delay(1)).link(
        NodeId(2),
        NodeId(3),
        EdgeSpec::delay(1).with_drop(0.5),
    );
    let (mut cluster, net) = ClusterBuilder::new(4)
        .plan(plan)
        .spawn(|id| TetraNode::new(cfg, Params::new(500), id, Value::from_u64(u64::from(id.0) + 1)))
        .expect("cluster spawns");

    let mut decisions = Vec::new();
    for _ in 0..4 {
        let (_, value) =
            cluster.next_output_timeout(Duration::from_secs(30)).expect("decide within 30s");
        decisions.push(value);
    }
    let first = decisions[0];
    assert!(decisions.iter().all(|v| *v == first), "agreement despite loss: {decisions:?}");
    assert!(net.stats().frames_dropped > 0, "the lossy edge must actually drop");
}

#[test]
fn injected_wan_delay_governs_commit_latency() {
    let lan = LinkPlan::uniform(EdgeSpec::delay(1));
    let wan = LinkPlan::uniform(EdgeSpec::delay(30));
    // Three regions (ids round-robin over them): 5 ms inside a region,
    // 40/70/80 ms one way between regions.
    let geo = |n: usize| {
        const REGION: [[u64; 3]; 3] = [[5, 40, 80], [40, 5, 70], [80, 70, 5]];
        let matrix: Vec<Vec<u64>> = (0..n)
            .map(|i| (0..n).map(|j| if i == j { 0 } else { REGION[i % 3][j % 3] }).collect())
            .collect();
        LinkPlan::from_matrix(&matrix)
    };

    // In the simulator the good case is five message delays, exactly,
    // whatever the delay and the cluster size.
    let sim_timeout = Params::new(SIM_DELTA_MS).view_timeout();
    for n in [4, 7] {
        let (lan_ms, _) = sim_commit(n, &lan);
        let (wan_ms, _) = sim_commit(n, &wan);
        let (geo_ms, _) = sim_commit(n, &geo(n));
        assert_eq!(lan_ms, 5, "good case is 5 message delays at δ = 1 (n={n})");
        assert_eq!(wan_ms, 5 * 30, "latency scales with the injected delay, not n (n={n})");
        assert!(
            (5 * 5..=5 * 80).contains(&geo_ms),
            "geo latency is bounded by the slowest inter-region path (n={n}, got {geo_ms})"
        );
        assert!(
            sim_timeout >= 100 * wan_ms.max(geo_ms),
            "commit is two orders of magnitude below the 9Δ timeout (n={n})"
        );
    }

    // Over TCP the same plans cost wall-clock time: a decision before 5δ
    // would mean the conditioning is not applied, and one near the timeout
    // would mean responsiveness is lost.
    let tcp_timeout = Params::new(TCP_DELTA_MS).view_timeout();
    let (lan_elapsed, _) = tcp_commit(4, lan);
    let (wan_elapsed, values) = tcp_commit(4, wan);
    assert!(values.iter().all(|v| *v == Value::from_u64(1)), "agreement over the WAN: {values:?}");
    assert!(
        wan_elapsed >= Duration::from_millis(5 * 30),
        "five 30 ms hops cannot complete in {wan_elapsed:?}"
    );
    assert!(
        wan_elapsed < Duration::from_millis(tcp_timeout / 5),
        "commit must track the injected delay, not the {tcp_timeout} ms timeout ({wan_elapsed:?})"
    );
    assert!(wan_elapsed > lan_elapsed, "30× the delay must cost wall-clock time");
}

#[test]
fn explicit_topology_spawns_a_cluster_on_declared_addresses() {
    let cfg = Config::new(4).unwrap();
    // Reserve four OS-assigned ports, then declare them as an explicit
    // topology (what a real deployment would put in its config). The tiny
    // reserve-to-rebind window can race another process, so retry.
    let mut last_err: Option<NetError> = None;
    for _ in 0..3 {
        let (listeners, topology) = Topology::bind_ephemeral(4).expect("reserve ports");
        let spec = topology.to_string();
        drop(listeners);
        let declared: Topology = spec.parse().expect("topology survives serialization");
        match ClusterBuilder::new(0).topology(declared).spawn(|id| {
            TetraNode::new(cfg, Params::new(500), id, Value::from_u64(u64::from(id.0) + 1))
        }) {
            Ok((mut cluster, _net)) => {
                assert_eq!(cluster.len(), 4, "node count comes from the topology");
                let (_, value) = cluster
                    .next_output_timeout(Duration::from_secs(30))
                    .expect("decide within 30s");
                assert_eq!(value, Value::from_u64(1));
                return;
            }
            Err(e) => last_err = Some(e),
        }
    }
    panic!("could not bind the declared topology: {last_err:?}");
}
