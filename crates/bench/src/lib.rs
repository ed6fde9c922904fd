//! Shared measurement harness for the table/figure reproduction benches.
//!
//! Every artefact target under `benches/` regenerates one artifact of the
//! paper (Table 1, Fig. 2, Fig. 3, or a quantitative claim from the text)
//! and asserts the paper's number beside the table it prints: `cargo test`
//! runs the assertions, `cargo bench --bench <name>` also prints the
//! table. This library holds the scenario runners they share.

// `deny`, not `forbid`: the allocation-counting module implements
// `GlobalAlloc`, which requires `unsafe` and carries a scoped allow.
#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod alloc_count;

pub use alloc_count::{AllocSnapshot, CountingAlloc};

use tetrabft::{Params, TetraNode};
use tetrabft_baselines::{BlogNode, IthsNode, PbftNode};
use tetrabft_sim::{EdgeSpec, FilteredNode, LinkPlan, Node, SilentNode, Sim, SimBuilder, WireSize};
use tetrabft_types::{Config, NodeId, Value};

/// Latency + communication measurements for one protocol scenario.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// First decision time in message delays.
    pub latency: u64,
    /// Total bytes all nodes handed to the network.
    pub total_bytes: u64,
    /// Largest per-node byte count.
    pub max_node_bytes: u64,
    /// Total messages sent.
    pub total_msgs: u64,
}

fn measure<M, O>(mut sim: Sim<M, O>, outputs: usize) -> Measurement
where
    M: WireSize + Clone,
{
    assert!(
        sim.run_until_outputs(outputs, 50_000_000),
        "scenario failed to produce {outputs} outputs"
    );
    Measurement {
        latency: sim.outputs()[0].time.0,
        total_bytes: sim.metrics().total_bytes_sent(),
        max_node_bytes: sim.metrics().max_node_bytes_sent(),
        total_msgs: sim.metrics().total_msgs_sent(),
    }
}

/// Which run to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Synchronous from the start, all leaders correct, unit delays.
    GoodCase,
    /// The leader of view 0 is crashed; latency is reported relative to the
    /// `9Δ` timeout so it counts the *view-change* message delays.
    ViewChange {
        /// Δ in ticks (hops stay unit-delay).
        delta: u64,
    },
}

/// Protocols under comparison in Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Protocol {
    /// TetraBFT (this paper).
    Tetra,
    /// Information-Theoretic HotStuff.
    Iths,
    /// IT-HS blog version (non-responsive).
    IthsBlog,
    /// Bounded-storage PBFT.
    Pbft,
}

impl Protocol {
    /// Display name matching Table 1.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Tetra => "TetraBFT",
            Protocol::Iths => "IT-HS",
            Protocol::IthsBlog => "IT-HS (blog version)",
            Protocol::Pbft => "PBFT (bounded)",
        }
    }

    /// Paper-reported (good-case, view-change) latencies in message delays.
    pub fn paper_latencies(self) -> (u64, u64) {
        match self {
            Protocol::Tetra => (5, 7),
            Protocol::Iths => (6, 9),
            Protocol::IthsBlog => (4, 5),
            Protocol::Pbft => (3, 7),
        }
    }

    /// Paper-reported responsiveness.
    pub fn responsive(self) -> &'static str {
        match self {
            Protocol::IthsBlog => "non-responsive",
            _ => "responsive",
        }
    }
}

/// Runs `protocol` under `scenario` with `n` nodes and per-hop delay
/// `hop` ticks, measuring the first decision.
pub fn run_protocol(protocol: Protocol, scenario: Scenario, n: usize, hop: u64) -> Measurement {
    match protocol {
        Protocol::Tetra => run_nodes(scenario, n, hop, TetraNode::new),
        Protocol::Iths => run_nodes(scenario, n, hop, IthsNode::new),
        Protocol::IthsBlog => run_nodes(scenario, n, hop, BlogNode::new),
        Protocol::Pbft => run_nodes(scenario, n, hop, PbftNode::new),
    }
}

/// [`run_protocol`] for one node type: node `i` proposes value `i + 1`, and
/// node 0 — the view-0 leader — is silent in the view-change scenario.
fn run_nodes<N>(
    scenario: Scenario,
    n: usize,
    hop: u64,
    make: impl Fn(Config, Params, NodeId, Value) -> N,
) -> Measurement
where
    N: Node<Output = Value> + 'static,
{
    let cfg = Config::new(n).expect("valid n");
    let (params, crash_leader) = match scenario {
        Scenario::GoodCase => (Params::new(1_000_000), false),
        Scenario::ViewChange { delta } => (Params::new(delta), true),
    };
    let sim = SimBuilder::new(n).plan(&LinkPlan::uniform(EdgeSpec::delay(hop))).build_boxed(|id| {
        if crash_leader && id == NodeId(0) {
            Box::new(SilentNode::new())
        } else {
            Box::new(make(cfg, params, id, Value::from_u64(u64::from(id.0) + 1)))
        }
    });
    measure(sim, if crash_leader { n - 1 } else { n })
}

/// View-change latency in message delays: decision time minus the `9Δ`
/// timeout instant (hops are unit-delay in the view-change scenario).
pub fn view_change_delays(protocol: Protocol, n: usize, delta: u64) -> u64 {
    let m = run_protocol(protocol, Scenario::ViewChange { delta }, n, 1);
    let timeout = Params::new(delta).view_timeout();
    m.latency.saturating_sub(timeout)
}

/// Runs PBFT through a *loaded* view change: every node's view-0 commits
/// are swallowed, so view 0 completes its prepare phase (every node holds a
/// full O(n) prepared certificate) but stalls before deciding, forcing the
/// *worst-case* view change Table 1 prices at O(n³) total bits —
/// certificate-carrying view-changes from all nodes plus the O(n²) new-view
/// bundle. Returns the communication measurement.
pub fn pbft_loaded_view_change(n: usize, delta: u64) -> Measurement {
    use tetrabft_baselines::PbftMsg;
    let cfg = Config::new(n).expect("valid n");
    let params = Params::new(delta);
    let sim = SimBuilder::new(n).build(move |id| {
        let node = PbftNode::new(cfg, params, id, Value::from_u64(u64::from(id.0) + 1));
        FilteredNode::sending(
            node,
            |msg| !matches!(msg, PbftMsg::Commit { view, .. } if view.is_zero()),
        )
    });
    measure(sim, n)
}

/// Pretty-prints a Markdown-ish table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: Vec<String>| {
        let padded: Vec<String> =
            cells.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
        format!("| {} |", padded.join(" | "))
    };
    println!("{}", fmt_row(header.iter().map(|s| s.to_string()).collect()));
    println!("|{}|", widths.iter().map(|w| "-".repeat(w + 2)).collect::<Vec<_>>().join("|"));
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Log-log slope between two (x, y) samples — the empirical scaling
/// exponent used by the communication experiments.
pub fn scaling_exponent(x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
    ((y1 / y0).ln()) / ((x1 / x0).ln())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_latencies_match_paper_at_n4() {
        for protocol in [Protocol::Tetra, Protocol::Iths, Protocol::IthsBlog, Protocol::Pbft] {
            let (good, _) = protocol.paper_latencies();
            let m = run_protocol(protocol, Scenario::GoodCase, 4, 1);
            assert_eq!(m.latency, good, "{} good case", protocol.name());
        }
    }

    #[test]
    fn responsive_view_change_latencies_match_paper() {
        for protocol in [Protocol::Tetra, Protocol::Iths, Protocol::Pbft] {
            let (_, vc) = protocol.paper_latencies();
            let got = view_change_delays(protocol, 4, 10);
            assert_eq!(got, vc, "{} view change", protocol.name());
        }
    }

    #[test]
    fn scaling_exponent_sanity() {
        let e = scaling_exponent(4.0, 16.0, 8.0, 64.0);
        assert!((e - 2.0).abs() < 1e-9);
    }
}
