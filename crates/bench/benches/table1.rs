//! **E1 — Table 1**: characteristics of partially-synchronous,
//! unauthenticated BFT protocols, regenerated by executing every protocol
//! in the simulator.
//!
//! Latencies are *measured* in message delays (unit-delay network); storage
//! and communication are measured in bytes. The unbounded-PBFT / SCP /
//! Li-et-al. rows of the paper's table are not executable (see DESIGN.md)
//! and are reproduced as annotations.

use tetrabft_bench::{print_table, run_protocol, view_change_delays, Protocol, Scenario};

fn main() {
    let n = 4;
    let protocols = [Protocol::Tetra, Protocol::Iths, Protocol::IthsBlog, Protocol::Pbft];

    let mut rows = Vec::new();
    for protocol in protocols {
        let (paper_good, paper_vc) = protocol.paper_latencies();
        let good = run_protocol(protocol, Scenario::GoodCase, n, 1);
        let vc = view_change_delays(protocol, n, 10);
        let vc_note = if protocol == Protocol::IthsBlog {
            format!("{} delays + Δ wait (measured {vc} ticks)", vc.saturating_sub(10))
        } else {
            vc.to_string()
        };
        rows.push(vec![
            protocol.name().to_string(),
            protocol.responsive().to_string(),
            format!("{} (paper: {})", good.latency, paper_good),
            format!("{} (paper: {})", vc_note, paper_vc),
            "O(1)".to_string(),
            format!("{} B good-case total", good.total_bytes),
        ]);
    }
    rows.push(vec![
        "PBFT (unbounded)".into(),
        "responsive".into(),
        "3 (paper: 3)".into(),
        "7 (paper: 7)".into(),
        "unbounded".into(),
        "not executable: unbounded storage (paper row kept for reference)".into(),
    ]);
    rows.push(vec![
        "SCP / Li et al.".into(),
        "n/a / non-responsive".into(),
        "— (paper: 4 / 6)".into(),
        "— (paper: 2 / 6)".into(),
        "O(1) / unbounded".into(),
        "heterogeneous-trust protocols, outside the homogeneous model".into(),
    ]);

    let tetra = run_protocol(Protocol::Tetra, Scenario::GoodCase, n, 1);
    let iths = run_protocol(Protocol::Iths, Scenario::GoodCase, n, 1);
    assert_eq!(tetra.latency, 5);
    assert_eq!(iths.latency, 6);

    // `cargo test` runs this `main` for the assertions above; cargo passes
    // `--bench` only under `cargo bench`, which is when the table is wanted.
    if !std::env::args().any(|arg| arg == "--bench") {
        return;
    }

    print_table(
        "Table 1 — measured vs paper (n = 4, f = 1, unit message delay)",
        &[
            "protocol",
            "responsiveness",
            "good-case latency",
            "view-change latency",
            "storage",
            "communication",
        ],
        &rows,
    );

    println!(
        "\nNote: IT-HS (blog) recovery includes the non-responsive leader's fixed Δ \
         wait; the paper's '5' counts message delays only."
    );

    println!(
        "\nHeadline: TetraBFT decides in {} delays vs IT-HS {} — the paper's one-delay \
         improvement among responsive constant-space O(n²) protocols.",
        tetra.latency, iths.latency
    );
}
