//! **E5 — optimistic responsiveness** (Sections 1–2): after GST, responsive
//! protocols decide in time proportional to the *actual* network delay δ
//! (TetraBFT within 7δ of the view change), while a non-responsive protocol
//! pays the conservative bound Δ regardless of how fast the network really
//! is.
//!
//! Scenario: the view-0 leader is crashed, Δ is fixed at 100 ticks, and the
//! actual per-hop delay δ sweeps 1..50. Reported: decision time after the
//! 9Δ timeout.

use tetrabft::Params;
use tetrabft_bench::{print_table, run_protocol, Protocol, Scenario};

fn main() {
    let n = 4;
    let delta = 100u64;
    let deltas_actual = [1u64, 2, 5, 10, 20, 50];
    let recovery_after_timeout = |protocol, hop| {
        run_protocol(protocol, Scenario::ViewChange { delta }, n, hop).latency
            - Params::new(delta).view_timeout()
    };

    let mut rows = Vec::new();
    for &hop in &deltas_actual {
        // TetraBFT (responsive): expect ≈ 7δ.
        let tetra = recovery_after_timeout(Protocol::Tetra, hop);
        // IT-HS (responsive): expect ≈ 9δ.
        let iths = recovery_after_timeout(Protocol::Iths, hop);
        // Blog IT-HS (non-responsive): expect ≈ Δ + 5δ, flat in δ.
        let blog = recovery_after_timeout(Protocol::IthsBlog, hop);

        rows.push(vec![
            hop.to_string(),
            format!("{tetra} (= {}δ)", tetra / hop),
            format!("{iths} (= {}δ)", iths / hop),
            format!("{blog} (Δ + {}δ)", blog.saturating_sub(delta) / hop),
        ]);

        assert_eq!(tetra, 7 * hop, "TetraBFT recovery must be exactly 7δ after GST");
        assert!(blog >= delta, "non-responsive recovery always pays Δ");
    }

    // `cargo test` runs this `main` for the assertions above; cargo passes
    // `--bench` only under `cargo bench`, which is when the table is wanted.
    if !std::env::args().any(|arg| arg == "--bench") {
        return;
    }

    print_table(
        "Responsiveness — recovery latency after the 9Δ timeout (Δ = 100 fixed, δ sweeps)",
        &["δ (actual delay)", "TetraBFT", "IT-HS", "IT-HS blog (non-responsive)"],
        &rows,
    );

    println!(
        "\nReproduced: responsive protocols track δ (TetraBFT at 7δ — the paper's \
         'at most 7δ'; IT-HS at 9δ), while the non-responsive baseline is dominated \
         by the fixed Δ wait even on a fast network — the practical argument of \
         Section 1.2."
    );
}
