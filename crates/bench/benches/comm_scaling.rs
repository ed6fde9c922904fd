//! **E6 — communication & storage scaling** (Table 1's last column as a
//! scaling law): per view,
//!
//! * TetraBFT and IT-HS send O(n) bytes **per node** (O(n²) total) in both
//!   the good case and the view-change case;
//! * PBFT's certificate-carrying view change sends O(n²) per node at the
//!   leader (O(n³) total);
//! * persistent storage is flat in n and in the number of views for all of
//!   them (bounded PBFT's certificate is O(n) in the *system size*, not in
//!   history).

use tetrabft::{Params, TetraNode};
use tetrabft_bench::{
    pbft_loaded_view_change, print_table, run_protocol, scaling_exponent, Protocol, Scenario,
};
use tetrabft_types::{Config, NodeId, Value};

fn main() {
    let sizes = [4usize, 7, 10, 16, 25, 40];

    // Good case: totals should scale ~n², per-node ~n.
    let mut rows = Vec::new();
    let mut prev: Option<(usize, f64, f64, f64)> = None;
    for &n in &sizes {
        let tetra = run_protocol(Protocol::Tetra, Scenario::GoodCase, n, 1);
        let iths = run_protocol(Protocol::Iths, Scenario::GoodCase, n, 1);
        let pbft_vc = pbft_loaded_view_change(n, 10);
        let (t_exp, p_exp) = match prev {
            Some((pn, pt, _pi, pp)) => (
                format!(
                    "{:.2}",
                    scaling_exponent(pn as f64, pt, n as f64, tetra.total_bytes as f64)
                ),
                format!(
                    "{:.2}",
                    scaling_exponent(pn as f64, pp, n as f64, pbft_vc.total_bytes as f64)
                ),
            ),
            None => ("—".into(), "—".into()),
        };
        rows.push(vec![
            n.to_string(),
            format!("{} ({})", tetra.total_bytes, t_exp),
            tetra.max_node_bytes.to_string(),
            iths.total_bytes.to_string(),
            format!("{} ({})", pbft_vc.total_bytes, p_exp),
            pbft_vc.max_node_bytes.to_string(),
        ]);
        prev = Some((
            n,
            tetra.total_bytes as f64,
            iths.total_bytes as f64,
            pbft_vc.total_bytes as f64,
        ));
    }

    // Fitted overall exponents across the sweep ends.
    let t0 = run_protocol(Protocol::Tetra, Scenario::GoodCase, sizes[0], 1);
    let t1 = run_protocol(Protocol::Tetra, Scenario::GoodCase, *sizes.last().unwrap(), 1);
    let p0 = pbft_loaded_view_change(sizes[0], 10);
    let p1 = pbft_loaded_view_change(*sizes.last().unwrap(), 10);
    let tetra_exp = scaling_exponent(
        sizes[0] as f64,
        t0.total_bytes as f64,
        *sizes.last().unwrap() as f64,
        t1.total_bytes as f64,
    );
    let pbft_exp = scaling_exponent(
        sizes[0] as f64,
        p0.total_bytes as f64,
        *sizes.last().unwrap() as f64,
        p1.total_bytes as f64,
    );
    assert!(tetra_exp < 2.4, "TetraBFT must stay ~quadratic in total");
    assert!(pbft_exp > tetra_exp + 0.5, "PBFT view change must scale a power worse");

    // `cargo test` runs this `main` for the assertions above; cargo passes
    // `--bench` only under `cargo bench`, which is when the table is wanted.
    if !std::env::args().any(|arg| arg == "--bench") {
        return;
    }

    print_table(
        "Communication scaling (bytes per decision; 'exp' = log-log slope vs previous row)",
        &[
            "n",
            "TetraBFT good total (exp)",
            "TetraBFT max/node",
            "IT-HS good total",
            "PBFT view-change total (exp)",
            "PBFT max/node",
        ],
        &rows,
    );
    println!("\nfitted exponents: TetraBFT good case ≈ n^{tetra_exp:.2} (paper: n²),");
    println!("                  PBFT view change   ≈ n^{pbft_exp:.2} (paper: n³ worst case)");

    // Storage: constant in the number of views.
    let node =
        TetraNode::new(Config::new(4).unwrap(), Params::new(10), NodeId(0), Value::from_u64(0));
    println!(
        "\nstorage: TetraBFT persistent state = {} bytes, independent of views and of n \
         (six vote registers — Table 1's O(1)).",
        node.persistent_bytes()
    );
}
