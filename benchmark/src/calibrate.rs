//! Host-speed calibration for the CPU cost figures.
//!
//! The reference VM's memory system changes speed under the benchmark:
//! with no steal reported, a multiply-xor loop keeps its time to 0.5 % while
//! the deterministic `replay` next to it runs up to 2× slower for minutes at
//! a time (shared cache and DRAM under the neighbours' load look like
//! that), which no bound on raw on-CPU time survives. So while a window is
//! measured, the benchmark keeps timing a fixed *reference pass* — memory
//! bound like the stack, code of its own that calls nothing in the repo, so
//! no later change can speed it up — and every slice's on-CPU time is
//! divided by how much slower than [`REFERENCE_PASS_NS`] the passes inside
//! that slice ran. The result reads as µs at the reference box's quiet
//! speed.

use std::time::Instant;

/// Entries of the table the pass walks: 16 MiB, beyond L2.
const TABLE_LEN: usize = 1 << 22;
/// Dependent loads per pass, each followed by [`MIX_ROUNDS`] multiply-xor
/// rounds: a mix of memory latency and arithmetic, like the stack's own
/// (trie walks and hashing).
const STEPS: usize = 2048;
const MIX_ROUNDS: usize = 24;

/// What one pass takes on `replay`'s driving thread on the reference box
/// when the host is quiet. It only sets the scale of the calibrated
/// figures: a host running passes in this time reports its raw on-CPU time.
pub const REFERENCE_PASS_NS: f64 = 320_000.0;

/// The table and the walk's position.
pub struct Reference {
    table: Vec<u32>,
    at: u32,
}

impl Reference {
    /// Builds the table: one cycle through all entries (Sattolo's shuffle
    /// on a fixed xorshift stream), so every load depends on the last and
    /// the walk never settles into a cached loop.
    pub fn new() -> Reference {
        let mut table: Vec<u32> = (0..TABLE_LEN as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..TABLE_LEN).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            table.swap(i, (x % i as u64) as usize);
        }
        Reference { table, at: 0 }
    }

    /// One reference pass on the calling thread; returns its wall ns. A
    /// pass is short enough (a third of a ms) that it is rarely
    /// preempted, and callers take medians over many.
    pub fn pass(&mut self) -> u64 {
        let started = Instant::now();
        let mut at = self.at;
        let mut acc = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..STEPS {
            at = self.table[at as usize];
            for _ in 0..MIX_ROUNDS {
                acc = (acc ^ u64::from(at)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        // The walk resumes where it stopped (and where `acc` sends it), so
        // neither the loads nor the arithmetic can be hoisted or dropped.
        self.at = std::hint::black_box(at ^ (acc as u32 & 1));
        started.elapsed().as_nanos() as u64
    }
}

impl Default for Reference {
    fn default() -> Self {
        Reference::new()
    }
}

/// Reference passes timed during a window, as `(instant on the run's
/// clock, wall ns of the pass)`.
#[derive(Debug, Clone, Default)]
pub struct Passes(pub Vec<(u64, u64)>);

impl Passes {
    /// How much slower than the reference box the host ran between each
    /// pair of consecutive `marks`: median pass time there ÷
    /// [`REFERENCE_PASS_NS`]. A slice without a pass reads the whole
    /// window's median.
    pub fn slowdown_per_slice(&self, marks: &[u64]) -> Vec<f64> {
        let median_ns = |from: u64, to: u64| {
            let mut ns: Vec<f64> = self
                .0
                .iter()
                .filter(|(at, _)| (from..to).contains(at))
                .map(|(_, ns)| *ns as f64)
                .collect();
            (!ns.is_empty()).then(|| crate::stats::median(&mut ns))
        };
        let overall = median_ns(0, u64::MAX).unwrap_or(REFERENCE_PASS_NS);
        marks
            .windows(2)
            .map(|pair| median_ns(pair[0], pair[1]).unwrap_or(overall) / REFERENCE_PASS_NS)
            .collect()
    }
}
