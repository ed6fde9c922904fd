//! Baseline protocols from Table 1 of the TetraBFT paper, implemented from
//! scratch so that the paper's comparison can be *measured* rather than
//! quoted:
//!
//! * [`IthsNode`] — **Information-Theoretic HotStuff** (Abraham & Stern 2020):
//!   responsive, constant storage, O(n²) communication, good-case latency
//!   **6** message delays (propose, echo, key-1, key-2, key-3, lock), **9**
//!   with a view change;
//! * [`BlogNode`] — the **blog version of IT-HS**: *non-responsive*,
//!   good-case latency **4** (propose, echo, accept, lock), **5** with a
//!   view change — but a new leader must wait a full Δ before proposing,
//!   which experiment E5 exposes;
//! * [`PbftNode`] — a **bounded-storage PBFT**-style protocol: good-case
//!   latency **3** (pre-prepare, prepare, commit), **7** with a view change
//!   (request, view-change, ack, new-view) — whose certificate-carrying
//!   view change costs O(n³) total bits, the scaling experiment E6 measures;
//! * [`RepeatedTetra`] — **sequentially repeated single-shot TetraBFT**, the
//!   baseline for the ×5 pipelining throughput claim (experiment E7).
//!
//! These are latency- and communication-faithful reimplementations (the
//! originals have no open-source unauthenticated implementations); their
//! good-case and view-change message flows follow the phase structures the
//! TetraBFT paper itself attributes to them in Section 1.2, which is
//! exactly what Table 1 measures. They receive through TetraBFT's own
//! receive model — [`tetrabft::VoteRegisters`] for their vote phases and
//! [`tetrabft::ViewChanges`] for the view change — so the comparison runs
//! over literally the same registers (DESIGN.md §2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod iths;
mod ithsblog;
mod pbft;
mod repeated;

pub use iths::{IthsMsg, IthsNode};
pub use ithsblog::{BlogMsg, BlogNode};
pub use pbft::{PbftMsg, PbftNode, PrepareRecord, VcRecord};
pub use repeated::{RepeatedTetra, SeqMsg};

/// The byte count of what `encode` writes: how a baseline message is priced.
/// The baselines run only under the simulator, which hands a node values,
/// never bytes, so their messages have encoders for pricing and no decoders.
fn encoded_len(encode: impl FnOnce(&mut tetrabft_wire::Writer)) -> usize {
    let mut w = tetrabft_wire::Writer::new();
    encode(&mut w);
    w.len()
}
