//! The whole offered load of one run, generated from `--seed` before any
//! clock that matters starts: Poisson due instants, payloads, their
//! `TxId`s, and (for TCP) the framed bytes per client connection. The
//! program under test receives only these generated inputs.

use std::time::Duration;

use rand::{Rng, SeedableRng, StdRng};
use tetrabft_ledger::{AccountId, Transfer};
use tetrabft_multishot::{Transaction, TxId};
use tetrabft_wire::frame::encode_frame_into;

use crate::spec::{Payload, Runtime, Workload, ACCOUNTS, CLIENT_NODES, GENESIS_BALANCE};

/// Account `k`'s id: a fixed bijection that spreads ids over the whole
/// 64-bit key space (as ids derived from public keys would be), so the
/// ledger's radix trie is balanced instead of one long shared prefix.
pub fn account_id(k: u64) -> AccountId {
    AccountId(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The genesis allocation every replica starts from.
pub fn genesis() -> impl Iterator<Item = (AccountId, u64)> {
    (0..ACCOUNTS).map(|k| (account_id(k), GENESIS_BALANCE))
}

/// One run's offered load. Index `i` is the `i`-th transaction by due time.
pub struct Schedule {
    /// Due instant, ns after load start (warm-up begin), ascending.
    pub due_ns: Vec<u64>,
    pub ids: Vec<TxId>,
    /// Index into [`CLIENT_NODES`] of the connection (node) it is sent to.
    pub conn: Vec<u8>,
    /// TCP: each connection's frames, back to back in send order.
    pub frames: [Vec<u8>; 2],
    /// TCP: end offset of transaction `i`'s frame in `frames[conn[i]]`.
    pub frame_end: Vec<usize>,
    /// Replay: the payload of transaction `i`.
    pub payloads: Vec<Vec<u8>>,
    /// Transactions due before this index are warm-up and not measured.
    pub first_measured: usize,
    /// The measured window opens this long after load start…
    pub warmup_ns: u64,
    /// …and lasts this long.
    pub window_ns: u64,
}

impl Schedule {
    /// Poisson arrivals at the workload's rate over warm-up + window, for
    /// a run asked to measure `seconds`.
    /// Transfers draw the payer uniformly and number each payer's nonces
    /// in due order; a payer always uses the same connection, so one
    /// node's FIFO mempool keeps its nonces in order and every transfer is
    /// valid when it executes.
    pub fn generate(w: &Workload, seed: u64, seconds: Duration) -> Schedule {
        let mut rng = StdRng::seed_from_u64(seed);
        let warmup_ns = w.warmup().as_nanos() as u64;
        let window_ns = w.window(seconds).as_nanos() as u64;
        let end_ns = warmup_ns + window_ns;
        let mean_gap_ns = 1e9 / w.rate_tps as f64;
        let expected = (end_ns as f64 / mean_gap_ns) as usize + 1024;

        let mut s = Schedule {
            due_ns: Vec::with_capacity(expected),
            ids: Vec::with_capacity(expected),
            conn: Vec::with_capacity(expected),
            frames: [Vec::new(), Vec::new()],
            frame_end: Vec::new(),
            payloads: Vec::new(),
            first_measured: 0,
            warmup_ns,
            window_ns,
        };
        let mut nonces = vec![0u32; ACCOUNTS as usize];
        let mut opaque = match w.payload {
            Payload::Opaque(len) => vec![0u8; len.max(16)],
            Payload::Transfer => Vec::new(),
        };
        let mut t = 0f64;
        loop {
            // Inverse-CDF exponential gap over the top 53 bits of a draw.
            let u = ((rng.next_u64() >> 11) + 1) as f64 * (1.0 / 9_007_199_254_740_992.0);
            t += -u.ln() * mean_gap_ns;
            if t >= end_ns as f64 {
                break;
            }
            let i = s.due_ns.len();
            let (payload, conn) = match w.payload {
                Payload::Transfer => {
                    let payer = rng.random_range(0..ACCOUNTS);
                    let payee = (payer + rng.random_range(1..ACCOUNTS)) % ACCOUNTS;
                    let nonce = &mut nonces[payer as usize];
                    let transfer = Transfer {
                        from: account_id(payer),
                        to: account_id(payee),
                        amount: rng.random_range(1..=100u64),
                        nonce: u64::from(*nonce),
                    };
                    *nonce += 1;
                    (transfer.canonical_bytes(), (payer & 1) as u8)
                }
                Payload::Opaque(_) => {
                    opaque[..8].copy_from_slice(&seed.to_le_bytes());
                    opaque[8..16].copy_from_slice(&(i as u64).to_le_bytes());
                    for chunk in opaque[16..].chunks_mut(8) {
                        let word = rng.next_u64().to_le_bytes();
                        chunk.copy_from_slice(&word[..chunk.len()]);
                    }
                    (opaque.clone(), (i & 1) as u8)
                }
            };
            if s.first_measured == i && (t as u64) < warmup_ns {
                s.first_measured = i + 1;
            }
            s.due_ns.push(t as u64);
            s.ids.push(TxId::of(&payload));
            s.conn.push(conn);
            match w.runtime {
                Runtime::Tcp => {
                    let out = &mut s.frames[conn as usize];
                    encode_frame_into(&payload, out).expect("payload under the frame limit");
                    s.frame_end.push(out.len());
                }
                Runtime::Replay => s.payloads.push(payload),
            }
        }
        debug_assert_eq!(CLIENT_NODES.len(), s.frames.len());
        s
    }

    pub fn len(&self) -> usize {
        self.due_ns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.due_ns.is_empty()
    }

    /// Number of measured (post-warm-up) transactions.
    pub fn measured(&self) -> usize {
        self.len() - self.first_measured
    }
}
