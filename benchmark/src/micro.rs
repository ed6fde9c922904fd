//! Timed direct calls into single layers, on inputs recorded from the
//! workload that just ran (messages and blocks the probes saw, the
//! schedule's own payloads). Traced runs only, after the window.

use std::path::Path;
use std::time::Instant;

use tetrabft_ledger::Ledger;
use tetrabft_multishot::{Block, MsMessage};
use tetrabft_store::NodeStore;
use tetrabft_types::{NodeId, Phase, Slot, Value, View, VoteBook};
use tetrabft_wire::frame::{encode_frame_into, FrameDecoder};
use tetrabft_wire::{Wire, Writer};

use crate::report::Outcome;
use crate::schedule::Schedule;
use crate::spec::{Runtime, Workload};
use crate::stats::{median, ratio};
use crate::tcp::node_dir;

/// Each timed loop repeats its inputs until it has run about this long.
const TARGET_NS: u128 = 20_000_000;

/// Runs `pass` over the inputs repeatedly for about [`TARGET_NS`] and
/// returns ns per pass.
fn time_passes(mut pass: impl FnMut()) -> f64 {
    let started = Instant::now();
    let mut passes = 0u32;
    while passes == 0 || started.elapsed().as_nanos() < TARGET_NS {
        pass();
        passes += 1;
    }
    started.elapsed().as_nanos() as f64 / f64::from(passes)
}

/// Up to `cap` of the schedule's payloads, in due order.
fn payload_sample(w: &Workload, schedule: &Schedule, cap: usize) -> Vec<Vec<u8>> {
    match w.runtime {
        Runtime::Replay => schedule.payloads.iter().take(cap).cloned().collect(),
        Runtime::Tcp => {
            let mut decoder = FrameDecoder::new();
            let bytes = &schedule.frames[0];
            decoder.extend(&bytes[..bytes.len().min(cap * 1100)]);
            let mut out = Vec::new();
            while let Ok(Some(frame)) = decoder.next_frame() {
                out.push(frame.to_vec());
                if out.len() == cap {
                    break;
                }
            }
            out
        }
    }
}

/// Message codec as the transports use it: encode into a reused scratch
/// writer, decode from the bytes.
fn msg_codec(out: &mut Outcome, msgs: &[MsMessage]) {
    let mut scratch = Writer::new();
    let per_pass = time_passes(|| {
        for msg in msgs {
            scratch.clear();
            msg.encode(&mut scratch);
            std::hint::black_box(MsMessage::from_bytes(scratch.as_bytes()).is_ok());
        }
    });
    out.set("wire.msg_codec_ns_per_msg", ratio(per_pass, msgs.len() as f64));
}

/// Client framing: frame every payload into one buffer, then take the
/// frames back out of a `FrameDecoder`.
fn frame_codec(out: &mut Outcome, payloads: &[Vec<u8>]) {
    let mut framed = Vec::new();
    let per_pass = time_passes(|| {
        framed.clear();
        for payload in payloads {
            encode_frame_into(payload, &mut framed).expect("payload under the frame limit");
        }
        let mut decoder = FrameDecoder::new();
        decoder.extend(&framed);
        while let Ok(Some(frame)) = decoder.next_frame() {
            std::hint::black_box(frame.len());
        }
    });
    out.set("wire.frame_codec_ns_per_tx", ratio(per_pass, payloads.len() as f64));
}

/// The store's write paths on a scratch store with the workload's fsync
/// policy, and its open path on a chain log the run wrote.
fn store_calls(
    out: &mut Outcome,
    w: &Workload,
    blocks: &[Block],
    payloads: &[Vec<u8>],
    run_dir: &Path,
) -> Result<(), tetrabft_store::StoreError> {
    let mut store = NodeStore::open(run_dir.join("micro"), w.params().fsync())?;

    // One write-ahead vote record per slot, the tip trailing four slots
    // behind as in the good case, so compaction runs at its real cadence.
    let started = Instant::now();
    let rounds = blocks.len().max(64) as u64;
    for slot in 1..=rounds {
        let mut book = VoteBook::new();
        let hash = blocks.get(slot as usize - 1).map_or(slot, |b| b.hash().0);
        book.record(Phase::VOTE1, View(0), Value::from_u64(hash));
        store.record_votes(Slot(slot), View(0), Slot(slot.saturating_sub(4)), &book)?;
    }
    out.set("store.record_votes_us", started.elapsed().as_nanos() as f64 / 1e3 / rounds as f64);

    let encoded: Vec<Vec<u8>> = blocks.iter().map(Wire::to_bytes).collect();
    let kib: f64 = encoded.iter().map(|b| b.len() as f64 / 1024.0).sum();
    let started = Instant::now();
    for (i, bytes) in encoded.iter().enumerate() {
        store.append_block(Slot(i as u64 + 1), blocks[i].hash().0, bytes)?;
    }
    out.set("store.append_block_us_per_kib", ratio(started.elapsed().as_nanos() as f64 / 1e3, kib));

    let first_free = encoded.len() as u64 + 1;
    let mut syncs = Vec::new();
    for slot in first_free..first_free + 16 {
        store.append_block(Slot(slot), slot, b"sync probe")?;
        let started = Instant::now();
        store.sync()?;
        syncs.push(started.elapsed().as_nanos() as f64 / 1e6);
    }
    out.set("store.fsync_ms", median(&mut syncs));

    let mut saves = Vec::new();
    for _ in 0..8 {
        let started = Instant::now();
        store.save_mempool(payloads)?;
        saves.push(started.elapsed().as_nanos() as f64 / 1e3);
    }
    out.set(
        "store.save_mempool_us_per_ktx",
        ratio(median(&mut saves), payloads.len() as f64 / 1e3),
    );
    drop(store);

    let started = Instant::now();
    let reopened = NodeStore::open(node_dir(run_dir, NodeId(3)), w.params().fsync())?;
    let open_ms = started.elapsed().as_nanos() as f64 / 1e6;
    out.set("store.open_ms_per_kblock", ratio(open_ms, reopened.chain_len() as f64 / 1e3));
    Ok(())
}

/// Ledger execution on a genesis snapshot: the run's first non-empty
/// blocks in order (every transfer in them is still valid there), then
/// empty blocks for the bare cost of chaining a root.
fn ledger_calls(out: &mut Outcome, genesis: Option<&Ledger>, blocks: &[Block]) {
    let Some(genesis) = genesis else { return };
    let mut ledger = genesis.clone();
    let txs: usize = blocks.iter().map(|b| b.txs.len()).sum();
    let started = Instant::now();
    let mut applied = 0;
    for (i, block) in blocks.iter().enumerate() {
        applied += ledger.apply_block(i as u64 + 1, &block.txs).applied;
    }
    let apply_ns = started.elapsed().as_nanos() as f64;
    out.set("ledger.apply_ns_per_tx", ratio(apply_ns, txs as f64));
    out.require(applied == txs, || {
        format!("ledger micro-run applied {applied} of {txs} recorded transfers")
    });

    let mut slot = blocks.len() as u64;
    let per_pass = time_passes(|| {
        for _ in 0..1024 {
            slot += 1;
            std::hint::black_box(ledger.apply_block(slot, &[]).root);
        }
    });
    out.set("ledger.root_us_per_block", per_pass / 1024.0 / 1e3);
}

/// All timed direct calls of a traced run.
pub fn timed_calls(
    out: &mut Outcome,
    w: &Workload,
    schedule: &Schedule,
    msgs: &[MsMessage],
    blocks: &[Block],
    genesis: Option<&Ledger>,
    run_dir: &Path,
) {
    let payloads = payload_sample(w, schedule, 1000);
    msg_codec(out, msgs);
    frame_codec(out, &payloads);
    if let Err(e) = store_calls(out, w, blocks, &payloads, run_dir) {
        out.violations.push(format!("store micro-run failed: {e}"));
    }
    ledger_calls(out, genesis, blocks);
}
