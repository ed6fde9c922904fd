//! Sharded fingerprint seen-set.
//!
//! Open-addressing (linear probing) over flat `Vec<u64>` entry arrays:
//! each entry is the `stride` packed words themselves, so membership is
//! *collision-checked* — the fingerprint only picks the shard and the
//! starting slot, and equality always compares the full packed state. An
//! all-zero first word marks an empty slot (a valid [`PackedState`] is
//! never all-zero; see [`crate::encode`]).
//!
//! Sharding serves the parallel explorer: each shard sits behind its own
//! mutex, and the shard index is a pure function of the fingerprint, so
//! worker threads contend only when they hash into the same shard.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::encode::{fingerprint, PackedState};
use crate::model::ModelAction;

/// Result of a [`Store::try_insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The state was not in the store and was inserted.
    Fresh,
    /// The state was already present.
    Seen,
    /// The state was new but the state budget is exhausted; not inserted.
    Dropped,
}

fn encode_action(action: Option<ModelAction>) -> u64 {
    match action {
        None => 0,
        Some(ModelAction::StartRound { node, round }) => {
            1 | (node as u64) << 8 | u64::from(round) << 16
        }
        Some(ModelAction::Vote { node, phase, round, value }) => {
            2 | (node as u64) << 8
                | u64::from(round) << 16
                | u64::from(phase) << 24
                | u64::from(value) << 32
        }
    }
}

fn decode_action(code: u64) -> Option<ModelAction> {
    let node = ((code >> 8) & 0xFF) as usize;
    let round = ((code >> 16) & 0xFF) as u8;
    match code & 0xFF {
        0 => None,
        1 => Some(ModelAction::StartRound { node, round }),
        2 => Some(ModelAction::Vote {
            node,
            round,
            phase: ((code >> 24) & 0xFF) as u8,
            value: ((code >> 32) & 0xFF) as u8,
        }),
        _ => unreachable!("corrupt action code"),
    }
}

struct Shard {
    /// Slot count; always a power of two.
    cap: usize,
    len: usize,
    /// `cap * stride` words; entry `i` at `i * stride`, first word 0 = empty.
    keys: Vec<u64>,
    /// With tracing: `cap * (stride + 1)` words per slot — the parent's
    /// packed words followed by the encoded action.
    aux: Vec<u64>,
}

impl Shard {
    fn new(cap: usize, stride: usize, trace: bool) -> Shard {
        Shard {
            cap,
            len: 0,
            keys: vec![0; cap * stride],
            aux: if trace { vec![0; cap * (stride + 1)] } else { Vec::new() },
        }
    }

    /// Finds the slot holding `words`, or the empty slot where it belongs.
    fn probe(&self, stride: usize, fp: u64, words: &[u64]) -> (usize, bool) {
        let mask = self.cap - 1;
        let mut slot = (fp >> 32) as usize & mask;
        loop {
            let entry = &self.keys[slot * stride..(slot + 1) * stride];
            if entry[0] == 0 {
                return (slot, false);
            }
            if entry == words {
                return (slot, true);
            }
            slot = (slot + 1) & mask;
        }
    }

    fn write(&mut self, stride: usize, slot: usize, words: &[u64], parent: &[u64]) {
        self.keys[slot * stride..(slot + 1) * stride].copy_from_slice(words);
        if !self.aux.is_empty() {
            self.aux[slot * (stride + 1)..(slot + 1) * (stride + 1)].copy_from_slice(parent);
        }
        self.len += 1;
    }

    fn grow(&mut self, stride: usize) {
        let trace = !self.aux.is_empty();
        let mut bigger = Shard::new(self.cap * 2, stride, trace);
        for slot in 0..self.cap {
            let entry = &self.keys[slot * stride..(slot + 1) * stride];
            if entry[0] == 0 {
                continue;
            }
            let fp = fingerprint(entry);
            let (new_slot, found) = bigger.probe(stride, fp, entry);
            debug_assert!(!found);
            let parent = if trace {
                self.aux[slot * (stride + 1)..(slot + 1) * (stride + 1)].to_vec()
            } else {
                Vec::new()
            };
            bigger.write(stride, new_slot, entry, &parent);
        }
        *self = bigger;
    }
}

/// The sharded seen-set (and, with tracing, predecessor table).
pub(crate) struct Store {
    shards: Vec<Mutex<Shard>>,
    shard_mask: u64,
    stride: usize,
    trace: bool,
    budget: usize,
    count: AtomicUsize,
    dropped: AtomicUsize,
}

impl Store {
    /// Creates a store for packed states of `stride` words, refusing
    /// inserts beyond `budget` states. `shards` is rounded up to a power
    /// of two. With `trace`, each entry also records its parent state and
    /// the action that discovered it.
    pub(crate) fn new(stride: usize, shards: usize, budget: usize, trace: bool) -> Store {
        let shards = shards.max(1).next_power_of_two();
        Store {
            shards: (0..shards).map(|_| Mutex::new(Shard::new(256, stride, trace))).collect(),
            shard_mask: shards as u64 - 1,
            stride,
            trace,
            budget,
            count: AtomicUsize::new(0),
            dropped: AtomicUsize::new(0),
        }
    }

    /// Inserts `packed` (with fingerprint `fp`), recording `parent` when
    /// tracing. Duplicates report [`Outcome::Seen`] regardless of budget;
    /// new states beyond the budget are counted and dropped.
    pub(crate) fn try_insert(
        &self,
        packed: &PackedState,
        fp: u64,
        parent: Option<(&PackedState, ModelAction)>,
    ) -> Outcome {
        let words = &packed.words()[..self.stride];
        let mut shard = self.shards[(fp & self.shard_mask) as usize].lock().unwrap();
        let (slot, found) = shard.probe(self.stride, fp, words);
        if found {
            return Outcome::Seen;
        }
        // New state: claim a unit of the global budget.
        loop {
            let c = self.count.load(Ordering::Relaxed);
            if c >= self.budget {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return Outcome::Dropped;
            }
            if self
                .count
                .compare_exchange_weak(c, c + 1, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
            {
                break;
            }
        }
        let mut aux = [0u64; crate::encode::MAX_WORDS + 1];
        let aux = if self.trace {
            if let Some((p, action)) = parent {
                aux[..self.stride].copy_from_slice(&p.words()[..self.stride]);
                aux[self.stride] = encode_action(Some(action));
            }
            &aux[..self.stride + 1]
        } else {
            &aux[..0]
        };
        // Grow before writing so the probe below lands in the final table.
        let slot = if (shard.len + 1) * 4 > shard.cap * 3 {
            shard.grow(self.stride);
            shard.probe(self.stride, fp, words).0
        } else {
            slot
        };
        shard.write(self.stride, slot, words, aux);
        Outcome::Fresh
    }

    /// The parent state and discovering action recorded for `packed`, if
    /// tracing was on and `packed` is a stored non-root state.
    pub(crate) fn parent(
        &self,
        packed: &PackedState,
        fp: u64,
    ) -> Option<(PackedState, ModelAction)> {
        if !self.trace {
            return None;
        }
        let words = &packed.words()[..self.stride];
        let shard = self.shards[(fp & self.shard_mask) as usize].lock().unwrap();
        let (slot, found) = shard.probe(self.stride, fp, words);
        if !found {
            return None;
        }
        let aux = &shard.aux[slot * (self.stride + 1)..(slot + 1) * (self.stride + 1)];
        let action = decode_action(aux[self.stride])?;
        Some((PackedState::from_words(&aux[..self.stride]), action))
    }

    /// Distinct states stored.
    pub(crate) fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// Discovery events refused at the budget.
    pub(crate) fn dropped(&self) -> usize {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Bytes of table capacity currently allocated (keys + trace aux).
    pub(crate) fn bytes(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                let s = s.lock().unwrap();
                (s.keys.len() + s.aux.len()) * 8
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::Codec;
    use crate::model::{ModelCfg, State};

    fn setup() -> (Codec, Vec<PackedState>) {
        let cfg = ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 };
        let codec = Codec::new(&cfg, true);
        // A spread of distinct packed states via a short exhaustive walk.
        let mut states = vec![State::initial(&cfg)];
        let mut packed = Vec::new();
        let mut seen = std::collections::HashSet::new();
        while let Some(s) = states.pop() {
            if packed.len() >= 2000 {
                break;
            }
            for a in s.enabled_actions(&cfg) {
                let next = s.apply(a);
                let p = codec.canonical(&next);
                if seen.insert(p) {
                    packed.push(p);
                    states.push(next);
                }
            }
        }
        (codec, packed)
    }

    #[test]
    fn insert_dedups_and_grows_across_resizes() {
        let (codec, packed) = setup();
        assert!(packed.len() > 1000, "need enough states to force shard growth");
        let store = Store::new(codec.words_used(), 4, usize::MAX, false);
        for p in &packed {
            assert_eq!(store.try_insert(p, codec.fingerprint(p), None), Outcome::Fresh);
        }
        for p in &packed {
            assert_eq!(store.try_insert(p, codec.fingerprint(p), None), Outcome::Seen);
        }
        assert_eq!(store.len(), packed.len());
        assert_eq!(store.dropped(), 0);
        assert!(store.bytes() > 0);
    }

    #[test]
    fn budget_drops_are_counted_and_duplicates_stay_seen() {
        let (codec, packed) = setup();
        let store = Store::new(codec.words_used(), 1, 10, false);
        for p in packed.iter().take(10) {
            assert_eq!(store.try_insert(p, codec.fingerprint(p), None), Outcome::Fresh);
        }
        assert_eq!(
            store.try_insert(&packed[10], codec.fingerprint(&packed[10]), None),
            Outcome::Dropped
        );
        // A state stored before the cap is still recognized after it.
        assert_eq!(
            store.try_insert(&packed[3], codec.fingerprint(&packed[3]), None),
            Outcome::Seen
        );
        assert_eq!(store.len(), 10);
        assert_eq!(store.dropped(), 1);
    }

    #[test]
    fn parent_roundtrips_through_trace_aux() {
        let (codec, packed) = setup();
        let store = Store::new(codec.words_used(), 2, usize::MAX, true);
        let root = packed[0];
        store.try_insert(&root, codec.fingerprint(&root), None);
        let action = ModelAction::Vote { node: 2, phase: 3, round: 1, value: 1 };
        store.try_insert(&packed[1], codec.fingerprint(&packed[1]), Some((&root, action)));
        assert_eq!(store.parent(&root, codec.fingerprint(&root)), None, "roots have no parent");
        assert_eq!(store.parent(&packed[1], codec.fingerprint(&packed[1])), Some((root, action)));
        assert_eq!(store.parent(&packed[2], codec.fingerprint(&packed[2])), None, "absent state");
    }
}
