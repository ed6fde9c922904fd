//! Bit-packed canonical state encoding.
//!
//! A [`State`] is heap-heavy (two `Vec`s plus 48-byte vote tables per
//! honest node); storing millions of clones in a `HashSet` is what capped
//! the v1 explorer at toy bounds. A [`PackedState`] is a fixed-width array
//! of `u64` words holding the same information in a few *bits* per vote
//! slot:
//!
//! * per honest node, `3 + rounds·4·b` bits, where `b = bitlen(values)`:
//!   the node's round as `round + 2` (so a valid encoding is never
//!   all-zero, freeing the zero word as the store's empty marker) followed
//!   by one `b`-bit code per `(round, phase)` slot (`0` = no vote,
//!   `v + 1` = voted value `v`);
//! * nodes are concatenated LSB-first into at most [`MAX_WORDS`] words.
//!
//! [`Codec::canonical`] additionally quotients by the model's two
//! symmetries: honest nodes are interchangeable (no leader in safety
//! mode), and values are interchangeable (no predicate orders them). The
//! canonical form is the minimum, over all value permutations, of the
//! node-sorted encoding — shrinking the explored space by up to
//! `honest! · values!`.

use crate::model::{ModelCfg, State, VoteTable, MAX_ROUNDS};

/// Fixed width of a [`PackedState`] in 64-bit words (512 bits).
pub(crate) const MAX_WORDS: usize = 8;

/// Maximum honest-node count the packed codec supports (stack-array bound).
pub(crate) const MAX_HONEST: usize = 16;

/// A fixed-width bit-packed state of eight words. Only as many low words
/// as its [`Codec`] packs are meaningful; the rest are zero, so derived
/// equality and ordering are exact.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PackedState {
    words: [u64; MAX_WORDS],
}

impl PackedState {
    /// The zeroed (invalid) packed state, used as a scratch buffer.
    pub(crate) fn zero() -> PackedState {
        PackedState { words: [0; MAX_WORDS] }
    }

    /// The raw words.
    pub(crate) fn words(&self) -> &[u64; MAX_WORDS] {
        &self.words
    }

    /// Rebuilds a packed state from its first `stride` raw words.
    pub(crate) fn from_words(words: &[u64]) -> PackedState {
        let mut out = PackedState::zero();
        out.words[..words.len()].copy_from_slice(words);
        out
    }
}

/// 64-bit fingerprint of the first `stride` words (SplitMix64 chaining).
pub(crate) fn fingerprint(words: &[u64]) -> u64 {
    let mut h: u64 = 0x9E37_79B9_7F4A_7C15;
    for &w in words {
        let mut z = h ^ w;
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    h
}

fn put_bits(words: &mut [u64; MAX_WORDS], mut offset: usize, mut value: u128, mut width: u32) {
    while width > 0 {
        let word = offset / 64;
        let shift = (offset % 64) as u32;
        let take = (64 - shift).min(width);
        let mask = if take == 64 { u128::MAX } else { (1u128 << take) - 1 };
        words[word] |= ((value & mask) as u64) << shift;
        value >>= take;
        offset += take as usize;
        width -= take;
    }
}

fn get_bits(words: &[u64; MAX_WORDS], mut offset: usize, mut width: u32) -> u128 {
    let mut out: u128 = 0;
    let mut got: u32 = 0;
    while width > 0 {
        let word = offset / 64;
        let shift = (offset % 64) as u32;
        let take = (64 - shift).min(width);
        let mask = if take == 64 { u64::MAX } else { (1u64 << take) - 1 };
        out |= u128::from((words[word] >> shift) & mask) << got;
        got += take;
        offset += take as usize;
        width -= take;
    }
    out
}

fn value_permutations(values: u8) -> Vec<Vec<u8>> {
    fn rec(prefix: &mut Vec<u8>, rest: &mut Vec<u8>, out: &mut Vec<Vec<u8>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let v = rest.remove(i);
            prefix.push(v);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, v);
        }
    }
    let mut out = Vec::new();
    rec(&mut Vec::new(), &mut (0..values).collect(), &mut out);
    // Identity first, so `encode` can reuse perms[0].
    out.sort();
    out
}

/// Per-configuration bit-packing codec (see the module docs for the
/// layout). Construction checks the bounds fit the fixed width.
#[derive(Debug, Clone)]
pub struct Codec {
    cfg: ModelCfg,
    /// Bits per `(round, phase)` vote slot.
    bits: u32,
    /// Bits per honest node (`3 + rounds·4·bits`).
    node_bits: u32,
    /// Words actually used by this configuration.
    words: usize,
    /// Value permutations quotient (identity first).
    perms: Vec<Vec<u8>>,
}

impl Codec {
    /// Builds a codec for `cfg`.
    ///
    /// With `value_symmetry`, states are canonicalized modulo value
    /// relabeling as well as honest-node permutation (applied when
    /// `values ≤ 5`; beyond that the `values!` scan would cost more than
    /// it saves, so it silently degrades to node symmetry only).
    ///
    /// # Panics
    ///
    /// If the bounds don't fit the packed representation: `values` must be
    /// `1..=7` (3 bits per slot), `rounds ≤ MAX_ROUNDS`, and there must be
    /// 1 to 16 honest nodes fitting eight 64-bit words.
    pub fn new(cfg: &ModelCfg, value_symmetry: bool) -> Codec {
        assert!((1..=7).contains(&cfg.values), "packed codec supports 1..=7 values");
        assert!(
            cfg.rounds as usize <= MAX_ROUNDS,
            "packed codec supports at most {MAX_ROUNDS} rounds"
        );
        let honest = cfg.honest();
        assert!(
            (1..=MAX_HONEST).contains(&honest),
            "packed codec supports 1..={MAX_HONEST} honest nodes"
        );
        let bits = u8::BITS - cfg.values.leading_zeros();
        let node_bits = 3 + cfg.rounds as u32 * 4 * bits;
        let total_bits = honest as u32 * node_bits;
        assert!(
            total_bits as usize <= MAX_WORDS * 64,
            "state needs {total_bits} bits, packed width is {}",
            MAX_WORDS * 64
        );
        let perms = if value_symmetry && cfg.values <= 5 {
            value_permutations(cfg.values)
        } else {
            vec![(0..cfg.values).collect()]
        };
        Codec { cfg: *cfg, bits, node_bits, words: total_bits.div_ceil(64) as usize, perms }
    }

    /// Words of a [`PackedState`] actually used (the store's entry stride).
    pub(crate) fn words_used(&self) -> usize {
        self.words
    }

    /// The value permutations the canonical form quotients by.
    pub(crate) fn perms(&self) -> &[Vec<u8>] {
        &self.perms
    }

    /// Packs one node's `(round, votes)` into its `node_bits`-bit value,
    /// relabeling vote values through `perm`.
    pub(crate) fn node_value(&self, table: &VoteTable, round: i8, perm: &[u8]) -> u128 {
        let mut v: u128 = (round + 2) as u128;
        for vote in table.iter() {
            let slot = vote.round as u32 * 4 + (vote.phase as u32 - 1);
            v |= u128::from(perm[vote.value as usize] + 1) << (3 + slot * self.bits);
        }
        v
    }

    /// The round stored in a packed node value.
    pub(crate) fn node_round(&self, node: u128) -> i8 {
        (node & 0b111) as i8 - 2
    }

    /// Returns `node` with its round field replaced.
    pub(crate) fn node_with_round(&self, node: u128, round: i8) -> u128 {
        (node & !0b111) | (round + 2) as u128
    }

    /// Returns `node` with vote slot `(round, phase)` set to the
    /// (already permuted) value `enc` — the slot must be empty.
    pub(crate) fn node_with_vote(&self, node: u128, round: u8, phase: u8, enc: u8) -> u128 {
        let slot = round as u32 * 4 + (phase as u32 - 1);
        node | u128::from(enc + 1) << (3 + slot * self.bits)
    }

    /// Concatenates per-node packed values (in the given order) into a
    /// [`PackedState`].
    pub(crate) fn pack_nodes(&self, nodes: &[u128]) -> PackedState {
        let mut out = PackedState::zero();
        for (i, &n) in nodes.iter().enumerate() {
            put_bits(&mut out.words, i * self.node_bits as usize, n, self.node_bits);
        }
        out
    }

    /// Encodes a state verbatim (no symmetry reduction): node order and
    /// value labels are preserved, so [`Codec::decode`] roundtrips exactly.
    pub fn encode(&self, state: &State) -> PackedState {
        let identity = &self.perms[0];
        let mut nodes = [0u128; MAX_HONEST];
        for (i, (table, &round)) in state.votes.iter().zip(&state.round).enumerate() {
            nodes[i] = self.node_value(table, round, identity);
        }
        self.pack_nodes(&nodes[..state.votes.len()])
    }

    /// Decodes a packed state back into a [`State`].
    pub fn decode(&self, packed: &PackedState) -> State {
        let honest = self.cfg.honest();
        let mut state =
            State { votes: vec![VoteTable::default(); honest], round: vec![-1; honest] };
        for i in 0..honest {
            let node = get_bits(packed.words(), i * self.node_bits as usize, self.node_bits);
            state.round[i] = self.node_round(node);
            for r in 0..self.cfg.rounds {
                for phase in 1..=4u8 {
                    let slot = r as u32 * 4 + (phase as u32 - 1);
                    let code = (node >> (3 + slot * self.bits)) as u64 & ((1u64 << self.bits) - 1);
                    if code != 0 {
                        state.votes[i].set(r, phase, code as u8 - 1);
                    }
                }
            }
        }
        state
    }

    /// The canonical packed form: minimum, over all value permutations in
    /// the quotient, of the node-sorted encoding. Idempotent (canonical of
    /// a decoded canonical form is itself) and invariant under honest-node
    /// and value permutations of the input.
    pub fn canonical(&self, state: &State) -> PackedState {
        let mut best: Option<PackedState> = None;
        let mut nodes = [0u128; MAX_HONEST];
        let honest = state.votes.len();
        for perm in &self.perms {
            for (i, (table, &round)) in state.votes.iter().zip(&state.round).enumerate() {
                nodes[i] = self.node_value(table, round, perm);
            }
            nodes[..honest].sort_unstable();
            let candidate = self.pack_nodes(&nodes[..honest]);
            if best.is_none_or(|b| candidate < b) {
                best = Some(candidate);
            }
        }
        best.expect("at least the identity permutation")
    }

    /// Fingerprint of a packed state over the words this codec uses.
    pub(crate) fn fingerprint(&self, packed: &PackedState) -> u64 {
        fingerprint(&packed.words()[..self.words])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ModelCfg {
        ModelCfg { nodes: 4, byzantine: 1, values: 3, rounds: 5 }
    }

    fn sample_state() -> State {
        let c = cfg();
        let mut s = State::initial(&c);
        s.round = vec![2, 0, -1];
        s.votes[0].set(0, 1, 2);
        s.votes[0].set(1, 4, 0);
        s.votes[1].set(0, 1, 2);
        s.votes[1].set(0, 2, 1);
        s
    }

    #[test]
    fn roundtrip_preserves_state_exactly() {
        let codec = Codec::new(&cfg(), true);
        let s = sample_state();
        assert_eq!(codec.decode(&codec.encode(&s)), s);
        let initial = State::initial(&cfg());
        assert_eq!(codec.decode(&codec.encode(&initial)), initial);
    }

    #[test]
    fn valid_encodings_are_never_all_zero() {
        let codec = Codec::new(&cfg(), true);
        let initial = State::initial(&cfg());
        assert_ne!(codec.encode(&initial).words()[0], 0, "round -1 encodes as 1");
        assert_ne!(codec.canonical(&initial).words()[0], 0);
    }

    #[test]
    fn canonical_is_invariant_under_node_swap() {
        let codec = Codec::new(&cfg(), true);
        let s = sample_state();
        let mut swapped = s.clone();
        swapped.votes.swap(0, 1);
        swapped.round.swap(0, 1);
        assert_eq!(codec.canonical(&s), codec.canonical(&swapped));
        assert_ne!(codec.encode(&s), codec.encode(&swapped), "encode is order-sensitive");
    }

    #[test]
    fn canonical_is_invariant_under_value_relabel() {
        let codec = Codec::new(&cfg(), true);
        let s = sample_state();
        // Swap values 1 and 2 everywhere.
        let mut relabeled = State::initial(&cfg());
        relabeled.round = s.round.clone();
        for (p, table) in s.votes.iter().enumerate() {
            for vote in table.iter() {
                let v = match vote.value {
                    1 => 2,
                    2 => 1,
                    v => v,
                };
                relabeled.votes[p].set(vote.round, vote.phase, v);
            }
        }
        assert_eq!(codec.canonical(&s), codec.canonical(&relabeled));
        // Without value symmetry the two differ.
        let plain = Codec::new(&cfg(), false);
        assert_ne!(plain.canonical(&s), plain.canonical(&relabeled));
    }

    #[test]
    fn canonical_is_idempotent() {
        let codec = Codec::new(&cfg(), true);
        let s = sample_state();
        let c = codec.canonical(&s);
        assert_eq!(codec.canonical(&codec.decode(&c)), c);
    }

    #[test]
    fn words_used_scales_with_bounds() {
        let small = Codec::new(&ModelCfg { nodes: 4, byzantine: 1, values: 2, rounds: 2 }, true);
        assert_eq!(small.words_used(), 1, "3 honest × 19 bits fits one word");
        let paper = Codec::new(&ModelCfg::paper(), true);
        assert_eq!(paper.words_used(), 3, "3 honest × 43 bits needs three words");
    }

    #[test]
    fn incremental_node_edits_match_repack() {
        let codec = Codec::new(&cfg(), true);
        let s = sample_state();
        let identity: Vec<u8> = (0..cfg().values).collect();
        let node = codec.node_value(&s.votes[0], s.round[0], &identity);
        assert_eq!(codec.node_round(node), 2);
        // Set a vote through the incremental API and via a fresh pack.
        let mut edited = s.clone();
        edited.votes[0].set(2, 1, 1);
        let expect = codec.node_value(&edited.votes[0], edited.round[0], &identity);
        assert_eq!(codec.node_with_vote(node, 2, 1, 1), expect);
        // Bump the round both ways.
        let mut bumped = s.clone();
        bumped.round[0] = 4;
        let expect = codec.node_value(&bumped.votes[0], bumped.round[0], &identity);
        assert_eq!(codec.node_with_round(node, 4), expect);
    }
}
