//! The tree's one digest primitive (DESIGN.md §9): a chain of [`step`]s, one
//! per 64-bit word, from a domain tag — 1, 2 and 3 the ledger's leaf, branch
//! and chained root, 4 a transaction id, 5 a block hash.

/// The state every digest starts from, before its domain tag.
const SEED: u64 = 0xa076_1d64_78bd_642f;
/// The odd multiplier of every [`step`]. Both constants are wyhash's.
const MUL: u64 = 0xe703_7ed1_a0b4_28db;

/// One step per 64-bit word: the state xor the word, times an odd constant
/// as a 128-bit product, the product's halves xored together (wyhash's
/// `mum`), and the state xored back in — so a word that cancels the state,
/// zeroing the product, still leaves the state.
#[inline]
pub const fn step(h: u64, w: u64) -> u64 {
    let p = (h ^ w) as u128 * MUL as u128;
    p as u64 ^ (p >> 64) as u64 ^ h
}

/// The state after domain tag `tag`, the first word of every digest: two
/// digests over the same words under different tags come apart.
pub const fn tagged(tag: u64) -> u64 {
    step(SEED, tag)
}

/// Folds a byte string into `h`: its length, then each 8-byte
/// little-endian word, the last one zero-padded. The length goes first so
/// that padding cannot pass for payload: `b"ab"` and `b"ab\0"` fold apart.
#[inline]
pub fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut h = step(h, bytes.len() as u64);
    for word in &mut words {
        h = step(h, u64::from_le_bytes(word.try_into().expect("chunks of 8")));
    }
    let (tail, mut last) = (words.remainder(), [0; 8]);
    last[..tail.len()].copy_from_slice(tail);
    if tail.is_empty() {
        h
    } else {
        step(h, u64::from_le_bytes(last))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn a_word_equal_to_the_state_does_not_erase_it() {
        // `h ^ w == 0` zeroes the product; the state folded back in keeps
        // the output a function of `h`.
        let states = [0, 1, SEED, MUL, tagged(1), tagged(2), tagged(3), tagged(4), u64::MAX];
        let outputs: HashSet<u64> = states.map(|h| step(h, h)).into();
        assert_eq!(outputs.len(), states.len());
    }

    #[test]
    fn distinct_payloads_digest_apart() {
        // A payload of 128 whole words and a 3-byte tail and each of its
        // single-bit flips; payloads that differ in trailing zeros alone;
        // and 10,000 short payloads drawn from four byte values.
        let mut seen = HashMap::new();
        let mut digest = |payload: Vec<u8>| {
            let held = seen.entry(fold_bytes(tagged(4), &payload)).or_insert(payload.clone());
            assert_eq!(*held, payload, "two payloads share a digest");
        };
        let payload: Vec<u8> = (0..1_027u32).map(|i| (i * 7 + 3) as u8).collect();
        for bit in 0..payload.len() * 8 {
            let mut flipped = payload.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            digest(flipped);
        }
        digest(payload);
        for padded in [&b""[..], b"\0", b"ab", b"ab\0"] {
            digest(padded.to_vec());
        }
        let mut x: u64 = 49;
        let mut draw = || {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            (x >> 33) as u8
        };
        for _ in 0..10_000 {
            digest((0..draw() % 24).map(|_| draw() % 4).collect());
        }
    }
}
