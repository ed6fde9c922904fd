//! CRC-32 (IEEE 802.3), slice-by-8, no dependencies.
//!
//! Eight 256-entry tables let the loop fold eight input bytes per step with
//! independent lookups instead of one byte per dependent step: the same
//! checksum (every WAL written by the one-table loop reopens) at several
//! times the throughput. The tables are built at compile time.

const POLY: u32 = 0xEDB8_8320;

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    // tables[k][i]: the register after byte i is followed by k zero bytes.
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 checksum of `data` (the IEEE polynomial every WAL record carries).
///
/// # Examples
///
/// Every frame `[len][payload][crc32]` that [`crate::record::scan`] accepts
/// carries this checksum, big-endian, so the standard check values show
/// through it: the empty input sums to 0 and `123456789` to `0xCBF4_3926`.
///
/// ```
/// use tetrabft_store::record::scan;
/// let empty = [0u8, 0, 0, 0, 0];
/// assert_eq!(scan(&empty), (vec![&b""[..]], 5));
/// let mut frame = vec![9u8];
/// frame.extend_from_slice(b"123456789");
/// frame.extend_from_slice(&0xCBF4_3926u32.to_be_bytes());
/// assert_eq!(scan(&frame), (vec![&b"123456789"[..]], 14));
/// *frame.last_mut().unwrap() ^= 1;
/// assert_eq!(scan(&frame), (vec![], 0));
/// ```
pub(crate) fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xff) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One byte into the register, one bit at a time: the definition
    /// every table above encodes.
    fn bitwise_step(register: u32, byte: u8) -> u32 {
        let mut crc = register ^ u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
        }
        crc
    }

    fn crc32_bitwise(data: &[u8]) -> u32 {
        !data.iter().fold(!0, |register, &byte| bitwise_step(register, byte))
    }

    #[test]
    fn known_vectors() {
        // The classic check value plus a couple of independents.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        for vector in [&b"123456789"[..], b"", b"a", &[0u8; 32]] {
            assert_eq!(crc32(vector), crc32_bitwise(vector));
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let base = b"the quick brown fox".to_vec();
        let reference = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at byte {i} bit {bit}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every length 0..=4096 from every start offset 0..8 — each
        /// remainder length behind each alignment — against the bitwise
        /// definition, run incrementally so each prefix costs one step.
        #[test]
        fn slice_by_8_equals_the_bitwise_definition(
            data in proptest::collection::vec(any::<u8>(), 4096 + 8)
        ) {
            for start in 0..8 {
                let slice = &data[start..start + 4096];
                let mut register = !0u32;
                prop_assert_eq!(crc32(&slice[..0]), !register);
                for len in 1..=slice.len() {
                    register = bitwise_step(register, slice[len - 1]);
                    prop_assert_eq!(crc32(&slice[..len]), !register, "start {} len {}", start, len);
                }
            }
        }
    }
}
