//! CRC-framed WAL records over the v2 varint wire primitives.
//!
//! Every record is `[varint payload_len][payload][crc32(payload) as u32]`.
//! The frame reuses the canonical LEB128 of [`tetrabft_wire`], so a torn
//! tail is always *detected* — a truncated varint reads as EOF, a truncated
//! payload as EOF, and a torn checksum (or any corrupted byte) as a CRC
//! mismatch — and never mis-decoded as a shorter valid record.

use tetrabft_wire::{Reader, Writer};

use crate::crc::crc32;

/// Upper bound on one record's payload; a length prefix beyond it is
/// treated as tail corruption rather than honored (a torn varint can
/// otherwise ask for gigabytes).
pub(crate) const MAX_RECORD_BYTES: u64 = 1 << 24;

/// Appends to `w` the frame of the `len`-byte payload `encode` writes —
/// the scratch-reuse entry point: the payload is encoded in place behind
/// its length prefix and checksummed where it lies, so a retained, cleared
/// [`Writer`] frames record after record with no copy of the payload and
/// without touching the allocator once its capacity settles.
///
/// # Panics
///
/// If `encode` writes other than `len` bytes: the prefix would misframe
/// the record and hide every later one behind a torn tail.
pub(crate) fn frame_with(w: &mut Writer, len: usize, encode: impl FnOnce(&mut Writer)) {
    w.put_varint(len as u64);
    let start = w.len();
    encode(w);
    assert_eq!(w.len() - start, len, "a record's encoder wrote other than the length it declared");
    let crc = crc32(&w.as_bytes()[start..]);
    w.put_u32(crc);
}

/// Appends the framed encoding of `payload` to `w`.
pub(crate) fn frame_into_writer(w: &mut Writer, payload: &[u8]) {
    frame_with(w, payload.len(), |w| w.put_slice(payload));
}

/// The framed encoding of `payload` as a fresh buffer.
#[cfg(test)]
pub(crate) fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 14);
    frame_into_writer(&mut w, payload);
    w.into_bytes()
}

/// Scans `bytes` from the front, returning every valid record payload and
/// the byte length of the valid prefix. Scanning stops at the first frame
/// that is truncated, oversized, or fails its CRC — everything after that
/// point is a torn tail the caller should truncate away.
pub fn scan(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut records = Vec::new();
    let mut reader = Reader::new(bytes);
    let mut valid = 0usize;
    loop {
        // Probe on a clone: a failed read must not advance the cursor past
        // the last fully-valid record.
        let mut probe = reader.clone();
        let Ok(len) = probe.get_varint_u64() else { break };
        if len > MAX_RECORD_BYTES {
            break;
        }
        let Ok(payload) = probe.get_slice(len as usize) else { break };
        let Ok(stored_crc) = probe.get_u32() else { break };
        if stored_crc != crc32(payload) {
            break;
        }
        records.push(payload);
        reader = probe;
        valid = bytes.len() - reader.remaining();
    }
    (records, valid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_many_records() {
        let payloads: Vec<Vec<u8>> =
            vec![vec![], vec![7], vec![0; 200], (0..=255u8).collect(), b"final".to_vec()];
        let mut file = Vec::new();
        for p in &payloads {
            file.extend(frame(p));
        }
        let (records, valid) = scan(&file);
        assert_eq!(valid, file.len());
        assert_eq!(records.len(), payloads.len());
        for (got, want) in records.iter().zip(&payloads) {
            assert_eq!(got, &want.as_slice());
        }
    }

    #[test]
    fn framing_in_place_lays_out_prefix_payload_and_checksum() {
        let mut w = Writer::new();
        frame_with(&mut w, 300, |w| {
            w.put_u8(1);
            w.put_slice(&[9; 299]);
        });
        let mut payload = vec![1];
        payload.extend([9; 299]);
        let mut want = vec![0xAC, 0x02]; // 300 as a varint
        want.extend(&payload);
        want.extend(crc32(&payload).to_be_bytes());
        assert_eq!(w.as_bytes(), want);
    }

    #[test]
    #[should_panic(expected = "declared")]
    fn an_encoder_that_misses_its_declared_length_is_refused() {
        frame_with(&mut Writer::new(), 4, |w| w.put_slice(b"abc"));
    }

    #[test]
    fn torn_tail_at_every_offset_keeps_the_valid_prefix() {
        let mut file = Vec::new();
        file.extend(frame(b"first record"));
        let keep = file.len();
        file.extend(frame(b"second record, torn below"));
        // Truncate the file at every length from "whole second record
        // minus one byte" down to "nothing of it": the scan must always
        // return exactly the first record and the prefix length.
        for cut in keep..file.len() {
            let (records, valid) = scan(&file[..cut]);
            assert_eq!(records.len(), 1, "cut at {cut}");
            assert_eq!(records[0], b"first record");
            assert_eq!(valid, keep, "cut at {cut}");
        }
    }

    #[test]
    fn corrupt_byte_anywhere_in_the_tail_record_is_detected() {
        let mut file = Vec::new();
        file.extend(frame(b"good"));
        let keep = file.len();
        file.extend(frame(b"evil twin"));
        for i in keep..file.len() {
            let mut bent = file.clone();
            bent[i] ^= 0x41;
            let (records, valid) = scan(&bent);
            // Either the record is rejected outright (valid prefix = first
            // record) or — when the corrupted byte is the length prefix
            // growing the frame past the buffer — it reads as truncation.
            // It must never decode as a *different* accepted record.
            assert!(records.len() <= 1, "byte {i}: corrupt tail accepted");
            assert_eq!(valid, keep, "byte {i}");
            if let Some(first) = records.first() {
                assert_eq!(*first, b"good");
            }
        }
    }

    #[test]
    fn oversized_length_prefix_is_tail_corruption() {
        let mut file = frame(b"ok");
        let keep = file.len();
        let mut w = Writer::new();
        w.put_varint(MAX_RECORD_BYTES + 1);
        file.extend_from_slice(w.as_bytes());
        let (records, valid) = scan(&file);
        assert_eq!(records.len(), 1);
        assert_eq!(valid, keep);
    }

    #[test]
    fn empty_file_scans_clean() {
        let (records, valid) = scan(&[]);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }
}
