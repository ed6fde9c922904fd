//! Length-prefixed stream framing for the TCP transport.
//!
//! Each frame is a varint payload length followed by the payload, so the
//! dominant small messages (votes, view-changes) pay one prefix byte
//! instead of four. [`FrameDecoder`] is an incremental decoder suitable
//! for feeding arbitrary chunks read from a socket; it hands frames back
//! as borrowed slices of its own buffer — no per-frame copy.
//!
//! # Examples
//!
//! ```
//! use tetrabft_wire::frame::{encode_frame, FrameDecoder};
//!
//! let framed = encode_frame(b"hello")?;
//! let mut dec = FrameDecoder::new();
//! dec.extend(&framed[..3]); // partial chunk
//! assert_eq!(dec.next_frame()?, None);
//! dec.extend(&framed[3..]);
//! assert_eq!(dec.next_frame()?, Some(&b"hello"[..]));
//! # Ok::<(), tetrabft_wire::WireError>(())
//! ```

use crate::writer::{push_varint, varint_len};
use crate::{Reader, WireError};

/// Maximum accepted frame payload (16 MiB); larger prefixes are hostile.
pub(crate) const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Wraps `payload` in a varint-length-prefixed frame.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if `payload` exceeds the 16-MiB frame limit;
/// protocol messages are always orders of magnitude smaller, so hitting
/// this means the caller built something unsendable — the send path drops
/// the message instead of tearing the node down.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::with_capacity(varint_len(payload.len() as u64) + payload.len());
    encode_frame_into(payload, &mut out)?;
    Ok(out)
}

/// Appends a varint-length-prefixed frame for `payload` to `out`.
///
/// This is the allocation-free variant of [`encode_frame`]: the send path
/// encodes a message into a reused scratch buffer and frames it straight
/// into the (single) outbound allocation.
///
/// # Errors
///
/// [`WireError::FrameTooLarge`] if `payload` exceeds the 16-MiB frame limit;
/// `out` is left untouched in that case.
pub fn encode_frame_into(payload: &[u8], out: &mut Vec<u8>) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::FrameTooLarge { len: payload.len(), limit: MAX_FRAME_LEN });
    }
    push_varint(out, payload.len() as u64);
    out.extend_from_slice(payload);
    Ok(())
}

/// Incremental decoder for varint-length-prefixed frames.
///
/// Consumed bytes are tracked by a cursor and reclaimed lazily, so feeding
/// and draining a long stream stays amortized O(1) per byte. Decoded
/// frames are returned as slices borrowed from the internal buffer —
/// decode the message out of the slice before feeding the next chunk.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Index of the first unconsumed byte in `buf`.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends bytes received from the stream.
    pub fn extend(&mut self, chunk: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(chunk);
    }

    /// Drops already-consumed bytes once they dominate the buffer.
    fn compact(&mut self) {
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Attempts to extract the next complete frame payload, borrowed from
    /// the decoder's buffer (zero-copy; valid until the next call).
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// * [`WireError::LengthOverflow`] — a frame declares a payload larger
    ///   than the 16-MiB frame limit;
    /// * [`WireError::VarintOverlong`] / [`WireError::VarintOverflow`] — a
    ///   hostile length prefix (padded or wider than 64 bits).
    ///
    /// On any error the stream should be torn down.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, WireError> {
        let pending = &self.buf[self.start..];
        // The prefix shares the strict varint decoder (one definition of
        // canonical form): an incomplete prefix reads as EOF, which here
        // just means "feed me more"; overlong/overflow stay hard errors.
        let mut prefix = Reader::new(pending);
        let declared = match prefix.get_varint_u64() {
            Ok(v) => v,
            Err(WireError::UnexpectedEof { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let idx = pending.len() - prefix.remaining();
        if declared > MAX_FRAME_LEN as u64 {
            // Compared in u64 so 32-bit targets reject what 64-bit ones do.
            let declared = usize::try_from(declared).unwrap_or(usize::MAX);
            return Err(WireError::LengthOverflow { declared, limit: MAX_FRAME_LEN });
        }
        let declared = declared as usize;
        if pending.len() < idx + declared {
            return Ok(None);
        }
        let frame_start = self.start + idx;
        self.start = frame_start + declared;
        Ok(Some(&self.buf[frame_start..frame_start + declared]))
    }

    /// Number of buffered, not-yet-decoded bytes.
    #[cfg(test)]
    fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let framed = encode_frame(b"abc").unwrap();
        assert_eq!(framed, b"\x03abc");
        let mut dec = FrameDecoder::new();
        dec.extend(&framed);
        assert_eq!(dec.next_frame().unwrap(), Some(&b"abc"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn empty_payload_frame() {
        let framed = encode_frame(b"").unwrap();
        assert_eq!(framed, b"\x00");
        let mut dec = FrameDecoder::new();
        dec.extend(&framed);
        assert_eq!(dec.next_frame().unwrap(), Some(&b""[..]));
    }

    #[test]
    fn multi_byte_prefix_frame() {
        let payload = vec![7u8; 300];
        let framed = encode_frame(&payload).unwrap();
        assert_eq!(&framed[..2], &[0xac, 0x02]); // varint 300
        let mut dec = FrameDecoder::new();
        dec.extend(&framed);
        assert_eq!(dec.next_frame().unwrap(), Some(&payload[..]));
    }

    #[test]
    fn multiple_frames_in_one_chunk() {
        let mut stream = encode_frame(b"one").unwrap();
        stream.extend_from_slice(&encode_frame(b"two").unwrap());
        let mut dec = FrameDecoder::new();
        dec.extend(&stream);
        assert_eq!(dec.next_frame().unwrap(), Some(&b"one"[..]));
        assert_eq!(dec.next_frame().unwrap(), Some(&b"two"[..]));
        assert_eq!(dec.next_frame().unwrap(), None);
    }

    #[test]
    fn byte_by_byte_delivery() {
        let framed = encode_frame(b"slow").unwrap();
        let mut dec = FrameDecoder::new();
        for (i, b) in framed.iter().enumerate() {
            dec.extend(std::slice::from_ref(b));
            let got = dec.next_frame().unwrap().map(<[u8]>::to_vec);
            if i + 1 == framed.len() {
                assert_eq!(got.as_deref(), Some(&b"slow"[..]));
            } else {
                assert_eq!(got, None);
            }
        }
    }

    #[test]
    fn hostile_length_rejected() {
        // Declares 2^32-1 — over the 16 MiB cap.
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xff, 0xff, 0xff, 0xff, 0x0f]);
        assert!(matches!(dec.next_frame(), Err(WireError::LengthOverflow { .. })));
    }

    #[test]
    fn hostile_overlong_prefix_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80, 0x00]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverlong));
    }

    #[test]
    fn hostile_overwide_prefix_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xff; 10]);
        assert_eq!(dec.next_frame(), Err(WireError::VarintOverflow { target: "u64" }));
    }

    #[test]
    fn partial_prefix_waits_for_more() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0xac]); // first byte of varint 300
        assert_eq!(dec.next_frame().unwrap(), None);
        dec.extend(&[0x02]);
        assert_eq!(dec.next_frame().unwrap(), None); // prefix done, payload pending
        dec.extend(&vec![1u8; 300]);
        assert_eq!(dec.next_frame().unwrap().map(<[u8]>::len), Some(300));
    }

    #[test]
    fn oversize_payload_is_a_typed_error() {
        let payload = vec![0u8; MAX_FRAME_LEN + 1];
        assert_eq!(
            encode_frame(&payload).unwrap_err(),
            WireError::FrameTooLarge { len: MAX_FRAME_LEN + 1, limit: MAX_FRAME_LEN }
        );
        let mut out = vec![9u8];
        assert!(encode_frame_into(&payload, &mut out).is_err());
        assert_eq!(out, vec![9u8], "failed framing must not leave partial output");
    }

    #[test]
    fn encode_into_appends_after_existing_bytes() {
        let mut out = b"xx".to_vec();
        encode_frame_into(b"abc", &mut out).unwrap();
        assert_eq!(out, b"xx\x03abc");
    }
}
