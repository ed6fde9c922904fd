//! Hand-rolled binary codec and TCP framing for TetraBFT messages.
//!
//! An unauthenticated protocol's communication-complexity claims are stated
//! in *bits on the wire*, so this reproduction controls its own byte layout
//! instead of delegating to a general-purpose serializer. The codec — wire
//! format v2 — is:
//!
//! * **explicit** — every field is written/read by hand: integer kernel
//!   types ([`View`](tetrabft_types::View), [`Slot`](tetrabft_types::Slot),
//!   [`NodeId`](tetrabft_types::NodeId)) and lengths are LEB128 varints,
//!   hashes and values fixed-width big-endian;
//! * **total** — decoding never panics; all failures are [`WireError`]s;
//! * **strict** — [`from_bytes`](Wire::from_bytes) rejects trailing bytes,
//!   and varint decoding rejects overlong paddings, so every value has
//!   exactly one accepted encoding.
//!
//! The [`Wire`] trait is implemented here for primitives and for the kernel
//! types of [`tetrabft_types`]; protocol crates implement it for their
//! message enums (delta-compressing view numbers against the message's own
//! view where both ends share that context). [`frame`] provides the
//! varint-length-prefixed stream framing used by the TCP transport.
//!
//! # Examples
//!
//! ```
//! use tetrabft_wire::Wire;
//! use tetrabft_types::View;
//!
//! let bytes = View(7).to_bytes();
//! assert_eq!(View::from_bytes(&bytes)?, View(7));
//! # Ok::<(), tetrabft_wire::WireError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod error;
pub mod frame;
mod primitives;
mod reader;
mod writer;

pub use error::WireError;
pub use reader::Reader;
pub use writer::{varint_len, Writer};

/// Types that can be encoded to and decoded from the TetraBFT wire format.
///
/// Implementations must be lossless: `decode(encode(x)) == x` for every value
/// `x`. The property tests in this crate and in the protocol crates check
/// this round-trip for every message type.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `w`.
    fn encode(&self, w: &mut Writer);

    /// Decodes a value from the front of `r`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes are truncated or malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Encodes `self` into a fresh byte vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_bytes()
    }

    /// Decodes a value from `bytes`, requiring every byte to be consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if input remains after decoding,
    /// or any error from [`Wire::decode`].
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(WireError::TrailingBytes { remaining: r.remaining() });
        }
        Ok(value)
    }

    /// Number of bytes `self` occupies on the wire.
    fn wire_len(&self) -> usize {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.len()
    }
}
