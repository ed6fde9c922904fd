//! Codec error type.

use std::fmt;

/// Errors produced while decoding the TetraBFT wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was fully decoded.
    UnexpectedEof {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes that were available.
        available: usize,
    },
    /// An enum discriminant or phase tag was out of range.
    InvalidTag {
        /// Name of the type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length prefix exceeded the decoder's sanity limit.
    LengthOverflow {
        /// The declared length.
        declared: usize,
        /// The maximum the decoder accepts.
        limit: usize,
    },
    /// Input remained after a strict whole-buffer decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
    /// A varint used more bytes than its canonical (minimal) encoding.
    ///
    /// Overlong LEB128 paddings are rejected so every value has exactly one
    /// wire representation — a malleability guard, not just pedantry.
    VarintOverlong,
    /// A varint encoded a value that does not fit its target type.
    VarintOverflow {
        /// Name of the integer type being decoded.
        target: &'static str,
    },
    /// A frame payload exceeded the 16-MiB frame limit at encode time.
    FrameTooLarge {
        /// The payload length.
        len: usize,
        /// The maximum the framer accepts.
        limit: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, available } => {
                write!(f, "unexpected end of input: needed {needed} bytes, had {available}")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            WireError::LengthOverflow { declared, limit } => {
                write!(f, "declared length {declared} exceeds limit {limit}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after value")
            }
            WireError::VarintOverlong => {
                write!(f, "overlong (non-canonical) varint encoding")
            }
            WireError::VarintOverflow { target } => {
                write!(f, "varint does not fit in {target}")
            }
            WireError::FrameTooLarge { len, limit } => {
                write!(f, "frame payload of {len} bytes exceeds limit {limit}")
            }
        }
    }
}

impl std::error::Error for WireError {}
