//! Checked, panic-free byte reader.

use crate::WireError;

/// Cursor over an input buffer; every read is bounds-checked.
///
/// # Examples
///
/// ```
/// use tetrabft_wire::Reader;
/// let mut r = Reader::new(&[0, 0, 0, 5]);
/// assert_eq!(r.get_u32()?, 5);
/// assert_eq!(r.remaining(), 0);
/// # Ok::<(), tetrabft_wire::WireError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof { needed: n, available: self.remaining() });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if the buffer is exhausted.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a big-endian `u16`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than two bytes remain.
    #[inline]
    pub(crate) fn get_u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than four bytes remain.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than eight bytes remain.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Reads an LEB128 varint into a `u64`.
    ///
    /// The decoder is strict: at most ten bytes, the tenth may only carry
    /// the final bit (`0x00`/`0x01`), and overlong paddings — a value whose
    /// last group is zero but was not encoded in fewer bytes — are rejected
    /// so every value has exactly one accepted encoding.
    ///
    /// # Errors
    ///
    /// * [`WireError::UnexpectedEof`] — the buffer ends mid-varint;
    /// * [`WireError::VarintOverflow`] — more than 64 bits of payload;
    /// * [`WireError::VarintOverlong`] — non-canonical padding.
    ///
    /// Failed reads do not consume input.
    pub fn get_varint_u64(&mut self) -> Result<u64, WireError> {
        let mut value: u64 = 0;
        for i in 0..10 {
            let Some(&byte) = self.buf.get(self.pos + i) else {
                return Err(WireError::UnexpectedEof {
                    needed: i + 1,
                    available: self.remaining(),
                });
            };
            if i == 9 && byte > 0x01 {
                // The tenth byte holds bit 63 only; anything else overflows
                // (or keeps the continuation bit set past the maximum width).
                return Err(WireError::VarintOverflow { target: "u64" });
            }
            value |= u64::from(byte & 0x7f) << (7 * i);
            if byte & 0x80 == 0 {
                if i > 0 && byte == 0 {
                    return Err(WireError::VarintOverlong);
                }
                self.pos += i + 1;
                return Ok(value);
            }
        }
        unreachable!("the tenth byte always terminates or errors")
    }

    /// Reads a varint that must fit in a `u32`.
    ///
    /// # Errors
    ///
    /// As [`Reader::get_varint_u64`], plus [`WireError::VarintOverflow`]
    /// when the value exceeds `u32::MAX`. Failed reads do not consume input.
    pub fn get_varint_u32(&mut self) -> Result<u32, WireError> {
        let checkpoint = self.pos;
        let v = self.get_varint_u64()?;
        u32::try_from(v).map_err(|_| {
            self.pos = checkpoint;
            WireError::VarintOverflow { target: "u32" }
        })
    }

    /// Reads a varint that must fit in a `u16`.
    ///
    /// # Errors
    ///
    /// As [`Reader::get_varint_u64`], plus [`WireError::VarintOverflow`]
    /// when the value exceeds `u16::MAX`. Failed reads do not consume input.
    pub fn get_varint_u16(&mut self) -> Result<u16, WireError> {
        let checkpoint = self.pos;
        let v = self.get_varint_u64()?;
        u16::try_from(v).map_err(|_| {
            self.pos = checkpoint;
            WireError::VarintOverflow { target: "u16" }
        })
    }

    /// Reads exactly `n` raw bytes.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than `n` bytes remain.
    #[inline]
    pub fn get_slice(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    /// Reads a fixed-size byte array.
    ///
    /// # Errors
    ///
    /// [`WireError::UnexpectedEof`] if fewer than `N` bytes remain.
    pub fn get_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let slice = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(slice);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_reads() {
        let bytes = [1, 0, 2, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 9, 9];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 2);
        assert_eq!(r.get_u32().unwrap(), 3);
        assert_eq!(r.get_u64().unwrap(), 4);
        assert_eq!(r.get_slice(2).unwrap(), &[9, 9]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn eof_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[1]);
        assert_eq!(r.get_u32(), Err(WireError::UnexpectedEof { needed: 4, available: 1 }));
        // Failed reads do not consume input.
        assert_eq!(r.get_u8().unwrap(), 1);
    }

    #[test]
    fn varint_roundtrip_and_limits() {
        use crate::Writer;
        for v in [0u64, 1, 127, 128, 300, 16383, 16384, u64::from(u32::MAX), u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            let mut r = Reader::new(w.as_bytes());
            assert_eq!(r.get_varint_u64().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_overlong_rejected() {
        // 0 padded to two bytes; canonical form is [0x00].
        let mut r = Reader::new(&[0x80, 0x00]);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverlong));
        // 1 padded to two bytes; canonical form is [0x01].
        let mut r = Reader::new(&[0x81, 0x00]);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverlong));
    }

    #[test]
    fn varint_truncation_is_eof() {
        let mut r = Reader::new(&[0xff, 0xff]);
        assert!(matches!(r.get_varint_u64(), Err(WireError::UnexpectedEof { .. })));
        // Failed reads do not consume input.
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn varint_overflow_rejected() {
        // Ten bytes whose last carries more than bit 63.
        let mut bytes = vec![0xff; 9];
        bytes.push(0x02);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverflow { target: "u64" }));
        // Eleventh continuation byte can never be reached.
        let mut r = Reader::new(&[0xff; 11]);
        assert_eq!(r.get_varint_u64(), Err(WireError::VarintOverflow { target: "u64" }));
    }

    #[test]
    fn narrow_varints_range_check_without_consuming() {
        let mut w = crate::Writer::new();
        w.put_varint(u64::from(u16::MAX) + 1);
        let mut r = Reader::new(w.as_bytes());
        assert_eq!(r.get_varint_u16(), Err(WireError::VarintOverflow { target: "u16" }));
        // The failed narrow read left the cursor untouched…
        assert_eq!(r.get_varint_u32().unwrap(), 65536);
        // …and a value beyond u32 fails the u32 reader the same way.
        let mut w = crate::Writer::new();
        w.put_varint(u64::from(u32::MAX) + 1);
        let mut r = Reader::new(w.as_bytes());
        assert_eq!(r.get_varint_u32(), Err(WireError::VarintOverflow { target: "u32" }));
        assert_eq!(r.get_varint_u64().unwrap(), u64::from(u32::MAX) + 1);
    }

    #[test]
    fn fixed_arrays() {
        let mut r = Reader::new(&[5, 6, 7, 8]);
        let arr: [u8; 4] = r.get_array().unwrap();
        assert_eq!(arr, [5, 6, 7, 8]);
        let err: Result<[u8; 1], _> = r.get_array();
        assert!(err.is_err());
    }
}
