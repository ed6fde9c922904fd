//! Append-only byte writer.

/// Number of bytes [`Writer::put_varint`] uses for `v`.
///
/// # Examples
///
/// ```
/// use tetrabft_wire::varint_len;
/// assert_eq!(varint_len(0), 1);
/// assert_eq!(varint_len(127), 1);
/// assert_eq!(varint_len(128), 2);
/// assert_eq!(varint_len(u64::MAX), 10);
/// ```
#[inline]
pub fn varint_len(v: u64) -> usize {
    // ceil(bits / 7), with the zero value still occupying one byte.
    (64 - v.max(1).leading_zeros() as usize).div_ceil(7)
}

/// The one LEB128 emit loop, shared by [`Writer::put_varint`] and the
/// frame encoder so the canonical form has a single definition.
#[inline]
pub(crate) fn push_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Append-only writer the [`Wire`](crate::Wire) trait encodes into.
///
/// # Examples
///
/// ```
/// use tetrabft_wire::Writer;
/// let mut w = Writer::new();
/// w.put_u8(1);
/// w.put_u64(2);
/// assert_eq!(w.len(), 9);
/// ```
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    /// Creates a writer with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Writer { buf: Vec::with_capacity(capacity) }
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub(crate) fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends an LEB128 varint: seven value bits per byte, little groups
    /// first, high bit set on every byte except the last.
    ///
    /// Small values — views, slots, node ids, lengths — cost one byte
    /// instead of their fixed width; `u64::MAX` costs ten.
    #[inline]
    pub fn put_varint(&mut self, v: u64) {
        push_varint(&mut self.buf, v);
    }

    /// Appends raw bytes verbatim (no length prefix).
    #[inline]
    pub fn put_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Empties the writer, keeping its allocation — the reuse hook for
    /// per-message encode paths (the TCP transport encodes every outbound
    /// message into one long-lived writer).
    #[inline]
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Number of bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` if nothing has been written.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrow of the bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_layout() {
        let mut w = Writer::new();
        w.put_u8(0xAB);
        w.put_u16(0x0102);
        w.put_u32(0x03040506);
        w.put_u64(0x0708090A0B0C0D0E);
        w.put_slice(&[0xFF]);
        assert_eq!(
            w.into_bytes(),
            vec![0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0A, 0x0B, 0x0C, 0x0D, 0x0E, 0xFF]
        );
    }

    #[test]
    fn empty_and_capacity() {
        let w = Writer::with_capacity(64);
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert_eq!(w.as_bytes(), &[] as &[u8]);
    }

    #[test]
    fn varint_layout() {
        let encode = |v: u64| {
            let mut w = Writer::new();
            w.put_varint(v);
            w.into_bytes()
        };
        assert_eq!(encode(0), vec![0x00]);
        assert_eq!(encode(1), vec![0x01]);
        assert_eq!(encode(127), vec![0x7f]);
        assert_eq!(encode(128), vec![0x80, 0x01]);
        assert_eq!(encode(300), vec![0xac, 0x02]);
        assert_eq!(encode(u64::MAX), vec![0xff; 9].into_iter().chain([0x01]).collect::<Vec<_>>());
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0, 1, 127, 128, 16383, 16384, 1 << 62, u64::MAX] {
            let mut w = Writer::new();
            w.put_varint(v);
            assert_eq!(varint_len(v), w.len(), "varint_len({v})");
        }
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut w = Writer::with_capacity(4);
        w.put_u64(7);
        w.clear();
        assert!(w.is_empty());
        w.put_u8(1);
        assert_eq!(w.as_bytes(), &[1]);
    }
}
