//! Little-endian byte-level encoding primitives and CRC-32.
//!
//! [`Writer`] appends primitive values to a growable buffer; [`Reader`]
//! consumes them back with typed [`SnapshotError::Truncated`] failures
//! instead of panics, and guards every length prefix against
//! corruption-driven over-allocation (a flipped length byte must cost a
//! rejected record, not a multi-gigabyte `Vec` reservation).

use crate::error::SnapshotError;

/// CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB8_8320`) — the same
/// checksum as zlib/PNG. Detects all single-byte corruptions, which is
/// what the snapshot fuzz sweep leans on.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc32_table();
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
}

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Append-only little-endian encoder.
#[derive(Debug, Default, Clone)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// A fresh, empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Encoded bytes so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append raw bytes verbatim (no length prefix).
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `usize` widened to `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Append an `f64` as its IEEE-754 bit pattern (bit-exact, NaN
    /// payloads included).
    pub fn f64_bits(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Consuming little-endian decoder over a borrowed byte slice. Every
/// accessor returns a typed error instead of panicking when the bytes
/// run out.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap `buf`, positioned at its start.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    /// Take `n` raw bytes, or fail with [`SnapshotError::Truncated`].
    pub fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], SnapshotError> {
        if self.remaining() < n {
            return Err(SnapshotError::Truncated { context });
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self, context: &'static str) -> Result<u8, SnapshotError> {
        Ok(self.take(1, context)?[0])
    }

    /// Read a bool byte; anything other than 0/1 is corruption.
    pub fn bool(&mut self, context: &'static str) -> Result<bool, SnapshotError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt { context }),
        }
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, context: &'static str) -> Result<u32, SnapshotError> {
        let b = self.take(4, context)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, context: &'static str) -> Result<u64, SnapshotError> {
        let b = self.take(8, context)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a little-endian `i64`.
    pub fn i64(&mut self, context: &'static str) -> Result<i64, SnapshotError> {
        Ok(self.u64(context)? as i64)
    }

    /// Read a `u64` and narrow it to `usize`, rejecting values that
    /// don't fit the platform.
    pub fn usize(&mut self, context: &'static str) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64(context)?).map_err(|_| SnapshotError::Corrupt { context })
    }

    /// Read an `f64` bit pattern (bit-exact).
    pub fn f64_bits(&mut self, context: &'static str) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64(context)?))
    }

    /// Read an element count that prefixes a sequence whose elements
    /// each occupy at least `min_elem_bytes` in the stream. A count
    /// implying more bytes than remain is corruption — this is the
    /// allocation guard that keeps a flipped length byte from turning
    /// into a huge `Vec::with_capacity`.
    pub fn seq_len(
        &mut self,
        min_elem_bytes: usize,
        context: &'static str,
    ) -> Result<usize, SnapshotError> {
        let n = self.usize(context)?;
        if n > self.remaining() / min_elem_bytes.max(1) {
            return Err(SnapshotError::Corrupt { context });
        }
        Ok(n)
    }

    /// Read a length-prefixed UTF-8 string (the prefix is `u32`).
    pub fn str(&mut self, context: &'static str) -> Result<String, SnapshotError> {
        let n = self.u32(context)? as usize;
        if n > self.remaining() {
            return Err(SnapshotError::Truncated { context });
        }
        let bytes = self.take(n, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt { context })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.i64(-42);
        w.usize(123_456);
        w.f64_bits(f64::from_bits(0x7FF8_0000_0000_1234)); // NaN payload
        w.str("hello snapshot");
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8("t").unwrap(), 7);
        assert!(r.bool("t").unwrap());
        assert_eq!(r.u32("t").unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64("t").unwrap(), u64::MAX - 1);
        assert_eq!(r.i64("t").unwrap(), -42);
        assert_eq!(r.usize("t").unwrap(), 123_456);
        assert_eq!(r.f64_bits("t").unwrap().to_bits(), 0x7FF8_0000_0000_1234);
        assert_eq!(r.str("t").unwrap(), "hello snapshot");
        assert!(r.is_exhausted());
    }

    #[test]
    fn truncation_is_typed_not_panicking() {
        let mut w = Writer::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes[..3]);
        assert_eq!(
            r.u64("field"),
            Err(SnapshotError::Truncated { context: "field" })
        );
    }

    #[test]
    fn seq_len_guards_allocation() {
        let mut w = Writer::new();
        w.usize(usize::MAX / 2); // absurd element count, no elements follow
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.seq_len(8, "elems"),
            Err(SnapshotError::Corrupt { .. })
        ));
    }

    #[test]
    fn bad_bool_is_corrupt() {
        let mut r = Reader::new(&[2]);
        assert!(matches!(r.bool("b"), Err(SnapshotError::Corrupt { .. })));
    }
}
