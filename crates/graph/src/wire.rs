//! Binary wire primitives for on-disk persistence: a CRC-32 checksum
//! and little-endian, bounds-checked encode/decode helpers.
//!
//! The durability layer (write-ahead log frames and snapshot sections
//! in `socialreach-core`) trusts nothing it reads back: every integer,
//! string and tag goes through [`WireReader`], which returns a typed
//! [`WireError`] instead of panicking on truncated, overlong or
//! non-UTF-8 input. Checksums use the ubiquitous reflected CRC-32
//! (IEEE 802.3 polynomial `0xEDB88320`), computed over payload bytes
//! only so a header corruption and a payload corruption are
//! distinguishable.

use std::fmt;

/// Reflected CRC-32 lookup table for the IEEE polynomial.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE, reflected) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// CRC-32 of the concatenation of `parts`, without concatenating them
/// (a frame checksums its length field and its payload, with the
/// checksum field between them).
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for part in parts {
        for &b in *part {
            c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
    }
    !c
}

/// Typed decode failure: every variant names the byte offset at which
/// the input stopped making sense, so corruption reports point at the
/// damage instead of at the code that tripped over it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before a fixed-width field or counted payload.
    UnexpectedEof {
        /// Offset at which the read began.
        offset: usize,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A counted string was not valid UTF-8.
    BadUtf8 {
        /// Offset of the string payload.
        offset: usize,
    },
    /// An enum tag byte had no decodable meaning.
    BadTag {
        /// Offset of the tag byte.
        offset: usize,
        /// The unrecognised tag value.
        tag: u8,
    },
    /// Input remained after the value was fully decoded.
    TrailingBytes {
        /// Offset of the first unconsumed byte.
        offset: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof {
                offset,
                needed,
                remaining,
            } => write!(
                f,
                "unexpected end of input at byte {offset}: needed {needed} bytes, {remaining} remain"
            ),
            WireError::BadUtf8 { offset } => {
                write!(f, "invalid UTF-8 in string at byte {offset}")
            }
            WireError::BadTag { offset, tag } => {
                write!(f, "unrecognised tag {tag:#04x} at byte {offset}")
            }
            WireError::TrailingBytes { offset } => {
                write!(f, "trailing bytes after value, starting at byte {offset}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian encoder.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its little-endian IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends a `u32`-counted UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

/// Bounds-checked little-endian decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Starts decoding at the beginning of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Current offset into the input.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes { offset: self.pos })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                offset: self.pos,
                needed: n,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `f64` from its little-endian bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(
            self.take(8)?.try_into().expect("len 8"),
        )))
    }

    /// Reads a `u32`-counted UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_u32()? as usize;
        let offset = self.pos;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| WireError::BadUtf8 { offset })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn crc32_parts_is_the_crc_of_the_concatenation() {
        assert_eq!(crc32_parts(&[b"1234", b"", b"56789"]), 0xCBF4_3926);
        assert_eq!(crc32_parts(&[]), 0);
    }

    #[test]
    fn scalars_round_trip() {
        let mut w = WireWriter::new();
        w.put_u8(7);
        w.put_u16(65_000);
        w.put_u32(4_000_000_000);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(-2.5e-10);
        w.put_str("héllo\n");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 65_000);
        assert_eq!(r.get_u32().unwrap(), 4_000_000_000);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), -2.5e-10);
        assert_eq!(r.get_str().unwrap(), "héllo\n");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let mut w = WireWriter::new();
        w.put_str("hello");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = WireReader::new(&bytes[..cut]);
            assert!(
                matches!(r.get_str(), Err(WireError::UnexpectedEof { .. })),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn bad_utf8_is_a_typed_error() {
        let mut w = WireWriter::new();
        w.put_u32(2);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_str(), Err(WireError::BadUtf8 { offset: 4 }));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let bytes = [1u8, 2, 3];
        let mut r = WireReader::new(&bytes);
        r.get_u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes { offset: 1 }));
    }
}
