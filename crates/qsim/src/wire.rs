//! Compact binary wire format for persisted records.
//!
//! The on-disk tier stores finished solves as flat byte records. This
//! module provides the primitives: a little-endian
//! [`WireWriter`]/[`WireReader`] pair whose encodings are canonical
//! (one value, one byte sequence — so byte-equality of encodings means
//! value equality). The FNV-1a checksum the record headers carry is
//! `rasengan_obs::fnv64`. The record codecs themselves (the serve
//! tier's result keys and solved replies) live with their types.
//!
//! # Corruption discipline
//!
//! Every reader method is total: corrupt or truncated input returns
//! [`WireError`], never panics and never reads out of bounds. Decoders
//! built on top add semantic validation — UTF-8 and JSON checks on the
//! stored text — so a record that passes its checksum but carries
//! nonsense still degrades to a structured error. The storage layer
//! treats any [`WireError`] as "quarantine and recompute".

/// Error decoding a wire payload. Carries enough to name the failure
/// in quarantine accounting, nothing more — corrupt records are not
/// worth a backtrace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the value it promised.
    Truncated,
    /// A field decoded but failed semantic validation.
    Invalid(&'static str),
    /// Bytes remained after the decoder consumed the full value.
    Trailing,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => f.write_str("payload truncated"),
            WireError::Invalid(what) => write!(f, "invalid field: {what}"),
            WireError::Trailing => f.write_str("trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {}

/// Appends little-endian primitives to a growing buffer.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> WireWriter {
        WireWriter::default()
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u128` (fingerprints).
    pub fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit regardless of
    /// host width).
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` by bit pattern — exact round trip, including
    /// NaN payloads and signed zeros, so re-serialized outcomes stay
    /// byte-identical.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Appends a byte string, prefixed with its length.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }
}

/// Reads little-endian primitives from a byte slice, refusing to read
/// past the end.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over the full slice.
    pub fn new(buf: &'a [u8]) -> WireReader<'a> {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Errors with [`WireError::Trailing`] unless the payload was
    /// consumed exactly. Decoders call this last so a record with junk
    /// appended is rejected, not silently accepted.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Trailing)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u128`.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    /// Reads a `usize` stored as `u64`, rejecting values the host
    /// cannot represent.
    pub fn usize(&mut self) -> Result<usize, WireError> {
        usize::try_from(self.u64()?).map_err(|_| WireError::Invalid("usize overflows host"))
    }

    /// Reads a length-like `usize` and sanity-checks it against the
    /// bytes actually remaining (each element needs at least
    /// `min_element_bytes`). A corrupt length field then fails here
    /// with [`WireError::Truncated`] instead of driving a
    /// multi-gigabyte `Vec::with_capacity`.
    pub fn len(&mut self, min_element_bytes: usize) -> Result<usize, WireError> {
        let n = self.usize()?;
        if n.checked_mul(min_element_bytes.max(1))
            .is_none_or(|need| need > self.remaining())
        {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Reads an `f64` by bit pattern.
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a bool, rejecting anything but 0 or 1 (canonical form —
    /// a flipped bit in a bool must not decode silently).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("non-canonical bool")),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], WireError> {
        let n = self.len(1)?;
        self.take(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = WireWriter::new();
        w.u8(7);
        w.u64(u64::MAX - 1);
        w.u128(u128::MAX / 3);
        w.usize(123_456);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.bool(true);
        w.bool(false);
        w.bytes(b"text");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.usize().unwrap(), 123_456);
        // -0.0 and NaN must survive by bit pattern.
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.bytes().unwrap(), b"text");
        r.finish().unwrap();
    }

    #[test]
    fn reader_never_reads_past_end() {
        let mut r = WireReader::new(&[1, 2, 3]);
        assert_eq!(r.u8().unwrap(), 1);
        assert_eq!(r.u64(), Err(WireError::Truncated));
        // A failed read consumes nothing; the remaining bytes are intact.
        assert_eq!(r.u8().unwrap(), 2);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u8(), Err(WireError::Truncated));
    }

    #[test]
    fn length_fields_are_bounded_by_remaining_bytes() {
        // A corrupt 2^60 length must fail fast, not allocate.
        let mut w = WireWriter::new();
        w.usize(1 << 60);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.len(8), Err(WireError::Truncated));
    }

    #[test]
    fn non_canonical_bool_rejected() {
        let mut r = WireReader::new(&[2]);
        assert_eq!(r.bool(), Err(WireError::Invalid("non-canonical bool")));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut w = WireWriter::new();
        w.u8(1);
        let mut bytes = w.into_bytes();
        bytes.push(0);
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(WireError::Trailing));
    }
}
