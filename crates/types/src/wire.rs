//! Zero-dependency binary wire format used by the persistent repository
//! manifest (see `docs/CACHE_FORMAT.md` for the byte-level
//! specification).
//!
//! The format is deliberately primitive: little-endian fixed-width
//! integers, IEEE-754 bit patterns for floats, length-prefixed UTF-8
//! strings, and one-byte tags for enums. Every `decode` is total — a
//! malformed byte stream produces a [`WireError`], never a panic and
//! never an oversized allocation — because the manifest loader treats
//! any decoding failure as a cold start.
//!
//! Encoding is *canonical*: a value has exactly one byte representation,
//! so `encode ∘ decode ∘ encode` is bitwise idempotent. The cache's
//! round-trip property tests rely on this. Changing any encoding here
//! bumps `CACHE_FORMAT_VERSION` in `majic-repo`.

use crate::{Dim, Intrinsic, Range, Shape, Signature, Type};

/// A decoding failure: the byte stream does not describe a value.
///
/// Deliberately coarse — callers fall back to a cold start, they do not
/// dispatch on the reason — but carries a human-readable context string
/// for diagnostics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was being decoded when the stream turned out malformed.
    pub context: &'static str,
}

impl WireError {
    /// A decoding error tagged with what was being decoded.
    pub fn new(context: &'static str) -> WireError {
        WireError { context }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire data: {}", self.context)
    }
}

impl std::error::Error for WireError {}

/// Result of a decode step.
pub type WireResult<T> = Result<T, WireError>;

/// An append-only byte sink for encoding.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Write one byte.
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    /// Write a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// Write an `f64` as its IEEE-754 bit pattern (NaN payloads are
    /// preserved exactly).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes.extend_from_slice(s.as_bytes());
    }

    /// Write raw bytes with a `u32` length prefix.
    pub fn blob(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.bytes.extend_from_slice(b);
    }
}

/// A bounds-checked byte cursor for decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Has every byte been consumed? Decoders use this to reject
    /// trailing garbage.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, context: &'static str) -> WireResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(WireError::new(context));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> WireResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> WireResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> WireResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `f64` from its IEEE-754 bit pattern.
    pub fn f64(&mut self) -> WireResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Read a length-prefixed UTF-8 string. The declared length is
    /// validated against the remaining input before any allocation.
    pub fn str(&mut self) -> WireResult<String> {
        let len = self.u32()? as usize;
        let b = self.take(len, "str bytes")?;
        String::from_utf8(b.to_vec()).map_err(|_| WireError::new("str utf-8"))
    }

    /// Read a `u32`-length-prefixed byte blob.
    pub fn blob(&mut self) -> WireResult<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len, "blob bytes")
    }

    /// Read a sequence count and validate it against the remaining
    /// input, assuming each element occupies at least `min_elem_bytes`.
    /// Guards `Vec::with_capacity` against attacker-controlled lengths.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> WireResult<usize> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_elem_bytes.max(1)) > self.remaining() {
            return Err(WireError::new("seq length exceeds input"));
        }
        Ok(n)
    }
}

// ---------------------------------------------------------------------
// Codecs for the type lattice (the repository's guard metadata).
// ---------------------------------------------------------------------

/// Encode an [`Intrinsic`] (one tag byte, declaration order).
fn encode_intrinsic(w: &mut Writer, v: Intrinsic) {
    w.u8(match v {
        Intrinsic::Bottom => 0,
        Intrinsic::Bool => 1,
        Intrinsic::Int => 2,
        Intrinsic::Real => 3,
        Intrinsic::Complex => 4,
        Intrinsic::Str => 5,
        Intrinsic::Top => 6,
    });
}

/// Decode an [`Intrinsic`].
fn decode_intrinsic(r: &mut Reader<'_>) -> WireResult<Intrinsic> {
    Ok(match r.u8()? {
        0 => Intrinsic::Bottom,
        1 => Intrinsic::Bool,
        2 => Intrinsic::Int,
        3 => Intrinsic::Real,
        4 => Intrinsic::Complex,
        5 => Intrinsic::Str,
        6 => Intrinsic::Top,
        _ => return Err(WireError::new("intrinsic tag")),
    })
}

/// Encode a [`Dim`]: tag 0 + extent for finite, tag 1 for `∞`.
fn encode_dim(w: &mut Writer, v: Dim) {
    match v {
        Dim::Finite(n) => {
            w.u8(0);
            w.u64(n);
        }
        Dim::Inf => w.u8(1),
    }
}

/// Decode a [`Dim`].
fn decode_dim(r: &mut Reader<'_>) -> WireResult<Dim> {
    Ok(match r.u8()? {
        0 => Dim::Finite(r.u64()?),
        1 => Dim::Inf,
        _ => return Err(WireError::new("dim tag")),
    })
}

/// Encode a [`Shape`] (rows then cols).
fn encode_shape(w: &mut Writer, v: Shape) {
    encode_dim(w, v.rows);
    encode_dim(w, v.cols);
}

/// Decode a [`Shape`].
fn decode_shape(r: &mut Reader<'_>) -> WireResult<Shape> {
    Ok(Shape {
        rows: decode_dim(r)?,
        cols: decode_dim(r)?,
    })
}

/// Encode a [`Range`] as its two bounds' bit patterns (`⊥` is the NaN
/// pair produced by [`Lattice::bottom`](crate::Lattice::bottom)).
fn encode_range(w: &mut Writer, v: Range) {
    w.f64(v.lo());
    w.f64(v.hi());
}

/// Decode a [`Range`]. Reconstructed through [`Range::new`], so a
/// malformed pair (`lo > hi`, stray NaN) canonicalizes to `⊥` exactly
/// as it would at construction time.
fn decode_range(r: &mut Reader<'_>) -> WireResult<Range> {
    let lo = r.f64()?;
    let hi = r.f64()?;
    Ok(Range::new(lo, hi))
}

/// Encode a [`Type`] (intrinsic, min shape, max shape, range).
fn encode_type(w: &mut Writer, v: &Type) {
    encode_intrinsic(w, v.intrinsic);
    encode_shape(w, v.min_shape);
    encode_shape(w, v.max_shape);
    encode_range(w, v.range);
}

/// Decode a [`Type`].
fn decode_type(r: &mut Reader<'_>) -> WireResult<Type> {
    Ok(Type {
        intrinsic: decode_intrinsic(r)?,
        min_shape: decode_shape(r)?,
        max_shape: decode_shape(r)?,
        range: decode_range(r)?,
    })
}

/// Encode a [`Signature`] as a counted sequence of parameter types.
pub fn encode_signature(w: &mut Writer, v: &Signature) {
    w.u32(v.params().len() as u32);
    for t in v.params() {
        encode_type(w, t);
    }
}

/// Decode a [`Signature`].
pub fn decode_signature(r: &mut Reader<'_>) -> WireResult<Signature> {
    let n = r.seq_len(1)?;
    let mut params = Vec::with_capacity(n);
    for _ in 0..n {
        params.push(decode_type(r)?);
    }
    Ok(Signature::new(params))
}

/// FNV-1a 64-bit hash — the cache's checksum and source-hash algorithm
/// (tiny, dependency-free, and stable across platforms; this is an
/// integrity check against corruption, not a cryptographic MAC).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lattice;

    #[test]
    fn primitives_round_trip() {
        let mut w = Writer::new();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.str("héllo");
        w.blob(&[1, 2, 3]);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.blob().unwrap(), &[1, 2, 3]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.str("hello world");
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(r.str().is_err(), "prefix of {cut} bytes must not decode");
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_before_allocation() {
        // A 4 GiB string length with 2 bytes of payload must fail fast.
        let mut w = Writer::new();
        w.u32(u32::MAX);
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        assert!(Reader::new(&bytes).str().is_err());
        assert!(Reader::new(&bytes).seq_len(1).is_err());
    }

    #[test]
    fn bad_tags_rejected() {
        assert!(decode_intrinsic(&mut Reader::new(&[9])).is_err());
        assert!(decode_dim(&mut Reader::new(&[2])).is_err());
    }

    #[test]
    fn type_codec_round_trips_bitwise() {
        let cases = [
            Type::bottom(),
            Type::top(),
            Type::constant(3.25),
            Type::matrix(Intrinsic::Complex, 4, 7),
            Type::string(),
            Type::scalar(Intrinsic::Bool).with_range(Range::new(0.0, 1.0)),
        ];
        for t in &cases {
            let mut w = Writer::new();
            encode_type(&mut w, t);
            let first = w.into_bytes();
            let mut r = Reader::new(&first);
            let back = decode_type(&mut r).unwrap();
            assert!(r.is_empty());
            let mut w2 = Writer::new();
            encode_type(&mut w2, &back);
            assert_eq!(first, w2.into_bytes(), "canonical encoding for {t}");
        }
    }

    #[test]
    fn signature_codec_round_trips() {
        let sig = Signature::new(vec![Type::constant(1.0), Type::top()]);
        let mut w = Writer::new();
        encode_signature(&mut w, &sig);
        let bytes = w.into_bytes();
        let back = decode_signature(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, sig);
    }

    #[test]
    fn fnv_is_stable() {
        // Pinned value: the on-disk format depends on this exact function.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"majic"), {
            let mut h: u64 = 0xCBF2_9CE4_8422_2325;
            for &b in b"majic" {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
            h
        });
        assert_ne!(fnv1a(b"a"), fnv1a(b"b"));
    }
}
