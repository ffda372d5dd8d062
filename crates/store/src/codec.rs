//! Primitive binary codec: little-endian integers, length-prefixed
//! strings, 32-byte arrays, and the CRC32 used to checksum every frame.
//!
//! [`Encoder`] appends to an owned buffer; [`Decoder`] walks a borrowed
//! slice with a cursor and returns typed [`DecodeError`]s instead of
//! panicking, so a truncated or corrupt log surfaces as data, not as a
//! crash during recovery.
//!
//! [`crc32`] is table-driven *slicing-by-16*: sixteen 256-entry tables,
//! built at compile time, fold 16 input bytes per step with one lookup
//! per byte and no loop-carried dependency between the lookups, instead
//! of the classic one-byte-per-step loop whose every lookup waits on the
//! previous one. Same IEEE polynomial, same checksums, no `unsafe`.

use std::fmt;

/// Everything that can go wrong while decoding a record or snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before the value being read was complete.
    UnexpectedEnd,
    /// An enum tag byte had no corresponding variant.
    BadTag(u8),
    /// A frame's CRC32 did not match its header + payload bytes.
    BadChecksum,
    /// A frame did not start with the `b"SW"` magic.
    BadMagic,
    /// A frame's format version is newer than this decoder understands.
    BadVersion(u16),
    /// A record kind code had no corresponding record type.
    BadKind(u16),
    /// A string's bytes were not valid UTF-8.
    BadUtf8,
    /// A length prefix was implausibly large for the remaining input.
    BadLength(u64),
    /// Decoding finished with unconsumed bytes left over.
    TrailingBytes,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEnd => write!(f, "input ended mid-value"),
            DecodeError::BadTag(t) => write!(f, "unknown enum tag {t}"),
            DecodeError::BadChecksum => write!(f, "frame checksum mismatch"),
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            DecodeError::BadKind(k) => write!(f, "unknown record kind {k}"),
            DecodeError::BadUtf8 => write!(f, "string is not valid UTF-8"),
            DecodeError::BadLength(n) => write!(f, "length prefix {n} exceeds remaining input"),
            DecodeError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Appends primitive values to a byte buffer in the store's wire format.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bytes encoded so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Drops everything after the first `len` bytes (no-op if `len` is
    /// past the end).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Overwrites the four bytes at `at` with `v` little-endian — for a
    /// length field written before its value was known.
    ///
    /// # Panics
    ///
    /// If `at + 4` is past the end of the buffer.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Consumes the encoder and returns the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been encoded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends a `u16` little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a fixed 32-byte array verbatim (no length prefix).
    pub fn put_bytes32(&mut self, v: &[u8; 32]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends raw bytes verbatim (no length prefix).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u64` length prefix followed by the string's UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a `u64` element count; the caller then encodes each element.
    pub fn put_len(&mut self, n: usize) {
        self.put_u64(n as u64);
    }

    /// Appends a sequence: its element count, then each element through
    /// `put`. Takes any exact-size iterator, so a caller can encode a
    /// borrowed walk of its state without collecting it first.
    pub fn put_seq<I: ExactSizeIterator>(
        &mut self,
        items: I,
        mut put: impl FnMut(&mut Self, I::Item),
    ) {
        self.put_len(items.len());
        for item in items {
            put(self, item);
        }
    }

    /// Appends `Some`/`None` as a bool tag; the caller encodes the payload
    /// after a `true` tag.
    pub fn put_option_tag(&mut self, some: bool) {
        self.put_bool(some);
    }
}

/// Cursor over a byte slice reading values back in the store's wire format.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf` with the cursor at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns [`DecodeError::TrailingBytes`] unless the input is exhausted.
    pub fn finish(&self) -> Result<(), DecodeError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(DecodeError::TrailingBytes)
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEnd);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(DecodeError::BadTag(t)),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }

    /// Reads a fixed 32-byte array.
    pub fn bytes32(&mut self) -> Result<[u8; 32], DecodeError> {
        let b = self.take(32)?;
        let mut a = [0u8; 32];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, DecodeError> {
        let n = self.len_prefix()?;
        let b = self.take(n)?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a `u64` element count, validated against the remaining input
    /// (each element needs at least one byte, so a count larger than the
    /// remaining byte count is corrupt, not merely ambitious).
    pub fn len_prefix(&mut self) -> Result<usize, DecodeError> {
        let n = self.u64()?;
        if n > self.remaining() as u64 {
            return Err(DecodeError::BadLength(n));
        }
        Ok(n as usize)
    }

    /// Reads an `Option` tag written by [`Encoder::put_option_tag`].
    pub fn option_tag(&mut self) -> Result<bool, DecodeError> {
        self.bool()
    }
}

/// The reflected IEEE 802.3 polynomial.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-16 tables: `t[0]` is the classic bytewise table, and
/// `t[k][b]` is the CRC state contributed by byte `b` followed by `k`
/// zero bytes, so one step can fold 16 bytes at independent positions.
const fn crc32_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC32_TABLES: [[u32; 256]; 16] = crc32_tables();

/// CRC32 (IEEE 802.3 polynomial, the `cksum`/zlib variant) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut blocks = data.chunks_exact(16);
    for block in &mut blocks {
        let b: &[u8; 16] = block.try_into().expect("chunks_exact yields 16 bytes");
        // The running state folds into the first four bytes; byte `i` of
        // the block is then `15 - i` bytes from the end of the step.
        let s = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(s & 0xFF) as usize]
            ^ t[14][((s >> 8) & 0xFF) as usize]
            ^ t[13][((s >> 16) & 0xFF) as usize]
            ^ t[12][(s >> 24) as usize]
            ^ t[11][b[4] as usize]
            ^ t[10][b[5] as usize]
            ^ t[9][b[6] as usize]
            ^ t[8][b[7] as usize]
            ^ t[7][b[8] as usize]
            ^ t[6][b[9] as usize]
            ^ t[5][b[10] as usize]
            ^ t[4][b[11] as usize]
            ^ t[3][b[12] as usize]
            ^ t[2][b[13] as usize]
            ^ t[1][b[14] as usize]
            ^ t[0][b[15] as usize];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    /// Bit-at-a-time CRC32: the definition, with no tables to get wrong.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { CRC32_POLY ^ (c >> 1) } else { c >> 1 };
            }
        }
        c ^ 0xFFFF_FFFF
    }

    proptest! {
        // Lengths 0–1024 cover every remainder after the 16-byte blocks;
        // the body starts `start` bytes into its buffer, so every
        // alignment of the input slice is covered too.
        #[test]
        fn crc32_matches_the_bitwise_definition(
            start in 0usize..16,
            pad in any::<[u8; 16]>(),
            body in prop::collection::vec(any::<u8>(), 0..1025),
        ) {
            let mut buf = pad[..start].to_vec();
            buf.extend_from_slice(&body);
            prop_assert_eq!(crc32(&buf[start..]), crc32_bitwise(&body));
        }
    }

    #[test]
    fn crc32_matches_the_bitwise_definition_at_every_short_length() {
        let data: Vec<u8> = (0..80u32).map(|i| (i * 37 + 11) as u8).collect();
        for start in 0..16 {
            for end in start..data.len() {
                assert_eq!(crc32(&data[start..end]), crc32_bitwise(&data[start..end]));
            }
        }
    }

    #[test]
    fn patch_and_truncate_edit_the_buffer_in_place() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0);
        e.put_u8(9);
        e.patch_u32(1, 0xA1B2_C3D4);
        assert_eq!(e.as_bytes(), &[7, 0xD4, 0xC3, 0xB2, 0xA1, 9]);
        e.truncate(1);
        assert_eq!(e.as_bytes(), &[7]);
    }

    #[test]
    fn put_seq_writes_count_then_elements() {
        let mut e = Encoder::new();
        e.put_seq([3u16, 4].iter(), |e, v| e.put_u16(*v));
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.len_prefix().unwrap(), 2);
        assert_eq!((d.u16().unwrap(), d.u16().unwrap()), (3, 4));
        d.finish().unwrap();
    }

    #[test]
    fn primitives_round_trip() {
        let mut e = Encoder::new();
        e.put_u8(0xAB);
        e.put_bool(true);
        e.put_bool(false);
        e.put_u16(0xBEEF);
        e.put_u32(0xDEAD_BEEF);
        e.put_u64(u64::MAX - 7);
        e.put_bytes32(&[9u8; 32]);
        e.put_str("hashkey ☃");
        e.put_len(3);
        let bytes = e.into_bytes();

        let mut d = Decoder::new(&bytes);
        assert_eq!(d.u8().unwrap(), 0xAB);
        assert!(d.bool().unwrap());
        assert!(!d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 7);
        assert_eq!(d.bytes32().unwrap(), [9u8; 32]);
        assert_eq!(d.str().unwrap(), "hashkey ☃");
        assert_eq!(d.u64().unwrap(), 3);
        d.finish().unwrap();
    }

    #[test]
    fn short_input_is_unexpected_end_not_panic() {
        let mut d = Decoder::new(&[1, 2, 3]);
        assert_eq!(d.u64(), Err(DecodeError::UnexpectedEnd));
    }

    #[test]
    fn bogus_length_prefix_is_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX); // absurd string length
        e.put_raw(b"abc");
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.str(), Err(DecodeError::BadLength(u64::MAX)));
    }

    #[test]
    fn bad_bool_tag_is_rejected() {
        let mut d = Decoder::new(&[7]);
        assert_eq!(d.bool(), Err(DecodeError::BadTag(7)));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Encoder::new();
        e.put_u8(1);
        e.put_u8(2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(DecodeError::TrailingBytes));
    }
}
