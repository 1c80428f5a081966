//! Typed record encoding: the byte-level layer of the checkpoint format.
//!
//! A *record* is the unit of integrity and framing:
//!
//! ```text
//! +---------+----------+------------------+-----------+
//! | tag u16 | len u32  | payload (len B)  | crc32 u32 |
//! +---------+----------+------------------+-----------+
//! ```
//!
//! All integers are little-endian. The CRC covers the payload only; tag and
//! length corruption is caught indirectly (a wrong length almost certainly
//! shifts the CRC check out of alignment). Inside a payload, values are
//! written with the typed primitives of [`RecordWriter`] and read back with
//! the mirror-image [`RecordReader`]; a record must be consumed exactly,
//! otherwise [`DecodeError::TrailingBytes`] flags a schema mismatch.
//!
//! The layout is written in place, once per payload, by one pair:
//! [`RecordWriter::begin_record`] opens a record where the writer stands
//! and [`RecordWriter::end_record`] closes it around whatever was encoded
//! in between. Nothing stages a payload in a second buffer in order to
//! frame it, and nothing re-frames bytes that are already framed.
//!
//! # One encoding per kind of value
//!
//! Every record codec is one [`RecordWriter::put`] / [`RecordReader::get`]
//! per field, over the [`Encode`] / [`Decode`] impls of this module, which
//! give each kind of value its one encoding:
//!
//! * `u8`, `u16`, `u32`, `u64`, `i64` and `f64` are little-endian, `bool`
//!   is one byte that decodes only from 0 or 1, and `String` is a `u64`
//!   byte count then UTF-8.
//! * `Vec<T>`, `VecDeque<T>` and `[T]` are a `u64` count then the items.
//!   For `u8` the items are the bytes themselves, written and read with
//!   one copy (`VecDeque<u8>` straight from its two ring halves).
//! * `Option<T>` is a `bool` then, if set, the value.
//! * A tuple is its fields in order, and `BTreeMap<K, V>` is a sequence of
//!   `(K, V)` pairs in key order.
//! * A fieldless enum is its position in one `const` table of its
//!   variants ([`table_codec!`](crate::table_codec)), one byte unless the
//!   format has always written it wider.
//!
//! A decoder checks a hostile count in two places only:
//! [`RecordReader::get_seq`], for every sequence, and the bytes reader
//! [`RecordReader::get_bytes`], for byte strings. Both refuse a count
//! above the bytes left as [`DecodeError::LengthOverflow`], and
//! `get_seq` reserves no more than [`seq_capacity`] allows before the
//! items are read.

use crate::crc::crc32;
use crate::error::{DecodeError, DecodeResult};
use std::collections::{BTreeMap, VecDeque};

/// Types that can serialize themselves into a record payload.
pub trait Encode {
    /// Appends this value to the writer.
    fn encode(&self, w: &mut RecordWriter);

    /// Appends `items` back to back, with no count: the body of a
    /// sequence. `u8` overrides this with one copy of the bytes.
    fn encode_slice(items: &[Self], w: &mut RecordWriter)
    where
        Self: Sized,
    {
        for it in items {
            it.encode(w);
        }
    }
}

/// Types that can deserialize themselves from a record payload.
pub trait Decode: Sized {
    /// Reads one value from the reader.
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self>;

    /// Reads a counted sequence of values: [`RecordReader::get_seq`].
    /// `u8` overrides this with the bytes reader and one copy.
    fn decode_vec(r: &mut RecordReader<'_>) -> DecodeResult<Vec<Self>> {
        r.get_seq()
    }
}

/// Field widths of the record layout in the module docs.
const TAG_BYTES: usize = 2;
const LEN_BYTES: usize = 4;
const CRC_BYTES: usize = 4;
/// Bytes before the payload: tag, then length.
const HEAD_BYTES: usize = TAG_BYTES + LEN_BYTES;

/// Append-only typed writer: a bare payload, or any number of framed
/// records ([`RecordWriter::begin_record`] / [`RecordWriter::end_record`])
/// one after another in the same buffer.
#[derive(Debug, Default, Clone)]
pub struct RecordWriter {
    buf: Vec<u8>,
}

impl RecordWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        RecordWriter { buf: Vec::new() }
    }

    /// Creates a writer with pre-reserved capacity (image bodies are often
    /// dominated by one large memory section; reserving avoids regrowth).
    pub fn with_capacity(cap: usize) -> Self {
        RecordWriter { buf: Vec::with_capacity(cap) }
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the bytes written so far.
    pub fn bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Writes a `u8`.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `i64`.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Appends `v` as it is, with no length prefix (format preambles).
    pub(crate) fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Writes a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put(v);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Writes a length-prefixed `f64` slice (bulk numeric state of the
    /// scientific workloads).
    pub fn put_f64_slice(&mut self, v: &[f64]) {
        self.put(v);
    }

    /// Writes a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, v: &[u64]) {
        self.put(v);
    }

    /// Writes any [`Encode`] value.
    pub fn put<T: Encode + ?Sized>(&mut self, v: &T) {
        v.encode(self);
    }

    /// Opens a record with `tag` where the writer stands: writes the tag
    /// and a length placeholder and returns the mark to hand to
    /// [`RecordWriter::end_record`]. Everything written until then is the
    /// record's payload. Records do not nest.
    pub fn begin_record(&mut self, tag: u16) -> usize {
        let mark = self.buf.len();
        self.buf.extend_from_slice(&tag.to_le_bytes());
        self.buf.extend_from_slice(&[0; LEN_BYTES]);
        mark
    }

    /// Closes the record opened at `mark`: patches the length, computes
    /// the CRC over the payload where it lies, and appends it. With
    /// [`RecordWriter::begin_record`] this is the single definition of the
    /// tag/len/payload/crc wire layout on the write side.
    ///
    /// # Panics
    /// If the payload exceeds the format's `u32` length field (a silently
    /// wrapped length would frame an unreadable record).
    pub fn end_record(&mut self, mark: usize) {
        let payload_at = mark + HEAD_BYTES;
        let len = u32::try_from(self.buf.len() - payload_at).expect("record payload over 4 GiB");
        self.buf[mark + TAG_BYTES..payload_at].copy_from_slice(&len.to_le_bytes());
        let crc = crc32(&self.buf[payload_at..]);
        self.buf.extend_from_slice(&crc.to_le_bytes());
    }
}

/// Frames `payload`, which the caller already holds encoded, as a single
/// record. The copy-then-CRC form tests use as their reference.
pub fn frame_record(tag: u16, payload: &[u8]) -> Vec<u8> {
    let mut w = RecordWriter::with_capacity(HEAD_BYTES + payload.len() + CRC_BYTES);
    let mark = w.begin_record(tag);
    w.put_raw(payload);
    w.end_record(mark);
    w.into_bytes()
}

/// Cursor-based typed reader over a record payload (or raw byte stream).
#[derive(Debug, Clone)]
pub struct RecordReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordReader<'a> {
    /// Creates a reader over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordReader { buf, pos: 0 }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when fully consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, wanted: &'static str) -> DecodeResult<&'a [u8]> {
        if self.remaining() < n {
            return Err(DecodeError::UnexpectedEof { wanted });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads a `u8`.
    pub fn get_u8(&mut self) -> DecodeResult<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    /// Reads a `bool`, rejecting values other than 0/1.
    pub fn get_bool(&mut self) -> DecodeResult<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(DecodeError::InvalidEnum { what: "bool", value: v as u64 }),
        }
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> DecodeResult<u16> {
        let b = self.take(2, "u16")?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> DecodeResult<u32> {
        let b = self.take(4, "u32")?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> DecodeResult<u64> {
        let b = self.take(8, "u64")?;
        Ok(u64::from_le_bytes(b.try_into().expect("slice len 8")))
    }

    /// Reads a little-endian `i64`.
    pub fn get_i64(&mut self) -> DecodeResult<i64> {
        let b = self.take(8, "i64")?;
        Ok(i64::from_le_bytes(b.try_into().expect("slice len 8")))
    }

    /// Reads an `f64` bit pattern.
    pub fn get_f64(&mut self) -> DecodeResult<f64> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a length-prefixed byte slice (borrowed).
    pub fn get_bytes(&mut self) -> DecodeResult<&'a [u8]> {
        let len = self.get_u64()?;
        if len > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { declared: len });
        }
        self.take(len as usize, "bytes body")
    }

    /// Reads a length-prefixed byte slice into an owned vector.
    pub fn get_bytes_owned(&mut self) -> DecodeResult<Vec<u8>> {
        Ok(self.get_bytes()?.to_vec())
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> DecodeResult<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b.to_vec()).map_err(|_| DecodeError::InvalidUtf8)
    }

    /// Reads a length-prefixed `f64` slice.
    pub fn get_f64_slice(&mut self) -> DecodeResult<Vec<f64>> {
        self.get_seq()
    }

    /// Reads a length-prefixed `u64` slice.
    pub fn get_u64_slice(&mut self) -> DecodeResult<Vec<u64>> {
        self.get_seq()
    }

    /// Reads any [`Decode`] value.
    pub fn get<T: Decode>(&mut self) -> DecodeResult<T> {
        T::decode(self)
    }

    /// Reads a length-prefixed sequence of [`Decode`] values: the one
    /// place a hostile sequence count is refused and the reserve clamped.
    pub fn get_seq<T: Decode>(&mut self) -> DecodeResult<Vec<T>> {
        let len = self.get_u64()?;
        // Each element takes at least one byte; reject absurd counts early.
        if len > self.remaining() as u64 {
            return Err(DecodeError::LengthOverflow { declared: len });
        }
        let mut out =
            Vec::with_capacity(seq_capacity(len, self.remaining(), std::mem::size_of::<T>()));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

macro_rules! primitive_codec {
    ($($t:ty: $put:ident, $get:ident;)*) => {$(
        impl Encode for $t {
            fn encode(&self, w: &mut RecordWriter) {
                w.$put(*self);
            }
        }

        impl Decode for $t {
            fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
                r.$get()
            }
        }
    )*};
}

primitive_codec! {
    bool: put_bool, get_bool;
    u16: put_u16, get_u16;
    u32: put_u32, get_u32;
    u64: put_u64, get_u64;
    i64: put_i64, get_i64;
    f64: put_f64, get_f64;
}

impl Encode for u8 {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u8(*self);
    }

    fn encode_slice(items: &[u8], w: &mut RecordWriter) {
        w.put_raw(items);
    }
}

impl Decode for u8 {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        r.get_u8()
    }

    fn decode_vec(r: &mut RecordReader<'_>) -> DecodeResult<Vec<u8>> {
        r.get_bytes_owned()
    }
}

impl Encode for String {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_str(self);
    }
}

impl Decode for String {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        r.get_str()
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut RecordWriter) {
        (**self).encode(w);
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.len() as u64);
        T::encode_slice(self, w);
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(self.as_slice());
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        T::decode_vec(r)
    }
}

impl<T: Encode> Encode for VecDeque<T> {
    fn encode(&self, w: &mut RecordWriter) {
        let (front, back) = self.as_slices();
        w.put_u64(self.len() as u64);
        T::encode_slice(front, w);
        T::encode_slice(back, w);
    }
}

impl<T: Decode> Decode for VecDeque<T> {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(T::decode_vec(r)?.into())
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut RecordWriter) {
        match self {
            Some(v) => {
                w.put_bool(true);
                v.encode(w);
            }
            None => w.put_bool(false),
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(if r.get_bool()? { Some(T::decode(r)?) } else { None })
    }
}

macro_rules! tuple_codec {
    ($($name:ident)+) => {
        impl<$($name: Encode),+> Encode for ($($name,)+) {
            #[allow(non_snake_case)]
            fn encode(&self, w: &mut RecordWriter) {
                let ($($name,)+) = self;
                $($name.encode(w);)+
            }
        }

        impl<$($name: Decode),+> Decode for ($($name,)+) {
            fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
                Ok(($($name::decode(r)?,)+))
            }
        }
    };
}

tuple_codec!(A B);
tuple_codec!(A B C D);

impl<K: Encode, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.len() as u64);
        for pair in self {
            w.put(&pair);
        }
    }
}

impl<K: Decode + Ord, V: Decode> Decode for BTreeMap<K, V> {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(r.get_seq::<(K, V)>()?.into_iter().collect())
    }
}

/// The code of `v`: its position in `all`, the `const` table of its
/// enum's variants. Used by [`table_codec!`](crate::table_codec).
///
/// # Panics
/// If `v` is missing from `all` (a table that omits a variant).
pub fn table_code<T: PartialEq>(all: &[T], v: &T) -> u64 {
    all.iter().position(|x| x == v).expect("every variant is in its code table") as u64
}

/// The variant at position `code` of `all`, or
/// [`DecodeError::InvalidEnum`] naming `what`. Used by
/// [`table_codec!`](crate::table_codec).
pub fn table_entry<T: Copy>(all: &[T], what: &'static str, code: u64) -> DecodeResult<T> {
    usize::try_from(code)
        .ok()
        .and_then(|i| all.get(i).copied())
        .ok_or(DecodeError::InvalidEnum { what, value: code })
}

/// Implements [`Encode`] and [`Decode`] for a fieldless enum from one
/// `const` table of its variants: a variant's code is its position in
/// the table, written as a `u8` unless a wider unsigned type is named.
/// A code past the end of the table decodes as
/// [`DecodeError::InvalidEnum`] naming the enum.
///
/// ```
/// #[derive(Debug, Clone, Copy, PartialEq)]
/// enum Mode { Fast, Slow }
/// const MODES: [Mode; 2] = [Mode::Fast, Mode::Slow];
/// zapc_proto::table_codec!(Mode, "Mode", MODES);
///
/// let mut w = zapc_proto::RecordWriter::new();
/// w.put(&Mode::Slow);
/// assert_eq!(w.bytes(), [1]);
/// ```
#[macro_export]
macro_rules! table_codec {
    ($ty:ty, $what:literal, $all:expr) => {
        $crate::table_codec!($ty, $what, $all, u8);
    };
    ($ty:ty, $what:literal, $all:expr, $width:ty) => {
        impl $crate::Encode for $ty {
            fn encode(&self, w: &mut $crate::RecordWriter) {
                w.put(&($crate::rw::table_code(&$all, self) as $width));
            }
        }

        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::RecordReader<'_>) -> $crate::DecodeResult<Self> {
                $crate::rw::table_entry(&$all, $what, r.get::<$width>()?.into())
            }
        }
    };
}

/// Upper bound on what a decoder reserves ahead of validation.
pub const MAX_PREALLOC_BYTES: usize = 64 * 1024;

/// Preallocation clamp for length-prefixed sequences (the
/// allocation-amplification guard): trust a declared element count only
/// up to the number of elements the *remaining input* could actually
/// encode, and never reserve more than [`MAX_PREALLOC_BYTES`] of element
/// memory up front. The count itself is still validated by the caller —
/// this bounds only the speculative reserve, so a hostile length prefix
/// on a tiny payload cannot turn `Vec::with_capacity` into a huge
/// allocation (the in-memory element size can be far larger than its
/// wire size, which is what amplifies). `Vec` grows geometrically past
/// the clamp, so honest decodes lose nothing but a few reallocations.
pub fn seq_capacity(declared: u64, max_encodable: usize, elem_mem_bytes: usize) -> usize {
    (declared as usize)
        .min(max_encodable)
        .min(MAX_PREALLOC_BYTES / elem_mem_bytes.max(1))
}

/// Streaming reader over a sequence of framed records.
#[derive(Debug, Clone)]
pub struct RecordStream<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> RecordStream<'a> {
    /// Creates a stream over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        RecordStream { buf, pos: 0 }
    }

    /// Current byte offset into the stream.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when no records remain.
    pub fn is_empty(&self) -> bool {
        self.pos >= self.buf.len()
    }

    /// Reads the next record, verifying its CRC; returns `(tag, payload)`.
    pub fn next_record(&mut self) -> DecodeResult<(u16, &'a [u8])> {
        let rem = &self.buf[self.pos..];
        if rem.len() < HEAD_BYTES {
            return Err(DecodeError::UnexpectedEof { wanted: "record header" });
        }
        let tag = u16::from_le_bytes([rem[0], rem[1]]);
        let len = u32::from_le_bytes([rem[2], rem[3], rem[4], rem[5]]) as usize;
        let Some(body) = rem.get(HEAD_BYTES..HEAD_BYTES + len + CRC_BYTES) else {
            return Err(DecodeError::LengthOverflow { declared: len as u64 });
        };
        let (payload, crc) = body.split_at(len);
        let stored = u32::from_le_bytes(crc.try_into().expect("4 CRC bytes"));
        let computed = crc32(payload);
        if stored != computed {
            return Err(DecodeError::CrcMismatch { tag, stored, computed });
        }
        self.pos += HEAD_BYTES + body.len();
        Ok((tag, payload))
    }

    /// Reads the next record and requires its tag to be `expected`.
    pub fn expect_record(&mut self, expected: u16) -> DecodeResult<&'a [u8]> {
        let (tag, payload) = self.next_record()?;
        if tag != expected {
            return Err(DecodeError::UnexpectedTag { found: tag, expected });
        }
        Ok(payload)
    }
}

/// Frames `body` as a small standalone file — `magic`, a little-endian
/// `u32` `version`, then exactly one CRC-framed record tagged `tag` — the
/// shape of a checkpoint manifest and of a chunk recipe.
pub(crate) fn preamble_encode(
    magic: &[u8; 8],
    version: u32,
    tag: u16,
    body: &impl Encode,
) -> Vec<u8> {
    let mut w = RecordWriter::new();
    w.put_raw(magic);
    w.put_u32(version);
    let mark = w.begin_record(tag);
    body.encode(&mut w);
    w.end_record(mark);
    w.into_bytes()
}

/// Parses what [`preamble_encode`] wrote: magic, version, record CRC,
/// full payload consumption, no trailing bytes. Each format keeps only its
/// own structural checks on top.
pub(crate) fn preamble_decode<T: Decode>(
    magic: &[u8; 8],
    version: u32,
    tag: u16,
    bytes: &[u8],
) -> DecodeResult<T> {
    if bytes.len() < 12 || &bytes[..8] != magic {
        return Err(DecodeError::BadMagic);
    }
    let ver = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if ver != version {
        return Err(DecodeError::UnsupportedVersion { found: ver });
    }
    let mut stream = RecordStream::new(&bytes[12..]);
    let v = decode_exact(tag, stream.expect_record(tag)?, T::decode)?;
    if !stream.is_empty() {
        return Err(DecodeError::TrailingBytes { tag, remaining: 1 });
    }
    Ok(v)
}

/// Decodes a full record payload with `f`, requiring exact consumption.
pub fn decode_exact<'a, T>(
    tag: u16,
    payload: &'a [u8],
    f: impl FnOnce(&mut RecordReader<'a>) -> DecodeResult<T>,
) -> DecodeResult<T> {
    let mut r = RecordReader::new(payload);
    let v = f(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes { tag, remaining: r.remaining() });
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut w = RecordWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(0xBEEF);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(std::f64::consts::PI);
        w.put_bytes(b"queue-bytes");
        w.put_str("pod-3");
        w.put_f64_slice(&[1.5, -2.5, 0.0]);
        w.put_u64_slice(&[3, 2, 1]);

        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap(), std::f64::consts::PI);
        assert_eq!(r.get_bytes().unwrap(), b"queue-bytes");
        assert_eq!(r.get_str().unwrap(), "pod-3");
        assert_eq!(r.get_f64_slice().unwrap(), vec![1.5, -2.5, 0.0]);
        assert_eq!(r.get_u64_slice().unwrap(), vec![3, 2, 1]);
        assert!(r.is_empty());
    }

    /// One record framed in place around `f`'s payload.
    fn framed(tag: u16, f: impl FnOnce(&mut RecordWriter)) -> Vec<u8> {
        let mut w = RecordWriter::new();
        let mark = w.begin_record(tag);
        f(&mut w);
        w.end_record(mark);
        w.into_bytes()
    }

    #[test]
    fn record_framing_round_trip() {
        let out = framed(0x0101, |w| w.put_str("first"));
        let mut s = RecordStream::new(&out);
        let (tag, payload) = s.next_record().unwrap();
        assert_eq!(tag, 0x0101);
        let mut r = RecordReader::new(payload);
        assert_eq!(r.get_str().unwrap(), "first");
        assert!(r.is_empty() && s.is_empty());
    }

    #[test]
    fn back_to_back_records_in_one_buffer_parse_as_two() {
        let mut w = RecordWriter::new();
        let mark = w.begin_record(0x0101);
        w.put_str("first");
        w.end_record(mark);
        let mark = w.begin_record(0x0202);
        w.end_record(mark); // empty payload
        let mark = w.begin_record(0x0303);
        w.put_u64(99);
        w.end_record(mark);
        let out = w.into_bytes();

        // The layout, spelled out independently of the writer.
        let mut want = Vec::new();
        for (tag, payload) in [
            (0x0101u16, [&5u64.to_le_bytes()[..], b"first"].concat()),
            (0x0202, Vec::new()),
            (0x0303, 99u64.to_le_bytes().to_vec()),
        ] {
            want.extend_from_slice(&tag.to_le_bytes());
            want.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            want.extend_from_slice(&payload);
            want.extend_from_slice(&crc32(&payload).to_le_bytes());
        }
        assert_eq!(out, want);

        let mut s = RecordStream::new(&out);
        assert_eq!(s.expect_record(0x0101).unwrap().len(), 13);
        assert!(s.expect_record(0x0202).unwrap().is_empty());
        let mut r = RecordReader::new(s.expect_record(0x0303).unwrap());
        assert_eq!(r.get_u64().unwrap(), 99);
        assert!(s.is_empty());
    }

    #[test]
    fn crc_corruption_detected() {
        let mut out = framed(1, |w| w.put_str("payload"));
        // Flip a payload bit.
        out[8] ^= 0x01;
        let mut s = RecordStream::new(&out);
        match s.next_record() {
            Err(DecodeError::CrcMismatch { .. }) => {}
            other => panic!("expected CrcMismatch, got {other:?}"),
        }
        assert_eq!(s.position(), 0, "a refused record is not consumed");
    }

    #[test]
    fn truncated_record_detected() {
        let mut out = framed(1, |w| w.put_bytes(&[0u8; 64]));
        out.truncate(out.len() - 5);
        let mut s = RecordStream::new(&out);
        assert!(s.next_record().is_err());
    }

    #[test]
    fn unexpected_tag_detected() {
        let out = frame_record(7, b"x");
        let mut s = RecordStream::new(&out);
        match s.expect_record(8) {
            Err(DecodeError::UnexpectedTag { found: 7, expected: 8 }) => {}
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn bool_rejects_garbage() {
        let mut r = RecordReader::new(&[3]);
        assert!(matches!(r.get_bool(), Err(DecodeError::InvalidEnum { .. })));
    }

    #[test]
    fn length_overflow_rejected() {
        // Declared byte length far beyond actual buffer.
        let mut w = RecordWriter::new();
        w.put_u64(1 << 40);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert!(matches!(r.get_bytes(), Err(DecodeError::LengthOverflow { .. })));
    }

    #[test]
    fn decode_exact_flags_trailing_bytes() {
        let mut w = RecordWriter::new();
        w.put_u32(5);
        w.put_u32(6);
        let payload = w.into_bytes();
        let res = decode_exact(9, &payload, |r| r.get_u32());
        assert!(matches!(res, Err(DecodeError::TrailingBytes { tag: 9, remaining: 4 })));
    }

    #[test]
    fn empty_sequences() {
        let mut w = RecordWriter::new();
        w.put_f64_slice(&[]);
        w.put_u64_slice(&[]);
        w.put_bytes(&[]);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        assert!(r.get_f64_slice().unwrap().is_empty());
        assert!(r.get_u64_slice().unwrap().is_empty());
        assert!(r.get_bytes().unwrap().is_empty());
    }
}
