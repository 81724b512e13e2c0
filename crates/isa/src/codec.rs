//! A tiny deterministic binary codec for simulator snapshots.
//!
//! The offline serde shim expands its derives to nothing, so checkpointing
//! cannot lean on `serde` for real byte-level serialization. This module
//! provides the hand-rolled alternative: an append-only [`Encoder`], a
//! bounds-checked [`Decoder`] whose every read returns a [`CodecError`]
//! instead of panicking on truncated input, and the FNV-1a-64 hash the
//! workspace already uses for image fingerprints, here reused as a snapshot
//! checksum.
//!
//! Layout rules. Every value with one layout implements [`Codec`]: its
//! `encode` and `decode` are the only place that layout is written.
//!
//! - Integers are little-endian and fixed width (`u8`, `u32`, `u64`);
//!   `usize` travels as `u64`; `bool` is one byte, 0 or 1.
//! - `f64` travels as its IEEE-754 bit pattern (`to_bits`/`from_bits`), so
//!   encode→decode is exactly identity, NaN payloads included.
//! - `String`, `Vec<T>` and `VecDeque<T>` are a `u64` length, then the
//!   bytes or items. A decoder checks the length against the input left,
//!   at [`Codec::MIN_BYTES`] an item, before it allocates anything.
//! - `Option<T>` is a `bool` presence flag followed by the payload; a
//!   tuple is its fields in order; a `BTreeMap<K, V>` is the `Vec` of its
//!   `(key, value)` pairs, so map-like state is emitted sorted by key and
//!   identical machine states produce identical bytes.
//! - A record — a struct whose layout is its fields in order, or an enum
//!   whose layout is a `u8` tag and then the variant's fields — is
//!   declared with [`record!`](crate::record). That one declaration
//!   generates its `Codec`, so a field added, removed or reordered moves
//!   both halves at once.
//! - Components whose restore checks its input against the state their
//!   configuration built, or against an invariant of their own (caches,
//!   MSHRs, memories, lane state), keep hand-written `encode_state` and
//!   `restore_state` bodies for those checks, and read and write their
//!   fields through `Codec`.
//! - A large word array that is mostly unwritten travels *sparse*
//!   ([`Encoder::put_u32_sparse`]): its length, then groups of
//!   `(zero run, literal run, literal words…)` that cover it exactly, so
//!   the bytes follow what was written, not what was allocated. An array
//!   not held in one slice (a paged memory image, a register file's
//!   planes) goes through the same rule a piece at a time
//!   ([`Encoder::put_u32_sparse_pieces`], [`Decoder::take_u32_sparse_into`]).
//!
//! Counter sets — statistics that are zeroed, summed, snapshotted and
//! printed — are declared once with [`counters!`](crate::counters), which
//! generates all four from the field list.

use std::collections::{BTreeMap, VecDeque};
use std::fmt;

/// Error produced when decoding malformed, truncated, or corrupt bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before a fixed-width read could complete.
    UnexpectedEof {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A tag byte did not name any variant of the expected type.
    BadTag {
        /// Human-readable name of the type being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u64,
    },
    /// A length prefix was implausibly large for the remaining input.
    BadLength {
        /// The decoded element count.
        len: u64,
        /// Bytes remaining in the input.
        remaining: usize,
    },
    /// A string section was not valid UTF-8.
    BadUtf8,
    /// A group of a sparse word array was empty or ran past the array's
    /// declared length.
    BadSparseGroup {
        /// Words the group covers (zero run + literal run).
        covers: u64,
        /// Words of the declared length still uncovered before it.
        room: usize,
    },
    /// Bytes were left over after a value that should fill its input
    /// ([`Codec::from_bytes`]).
    TrailingBytes {
        /// Bytes left unread.
        remaining: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::UnexpectedEof { needed, remaining } => write!(
                f,
                "unexpected end of input: needed {needed} bytes, {remaining} remaining"
            ),
            CodecError::BadTag { what, tag } => write!(f, "invalid tag {tag} for {what}"),
            CodecError::BadLength { len, remaining } => write!(
                f,
                "length prefix {len} exceeds remaining input ({remaining} bytes)"
            ),
            CodecError::BadUtf8 => f.write_str("string section is not valid UTF-8"),
            CodecError::BadSparseGroup { covers, room } => write!(
                f,
                "sparse array group covers {covers} words with {room} left to cover"
            ),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} bytes left over after the value")
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Longest word array the sparse encoding carries: 2^28 words (1 GiB of
/// simulated memory in one store; a paper-scale machine's largest array is
/// under 2^24). A zero run costs eight bytes whatever its length, so a
/// sparse array's decoded size is not bounded by its input; this bounds it
/// instead, and [`Decoder::take_u32_sparse`] lets a caller that knows the
/// size bound it tighter.
pub const SPARSE_MAX_WORDS: usize = 1 << 28;

/// Zero runs shorter than this stay inside a literal run: a group header
/// is two words, so eliding fewer than four saves next to nothing and
/// costs a group.
const SPARSE_MIN_ZERO_RUN: usize = 4;

/// Append-only byte-buffer writer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends an `f64` as its IEEE-754 bit pattern (lossless).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends a length-prefixed raw byte section.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed slice of `u32` words.
    pub fn put_u32_slice(&mut self, words: &[u32]) {
        self.put_usize(words.len());
        for &w in words {
            self.put_u32(w);
        }
    }

    /// Appends a word array with its zero runs elided: the length as a
    /// `u64`, then groups `(zeros: u32, literals: u32, literals × u32)`
    /// until the length is covered. A group's zero run is implied, its
    /// literal run follows verbatim; a literal run ends at the next run of
    /// at least four zero words (shorter gaps stay literal) or at the end
    /// of the array. The encoding of a given array is unique, so equal
    /// machine states still produce equal bytes. Decodes to exactly what
    /// [`Encoder::put_u32_slice`] would have carried.
    ///
    /// # Panics
    ///
    /// Panics if `words` is longer than [`SPARSE_MAX_WORDS`], which no
    /// decoder would accept back.
    pub fn put_u32_sparse(&mut self, words: &[u32]) {
        self.put_u32_sparse_pieces(words.len(), [SparsePiece::Words(words)]);
    }

    /// [`Encoder::put_u32_sparse`] of the `len`-word array that `pieces`
    /// make in order — the same bytes however the array is cut — for an
    /// array not held in one slice. A [`SparsePiece::Zeros`] is counted,
    /// never scanned.
    ///
    /// # Panics
    ///
    /// Panics if `len` is over [`SPARSE_MAX_WORDS`] or the pieces do not
    /// add up to `len` words.
    pub fn put_u32_sparse_pieces<'a>(
        &mut self,
        len: usize,
        pieces: impl IntoIterator<Item = SparsePiece<'a>>,
    ) {
        assert!(
            len <= SPARSE_MAX_WORDS,
            "word array of {len} exceeds the sparse codec's ceiling"
        );
        self.put_usize(len);
        let mut runs = SparseRuns::default();
        let mut covered = 0;
        for piece in pieces {
            match piece {
                SparsePiece::Zeros(n) => {
                    covered += n;
                    runs.zeros(self, n);
                }
                SparsePiece::Words(words) => {
                    covered += words.len();
                    runs.words(self, words);
                }
            }
        }
        assert_eq!(covered, len, "sparse pieces cover {covered} of {len} words");
        runs.finish(self);
    }

    /// Appends a length-prefixed slice of `u64` values.
    pub fn put_u64_slice(&mut self, values: &[u64]) {
        self.put_usize(values.len());
        for &v in values {
            self.put_u64(v);
        }
    }
}

/// A stretch of the word array [`Encoder::put_u32_sparse_pieces`] encodes.
#[derive(Debug, Clone, Copy)]
pub enum SparsePiece<'a> {
    /// This many words, all zero.
    Zeros(usize),
    /// These words.
    Words(&'a [u32]),
}

/// The group rule of [`Encoder::put_u32_sparse`], fed a piece at a time.
#[derive(Default)]
struct SparseRuns {
    /// Where the open group's literal count sits in the buffer, written
    /// when the group closes; `None` between groups.
    open: Option<usize>,
    /// Literal words the open group has written.
    literals: usize,
    /// Zero words seen and not yet written: the next group's zero run
    /// between groups, or, in an open group, a gap still shorter than
    /// [`SPARSE_MIN_ZERO_RUN`] that becomes literal if a non-zero word
    /// follows.
    zeros: usize,
}

impl SparseRuns {
    fn zeros(&mut self, enc: &mut Encoder, n: usize) {
        self.zeros += n;
        if self.open.is_some() && self.zeros >= SPARSE_MIN_ZERO_RUN {
            self.close(enc);
        }
    }

    fn words(&mut self, enc: &mut Encoder, mut words: &[u32]) {
        while !words.is_empty() {
            if self.open.is_none() {
                let zeros = words.iter().position(|&w| w != 0).unwrap_or(words.len());
                self.zeros += zeros;
                words = &words[zeros..];
                if words.is_empty() {
                    return;
                }
                enc.put_u32(self.zeros as u32);
                self.open = Some(enc.buf.len());
                enc.put_u32(0);
                self.zeros = 0;
            }
            // The open literal run reaches the last non-zero word before
            // the gap (carried in from the last piece) grows long enough.
            let mut gap = self.zeros;
            let mut end = words.len();
            let mut last = None;
            for (i, &w) in words.iter().enumerate() {
                if w != 0 {
                    gap = 0;
                    last = Some(i);
                    continue;
                }
                gap += 1;
                if gap == SPARSE_MIN_ZERO_RUN {
                    end = i + 1;
                    break;
                }
            }
            if let Some(last) = last {
                self.put_literals(enc, &words[..=last]);
            }
            self.zeros = gap;
            words = &words[end..];
            if gap == SPARSE_MIN_ZERO_RUN {
                self.close(enc);
            }
        }
    }

    /// Writes the pending gap, then `words`, into the open group.
    fn put_literals(&mut self, enc: &mut Encoder, words: &[u32]) {
        enc.buf.reserve(4 * (self.zeros + words.len()));
        for _ in 0..self.zeros {
            enc.put_u32(0);
        }
        for &w in words {
            enc.put_u32(w);
        }
        self.literals += self.zeros + words.len();
        self.zeros = 0;
    }

    fn close(&mut self, enc: &mut Encoder) {
        if let Some(at) = self.open.take() {
            enc.buf[at..at + 4].copy_from_slice(&(self.literals as u32).to_le_bytes());
            self.literals = 0;
        }
    }

    /// Ends the array: a short gap at its end stays literal, and a zero
    /// run with no group open is a group of its own.
    fn finish(mut self, enc: &mut Encoder) {
        if self.open.is_some() {
            self.put_literals(enc, &[]);
            self.close(enc);
        } else if self.zeros > 0 {
            enc.put_u32(self.zeros as u32);
            enc.put_u32(0);
        }
    }
}

/// Where [`Decoder::take_u32_sparse_into`] puts a sparse word array.
pub trait SparseSink {
    /// Starts the array afresh as `len` zero words, before any literal
    /// run: every word no run covers stays zero.
    fn reset(&mut self, len: usize);

    /// Stores a literal run whose first word is word `at`; the run lies
    /// within the declared length.
    fn put_run(&mut self, at: usize, words: impl ExactSizeIterator<Item = u32>);
}

/// A flat array, allocated zeroed once: memory touched follows the
/// literal words.
impl SparseSink for Vec<u32> {
    fn reset(&mut self, len: usize) {
        *self = vec![0; len];
    }

    fn put_run(&mut self, at: usize, words: impl ExactSizeIterator<Item = u32>) {
        for (w, v) in self[at..].iter_mut().zip(words) {
            *w = v;
        }
    }
}

/// Bounds-checked reader over encoded bytes.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Whether every byte has been consumed.
    pub fn is_finished(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn take_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, CodecError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, CodecError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn take_usize(&mut self) -> Result<usize, CodecError> {
        Ok(self.take_u64()? as usize)
    }

    /// Reads an `f64` from its IEEE-754 bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Reads a `bool`; any byte other than 0/1 is a [`CodecError::BadTag`].
    pub fn take_bool(&mut self) -> Result<bool, CodecError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(CodecError::BadTag {
                what: "bool",
                tag: u64::from(t),
            }),
        }
    }

    /// Reads a length prefix, validating it against the remaining input
    /// assuming at least `min_elem_bytes` bytes per element.
    pub fn take_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let len = self.take_u64()?;
        let need = len.saturating_mul(min_elem_bytes.max(1) as u64);
        if need > self.remaining() as u64 {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        Ok(len as usize)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String, CodecError> {
        let len = self.take_len(1)?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::BadUtf8)
    }

    /// Reads a length-prefixed raw byte section.
    pub fn take_bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let len = self.take_len(1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Reads a length-prefixed slice of `u32` words.
    pub fn take_u32_vec(&mut self) -> Result<Vec<u32>, CodecError> {
        let len = self.take_len(4)?;
        (0..len).map(|_| self.take_u32()).collect()
    }

    /// Reads a word array written by [`Encoder::put_u32_sparse`] into a
    /// `Vec` ([`Decoder::take_u32_sparse_into`]).
    ///
    /// # Errors
    ///
    /// As [`Decoder::take_u32_sparse_into`].
    pub fn take_u32_sparse(&mut self, max_words: usize) -> Result<Vec<u32>, CodecError> {
        let mut words = Vec::new();
        self.take_u32_sparse_into(max_words, &mut words)?;
        Ok(words)
    }

    /// Reads a word array written by [`Encoder::put_u32_sparse`] into
    /// `sink`. The declared length is checked against `max_words` (and
    /// [`SPARSE_MAX_WORDS`]) before the sink sees it — a caller whose
    /// configuration fixes the size passes that size — and the sink is
    /// handed only the literal runs, so memory touched follows the
    /// literal words present in the input, never a zero run's claim.
    ///
    /// # Errors
    ///
    /// [`CodecError::BadLength`] for a declared length over the limit,
    /// [`CodecError::BadSparseGroup`] for an empty group or one that runs
    /// past the declared length, [`CodecError::UnexpectedEof`] on
    /// truncation. The sink may hold part of the array by then.
    pub fn take_u32_sparse_into(
        &mut self,
        max_words: usize,
        sink: &mut impl SparseSink,
    ) -> Result<(), CodecError> {
        let len = self.take_u64()?;
        if len > max_words.min(SPARSE_MAX_WORDS) as u64 {
            return Err(CodecError::BadLength {
                len,
                remaining: self.remaining(),
            });
        }
        let len = len as usize;
        sink.reset(len);
        let mut at = 0;
        while at < len {
            let zeros = self.take_u32()?;
            let literals = self.take_u32()?;
            let room = len - at;
            let covers = u64::from(zeros) + u64::from(literals);
            if covers == 0 || covers > room as u64 {
                return Err(CodecError::BadSparseGroup { covers, room });
            }
            // Both runs now fit the array, hence `usize`.
            let bytes = self.take(4 * literals as usize)?;
            at += zeros as usize;
            if literals > 0 {
                sink.put_run(
                    at,
                    bytes
                        .chunks_exact(4)
                        .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
                );
            }
            at += literals as usize;
        }
        Ok(())
    }

    /// Reads a length-prefixed slice of `u64` values.
    pub fn take_u64_vec(&mut self) -> Result<Vec<u64>, CodecError> {
        let len = self.take_len(8)?;
        (0..len).map(|_| self.take_u64()).collect()
    }
}

/// FNV-1a-64 of no bytes: the state [`fnv1a64_extend`] starts from.
pub const FNV1A64_INIT: u64 = 0xcbf2_9ce4_8422_2325;

/// Continues an FNV-1a-64 hash over `bytes`, for data hashed in pieces
/// (a frame streamed to a file): extending [`FNV1A64_INIT`] over the
/// pieces in order equals [`fnv1a64`] of their concatenation.
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit hash — the workspace's standard fingerprint function,
/// reused as the snapshot checksum.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_INIT, bytes)
}

/// A value with one snapshot layout: [`Codec::decode`] reads back exactly
/// what [`Codec::encode`] wrote. Implemented here for the scalars,
/// `String`, `Option`, `Vec`, `VecDeque`, `BTreeMap`, pairs and triples,
/// and by [`record!`](crate::record) for every record declared with it.
pub trait Codec: Sized {
    /// The fewest bytes an encoding takes: what a collection's length
    /// prefix is checked against ([`Decoder::take_len`]).
    const MIN_BYTES: usize;

    /// Appends the value.
    fn encode(&self, enc: &mut Encoder);

    /// Reads a value written by [`Codec::encode`].
    ///
    /// # Errors
    ///
    /// A [`CodecError`] on truncated or malformed input.
    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError>;

    /// The value's encoding on its own.
    fn to_bytes(&self) -> Vec<u8> {
        let mut enc = Encoder::new();
        self.encode(&mut enc);
        enc.into_bytes()
    }

    /// Decodes a value that fills `bytes` exactly.
    ///
    /// # Errors
    ///
    /// As [`Codec::decode`], and [`CodecError::TrailingBytes`] when bytes
    /// are left over.
    fn from_bytes(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut dec = Decoder::new(bytes);
        let value = Self::decode(&mut dec)?;
        match dec.remaining() {
            0 => Ok(value),
            remaining => Err(CodecError::TrailingBytes { remaining }),
        }
    }
}

macro_rules! scalar_codecs {
    ($($t:ty: $put:ident, $take:ident, $bytes:expr;)*) => {$(
        impl Codec for $t {
            const MIN_BYTES: usize = $bytes;

            fn encode(&self, enc: &mut Encoder) {
                enc.$put(*self);
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                dec.$take()
            }
        }
    )*};
}

scalar_codecs! {
    u8: put_u8, take_u8, 1;
    u32: put_u32, take_u32, 4;
    u64: put_u64, take_u64, 8;
    usize: put_usize, take_usize, 8;
    f64: put_f64, take_f64, 8;
    bool: put_bool, take_bool, 1;
}

impl Codec for String {
    const MIN_BYTES: usize = 8;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_str(self);
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        dec.take_str()
    }
}

impl<T: Codec> Codec for Option<T> {
    const MIN_BYTES: usize = 1;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(self.is_some());
        if let Some(v) = self {
            v.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Ok(if dec.take_bool()? {
            Some(T::decode(dec)?)
        } else {
            None
        })
    }
}

macro_rules! sequence_codecs {
    ($($seq:ident)*) => {$(
        impl<T: Codec> Codec for $seq<T> {
            const MIN_BYTES: usize = 8;

            fn encode(&self, enc: &mut Encoder) {
                enc.put_usize(self.len());
                for v in self {
                    v.encode(enc);
                }
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                let len = dec.take_len(T::MIN_BYTES)?;
                (0..len).map(|_| T::decode(dec)).collect()
            }
        }
    )*};
}

sequence_codecs!(Vec VecDeque);

impl<K: Codec + Ord, V: Codec> Codec for BTreeMap<K, V> {
    const MIN_BYTES: usize = 8;

    fn encode(&self, enc: &mut Encoder) {
        enc.put_usize(self.len());
        for (k, v) in self {
            k.encode(enc);
            v.encode(enc);
        }
    }

    fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
        Vec::<(K, V)>::decode(dec).map(|pairs| pairs.into_iter().collect())
    }
}

macro_rules! tuple_codecs {
    ($(($($t:ident $i:tt),*))*) => {$(
        impl<$($t: Codec),*> Codec for ($($t,)*) {
            const MIN_BYTES: usize = 0 $(+ $t::MIN_BYTES)*;

            fn encode(&self, enc: &mut Encoder) {
                $(self.$i.encode(enc);)*
            }

            fn decode(dec: &mut Decoder<'_>) -> Result<Self, CodecError> {
                Ok(($($t::decode(dec)?,)*))
            }
        }
    )*};
}

tuple_codecs!((A 0, B 1) (A 0, B 1, C 2));

/// Decodes a `T` from the front of `bytes` and, when one is there, holds
/// it to the laws every [`Codec`] keeps: it re-encodes to exactly the
/// bytes it was read from (so it round-trips), it takes at least
/// [`Codec::MIN_BYTES`], and every strict prefix of its encoding decodes
/// to a [`CodecError`]. Returns the bytes the value took, or `None` when
/// `bytes` does not start with one. Property tests and fuzzers run it over
/// arbitrary input, where decoding must never panic.
///
/// # Panics
///
/// When a law fails.
pub fn check_codec_laws<T: Codec>(bytes: &[u8]) -> Option<usize> {
    let what = std::any::type_name::<T>();
    let mut dec = Decoder::new(bytes);
    let value = T::decode(&mut dec).ok()?;
    let used = bytes.len() - dec.remaining();
    assert_eq!(value.to_bytes(), bytes[..used], "{what} re-encodes");
    assert!(used >= T::MIN_BYTES, "{what} under MIN_BYTES");
    for len in 0..used {
        let prefix = T::decode(&mut Decoder::new(&bytes[..len]));
        assert!(prefix.is_err(), "{what} from {len} bytes");
    }
    Some(used)
}

/// Declares a snapshot record once: a struct whose layout is its fields in
/// declaration order, or an enum whose layout is a `u8` tag, written
/// `= tag` after each variant, then that variant's fields. An enum names
/// itself after a colon for the [`CodecError::BadTag`] an unknown tag
/// reads as. Variants may be unit, struct-like, or tuples of one field.
///
/// From that one declaration it generates the type (attributes, docs and
/// visibilities as written; the tags are not discriminants) and its
/// [`Codec`], every field through its own `Codec`. Adding, removing or
/// reordering a field is one edit here, and the two halves cannot
/// disagree.
///
/// ```
/// use simt_isa::codec::{Codec, CodecError};
///
/// simt_isa::record! {
///     /// Why a unit stalled.
///     #[derive(Debug, Clone, PartialEq, Eq)]
///     pub enum Stall: "stall cause" {
///         /// Nothing to do.
///         Idle = 0,
///         /// Waiting on one line.
///         Miss { line: u32, since: u64 } = 1,
///         /// Waiting on another unit.
///         Blocked(Option<usize>) = 2,
///     }
/// }
///
/// simt_isa::record! {
///     /// One unit's stall log.
///     #[derive(Debug, Clone, PartialEq, Eq)]
///     pub struct StallLog {
///         pub unit: String,
///         pub stalls: Vec<Stall>,
///     }
/// }
///
/// let log = StallLog {
///     unit: "sm0".into(),
///     stalls: vec![Stall::Idle, Stall::Miss { line: 7, since: 9 }, Stall::Blocked(None)],
/// };
/// let bytes = log.to_bytes();
/// assert_eq!(bytes.len(), (8 + 3) + 8 + 1 + (1 + 4 + 8) + (1 + 1));
/// assert_eq!(StallLog::from_bytes(&bytes)?, log);
/// assert_eq!(
///     Stall::from_bytes(&[3]),
///     Err(CodecError::BadTag { what: "stall cause", tag: 3 })
/// );
/// # Ok::<(), CodecError>(())
/// ```
#[macro_export]
macro_rules! record {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 0 $(+ <$fty as $crate::codec::Codec>::MIN_BYTES)*;

            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                $($crate::codec::Codec::encode(&self.$field, enc);)*
            }

            fn decode(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                ::std::result::Result::Ok($name {
                    $($field: $crate::codec::Codec::decode(dec)?,)*
                })
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident: $what:literal {
            $(
                $(#[$vmeta:meta])*
                $variant:ident
                $({ $($(#[$fmeta:meta])* $field:ident: $fty:ty),* $(,)? })?
                $(($inner:ty))?
                = $tag:literal
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $($(#[$fmeta])* $field: $fty),* })? $(($inner))?,
            )*
        }

        impl $crate::codec::Codec for $name {
            const MIN_BYTES: usize = 1;

            fn encode(&self, enc: &mut $crate::codec::Encoder) {
                match self {
                    $(Self::$variant { $($($field,)*)? .. } => {
                        enc.put_u8($tag);
                        $($($crate::codec::Codec::encode($field, enc);)*)?
                        $(if let Self::$variant(inner) = self {
                            <$inner as $crate::codec::Codec>::encode(inner, enc);
                        })?
                    })*
                }
            }

            fn decode(
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> ::std::result::Result<Self, $crate::codec::CodecError> {
                let tag = dec.take_u8()?;
                ::std::result::Result::Ok(match tag {
                    $($tag => Self::$variant
                        $({ $($field: $crate::codec::Codec::decode(dec)?),* })?
                        $((<$inner as $crate::codec::Codec>::decode(dec)?))?,)*
                    _ => {
                        return ::std::result::Result::Err($crate::codec::CodecError::BadTag {
                            what: $what,
                            tag: u64::from(tag),
                        })
                    }
                })
            }
        }
    };
}

/// A fixed-size set of counters that add, encode and restore as a unit:
/// what [`counters!`](crate::counters) generates for a set without
/// members, and `[u64; N]` of summed counters. A windowed timeline keeps
/// one per window.
pub trait CounterSet: Default {
    /// Bytes [`CounterSet::encode_state`] writes.
    const ENCODED_BYTES: usize;
    /// Adds `other` in, counter by counter.
    fn merge(&mut self, other: &Self);
    /// Writes the counters.
    fn encode_state(&self, enc: &mut Encoder);
    /// Restores what [`CounterSet::encode_state`] wrote.
    ///
    /// # Errors
    ///
    /// [`CodecError::UnexpectedEof`] on truncated input.
    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError>;
    /// The counters as `u64`, in column order.
    fn values(&self) -> impl AsRef<[u64]>;
}

impl<const N: usize> CounterSet for [u64; N]
where
    [u64; N]: Default,
{
    const ENCODED_BYTES: usize = 8 * N;

    fn merge(&mut self, other: &Self) {
        for (d, s) in self.iter_mut().zip(other) {
            *d += s;
        }
    }

    fn encode_state(&self, enc: &mut Encoder) {
        self.iter().for_each(|&v| enc.put_u64(v));
    }

    fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
        for v in self {
            *v = dec.take_u64()?;
        }
        Ok(())
    }

    fn values(&self) -> impl AsRef<[u64]> {
        *self
    }
}

/// Declares a counter set once: a struct of `u64`, `u32` or `usize`
/// fields, each tagged `= sum` or `= max` for how two sets combine.
///
/// From that one declaration it generates the struct (attributes, field
/// docs and visibilities as written) and, in declaration order:
///
/// - `NAMES`, the field names, and `values()`, the values widened to
///   `u64` — what every printer (CSV header and rows, `/healthz`, a stats
///   block) reads;
/// - `merge(&other)`: `+=` for `sum` fields, `max` for `max` fields;
/// - `encode_state`/`restore_state`, one fixed-width put/take per field
///   (`u64`, `u32` and `usize` as [`Encoder::put_u64`],
///   [`Encoder::put_u32`] and [`Encoder::put_usize`]), and
///   `ENCODED_BYTES`, what they occupy;
/// - `Default`, all zeros, and [`CounterSet`], forwarding to the above.
///
/// A set that also owns non-counter state declares it after the struct in
/// a `members { … }` block. Each member must have `merge(&mut self, &T)`,
/// `encode_state` and `restore_state` of its own: `merge` and the codec
/// run it after the counters, `NAMES`/`values` leave it out, and in place
/// of `Default` the set gets `with_members(…)`, zeroed counters around the
/// members given. Such a set is no [`CounterSet`]: its size is not fixed.
/// Adding a counter is one line here; nothing else names it.
///
/// ```
/// simt_isa::counters! {
///     /// Work done by one unit.
///     #[derive(Debug, Clone, Copy, PartialEq, Eq)]
///     pub struct UnitStats {
///         /// Requests served.
///         pub served: u64 = sum,
///         /// Deepest the queue ever got.
///         pub max_depth: u32 = max,
///     }
/// }
///
/// let mut a = UnitStats { served: 3, max_depth: 7 };
/// a.merge(&UnitStats { served: 4, max_depth: 2 });
/// assert_eq!(UnitStats::NAMES, ["served", "max_depth"]);
/// assert_eq!(a.values(), [7, 7]);
///
/// let mut enc = simt_isa::codec::Encoder::new();
/// a.encode_state(&mut enc);
/// let bytes = enc.into_bytes();
/// assert_eq!(bytes.len(), UnitStats::ENCODED_BYTES);
/// let mut back = UnitStats::default();
/// back.restore_state(&mut simt_isa::codec::Decoder::new(&bytes))?;
/// assert_eq!(back, a);
/// # Ok::<(), simt_isa::codec::CodecError>(())
/// ```
#[macro_export]
macro_rules! counters {
    (@merge sum, $a:expr, $b:expr) => { $a += $b };
    (@merge max, $a:expr, $b:expr) => { $a = $a.max($b) };
    (@put $enc:ident, u64, $v:expr) => { $enc.put_u64($v) };
    (@put $enc:ident, u32, $v:expr) => { $enc.put_u32($v) };
    (@put $enc:ident, usize, $v:expr) => { $enc.put_usize($v) };
    (@take $dec:ident, u64) => { $dec.take_u64()? };
    (@take $dec:ident, u32) => { $dec.take_u32()? };
    (@take $dec:ident, usize) => { $dec.take_usize()? };
    (@bytes u64) => { 8 };
    (@bytes u32) => { 4 };
    (@bytes usize) => { 8 };
    (@wide u64, $v:expr) => { $v };
    (@wide u32, $v:expr) => { u64::from($v) };
    (@wide usize, $v:expr) => { $v as u64 };
    (@impl $name:ident [$($field:ident $fty:ident $merge:ident)*] [$($member:ident)*]) => {
        impl $name {
            /// Counter names, in declaration order (members excluded).
            pub const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];

            /// Bytes the counters occupy in a snapshot (members excluded).
            pub const ENCODED_BYTES: usize = 0 $(+ $crate::counters!(@bytes $fty))*;

            /// Counter values as `u64`, in [`Self::NAMES`] order.
            pub fn values(&self) -> [u64; Self::NAMES.len()] {
                [$($crate::counters!(@wide $fty, self.$field)),*]
            }

            /// Adds `other` in, field by field: sums add, high-water marks
            /// keep the larger; then merges each member.
            pub fn merge(&mut self, other: &Self) {
                $($crate::counters!(@merge $merge, self.$field, other.$field);)*
                $(self.$member.merge(&other.$member);)*
            }

            /// Writes every counter in declaration order, then each member.
            pub fn encode_state(&self, enc: &mut $crate::codec::Encoder) {
                $($crate::counters!(@put enc, $fty, self.$field);)*
                $(self.$member.encode_state(enc);)*
            }

            /// Restores what [`Self::encode_state`] wrote.
            ///
            /// # Errors
            ///
            /// A [`CodecError`]($crate::codec::CodecError) on truncated
            /// input, or whatever a member's restore refuses.
            pub fn restore_state(
                &mut self,
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<(), $crate::codec::CodecError> {
                $(self.$field = $crate::counters!(@take dec, $fty);)*
                $(self.$member.restore_state(dec)?;)*
                Ok(())
            }
        }
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ident = $merge:ident),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
        }

        impl Default for $name {
            fn default() -> Self {
                $name { $($field: 0),* }
            }
        }

        impl $crate::codec::CounterSet for $name {
            const ENCODED_BYTES: usize = $name::ENCODED_BYTES;

            fn merge(&mut self, other: &Self) {
                $name::merge(self, other);
            }

            fn encode_state(&self, enc: &mut $crate::codec::Encoder) {
                $name::encode_state(self, enc);
            }

            fn restore_state(
                &mut self,
                dec: &mut $crate::codec::Decoder<'_>,
            ) -> Result<(), $crate::codec::CodecError> {
                $name::restore_state(self, dec)
            }

            fn values(&self) -> impl AsRef<[u64]> {
                $name::values(self)
            }
        }

        $crate::counters!(@impl $name [$($field $fty $merge)*] []);
    };
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$fmeta:meta])* $fvis:vis $field:ident: $fty:ident = $merge:ident),* $(,)?
        }
        members {
            $($(#[$mmeta:meta])* $mvis:vis $member:ident: $mty:ty),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $($(#[$fmeta])* $fvis $field: $fty,)*
            $($(#[$mmeta])* $mvis $member: $mty,)*
        }

        impl $name {
            /// Zeroed counters around the members given.
            $vis fn with_members($($member: $mty),*) -> Self {
                $name { $($field: 0,)* $($member,)* }
            }
        }

        $crate::counters!(@impl $name [$($field $fty $merge)*] [$($member)*]);
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_roundtrip() {
        let mut e = Encoder::new();
        e.put_u8(7);
        e.put_u32(0xdead_beef);
        e.put_u64(u64::MAX - 3);
        e.put_usize(1234);
        e.put_f64(3.25);
        e.put_bool(true);
        e.put_str("warp");
        e.put_u32_slice(&[1, 2, 3]);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u8().unwrap(), 7);
        assert_eq!(d.take_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.take_u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.take_usize().unwrap(), 1234);
        assert_eq!(d.take_f64().unwrap(), 3.25);
        assert!(d.take_bool().unwrap());
        assert_eq!(d.take_str().unwrap(), "warp");
        assert_eq!(d.take_u32_vec().unwrap(), vec![1, 2, 3]);
        assert!(d.is_finished());
    }

    #[test]
    fn truncated_input_errors_instead_of_panicking() {
        let mut e = Encoder::new();
        e.put_u64(42);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes[..5]);
        assert!(matches!(
            d.take_u64(),
            Err(CodecError::UnexpectedEof { needed: 8, .. })
        ));
    }

    #[test]
    fn absurd_length_prefix_rejected() {
        let mut e = Encoder::new();
        e.put_u64(u64::MAX / 2);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(
            d.take_u32_vec(),
            Err(CodecError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut d = Decoder::new(&[2]);
        assert!(matches!(d.take_bool(), Err(CodecError::BadTag { .. })));
    }

    #[test]
    fn nan_bits_survive_roundtrip() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut e = Encoder::new();
        e.put_f64(weird);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_f64().unwrap().to_bits(), weird.to_bits());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // Hashing in pieces is hashing the whole.
        let pieces = fnv1a64_extend(fnv1a64_extend(FNV1A64_INIT, b"foo"), b"bar");
        assert_eq!(pieces, fnv1a64(b"foobar"));
    }

    /// A member for the `counters!` test: a list whose merge appends.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Log(Vec<u64>);

    impl Log {
        fn merge(&mut self, other: &Log) {
            self.0.extend(&other.0);
        }

        fn encode_state(&self, enc: &mut Encoder) {
            enc.put_u64_slice(&self.0);
        }

        fn restore_state(&mut self, dec: &mut Decoder<'_>) -> Result<(), CodecError> {
            self.0 = dec.take_u64_vec()?;
            Ok(())
        }
    }

    crate::counters! {
        #[derive(Debug, Clone, PartialEq, Eq)]
        struct Mixed {
            wide: u64 = sum,
            narrow: u32 = max,
            size: usize = max,
            count: u32 = sum,
        }
        members {
            log: Log,
        }
    }

    #[test]
    fn counters_generate_declared_names_merge_and_bytes() {
        let mut a = Mixed::with_members(Log(vec![1]));
        assert_eq!(a.values(), [0; 4]);
        (a.wide, a.narrow, a.size, a.count) = (10, 7, 2, 3);
        a.merge(&Mixed {
            wide: 5,
            narrow: 9,
            size: 1,
            count: 4,
            log: Log(vec![2, 3]),
        });
        assert_eq!(Mixed::NAMES, ["wide", "narrow", "size", "count"]);
        assert_eq!(a.values(), [15, 9, 2, 7]);
        assert_eq!(a.log, Log(vec![1, 2, 3]));
        // Declaration order, each field at its own width, then the member.
        let mut want = Encoder::new();
        want.put_u64(15);
        want.put_u32(9);
        want.put_usize(2);
        want.put_u32(7);
        assert_eq!(want.len(), Mixed::ENCODED_BYTES);
        want.put_u64_slice(&[1, 2, 3]);
        let want = want.into_bytes();
        let mut enc = Encoder::new();
        a.encode_state(&mut enc);
        assert_eq!(enc.into_bytes(), want);
        let mut back = Mixed::with_members(Log(Vec::new()));
        let mut dec = Decoder::new(&want);
        back.restore_state(&mut dec).unwrap();
        assert!(dec.is_finished());
        assert_eq!(back, a);
        // Every truncation is a typed error, in the counters or the member.
        for len in 0..want.len() {
            assert!(
                back.restore_state(&mut Decoder::new(&want[..len])).is_err(),
                "truncated to {len}"
            );
        }
    }

    fn sparse_bytes(words: &[u32]) -> Vec<u8> {
        let mut e = Encoder::new();
        e.put_u32_sparse(words);
        e.into_bytes()
    }

    fn sparse_roundtrip(words: &[u32]) -> Vec<u8> {
        let bytes = sparse_bytes(words);
        let mut d = Decoder::new(&bytes);
        assert_eq!(d.take_u32_sparse(words.len()).unwrap(), words);
        assert!(d.is_finished());
        bytes
    }

    #[test]
    fn sparse_roundtrips_the_shapes_a_machine_holds() {
        // Empty: the length and nothing else.
        assert_eq!(sparse_roundtrip(&[]).len(), 8);
        // Never written: one group, whatever the size.
        assert_eq!(sparse_roundtrip(&[0; 4096]).len(), 16);
        // Fully written: one group around the dense words.
        let dense: Vec<u32> = (1..=100).collect();
        assert_eq!(sparse_roundtrip(&dense).len(), 16 + 400);
        // Zero runs at either end, and both.
        let mut ends = vec![0u32; 300];
        ends[100..200].copy_from_slice(&dense);
        assert_eq!(sparse_roundtrip(&ends).len(), 8 + 8 + 400 + 8);
        sparse_roundtrip(&ends[100..]);
        sparse_roundtrip(&ends[..200]);
        // Gaps of 1-3 words stay literal (one group); 4-8 split the run.
        for gap in 1..=8usize {
            let mut words = vec![7u32; 5];
            words.extend(std::iter::repeat_n(0, gap));
            words.extend([9u32; 5]);
            let groups = if gap < SPARSE_MIN_ZERO_RUN { 1 } else { 2 };
            let literals = if gap < SPARSE_MIN_ZERO_RUN {
                10 + gap
            } else {
                10
            };
            assert_eq!(
                sparse_roundtrip(&words).len(),
                8 + 8 * groups + 4 * literals,
                "gap of {gap}"
            );
        }
    }

    #[test]
    fn sparse_length_is_checked_before_allocating() {
        // A well-formed all-zero array of 2^28 + 1 words is 16 bytes of
        // input; it must be refused by its length, at any caller limit.
        let mut e = Encoder::new();
        e.put_u64(SPARSE_MAX_WORDS as u64 + 1);
        e.put_u32(u32::MAX);
        e.put_u32(0);
        let bytes = e.into_bytes();
        assert!(matches!(
            Decoder::new(&bytes).take_u32_sparse(usize::MAX),
            Err(CodecError::BadLength { .. })
        ));
        // A caller that knows the size refuses anything larger.
        let bytes = sparse_bytes(&[0; 65]);
        assert!(matches!(
            Decoder::new(&bytes).take_u32_sparse(64),
            Err(CodecError::BadLength { len: 65, .. })
        ));
        assert_eq!(
            Decoder::new(&bytes).take_u32_sparse(65).unwrap(),
            vec![0; 65]
        );
    }

    #[test]
    fn sparse_rejects_overrun_empty_groups_and_truncation() {
        // `len`, then `(zeros, literals)` groups whose literal words are 1.
        let frame = |len: u64, groups: &[(u32, u32)]| {
            let mut e = Encoder::new();
            e.put_u64(len);
            for &(zeros, literals) in groups {
                e.put_u32(zeros);
                e.put_u32(literals);
                for _ in 0..literals.min(16) {
                    e.put_u32(1);
                }
            }
            e.into_bytes()
        };
        let decode = |bytes: &[u8]| Decoder::new(bytes).take_u32_sparse(1 << 20);
        assert_eq!(
            decode(&frame(6, &[(2, 1), (3, 0)])).unwrap(),
            [0, 0, 1, 0, 0, 0]
        );
        // Zero run, literal run, or their sum past the declared length.
        for group in [(7, 0), (0, 7), (4, 3), (u32::MAX, u32::MAX)] {
            assert!(
                matches!(
                    decode(&frame(6, &[group])),
                    Err(CodecError::BadSparseGroup { room: 6, .. })
                ),
                "{group:?}"
            );
        }
        // An empty group would never advance.
        assert!(matches!(
            decode(&frame(6, &[(2, 1), (0, 0)])),
            Err(CodecError::BadSparseGroup { covers: 0, room: 3 })
        ));
        // Every truncation of a valid array is an error, not a short read.
        let good = sparse_bytes(&[0, 0, 0, 0, 0, 3, 4, 0, 0, 0, 0, 0, 0, 9]);
        for len in 0..good.len() {
            assert!(decode(&good[..len]).is_err(), "truncation to {len}");
        }
    }

    /// What the fuzzers hold the decoder to: it returns — at most
    /// `FUZZ_LIMIT` words or a `CodecError` — and a panic or a hang fails
    /// the test by itself.
    const FUZZ_LIMIT: usize = 4096;

    fn fuzz_sparse(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(words) = Decoder::new(bytes).take_u32_sparse(FUZZ_LIMIT) {
            prop_assert!(words.len() <= FUZZ_LIMIT);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// Seeded byte fuzzer, arbitrary input, because a snapshot read
        /// from disk is untrusted: random bytes behind a declared length
        /// on either side of the limit, so the group parser sees them and
        /// not only the length gate.
        #[test]
        fn sparse_decoder_survives_arbitrary_bytes(
            declared in 0u64..(2 * FUZZ_LIMIT as u64),
            body in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut bytes = declared.to_le_bytes().to_vec();
            bytes.extend(body);
            fuzz_sparse(&bytes)?;
        }

        /// Seeded byte fuzzer, mutated-valid input: a real encoding with
        /// one to three bytes overwritten.
        #[test]
        fn sparse_decoder_survives_mutated_encodings(
            words in proptest::collection::vec(prop_oneof![Just(0u32), Just(0u32), any::<u32>()], 0..200),
            hits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..4),
        ) {
            let mut bytes = sparse_bytes(&words);
            for (at, byte) in hits {
                let at = at as usize % bytes.len();
                bytes[at] = byte;
            }
            fuzz_sparse(&bytes)?;
        }
    }

    proptest! {
        /// Sparse and dense carry the same words: segments of a zero gap
        /// (0-40 words, so both sides of the split threshold) followed by
        /// a literal run, with or without a zero tail.
        #[test]
        fn sparse_decodes_to_what_dense_carries(
            segments in proptest::collection::vec(
                (0usize..41, proptest::collection::vec(1u32.., 0..7)),
                0..12,
            ),
            tail in 0usize..10,
        ) {
            let mut words = Vec::new();
            for (gap, literals) in &segments {
                words.extend(std::iter::repeat_n(0u32, *gap));
                words.extend(literals);
            }
            words.extend(std::iter::repeat_n(0u32, tail));
            let mut dense = Encoder::new();
            dense.put_u32_slice(&words);
            let dense = dense.into_bytes();
            let via_dense = Decoder::new(&dense).take_u32_vec().unwrap();
            let sparse = sparse_bytes(&words);
            let mut d = Decoder::new(&sparse);
            prop_assert_eq!(d.take_u32_sparse(words.len()).unwrap(), via_dense);
            prop_assert!(d.is_finished());
            // Never more than one group header over the dense bytes.
            prop_assert!(sparse.len() <= dense.len() + 8);
        }

        /// However an array is cut into pieces, and whichever all-zero
        /// pieces are handed over as a count, the bytes are those of the
        /// whole array in one slice.
        #[test]
        fn sparse_pieces_encode_as_the_whole_array(
            segments in proptest::collection::vec(
                (0usize..12, proptest::collection::vec(1u32.., 0..5)),
                0..10,
            ),
            tail in 0usize..10,
            cuts in proptest::collection::vec(any::<u16>(), 0..12),
            counted: bool,
        ) {
            let mut words = Vec::new();
            for (gap, literals) in &segments {
                words.extend(std::iter::repeat_n(0u32, *gap));
                words.extend(literals);
            }
            words.extend(std::iter::repeat_n(0u32, tail));
            let mut ends: Vec<usize> = cuts
                .iter()
                .map(|&at| at as usize % (words.len() + 1))
                .chain([words.len()])
                .collect();
            ends.sort_unstable();
            let mut from = 0;
            let mut pieces = Vec::new();
            for (i, end) in ends.into_iter().enumerate() {
                let piece = &words[from..end];
                // Alternate pieces count their zeros, starting with the
                // first or the second.
                pieces.push(if (i % 2 == 0) == counted && piece.iter().all(|&w| w == 0) {
                    SparsePiece::Zeros(piece.len())
                } else {
                    SparsePiece::Words(piece)
                });
                from = end;
            }
            let mut e = Encoder::new();
            e.put_u32_sparse_pieces(words.len(), pieces);
            prop_assert_eq!(e.into_bytes(), sparse_bytes(&words));
        }

        #[test]
        fn u64_roundtrip(v: u64) {
            let mut e = Encoder::new();
            e.put_u64(v);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_u64().unwrap(), v);
        }

        #[test]
        fn words_roundtrip(words in proptest::collection::vec(any::<u32>(), 1..64)) {
            let mut e = Encoder::new();
            e.put_u32_slice(&words);
            let bytes = e.into_bytes();
            let mut d = Decoder::new(&bytes);
            prop_assert_eq!(d.take_u32_vec().unwrap(), words.clone());
            prop_assert!(d.is_finished());
        }
    }
}
