//! Chunk-index recipes: the one form in which the durable store keeps an
//! image.
//!
//! The store never writes a pod's image bytes at `images/<ckpt>/<pod>`; it
//! writes a small *recipe* there — a [`ChunkIndex`] listing the chunks (by
//! digest and raw length) whose concatenation reproduces the logical image
//! byte-for-byte. The chunks themselves live once each under `chunks/`,
//! shared by every image that references them. An unchunked image is a
//! recipe with one chunk (none when the image is empty); a content-defined
//! split yields many, which is where cross-checkpoint and cross-rank
//! deduplication comes from.
//!
//! The recipe carries the image digest the manifest records: the store's
//! `recipe_digest`, the `digest64` of the recipe's own `(digest, len)`
//! list. Restore recomputes it from the list, checks it against the
//! manifest, and checks each chunk against its own digest — chunking is
//! invisible above the store, and a recipe whose list was reordered or
//! swapped is refused even with a valid record check.
//!
//! The wire form mirrors [`crate::manifest`]: its own magic + version
//! preamble followed by one framed record, version-gated so an older
//! reader refuses a newer recipe with a typed error instead of misparsing
//! it. Structural invariants the record check cannot see (zero-length chunks, chunk
//! lengths not summing to the logical length) are validated on parse and
//! surface as [`DecodeError::Inconsistent`].

use crate::error::{DecodeError, DecodeResult};
use crate::rw::{preamble_decode, preamble_encode, Decode, Encode, RecordReader, RecordWriter};

/// Magic bytes that start every serialized chunk index.
pub const CHUNK_INDEX_MAGIC: &[u8; 8] = b"ZAPCCHX\0";

/// Current chunk-index format version. Version 3 checks its record with
/// the low 32 bits of `digest64`.
pub const CHUNK_INDEX_VERSION: u32 = 3;

/// Record tag of the chunk-index body (disjoint from image and manifest
/// tags).
pub const CHUNK_INDEX_TAG: u16 = 0x0200;

/// Reference to one stored chunk: its content digest and raw length.
///
/// Chunks are keyed by the *pair* — two chunks with colliding digests but
/// different lengths never alias, and equal-length collisions are caught
/// by a byte-compare at store time (see the store's collision policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkRef {
    /// [`crate::crc::digest64`] of the chunk's raw (uncompressed) bytes.
    pub digest: u64,
    /// Raw (uncompressed) length of the chunk in bytes.
    pub len: u64,
}

impl Encode for ChunkRef {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.digest);
        w.put_u64(self.len);
    }
}

impl Decode for ChunkRef {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ChunkRef { digest: r.get_u64()?, len: r.get_u64()? })
    }
}

/// The recipe for reassembling one image from stored chunks.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ChunkIndex {
    /// Total length of the logical image in bytes.
    pub logical_len: u64,
    /// The image digest: `digest64` of the `(digest, len)` list of
    /// `chunks` (what the manifest records, and what restore recomputes
    /// from `chunks` before it reads one).
    pub digest: u64,
    /// Chunks in image order; their raw bytes concatenate to the image.
    pub chunks: Vec<ChunkRef>,
}

impl ChunkIndex {
    /// Serializes the index: magic, version, one framed record.
    pub fn to_bytes(&self) -> Vec<u8> {
        preamble_encode(CHUNK_INDEX_MAGIC, CHUNK_INDEX_VERSION, CHUNK_INDEX_TAG, self)
    }

    /// Parses and validates a serialized chunk index: magic, version,
    /// record check, full payload consumption, and the structural invariants
    /// (no zero-length chunk, chunk lengths sum to `logical_len`). Every
    /// way a recipe can be torn, truncated, or forged surfaces as a typed
    /// [`DecodeError`].
    pub fn from_bytes(bytes: &[u8]) -> DecodeResult<ChunkIndex> {
        let (magic, version, tag) = (CHUNK_INDEX_MAGIC, CHUNK_INDEX_VERSION, CHUNK_INDEX_TAG);
        let ix: ChunkIndex = preamble_decode(magic, version, tag, bytes)?;
        let mut sum: u64 = 0;
        for c in &ix.chunks {
            if c.len == 0 {
                return Err(DecodeError::Inconsistent { what: "zero-length chunk ref" });
            }
            sum = sum
                .checked_add(c.len)
                .ok_or(DecodeError::Inconsistent { what: "chunk length overflow" })?;
        }
        if sum != ix.logical_len {
            return Err(DecodeError::Inconsistent {
                what: "chunk lengths do not sum to logical length",
            });
        }
        Ok(ix)
    }
}

impl Encode for ChunkIndex {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.logical_len);
        w.put_u64(self.digest);
        w.put(&self.chunks);
    }
}

impl Decode for ChunkIndex {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ChunkIndex {
            logical_len: r.get_u64()?,
            digest: r.get_u64()?,
            chunks: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ChunkIndex {
        ChunkIndex {
            logical_len: 4096 + 512,
            digest: 0xABCD_EF01_2345_6789,
            chunks: vec![
                ChunkRef { digest: 0x1111, len: 4096 },
                ChunkRef { digest: 0x2222, len: 512 },
            ],
        }
    }

    #[test]
    fn chunk_index_round_trip() {
        let ix = sample();
        assert_eq!(ChunkIndex::from_bytes(&ix.to_bytes()).unwrap(), ix);
    }

    #[test]
    fn empty_image_round_trips() {
        let ix = ChunkIndex { logical_len: 0, digest: 0xCBF2_9CE4_8422_2325, chunks: vec![] };
        assert_eq!(ChunkIndex::from_bytes(&ix.to_bytes()).unwrap(), ix);
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(ChunkIndex::from_bytes(b"NOTACHX_____"), Err(DecodeError::BadMagic));
        assert_eq!(ChunkIndex::from_bytes(b"tiny"), Err(DecodeError::BadMagic));
        assert_eq!(ChunkIndex::from_bytes(b"ZAPCMAN\0\x01\0\0\0"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut bytes = sample().to_bytes();
        bytes[8] = 0x7F;
        assert!(matches!(
            ChunkIndex::from_bytes(&bytes),
            Err(DecodeError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(ChunkIndex::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_caught_by_the_record_check() {
        let mut bad = sample().to_bytes();
        let idx = 12 + 6 + 3;
        bad[idx] ^= 0xA5;
        assert!(matches!(
            ChunkIndex::from_bytes(&bad),
            Err(DecodeError::ChecksumMismatch { tag: CHUNK_INDEX_TAG, .. })
        ));
    }

    #[test]
    fn zero_length_chunk_rejected() {
        let mut ix = sample();
        ix.chunks.push(ChunkRef { digest: 0x3333, len: 0 });
        let err = ChunkIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert_eq!(err, DecodeError::Inconsistent { what: "zero-length chunk ref" });
    }

    #[test]
    fn length_sum_mismatch_rejected() {
        let mut ix = sample();
        ix.logical_len += 1;
        let err = ChunkIndex::from_bytes(&ix.to_bytes()).unwrap_err();
        assert_eq!(
            err,
            DecodeError::Inconsistent { what: "chunk lengths do not sum to logical length" }
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            ChunkIndex::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes { .. }) | Err(DecodeError::UnexpectedEof { .. })
        ));
    }
}
