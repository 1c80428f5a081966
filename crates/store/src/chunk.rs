//! Content-defined chunking with a Gear rolling hash.
//!
//! Fixed-size chunking deduplicates poorly: inserting one byte near the
//! front of an image shifts every later boundary, so nothing downstream
//! matches the previous checkpoint. Content-defined chunking (CDC) places
//! boundaries where the *data* says to — at positions where a rolling hash
//! of the recent bytes hits a mask — so identical runs chunk identically
//! no matter where they sit in the stream. That is what lets two ranks of
//! a rank-symmetric job, or two generations of the same pod, share chunks.
//!
//! The rolling hash is the Gear construction (used by FastCDC): one shift
//! and one table add per byte, with the 256-entry random table generated
//! at compile time from splitmix64. Boundaries are declared when
//! `hash & mask == 0` after at least `min` bytes, and forced at `max`
//! bytes so a pathological stream cannot produce unbounded chunks. The
//! hash forgets a byte 64 bytes after it, so [`split`] starts hashing 64
//! bytes before `min` rather than at the chunk start: the boundaries are
//! the same, and the first `min - 64` bytes of each chunk are skipped.

use std::ops::Range;

/// Chunking parameters. The defaults target ~10 KiB average chunks, small
/// enough that a pod's hot dirty region does not drag its cold neighbours
/// into new chunks, large enough that per-chunk overhead (a file plus a
/// 16-byte recipe entry) stays negligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkParams {
    /// Minimum chunk size in bytes (boundaries before this are ignored).
    pub min: usize,
    /// Number of low hash bits that must be zero at a boundary; the
    /// expected chunk size is `min + 2^mask_bits` bytes. From 64 up no
    /// content boundary exists and every chunk but the last is `max`.
    pub mask_bits: u32,
    /// Maximum chunk size in bytes (a boundary is forced here).
    pub max: usize,
}

impl Default for ChunkParams {
    fn default() -> ChunkParams {
        ChunkParams { min: 2048, mask_bits: 13, max: 65536 }
    }
}

impl ChunkParams {
    /// The boundary mask derived from `mask_bits`; `None` when the mask is
    /// wider than the hash, so no content boundary exists and only `max`
    /// cuts.
    fn mask(&self) -> Option<u64> {
        1u64.checked_shl(self.mask_bits).map(|bit| bit - 1)
    }
}

/// Compile-time splitmix64 — fills the Gear table with well-mixed
/// constants without a build script or runtime initialization.
const fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const fn gear_table() -> [u64; 256] {
    let mut t = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        t[i] = splitmix64(i as u64);
        i += 1;
    }
    t
}

/// The Gear random table: one 64-bit constant per byte value.
static GEAR: [u64; 256] = gear_table();

/// Splits `data` into content-defined chunk ranges. The ranges are
/// contiguous, non-empty, and cover `data` exactly; an empty input yields
/// no chunks. Deterministic: the same bytes always split the same way,
/// which the dedup layer depends on. Total over every [`ChunkParams`].
pub fn split(data: &[u8], p: &ChunkParams) -> Vec<Range<usize>> {
    let mut out = Vec::new();
    let mut start = 0usize;
    while start < data.len() {
        let len = first_chunk_len(&data[start..], p);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// The length of the first chunk of non-empty `data`: the first position
/// at least `min` bytes in where `hash & mask == 0`, else `max`, else all
/// of `data`. It reads only the bytes up to the cut (all of `data` when
/// it returns `data.len()`), so a chunk that ends before `data` does cuts
/// at the same length wherever its bytes sit.
///
/// Each step shifts the hash left by one, so a byte's table entry has left
/// the 64-bit hash 64 bytes later: the hash at any position is a function
/// of the last 64 bytes alone. Hashing therefore starts 64 bytes before
/// the first position that can cut (or at the chunk start, when `min` is
/// shorter), and every boundary falls where hashing from the chunk start
/// puts it, without touching the `min - 64` bytes before.
pub(crate) fn first_chunk_len(data: &[u8], p: &ChunkParams) -> usize {
    let min = p.min.max(1);
    let max = p.max.max(min);
    if data.len() <= min {
        return data.len();
    }
    let window = &data[..data.len().min(max)];
    let Some(mask) = p.mask() else {
        return window.len();
    };
    let mut h: u64 = 0;
    for &b in &window[min.saturating_sub(64)..min - 1] {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
    }
    for (at, &b) in window[min - 1..].iter().enumerate() {
        h = (h << 1).wrapping_add(GEAR[b as usize]);
        if h & mask == 0 {
            return min + at;
        }
    }
    window.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = splitmix64(state);
                (state >> 24) as u8
            })
            .collect()
    }

    fn assert_covers(data: &[u8], ranges: &[Range<usize>]) {
        let mut at = 0;
        for r in ranges {
            assert_eq!(r.start, at, "chunks must be contiguous");
            assert!(r.end > r.start, "chunks must be non-empty");
            at = r.end;
        }
        assert_eq!(at, data.len(), "chunks must cover the input");
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(split(&[], &ChunkParams::default()).is_empty());
    }

    #[test]
    fn chunks_cover_input_and_respect_bounds() {
        let p = ChunkParams { min: 64, mask_bits: 8, max: 1024 };
        for len in [1usize, 63, 64, 65, 1000, 10_000, 100_000] {
            let data = pseudo_random(len, len as u64);
            let ranges = split(&data, &p);
            assert_covers(&data, &ranges);
            for (i, r) in ranges.iter().enumerate() {
                assert!(r.end - r.start <= p.max, "chunk over max");
                if i + 1 < ranges.len() {
                    assert!(r.end - r.start >= p.min, "interior chunk under min");
                }
            }
        }
    }

    #[test]
    fn splitting_is_deterministic() {
        let data = pseudo_random(50_000, 7);
        let p = ChunkParams::default();
        assert_eq!(split(&data, &p), split(&data, &p));
    }

    #[test]
    fn identical_tails_chunk_identically_after_a_prefix_edit() {
        // The CDC property itself: prepend bytes to a stream and the far
        // tail still cuts at the same content positions (modulo one
        // boundary chunk), so dedup survives shifts.
        let p = ChunkParams { min: 256, mask_bits: 9, max: 8192 };
        let tail = pseudo_random(40_000, 42);
        let mut a = pseudo_random(1000, 1);
        a.extend_from_slice(&tail);
        let mut b = pseudo_random(1003, 2);
        b.extend_from_slice(&tail);

        let cuts = |data: &[u8]| -> Vec<Vec<u8>> {
            split(data, &p).into_iter().map(|r| data[r].to_vec()).collect()
        };
        let ca = cuts(&a);
        let cb = cuts(&b);
        let shared: std::collections::HashSet<&Vec<u8>> = ca.iter().collect();
        let hits = cb.iter().filter(|c| shared.contains(c)).count();
        assert!(
            hits * 2 > cb.len(),
            "expected most tail chunks shared, got {hits}/{}",
            cb.len()
        );
    }

    #[test]
    fn max_forces_progress_on_constant_input() {
        // A constant stream may never hit the mask; `max` must still bound
        // every chunk.
        let data = vec![0xAAu8; 100_000];
        let p = ChunkParams { min: 1024, mask_bits: 20, max: 4096 };
        let ranges = split(&data, &p);
        assert_covers(&data, &ranges);
        assert!(ranges.iter().all(|r| r.end - r.start <= 4096));
    }
}
