//! In-tree byte-oriented LZ compression for stored chunks.
//!
//! The registry is offline, so the store carries its own codec: a small
//! LZ77 variant in the LZ4 spirit — greedy matching against a hash table
//! of recent 4-byte sequences, byte-aligned output, no entropy stage. Like
//! LZ4 it accelerates through data that does not match: each run of 64
//! consecutive misses widens the search stride by one byte, and the first
//! match narrows it back to one, so an incompressible chunk costs a few
//! hundred probes per 4 KiB rather than a probe per byte.
//! Checkpoint images are full of zero pages, repeated headers, and
//! rank-symmetric ballast, which this shape compresses well at a cost of
//! a few instructions per byte. Run-length encoding falls out for free as
//! an offset-1 match.
//!
//! ## Stream format
//!
//! A sequence of tokens, each starting with a control byte `c`:
//!
//! * `c < 0x80` — literal run: the next `c + 1` bytes (1..=128) are copied
//!   verbatim.
//! * `c >= 0x80` — match: length `(c & 0x7F) + 4` (4..=131), followed by a
//!   little-endian u16 offset (1..=65535) back into the already-produced
//!   output. Offsets may overlap the write head (offset 1 = RLE).
//!
//! [`decompress`] is total over arbitrary input: any out-of-range offset,
//! truncated token, or length disagreement returns `None` — the caller
//! treats the chunk as corrupt, never panics, never reads out of bounds.

const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 131;
const MAX_LITERALS: usize = 128;
const MAX_OFFSET: usize = 65535;
const HASH_BITS: u32 = 13;

/// LZ4's skip strength: after `n` misses in a row the search steps
/// `1 + (n >> SKIP_SHIFT)` bytes.
const SKIP_SHIFT: u32 = 6;

fn read4(input: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(input[at..at + 4].try_into().expect("4 bytes"))
}

fn read8(input: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(input[at..at + 8].try_into().expect("8 bytes"))
}

fn hash4(v: u32) -> usize {
    (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
}

/// How far the bytes at `cand` and `at` (> `cand`) agree, up to `cap`,
/// given that the first [`MIN_MATCH`] already do. Eight bytes per step:
/// the lowest differing byte is the xor's trailing zeros over eight.
fn match_len(input: &[u8], cand: usize, at: usize, cap: usize) -> usize {
    let mut len = MIN_MATCH;
    while len + 8 <= cap {
        let diff = read8(input, cand + len) ^ read8(input, at + len);
        if diff != 0 {
            return len + (diff.trailing_zeros() / 8) as usize;
        }
        len += 8;
    }
    while len < cap && input[cand + len] == input[at + len] {
        len += 1;
    }
    len
}

fn flush_literals(input: &[u8], from: usize, to: usize, out: &mut Vec<u8>) {
    let mut at = from;
    while at < to {
        let run = (to - at).min(MAX_LITERALS);
        out.push((run - 1) as u8);
        out.extend_from_slice(&input[at..at + run]);
        at += run;
    }
}

/// Compresses `input`. The output is never assumed smaller — the caller
/// compares lengths and stores raw when compression does not pay.
///
/// The table holds positions modulo 2^32. Past 4 GiB a stale entry can
/// alias a recent position; that only yields a wrong candidate, which the
/// byte comparison refuses, so any input length compresses correctly.
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    // Every slot starts at position 0: a real position, checked like any
    // other candidate.
    let mut table = [0u32; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    let mut misses = 0usize;
    while i + MIN_MATCH <= input.len() {
        let word = read4(input, i);
        let slot = &mut table[hash4(word)];
        // An offset that passes the `MAX_OFFSET` test is at most `i`: below
        // 4 GiB every slot holds a position up to `i`, above it `i` is far
        // past `MAX_OFFSET`.
        let offset = (i as u32).wrapping_sub(*slot) as usize;
        *slot = i as u32;
        if offset != 0 && offset <= MAX_OFFSET && read4(input, i - offset) == word {
            let cand = i - offset;
            let len = match_len(input, cand, i, (input.len() - i).min(MAX_MATCH));
            flush_literals(input, lit_start, i, &mut out);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            i += len;
            lit_start = i;
            misses = 0;
        } else {
            i += 1 + (misses >> SKIP_SHIFT);
            misses += 1;
        }
    }
    flush_literals(input, lit_start, input.len(), &mut out);
    out
}

/// Decompresses `input`, expecting exactly `expect` output bytes. Returns
/// `None` on any malformation: truncated token, offset beyond the output
/// produced so far, zero offset, or a final length other than `expect`.
pub fn decompress(input: &[u8], expect: usize) -> Option<Vec<u8>> {
    let mut out = Vec::with_capacity(expect);
    decompress_into(input, expect, &mut out).then_some(out)
}

/// [`decompress`] appending to `out`: offsets reach back only into the
/// bytes this call produced, so a reassembled image decodes each chunk
/// straight into place. Returns `false` on any malformation, leaving
/// `out` holding a partial chunk the caller must discard.
pub fn decompress_into(input: &[u8], expect: usize, out: &mut Vec<u8>) -> bool {
    let base = out.len();
    let mut i = 0usize;
    while i < input.len() {
        let c = input[i];
        i += 1;
        if c < 0x80 {
            let run = c as usize + 1;
            if i + run > input.len() {
                return false;
            }
            out.extend_from_slice(&input[i..i + run]);
            i += run;
        } else {
            let len = (c & 0x7F) as usize + MIN_MATCH;
            if i + 2 > input.len() {
                return false;
            }
            let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
            i += 2;
            if offset == 0 || offset > out.len() - base {
                return false;
            }
            let start = out.len() - offset;
            if offset >= len {
                out.extend_from_within(start..start + len);
            } else {
                // Byte-by-byte: the match overlaps the write head (RLE).
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
            }
        }
        if out.len() - base > expect {
            return false;
        }
    }
    out.len() - base == expect
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo_random(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c, data.len()).as_deref(), Some(data));
    }

    #[test]
    fn empty_round_trips() {
        round_trip(&[]);
    }

    #[test]
    fn short_inputs_round_trip() {
        for len in 0..16 {
            round_trip(&pseudo_random(len, len as u64 + 1));
        }
    }

    #[test]
    fn zeros_compress_hard_and_round_trip() {
        let data = vec![0u8; 64 * 1024];
        let c = compress(&data);
        assert!(c.len() < data.len() / 20, "zeros should collapse, got {}", c.len());
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn repeated_pattern_round_trips() {
        let mut data = Vec::new();
        for i in 0..4096u32 {
            data.extend_from_slice(&(i % 7).to_le_bytes());
        }
        round_trip(&data);
        let c = compress(&data);
        assert!(c.len() < data.len() / 2);
    }

    #[test]
    fn incompressible_input_round_trips() {
        round_trip(&pseudo_random(100_000, 99));
    }

    #[test]
    fn truncated_stream_is_refused() {
        let data = pseudo_random(10_000, 3);
        let c = compress(&data);
        for cut in 0..c.len() {
            assert!(decompress(&c[..cut], data.len()).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn wrong_expected_length_is_refused() {
        let data = vec![7u8; 1000];
        let c = compress(&data);
        assert!(decompress(&c, 999).is_none());
        assert!(decompress(&c, 1001).is_none());
    }

    #[test]
    fn decompress_into_appends_and_never_reaches_before_its_chunk() {
        let data = vec![9u8; 500];
        let c = compress(&data);
        let mut out = b"prefix".to_vec();
        assert!(decompress_into(&c, data.len(), &mut out));
        assert_eq!(&out[..6], b"prefix");
        assert_eq!(&out[6..], &data[..]);
        // A match into bytes the call did not produce is malformed, even
        // though the output buffer holds them.
        let mut out = b"prefix".to_vec();
        assert!(!decompress_into(&[0x80, 1, 0], 4, &mut out));
    }

    #[test]
    fn hostile_tokens_are_refused_not_panicked() {
        // Match before any output exists.
        assert!(decompress(&[0x80, 1, 0], 4).is_none());
        // Zero offset.
        assert!(decompress(&[0x00, 0xAB, 0x80, 0, 0], 5).is_none());
        // Offset beyond produced output.
        assert!(decompress(&[0x00, 0xAB, 0x80, 9, 0], 5).is_none());
        // Literal run past end of input.
        assert!(decompress(&[0x7F, 1, 2], 128).is_none());
    }
}
