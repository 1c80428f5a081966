//! The one checksum of the format: [`digest64`]. It names stored content
//! (chunk keys, fetch verification, image digests), and its low 32 bits,
//! xored with the record's tag, check every record of an image, manifest,
//! recipe and migration frame (`rw::record_check`). It reads a 64-bit word
//! at a time into four independent multiply lanes (see its docs).

/// Multipliers of the four [`digest64`] lanes (odd, dense in both halves).
const K: [u64; 4] =
    [0xa076_1d64_78bd_642f, 0xe703_7ed1_a0b4_28db, 0x8ebc_6af0_9c88_c6e3, 0x5899_65cc_7537_4cc3];

/// Starting values of the four [`digest64`] lanes.
const SEED: [u64; 4] =
    [0x1d8e_4e27_c47d_124f, 0x9e37_79b9_7f4a_7c15, 0xbf58_476d_1ce4_e5b9, 0x94d0_49bb_1331_11eb];

/// The 128-bit product of `a` and `b`, its two halves xored together.
#[inline(always)]
fn fold(a: u64, b: u64) -> u64 {
    let p = (a as u128) * (b as u128);
    (p as u64) ^ ((p >> 64) as u64)
}

/// The little-endian `u64` in the first eight bytes of `b`.
#[inline(always)]
fn word(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

/// One-shot 64-bit digest of `bytes` — the store's *content identity*:
/// chunk keys, fetch verification, the image digest chained over a recipe,
/// and the memory digest of a decoded pod all use it. Its low 32 bits,
/// xored with the tag, are every record's check.
///
/// A multiply is not linear over GF(2), so an image-wide digest of records
/// that each embed the check of their own payload does not cancel the
/// payload terms, as a linear check such as a CRC would. It is a sound
/// non-adversarial identity check, not a cryptographic hash.
///
/// Word at a time: 32-byte blocks feed four independent lanes, lane `i`
/// stepping `lane = fold(lane ^ w, K[i]) + w`, where `fold` xors the two
/// halves of the 128-bit product. The lanes are chained into one state,
/// which then takes the remaining whole words, a zero-padded final word
/// and the length.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut lanes = SEED;
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for ((lane, k), w) in lanes.iter_mut().zip(K).zip(block.chunks_exact(8)) {
            let w = word(w);
            *lane = fold(*lane ^ w, k).wrapping_add(w);
        }
    }
    let mut h = 0;
    for (lane, k) in lanes.into_iter().zip(K) {
        h = fold(h ^ lane, k);
    }
    let mut words = blocks.remainder().chunks_exact(8);
    for w in &mut words {
        let w = word(w);
        h = fold(h ^ w, K[0]).wrapping_add(w);
    }
    let tail = words.remainder();
    let mut last = [0u8; 8];
    last[..tail.len()].copy_from_slice(tail);
    h = fold(h ^ word(&last), K[1]);
    fold(h ^ bytes.len() as u64, K[2] ^ K[3])
}

/// The benchmark's digest probe still names the retired byte-at-a-time
/// digest; it measures [`digest64`], the one the store uses.
#[doc(hidden)]
pub use digest64 as fnv1a64;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn digest64_distinguishes_self_checksummed_streams() {
        // Records embed the check of their own payload. A linear check
        // such as CRC-32 gives every "payload || check(payload)" stream
        // one value, so it could not name content; digest64 tells framed
        // records apart.
        let a = crate::rw::frame_record(1, &[0u8; 16]);
        let b = crate::rw::frame_record(1, &[5u8; 16]);
        assert_ne!(digest64(&a), digest64(&b));
    }

    /// Deterministic filler: a 64-bit LCG, high byte of each step.
    fn lcg(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed;
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                (s >> 56) as u8
            })
            .collect()
    }

    #[test]
    fn digest64_known_answers() {
        assert_eq!(digest64(b""), 0x6649_22e5_33ae_a628);
        assert_eq!(digest64(b"123456789"), 0xa50c_4e4b_4f62_a06a);
        assert_eq!(digest64(&lcg(1, 1 << 20)), 0x9513_79c3_6238_80d4);
    }

    #[test]
    fn digest64_is_independent_of_alignment() {
        let src = lcg(7, 96);
        let mut buf = [0u8; 96 + 8];
        for len in 0..=96 {
            let want = digest64(&src[..len]);
            for off in 0..8 {
                buf[off..off + len].copy_from_slice(&src[..len]);
                assert_eq!(digest64(&buf[off..off + len]), want, "off {off} len {len}");
            }
        }
    }

    #[test]
    fn digest64_sees_every_single_bit_flip() {
        let mut data = lcg(3, 1024);
        let clean = digest64(&data);
        for bit in 0..data.len() * 8 {
            data[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(digest64(&data), clean, "bit {bit}");
            data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    #[test]
    fn digest64_sees_swapped_words() {
        let data = lcg(5, 256);
        let clean = digest64(&data);
        // Pairs in one 32-byte block (different lanes), in one lane of two
        // blocks, and in the word loop after the last block.
        for (i, j) in [(0, 1), (0, 4), (3, 7), (28, 29), (29, 30), (0, 31)] {
            let mut swapped = data.clone();
            for k in 0..8 {
                swapped.swap(8 * i + k, 8 * j + k);
            }
            assert_ne!(digest64(&swapped[..]), clean, "words {i} and {j}");
            assert_ne!(digest64(&swapped[..248]), digest64(&data[..248]), "words {i} and {j}");
        }
    }

    #[test]
    fn digest64_pads_nothing_into_a_collision() {
        let (a, b, c) = (digest64(b""), digest64(b"\0"), digest64(b"\0\0"));
        assert!(a != b && b != c && a != c, "{a:#x} {b:#x} {c:#x}");
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
        /// Avalanche: flipping one input bit flips about half the output.
        #[test]
        fn digest64_flips_half_the_output_per_input_bit(
            data in proptest::collection::vec(any::<u8>(), 1..160),
        ) {
            let clean = digest64(&data);
            let mut flipped = data.clone();
            let mut total = 0u32;
            for bit in 0..data.len() * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                total += (digest64(&flipped) ^ clean).count_ones();
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            let mean = total as f64 / (data.len() * 8) as f64;
            prop_assert!((28.0..=36.0).contains(&mean), "mean {mean} over {} bytes", data.len());
        }
    }
}
