//! CRC-32 (IEEE 802.3 polynomial, reflected) used to protect every record in
//! a checkpoint image.
//!
//! Implemented slice-by-8: eight 256-entry tables, all built by `const fn`
//! at compile time. Table `k` maps a byte to its CRC contribution when `k`
//! more bytes follow it, so one step folds eight input bytes (two
//! little-endian `u32` reads) into the state with eight lookups and no
//! carried dependency between them. The tail of fewer than eight bytes
//! runs through table 0, the classic byte-at-a-time step. Output is the
//! standard CRC-32 (check value `0xCBF43926`), identical to a byte-table
//! or bitwise implementation.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables, computed at compile time. `TABLES[0]` is the
/// byte-at-a-time table; `TABLES[k][b]` is `TABLES[k - 1][b]` advanced by
/// one zero byte.
const TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
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

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc: u32 = 0xFFFF_FFFF;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// One-shot FNV-1a 64-bit hash of `bytes` — the *image identity* digest.
///
/// CRC-32 cannot identify a whole checkpoint image: CRC is linear over
/// GF(2), and every record in an image embeds the CRC of its own payload,
/// so the image-wide CRC of any correctly-framed image is independent of
/// the payload contents (the embedded CRCs cancel the payload terms).
/// Two images differing only in section payloads therefore share one
/// CRC-32. FNV-1a multiplies by a prime each step, which is non-linear in
/// GF(2) and has no such cancellation, making it a sound (non-adversarial)
/// identity check for stored images and chunks.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Bit-at-a-time CRC-32: the definition, independent of the tables.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc: u32 = 0xFFFF_FFFF;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn check_value() {
        // The canonical CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn known_answers() {
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        assert_eq!(crc32_bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_alignment_and_tail_matches_bitwise_reference() {
        let buf: Vec<u8> = (0..48u32).map(|i| (i * 151 + 7) as u8).collect();
        for off in 0..8 {
            for len in 0..=40 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), crc32_bitwise(s), "off {off} len {len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]
        /// Random bytes at every start alignment (0..8), lengths up to 2 KiB.
        #[test]
        fn crc32_matches_bitwise_reference(
            buf in proptest::collection::vec(any::<u8>(), 2048 + 8),
            off in 0usize..8,
            len in 0usize..=2048,
        ) {
            let s = &buf[off..off + len];
            prop_assert_eq!(crc32(s), crc32_bitwise(s));
        }
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0xA5u8; 1024];
        let clean = crc32(&data);
        data[513] ^= 0x04;
        assert_ne!(crc32(&data), clean);
    }

    #[test]
    fn distinct_inputs_distinct_crcs() {
        assert_ne!(crc32(b"pod-0"), crc32(b"pod-1"));
    }

    #[test]
    fn fnv_distinguishes_self_checksummed_streams() {
        // The failure mode that rules CRC-32 out as an image digest:
        // "payload || crc32(payload)" streams all share one CRC-32, but
        // FNV-1a tells them apart.
        let framed = |payload: &[u8]| {
            let mut v = payload.to_vec();
            v.extend_from_slice(&crc32(payload).to_le_bytes());
            v
        };
        let a = framed(&[0u8; 16]);
        let b = framed(&[5u8; 16]);
        assert_eq!(crc32(&a), crc32(&b), "CRC-32 cancellation (why fnv1a64 exists)");
        assert_ne!(fnv1a64(&a), fnv1a64(&b));
    }
}
