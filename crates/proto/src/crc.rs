//! CRC-32 (IEEE 802.3 polynomial, reflected) used to protect every record in
//! a checkpoint image.
//!
//! Implemented with a lazily-built 256-entry lookup table; the table build is
//! `const` so there is no runtime initialization cost.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// 256-entry lookup table, computed at compile time.
const TABLE: [u32; 256] = build_table();

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// Incremental CRC-32 hasher.
///
/// ```
/// use zapc_proto::crc::Crc32;
/// let mut h = Crc32::new();
/// h.update(b"123456789");
/// assert_eq!(h.finish(), 0xCBF4_3926); // standard check value
/// ```
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    /// Returns the final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finish()
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

    #[test]
    fn check_value() {
        // The canonical CRC-32 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        for chunk in data.chunks(7) {
            h.update(chunk);
        }
        assert_eq!(h.finish(), crc32(data));
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
