//! Seeded input generators. `--seed` changes the bytes and keys the
//! workloads run on, never the schedule of operations: the same seed gives
//! the same inputs, and the programs under test receive only what is
//! generated here.

/// splitmix64: one well-mixed 64-bit value per input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Sub-seed for stream `b` of owner `a` under `seed`.
pub fn mix3(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(mix(seed) ^ a) ^ b)
}

/// xorshift64*: fast enough that filling a hot region stays far below the
/// writer's 50 µs step budget.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` (any value; zero is remapped).
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Fills `out` with incompressible bytes.
    pub fn fill(&mut self, out: &mut [u8]) {
        let mut chunks = out.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        let tail = self.next_u64().to_le_bytes();
        rest.copy_from_slice(&tail[..rest.len()]);
    }
}

/// Ballast is generated in blocks of this many bytes, each a function of
/// `(seed, owner, block index)` alone, so it can be filled in any number
/// of set-up steps.
pub const BLOCK: usize = 4096;

/// Owner id of blocks every rank shares.
const SHARED_OWNER: u64 = u64::MAX;

/// What a writer's cold memory is made of. Fractions are per mille so the
/// spec survives a checkpoint image as integers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BallastSpec {
    /// Total bytes (rounded down to whole blocks by the generator).
    pub bytes: usize,
    /// Leading share that is identical on every rank (‰).
    pub shared_pm: u32,
    /// Following share that is rank-private but low-entropy (‰).
    pub lowent_pm: u32,
}

/// How one ballast block is generated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockKind {
    /// Incompressible, identical on every rank.
    Shared,
    /// Rank-private, compressible.
    LowEntropy,
    /// Rank-private, incompressible.
    Unique,
}

impl BallastSpec {
    /// Whole blocks in the ballast.
    pub fn blocks(&self) -> usize {
        self.bytes / BLOCK
    }

    /// The kind of block `i`: shared blocks first, then low-entropy, then
    /// unique.
    pub fn kind(&self, i: usize) -> BlockKind {
        let n = self.blocks() as u64;
        let shared = n * self.shared_pm as u64 / 1000;
        let lowent = n * self.lowent_pm as u64 / 1000;
        match i as u64 {
            i if i < shared => BlockKind::Shared,
            i if i < shared + lowent => BlockKind::LowEntropy,
            _ => BlockKind::Unique,
        }
    }

    /// Generates block `i` of rank `rank` into `out` (`BLOCK` bytes).
    pub fn fill_block(&self, seed: u64, rank: u32, i: usize, out: &mut [u8]) {
        match self.kind(i) {
            BlockKind::Shared => Rng::new(mix3(seed, SHARED_OWNER, i as u64)).fill(out),
            BlockKind::Unique => Rng::new(mix3(seed, rank as u64, i as u64)).fill(out),
            BlockKind::LowEntropy => {
                // A random 32-byte line repeated, one byte of each copy
                // mutated: long LZ matches, no two lines identical.
                let mut rng = Rng::new(mix3(seed, rank as u64, i as u64));
                let mut line = [0u8; 32];
                rng.fill(&mut line);
                for (n, dst) in out.chunks_mut(32).enumerate() {
                    dst.copy_from_slice(&line[..dst.len()]);
                    let at = n % dst.len();
                    dst[at] = line[(n / 32) % 32];
                }
            }
        }
    }
}

/// First KV client id for `seed`: always six digits, so key lengths (and
/// with them image sizes) do not depend on the seed.
pub fn kv_id_base(seed: u64) -> u32 {
    100_000 + (mix(seed ^ 0x6b76) % 800_000) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FNV-1a 64: one number per ballast.
    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    const DURABLE: BallastSpec = BallastSpec {
        bytes: 2_560 * 1024,
        shared_pm: 500,
        lowent_pm: 250,
    };

    fn ballast(spec: &BallastSpec, seed: u64, rank: u32) -> Vec<u8> {
        let mut out = vec![0u8; spec.blocks() * BLOCK];
        for (i, b) in out.chunks_mut(BLOCK).enumerate() {
            spec.fill_block(seed, rank, i, b);
        }
        out
    }

    /// Shannon entropy of the byte histogram, bits per byte.
    fn entropy(block: &[u8]) -> f64 {
        let mut hist = [0usize; 256];
        for &b in block {
            hist[b as usize] += 1;
        }
        hist.iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / block.len() as f64;
                -p * p.log2()
            })
            .sum()
    }

    #[test]
    fn same_seed_same_inputs_different_seed_different() {
        let a = fnv1a(&ballast(&DURABLE, 7, 1));
        assert_eq!(a, fnv1a(&ballast(&DURABLE, 7, 1)));
        assert_ne!(a, fnv1a(&ballast(&DURABLE, 8, 1)));
        assert_ne!(a, fnv1a(&ballast(&DURABLE, 7, 2)));
        assert_eq!(kv_id_base(7), kv_id_base(7));
        assert_ne!(kv_id_base(7), kv_id_base(8));
        for seed in 0..200 {
            assert!((100_000..900_000).contains(&kv_id_base(seed)));
        }
    }

    #[test]
    fn shared_and_compressible_fractions_match_the_spec() {
        let (r0, r1) = (ballast(&DURABLE, 3, 0), ballast(&DURABLE, 3, 1));
        let blocks = DURABLE.blocks() as f64;
        let shared = r0
            .chunks(BLOCK)
            .zip(r1.chunks(BLOCK))
            .filter(|(a, b)| a == b)
            .count() as f64;
        let lowent = r0.chunks(BLOCK).filter(|b| entropy(b) < 6.0).count() as f64;
        assert!(
            (shared / blocks - 0.50).abs() < 0.02,
            "shared {}",
            shared / blocks
        );
        assert!(
            (lowent / blocks - 0.25).abs() < 0.02,
            "low-entropy {}",
            lowent / blocks
        );

        let plain = BallastSpec {
            shared_pm: 0,
            lowent_pm: 0,
            ..DURABLE
        };
        let (p0, p1) = (ballast(&plain, 3, 0), ballast(&plain, 3, 1));
        assert!(p0.chunks(BLOCK).zip(p1.chunks(BLOCK)).all(|(a, b)| a != b));
        assert!(p0.chunks(BLOCK).all(|b| entropy(b) > 7.5));
    }

    #[test]
    fn fill_covers_odd_lengths() {
        let mut buf = [0u8; 13];
        Rng::new(1).fill(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
