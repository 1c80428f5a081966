//! Property: the content-addressed pipeline is the identity function.
//!
//! split → stage (with dedup against whatever is already resident) →
//! recipe → fetch must reproduce the staged bytes exactly, for any
//! payload shape, with each image kept whole as one chunk or split under
//! any chunking parameters, and with compression on or off. This is the
//! property everything above the store leans on: if it held only for
//! "nice" images, a single odd pod would restore corrupt.
//!
//! A chunked put predicts each chunk from the pod's previous recipe and
//! scans only where the image changed; it is held to `split` itself: after
//! any edits, the recipe's chunks are the ones a scan from scratch cuts.
//!
//! The chunker and the codec are also held to their earlier byte-at-a-time
//! forms, kept here as `split_reference` and `compress_reference`: every
//! boundary must come out where the reference puts it (a store's chunk keys
//! depend on it), and every stream the reference wrote must still decode.

use proptest::prelude::*;
use std::ops::Range;
use std::sync::Arc;
use zapc_faults::FaultPlan;
use zapc_obs::Observer;
use zapc_proto::crc::digest64;
use zapc_sim::SimFs;
use zapc_store::chunk::{split, ChunkParams};
use zapc_store::compress::{compress, decompress};
use zapc_store::{recipe_digest, ChunkingConfig, ImageStore};

fn store(cfg: Option<ChunkingConfig>) -> ImageStore {
    let st = ImageStore::new(
        SimFs::new(),
        "/zapc/store",
        Arc::new(FaultPlan::none()),
        Observer::disabled(),
    );
    st.set_chunking(cfg);
    st
}

/// Payload generator spanning the shapes checkpoints actually contain:
/// zero runs, repeated structure, and incompressible noise, in varying
/// proportions and lengths (including empty and sub-minimum images).
fn payloads() -> impl Strategy<Value = Vec<u8>> {
    (0usize..40_000, any::<u64>(), 0u8..3).prop_map(|(len, seed, shape)| shaped(len, seed, shape))
}

/// Longer payloads (0–200 KiB) in the same shapes plus low-entropy lines,
/// for holding the chunker to its reference over many boundaries.
fn corpora() -> impl Strategy<Value = Vec<u8>> {
    (0usize..=200 * 1024, any::<u64>(), 0u8..4).prop_map(|(len, seed, shape)| match shape {
        3 => low_entropy(len, seed),
        _ => shaped(len, seed, shape),
    })
}

fn shaped(len: usize, seed: u64, shape: u8) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|i| {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            match shape {
                0 => 0u8,                          // zero pages
                1 => ((i / 64) % 256) as u8,       // repeated structure
                _ => (state >> 33) as u8,          // noise
            }
        })
        .collect()
}

/// A random 32-byte line repeated, one byte of each copy mutated: long LZ
/// matches, no two lines identical (the shape of compressible ballast).
fn low_entropy(len: usize, seed: u64) -> Vec<u8> {
    let line = shaped(32, seed, 2);
    (0..len)
        .map(|i| {
            let n = i / 32;
            if i % 32 == n % 32 {
                line[(n / 32) % 32]
            } else {
                line[i % 32]
            }
        })
        .collect()
}

fn params() -> impl Strategy<Value = ChunkParams> {
    (6u32..12, 1usize..4, 4usize..32).prop_map(|(mask_bits, min_mul, max_mul)| ChunkParams {
        min: 16 * min_mul,
        mask_bits,
        max: 16 * min_mul + (1usize << mask_bits) * max_mul,
    })
}

/// [`params`], or the same with a `min` under the 64-byte hash horizon.
fn params_with_short_min() -> impl Strategy<Value = ChunkParams> {
    (params(), 1usize..64, any::<bool>())
        .prop_map(|(p, min, short)| if short { ChunkParams { min, ..p } } else { p })
}

/// The chunker as it was first written: hash every byte from the chunk
/// start, test every position.
fn split_reference(data: &[u8], p: &ChunkParams) -> Vec<Range<usize>> {
    let min = p.min.max(1);
    let max = p.max.max(min);
    let mask = (1u64 << p.mask_bits) - 1;
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut h: u64 = 0;
    let mut i = 0usize;
    while i < data.len() {
        h = (h << 1).wrapping_add(GEAR[data[i] as usize]);
        i += 1;
        let len = i - start;
        if (len >= min && (h & mask) == 0) || len >= max {
            out.push(start..i);
            start = i;
            h = 0;
        }
    }
    if start < data.len() {
        out.push(start..data.len());
    }
    out
}

/// The Gear table, rebuilt here so the reference shares nothing with the
/// code under test.
static GEAR: [u64; 256] = {
    let mut t = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut z = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        t[i] = z ^ (z >> 31);
        i += 1;
    }
    t
};

/// The codec as it was first written: a fresh `usize` table per call, a
/// byte-at-a-time match extension, a candidate hashed at every byte.
/// Streams it wrote sit in existing stores, so they must keep decoding.
fn compress_reference(input: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 131;
    const MAX_OFFSET: usize = 65535;
    const HASH_BITS: u32 = 13;
    let hash4 = |b: &[u8]| {
        let v = u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        (v.wrapping_mul(2_654_435_761) >> (32 - HASH_BITS)) as usize
    };
    let flush = |from: usize, to: usize, out: &mut Vec<u8>| {
        for run in input[from..to].chunks(128) {
            out.push((run.len() - 1) as u8);
            out.extend_from_slice(run);
        }
    };
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut table = vec![usize::MAX; 1 << HASH_BITS];
    let mut i = 0usize;
    let mut lit_start = 0usize;
    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let cand = table[h];
        table[h] = i;
        if cand != usize::MAX
            && i - cand <= MAX_OFFSET
            && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH]
        {
            let mut len = MIN_MATCH;
            let cap = (input.len() - i).min(MAX_MATCH);
            while len < cap && input[cand + len] == input[i + len] {
                len += 1;
            }
            flush(lit_start, i, &mut out);
            out.push(0x80 | (len - MIN_MATCH) as u8);
            out.extend_from_slice(&((i - cand) as u16).to_le_bytes());
            i += len;
            lit_start = i;
        } else {
            i += 1;
        }
    }
    flush(lit_start, input.len(), &mut out);
    out
}

/// One seeded megabyte in the shapes a checkpoint holds, in blocks of
/// 2–18 KiB: noise, zero pages, low-entropy lines, repeated structure.
fn golden_corpus() -> Vec<u8> {
    let mut state = 0x5EED_u64;
    let mut next = move || {
        state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        state >> 33
    };
    let mut out = Vec::new();
    for block in 0..96u64 {
        let len = 2048 + (next() % 16384) as usize;
        let seed = next();
        out.extend(match block % 4 {
            0 => shaped(len, seed, 2),
            1 => vec![0u8; len],
            2 => low_entropy(len, seed),
            _ => shaped(len, seed, 1),
        });
    }
    out
}

/// `(chunk count, digest64 of the chunk ends)`: one number per split.
fn boundary_pin(data: &[u8], p: &ChunkParams) -> (usize, u64) {
    let ranges = split(data, p);
    let ends: Vec<u8> = ranges.iter().flat_map(|r| (r.end as u64).to_le_bytes()).collect();
    (ranges.len(), digest64(&ends))
}

#[test]
fn chunk_boundaries_are_pinned() {
    // Computed from the byte-at-a-time chunker. A store's chunk keys, and
    // so its dedup against every chunk already resident, depend on these
    // boundaries: a change here is a format change.
    let data = golden_corpus();
    let cases = [
        (ChunkParams::default(), (66, 0x16aa_19bb_f5e8_fb58)),
        (ChunkParams { min: 16, mask_bits: 6, max: 200 }, (9_897, 0x1f0e_293d_4d36_16e5)),
        (ChunkParams { min: 256, mask_bits: 7, max: 256 }, (4_027, 0x8a2f_ef50_b885_7e46)),
        (ChunkParams { min: 1, mask_bits: 1, max: 1 }, (1_030_826, 0xccbc_8c3d_31c5_39db)),
    ];
    for (p, pin) in cases {
        assert_eq!(boundary_pin(&data, &p), pin, "{p:?} over {} bytes", data.len());
    }
}

#[test]
fn low_entropy_lines_compress_as_well_as_the_reference() {
    // Sixteen 4 KiB blocks of ballast-shaped lines, each with its own line.
    let data: Vec<u8> = (0..16).flat_map(|seed| low_entropy(4096, seed)).collect();
    let (new, old) = (compress(&data).len(), compress_reference(&data).len());
    assert!(new * 100 <= old * 101, "{new} bytes against the reference's {old}");
    assert_eq!(decompress(&compress(&data), data.len()), Some(data));
}

/// One edit of an image: `(kind, at, len, seed)`, where `at` is scaled to
/// the image and `kind` is overwrite, insert, delete, append or truncate.
type Edit = (u8, u32, usize, u64);

fn edits() -> impl Strategy<Value = Edit> {
    (0u8..5, any::<u32>(), 0usize..9000, any::<u64>())
}

fn edit(image: &mut Vec<u8>, (kind, at, len, seed): Edit) {
    let at = (at as usize) % (image.len() + 1);
    let bytes = shaped(len, seed, 2);
    match kind {
        0 => {
            let end = (at + len).min(image.len());
            image[at..end].copy_from_slice(&bytes[..end - at]);
        }
        1 => drop(image.splice(at..at, bytes)),
        2 => drop(image.drain(at..(at + len).min(image.len()))),
        3 => image.extend(bytes),
        _ => image.truncate(at),
    }
}

/// The parameters the predicted put is held to: the defaults, a `min`
/// under the hash horizon, `max == min`, one-byte chunks, and a mask wider
/// than the hash (no content boundary).
const EDIT_PARAMS: [ChunkParams; 5] = [
    ChunkParams { min: 2048, mask_bits: 13, max: 65536 },
    ChunkParams { min: 16, mask_bits: 6, max: 200 },
    ChunkParams { min: 256, mask_bits: 7, max: 256 },
    ChunkParams { min: 1, mask_bits: 1, max: 1 },
    ChunkParams { min: 512, mask_bits: 64, max: 4096 },
];

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn predicted_put_after_edits_is_split(
        which in 0usize..EDIT_PARAMS.len(),
        compress in any::<bool>(),
        len in 0usize..=120 * 1024,
        seed in any::<u64>(),
        shape in 0u8..4,
        edits in proptest::collection::vec(edits(), 1..4),
    ) {
        let params = EDIT_PARAMS[which];
        let mut image = match shape {
            3 => low_entropy(len, seed),
            _ => shaped(len, seed, shape),
        };
        let st = store(Some(ChunkingConfig { compress, params }));
        st.put_image(1, "p", &image).unwrap();
        for e in edits {
            edit(&mut image, e);
        }
        let (rel, digest) = st.put_image(2, "p", &image).unwrap();
        let lens: Vec<u64> = st.recipe(&rel).unwrap().chunks.iter().map(|c| c.len).collect();
        let want: Vec<u64> = split(&image, &params).iter().map(|r| r.len() as u64).collect();
        prop_assert_eq!(lens, want);
        prop_assert_eq!(st.fetch_verified(&rel, digest).unwrap(), image);
    }

    #[test]
    fn split_matches_the_reference(data in corpora(), p in params_with_short_min()) {
        prop_assert_eq!(split(&data, &p), split_reference(&data, &p));
    }

    #[test]
    fn split_is_total_over_every_params(
        len in 0usize..20_000,
        seed in any::<u64>(),
        min in any::<usize>(),
        max in any::<usize>(),
        mask_bits in 0u32..=200,
    ) {
        // Any `ChunkParams` is legal: a huge `min`/`max` or a mask wider
        // than the hash must neither overflow nor wrap into tiny chunks.
        let data = shaped(len, seed, 2);
        let p = ChunkParams { min, mask_bits, max };
        let ranges = split(&data, &p);
        let (lo, hi) = (min.max(1), max.max(min.max(1)));
        let mut at = 0;
        for (i, r) in ranges.iter().enumerate() {
            prop_assert_eq!(r.start, at);
            prop_assert!(r.end > r.start && r.end - r.start <= hi);
            if i + 1 < ranges.len() {
                prop_assert!(r.end - r.start >= lo);
                if mask_bits >= 64 {
                    // No content boundary: only `max` cuts.
                    prop_assert_eq!(r.end - r.start, hi);
                }
            }
            at = r.end;
        }
        prop_assert_eq!(at, data.len());
    }

    #[test]
    fn reference_streams_still_decode(data in payloads()) {
        let c = compress_reference(&data);
        prop_assert_eq!(decompress(&c, data.len()).as_deref(), Some(&data[..]));
    }

    #[test]
    fn compressible_run_after_noise_round_trips_and_compresses(
        noise_len in 4096usize..20_000,
        run_len in 0usize..20_000,
        seed in any::<u64>(),
        zeros in any::<bool>(),
    ) {
        // Noise first, so the match search has sped up to a stride of
        // several bytes by the time the run begins; the first match must
        // reset it, or the run goes out as literals.
        let mut data = shaped(noise_len, seed, 2);
        data.extend(if zeros { vec![0u8; run_len] } else { low_entropy(run_len, seed) });
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).as_deref(), Some(&data[..]));
        prop_assert!(
            c.len() <= noise_len + noise_len / 64 + run_len / 4 + 256,
            "{} bytes for {noise_len} of noise and {run_len} of run", c.len()
        );
    }

    #[test]
    fn split_concat_is_identity(data in payloads(), p in params()) {
        let ranges = split(&data, &p);
        let mut rebuilt = Vec::with_capacity(data.len());
        for r in &ranges {
            prop_assert!(r.end > r.start);
            rebuilt.extend_from_slice(&data[r.clone()]);
        }
        prop_assert_eq!(rebuilt, data);
    }

    #[test]
    fn compress_round_trips(data in payloads()) {
        let c = compress(&data);
        prop_assert_eq!(decompress(&c, data.len()).as_deref(), Some(&data[..]));
    }

    #[test]
    fn store_fetch_round_trips(
        images in proptest::collection::vec(payloads(), 1..5),
        p in params(),
        layout in 0u8..3,
    ) {
        // Several images through one store, so later ones dedup against
        // earlier residents — the hit path is exercised, not just stage.
        // Layout 0 keeps each image whole, as one chunk keyed by the
        // digest of its bytes. Every layout returns the digest chained
        // over the recipe's chunk list.
        let cfg = (layout > 0).then_some(ChunkingConfig { compress: layout == 2, params: p });
        let st = store(cfg);
        let mut staged = Vec::new();
        for (i, bytes) in images.iter().enumerate() {
            let (rel, digest) = st.put_image(1, &format!("w{i}"), bytes).unwrap();
            let ix = st.recipe(&rel).unwrap();
            prop_assert_eq!(digest, recipe_digest(&ix.chunks));
            if layout == 0 && !bytes.is_empty() {
                prop_assert_eq!(ix.chunks.len(), 1);
                prop_assert_eq!(ix.chunks[0].digest, digest64(bytes));
            }
            staged.push((rel, digest));
        }
        for ((rel, digest), bytes) in staged.iter().zip(&images) {
            prop_assert_eq!(&st.fetch_verified(rel, *digest).unwrap(), bytes);
        }
    }
}
