//! Property: the content-addressed pipeline is the identity function.
//!
//! split → stage (with dedup against whatever is already resident) →
//! recipe → fetch must reproduce the staged bytes exactly, for any
//! payload shape, with each image kept whole as one chunk or split under
//! any chunking parameters, and with compression on or off. This is the
//! property everything above the store leans on: if it held only for
//! "nice" images, a single odd pod would restore corrupt.

use proptest::prelude::*;
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
    (0usize..40_000, any::<u64>(), 0u8..3).prop_map(|(len, seed, shape)| {
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
    })
}

fn params() -> impl Strategy<Value = ChunkParams> {
    (6u32..12, 1usize..4, 4usize..32).prop_map(|(mask_bits, min_mul, max_mul)| ChunkParams {
        min: 16 * min_mul,
        mask_bits,
        max: 16 * min_mul + (1usize << mask_bits) * max_mul,
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

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
