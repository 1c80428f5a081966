//! Known-answer tests on the exact bytes of the three stored record
//! formats: a checkpoint image, a manifest and a chunk-index recipe.
//!
//! The framing property tests compare an image against a reference framed
//! with the same record check, so a checksum kernel that changed its output
//! would move both sides together and pass. These tests pin the bytes
//! against constants instead. All three were recomputed when the record
//! check became the low 32 bits of `digest64` xored with the tag, and
//! `FORMAT_VERSION` became 3, `MANIFEST_VERSION` 4 and
//! `CHUNK_INDEX_VERSION` 3: that change moved only the check words and the
//! version words, never a length or a payload byte. Each must hold
//! unchanged for as long as those three versions do.
//!
//! The fingerprint is a byte-at-a-time FNV-1a 64 private to this file, so
//! a change to the store's digest cannot move these pins either.

use zapc_proto::image::Header;
use zapc_proto::{ChunkIndex, ChunkRef, ImageWriter, Manifest, ManifestEntry, SectionTag};

/// FNV-1a 64: the fingerprint of the pinned bytes.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic filler bytes: a 64-bit LCG, high byte of each step.
fn seeded(seed: u64, len: usize) -> Vec<u8> {
    let mut s = seed;
    (0..len)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 56) as u8
        })
        .collect()
}

fn golden_image() -> Vec<u8> {
    let header = Header { pod: "golden-pod".into(), host: "node-3".into(), wall_ms: 1_234_567, flags: 1 };
    let mut w = ImageWriter::new(&header);
    w.section(SectionTag::NetMeta, |r| {
        r.put_str("conn 0 -> 1");
        r.put_u32(7);
    });
    // Payload lengths on and off multiples of 8, plus one long enough to
    // run many 8-byte steps before its tail.
    for (i, len) in [0usize, 1, 7, 8, 13, 64, 255, 4099].into_iter().enumerate() {
        w.section(SectionTag::Memory, |r| {
            r.put_u64(0x1000 * i as u64);
            r.put_bytes(&seeded(i as u64 + 1, len));
        });
    }
    w.section_bytes(SectionTag::FsSnapshot, &seeded(99, 37));
    w.finish()
}

fn golden_manifest() -> Manifest {
    let entry = |pod: &str, digest, bytes, node| ManifestEntry {
        pod: pod.into(),
        image_ref: format!("images/42/{pod}"),
        digest,
        bytes,
        node,
    };
    Manifest {
        ckpt_id: 42,
        epoch: 3,
        wall_ms: 98_765,
        entries: vec![
            entry("worker-0", 0x0123_4567_89ab_cdef, 2_750_001, 0),
            entry("worker-1", 0xfedc_ba98_7654_3210, 13, 1),
            entry("kv", 0, 0, 2),
        ],
    }
}

fn golden_chunk_index() -> ChunkIndex {
    let chunks = vec![
        ChunkRef { digest: 0x1111_2222_3333_4444, len: 65_536 },
        ChunkRef { digest: 0x5555_6666_7777_8888, len: 1_003 },
        ChunkRef { digest: 0x9999_aaaa_bbbb_cccc, len: 7 },
    ];
    ChunkIndex { logical_len: 65_536 + 1_003 + 7, digest: 0xdead_beef_f00d_cafe, chunks }
}

#[test]
fn image_bytes_are_golden() {
    let img = golden_image();
    assert_eq!((img.len(), fnv1a64(&img)), (4_811, 0xe172_3905_dd7a_14ff));
}

#[test]
fn manifest_bytes_are_golden() {
    let bytes = golden_manifest().to_bytes();
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (228, 0xb7c9_eb12_bfbf_a6de));
    assert_eq!(Manifest::from_bytes(&bytes).unwrap(), golden_manifest());
}

#[test]
fn chunk_index_bytes_are_golden() {
    let bytes = golden_chunk_index().to_bytes();
    assert_eq!((bytes.len(), fnv1a64(&bytes)), (94, 0x9eb1_6274_7283_6405));
    assert_eq!(ChunkIndex::from_bytes(&bytes).unwrap(), golden_chunk_index());
}
