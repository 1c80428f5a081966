//! Property-based tests on the checkpoint-manifest parser against
//! adversarial inputs: truncation at every cut, random byte corruption,
//! hostile entry-count prefixes, duplicate pod references, trailing
//! garbage, and version forgery. The manifest is the commit record of a
//! coordinated checkpoint — recovery trusts `Manifest::from_bytes` to
//! turn every possible torn or forged file into a typed [`DecodeError`],
//! never a misparse, panic, or allocation blow-up.

use proptest::prelude::*;
use zapc_proto::{
    DecodeError, Manifest, ManifestEntry, RecordWriter, MANIFEST_MAGIC, MANIFEST_VERSION,
};

fn arb_entry() -> impl Strategy<Value = ManifestEntry> {
    (
        "[a-z0-9-]{1,12}", // pod
        1u64..1000,             // ckpt the ref points into
        any::<u64>(),           // digest
        any::<u64>(),           // bytes
        0u32..64,               // node
    )
        .prop_map(|(pod, ckpt, digest, bytes, node)| ManifestEntry {
            image_ref: format!("images/{ckpt}/{pod}"),
            pod,
            digest,
            bytes,
            node,
        })
}

fn arb_manifest() -> impl Strategy<Value = Manifest> {
    (
        1u64..10_000,
        1u64..100,
        any::<u64>(),
        proptest::collection::vec(arb_entry(), 0..8),
    )
        .prop_map(|(ckpt_id, epoch, wall_ms, entries)| {
            // Entry pods must be unique for the manifest to be well-formed;
            // dedup by pod name, keeping first occurrence.
            let mut seen = std::collections::HashSet::new();
            let entries =
                entries.into_iter().filter(|e| seen.insert(e.pod.clone())).collect();
            Manifest { ckpt_id, epoch, wall_ms, entries }
        })
}

proptest! {
    /// Any well-formed manifest survives a byte round trip exactly.
    #[test]
    fn round_trip_is_lossless(m in arb_manifest()) {
        let bytes = m.to_bytes();
        prop_assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
    }

    /// A manifest cut at *any* byte boundary is a typed error — the
    /// torn-rename window of a crashed commit can never parse.
    #[test]
    fn truncation_at_any_cut_is_a_typed_error(
        m in arb_manifest(),
        cut in any::<usize>(),
    ) {
        let bytes = m.to_bytes();
        let cut = cut % bytes.len();
        prop_assert!(
            Manifest::from_bytes(&bytes[..cut]).is_err(),
            "cut at {cut}/{} parsed as a complete manifest", bytes.len()
        );
    }

    /// Any single-byte flip past the preamble is caught (record check); a
    /// flip inside the preamble is a magic/version error. Either way the
    /// outcome is typed, never a panic or a silently different manifest.
    #[test]
    fn single_byte_corruption_never_misparses(
        m in arb_manifest(),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = m.to_bytes();
        let at = at % bytes.len();
        bytes[at] ^= xor;
        match Manifest::from_bytes(&bytes) {
            Err(_) => {}
            // A flip in the length prefix could in principle re-frame to a
            // valid check only by 1-in-2^32 collision — treat success as the
            // bug it would be.
            Ok(got) => prop_assert!(
                false,
                "corrupt byte {at} xor {xor:#04x} parsed as {got:?}"
            ),
        }
    }

    /// A hostile entry-count prefix (spliced into the payload) must fail
    /// typed without amplifying allocation: the reader's preallocation
    /// clamp bounds the speculative reserve by the remaining payload.
    #[test]
    fn hostile_entry_count_prefix_fails_typed(
        declared in any::<u64>(),
        junk in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        // Hand-build a manifest payload with a forged entry count.
        let mut w = RecordWriter::new();
        w.put_u64(1);        // ckpt_id
        w.put_u64(1);        // epoch
        w.put_u64(0);        // wall_ms
        w.put_u64(declared); // entries length prefix
        w.put_bytes(&junk);  // whatever follows
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MANIFEST_MAGIC);
        bytes.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        bytes.extend(zapc_proto::rw::frame_record(zapc_proto::MANIFEST_TAG, w.bytes()));
        // Reaching a typed result at all is the property (no abort from an
        // unclamped `Vec::with_capacity(declared)`).
        let out = Manifest::from_bytes(&bytes);
        if declared > 0 {
            prop_assert!(out.is_err(), "forged count {declared} parsed: {out:?}");
        }
    }

    /// Duplicate pod references are rejected no matter where the
    /// duplicate sits in the entry list.
    #[test]
    fn duplicate_pod_anywhere_is_rejected(
        m in arb_manifest(),
        dup_from in any::<usize>(),
        dup_to in any::<usize>(),
    ) {
        prop_assume!(!m.entries.is_empty());
        let mut forged = m.clone();
        let src = forged.entries[dup_from % forged.entries.len()].clone();
        let at = dup_to % (forged.entries.len() + 1);
        forged.entries.insert(at, src);
        let out = Manifest::from_bytes(&forged.to_bytes());
        prop_assert_eq!(out, Err(DecodeError::DuplicateEntry { what: "manifest pod" }));
    }

    /// Trailing bytes after the commit record — the shape a torn write
    /// over a recycled block produces — are rejected.
    #[test]
    fn trailing_garbage_rejected(
        m in arb_manifest(),
        tail in proptest::collection::vec(any::<u8>(), 1..64),
    ) {
        let mut bytes = m.to_bytes();
        bytes.extend_from_slice(&tail);
        prop_assert!(Manifest::from_bytes(&bytes).is_err());
    }

    /// Version forgery: any version other than the current one is
    /// refused before the body is even framed.
    #[test]
    fn foreign_versions_refused(m in arb_manifest(), ver in any::<u32>()) {
        prop_assume!(ver != MANIFEST_VERSION);
        let mut bytes = m.to_bytes();
        bytes[8..12].copy_from_slice(&ver.to_le_bytes());
        let refused = matches!(
            Manifest::from_bytes(&bytes),
            Err(DecodeError::UnsupportedVersion { found }) if found == ver
        );
        prop_assert!(refused, "version {ver} not refused");
    }

    /// Pure noise never parses: random bytes that happen to start with
    /// the right magic still die on version, framing, or record check.
    #[test]
    fn random_noise_never_parses(
        noise in proptest::collection::vec(any::<u8>(), 0..256),
        with_magic in any::<bool>(),
    ) {
        let mut bytes = Vec::new();
        if with_magic {
            bytes.extend_from_slice(MANIFEST_MAGIC);
            bytes.extend_from_slice(&MANIFEST_VERSION.to_le_bytes());
        }
        bytes.extend_from_slice(&noise);
        // A 4-byte check over noise passes with p = 2^-32; below the
        // proptest case count this is "never".
        prop_assert!(Manifest::from_bytes(&bytes).is_err());
    }
}
