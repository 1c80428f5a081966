//! Property-based tests on `ImageReader` against adversarial images:
//! truncation at every depth, spliced duplicate headers, missing end
//! markers, unknown future tags, and random byte corruption. The invariant
//! throughout: the reader returns a typed `DecodeError` — it never panics,
//! loops, or silently misparses a damaged image.

use proptest::prelude::*;
use zapc_proto::image::Header;
use zapc_proto::rw::frame_record;
use std::collections::{BTreeMap, VecDeque};
use zapc_proto::{
    seq_capacity, ConnState, Decode, DecodeError, DecodeResult, Encode, ImageReader, ImageWriter,
    RecordReader, RecordWriter, RestartRole, SectionTag, Transport, FORMAT_VERSION, MAGIC,
    MAX_PREALLOC_BYTES,
};

/// Builds a well-formed image with `n` body sections of the given sizes.
fn build_image(sizes: &[u16]) -> Vec<u8> {
    let header =
        Header { pod: "prop-pod".into(), host: "prop-host".into(), wall_ms: 42, flags: 0 };
    let mut w = ImageWriter::new(&header);
    for (i, &sz) in sizes.iter().enumerate() {
        let tag = match i % 3 {
            0 => SectionTag::Memory,
            1 => SectionTag::Process,
            _ => SectionTag::NetState,
        };
        w.section(tag, |r| r.put_bytes(&vec![(i as u8).wrapping_mul(37); sz as usize]));
    }
    w.finish()
}

/// Drains an image through the reader, counting sections, to a typed end:
/// `Ok(n)` on a clean end marker, `Err(e)` on a typed decode failure.
fn drain(bytes: &[u8]) -> Result<usize, DecodeError> {
    let mut rd = ImageReader::open(bytes)?;
    let mut n = 0;
    while let Some(_s) = rd.next_section()? {
        n += 1;
    }
    Ok(n)
}

proptest! {
    #[test]
    fn well_formed_images_drain_completely(
        sizes in proptest::collection::vec(0u16..2048, 0..6),
    ) {
        let bytes = build_image(&sizes);
        prop_assert_eq!(drain(&bytes).unwrap(), sizes.len());
    }

    #[test]
    fn truncation_at_any_depth_is_a_typed_error(
        sizes in proptest::collection::vec(1u16..512, 1..5),
        cut in any::<usize>(),
    ) {
        let bytes = build_image(&sizes);
        // Cut anywhere strictly inside the image (losing at least the end
        // marker's final byte).
        let cut = cut % (bytes.len() - 1);
        let out = drain(&bytes[..cut]);
        prop_assert!(out.is_err(), "truncated at {cut}/{} yet drained fine", bytes.len());
    }

    #[test]
    fn missing_end_marker_never_reads_as_complete(
        sizes in proptest::collection::vec(1u16..256, 1..4),
    ) {
        let bytes = build_image(&sizes);
        // Strip the empty End record exactly: 2 (tag) + 4 (len) + 4 (check).
        let stripped = &bytes[..bytes.len() - 10];
        let out = drain(stripped);
        prop_assert!(out.is_err(), "end-marker-less image drained as complete");
    }

    #[test]
    fn spliced_duplicate_header_rejected(
        sizes in proptest::collection::vec(1u16..256, 0..4),
        at_choice in any::<usize>(),
        pod in "\\PC{0,16}",
    ) {
        let bytes = build_image(&sizes);
        let mut hw = RecordWriter::new();
        hw.put_str(&pod);
        hw.put_str("forged");
        hw.put_u64(0);
        hw.put_u32(0);
        let dup = frame_record(SectionTag::Header as u16, hw.bytes());

        // Splice the forged header at a record boundary: walk the framed
        // records to collect boundaries after the genuine header.
        let mut boundaries = Vec::new();
        let mut pos = MAGIC.len() + 4;
        while pos < bytes.len() {
            let len = u32::from_le_bytes(bytes[pos + 2..pos + 6].try_into().unwrap()) as usize;
            pos += 2 + 4 + len + 4;
            if pos < bytes.len() {
                // A splice after the End record is invisible to the
                // reader — only boundaries it will actually reach count.
                boundaries.push(pos);
            }
        }
        // Skip the first boundary (right after the genuine header is the
        // only place a Header record is legal — the reader consumed it).
        let at = boundaries[at_choice % boundaries.len()];
        let mut forged = bytes.clone();
        forged.splice(at..at, dup);
        let out = drain(&forged);
        prop_assert!(
            matches!(out, Err(DecodeError::DuplicateSection { tag: 0x0001 })),
            "forged duplicate header accepted: {out:?}"
        );
    }

    #[test]
    fn unknown_future_tags_rejected_not_misparsed(
        sizes in proptest::collection::vec(1u16..128, 0..3),
        raw_tag in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        // Only exercise tags that do NOT decode to a known section.
        prop_assume!(SectionTag::from_u16(raw_tag).is_none());
        let bytes = build_image(&sizes);
        // Insert the unknown record just before the end marker.
        let at = bytes.len() - 10;
        let evil = frame_record(raw_tag, &payload);
        let mut forged = bytes.clone();
        forged.splice(at..at, evil);
        let out = drain(&forged);
        prop_assert!(
            matches!(out, Err(DecodeError::InvalidEnum { what: "SectionTag", .. })),
            "unknown tag {raw_tag:#06x} not rejected: {out:?}"
        );
    }

    #[test]
    fn downversioned_image_is_unsupported(
        sizes in proptest::collection::vec(1u16..128, 0..3),
        delta in any::<bool>(),
    ) {
        // Take a current-version image, rewrite the preamble to claim v1:
        // the reader refuses it at the preamble, whatever the image holds.
        let header =
            Header { pod: "v".into(), host: "v".into(), wall_ms: 0, flags: 0 };
        let mut w = ImageWriter::new(&header);
        for &sz in &sizes {
            w.section(SectionTag::Memory, |r| r.put_bytes(&vec![1u8; sz as usize]));
        }
        if delta {
            w.section_bytes(SectionTag::MemoryDelta, &[0u8; 8]);
        }
        let mut bytes = w.finish();
        bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&1u32.to_le_bytes());
        let out = drain(&bytes);
        prop_assert!(
            matches!(out, Err(DecodeError::UnsupportedVersion { found: 1 })),
            "v1 image not refused: {out:?}"
        );
    }

    #[test]
    fn single_byte_corruption_never_panics_and_rarely_passes(
        sizes in proptest::collection::vec(1u16..512, 1..4),
        at in any::<usize>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = build_image(&sizes);
        let at = at % bytes.len();
        bytes[at] ^= xor;
        // Whatever happens must be a typed outcome, not a panic. A flip in
        // a payload byte is caught by the record check; flips in framing
        // surface as magic/version/length/tag errors. A damaged payload
        // passes the 32-bit check with probability 2^-32; for single-byte
        // and single-bit damage to the fixed image of
        // `fault_plan_damage_at_every_offset_is_a_typed_error` it never does.
        let out = drain(&bytes);
        if at >= MAGIC.len() + 4 {
            prop_assert!(out.is_err(), "corrupt byte {at} accepted: {out:?}");
        }
    }
}

/// The fault plan's `Corrupt` damage (`FaultPlan::mangle`: one byte xored
/// with 0xA5) at every byte offset of a fixed image, and every single-bit
/// flip: each ends in a typed error. Damage inside a record's tag, payload
/// or check is a `ChecksumMismatch`; damage to the preamble or a length is
/// some other typed error, or a `ChecksumMismatch` when a wrong length
/// moves the check. Single-bit flips turn the tag of a `Memory`, `Process`
/// or `NetState` section into that of another known section, which only
/// the tag's share of the check can catch.
#[test]
fn fault_plan_damage_at_every_offset_is_a_typed_error() {
    let clean = build_image(&[1, 200, 512]);
    // The tag bytes and the payload-and-check bytes of every record.
    let mut records = Vec::new();
    let mut pos = MAGIC.len() + 4;
    while pos < clean.len() {
        let len = u32::from_le_bytes(clean[pos + 2..pos + 6].try_into().unwrap()) as usize;
        records.push((pos..pos + 2, pos + 6..pos + 6 + len + 4));
        pos += 6 + len + 4;
    }
    assert_eq!(records.len(), 5, "header, three sections, end");
    let xors: Vec<u8> = (0..8).map(|b| 1 << b).chain([0xA5]).collect();
    let mut cases = 0;
    for at in 0..clean.len() {
        for &xor in &xors {
            let mut bytes = clean.clone();
            bytes[at] ^= xor;
            let out = std::panic::catch_unwind(|| drain(&bytes))
                .unwrap_or_else(|_| panic!("byte {at} xor {xor:#04x} panicked"));
            let checked =
                records.iter().find(|(tag, body)| tag.contains(&at) || body.contains(&at));
            match (checked, out) {
                (Some((tag, _)), Err(DecodeError::ChecksumMismatch { tag: t, .. })) => {
                    // The tag reported is the tag read, damaged or not.
                    let read = u16::from_le_bytes([bytes[tag.start], bytes[tag.start + 1]]);
                    assert_eq!(t, read, "byte {at} xor {xor:#04x}");
                }
                (Some(_), other) => panic!("byte {at} xor {xor:#04x}: {other:?}"),
                (None, Ok(n)) => panic!("framing byte {at} xor {xor:#04x} read {n} sections"),
                (None, Err(_)) => {}
            }
            cases += 1;
        }
    }
    assert_eq!(cases, clean.len() * 9);
}

/// A decode target whose in-memory footprint (4 KiB) vastly exceeds its
/// wire footprint (8 bytes): the shape that turns a trusted length prefix
/// into allocation amplification. 512× per element, so a hostile 64 KiB
/// payload once drove a ~128 MiB `Vec::with_capacity` before a single
/// element had been validated.
#[allow(dead_code)]
struct FatElem([u64; 512]);

impl Decode for FatElem {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let seed = r.get_u64()?;
        Ok(FatElem([seed; 512]))
    }
}

proptest! {
    /// The clamp itself: whatever is declared, the speculative reserve is
    /// bounded by the remaining input *and* by [`MAX_PREALLOC_BYTES`] of
    /// element memory — and honest declarations are never under-served
    /// below what those bounds allow.
    #[test]
    fn seq_capacity_is_bounded_and_faithful(
        declared in any::<u64>(),
        max_encodable in 0usize..1 << 20,
        elem in 0usize..1 << 16,
    ) {
        let cap = seq_capacity(declared, max_encodable, elem);
        prop_assert!(cap <= max_encodable);
        prop_assert!(cap as u64 <= declared);
        prop_assert!(cap.saturating_mul(elem.max(1)) <= MAX_PREALLOC_BYTES.max(max_encodable * elem.max(1)));
        prop_assert!(cap <= MAX_PREALLOC_BYTES / elem.max(1));
        // Faithful: small honest counts are reserved exactly.
        if declared as usize <= max_encodable && declared as usize <= MAX_PREALLOC_BYTES / elem.max(1) {
            prop_assert_eq!(cap as u64, declared);
        }
    }

    /// Adversarial length prefixes on sequence readers: any declared
    /// count over any small payload either decodes or fails typed —
    /// without the pre-validation allocation ever exceeding the payload
    /// bound (a hostile `u64::MAX` prefix used to reach
    /// `Vec::with_capacity` unclamped and abort the process).
    #[test]
    fn hostile_length_prefixes_never_amplify(
        declared in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 0..256),
        which in 0usize..4,
    ) {
        let mut w = RecordWriter::new();
        w.put_u64(declared);
        let mut buf = w.into_bytes();
        buf.extend_from_slice(&payload);

        let mut r = RecordReader::new(&buf);
        match which {
            0 => { let _ = r.get_u64_slice(); }
            1 => { let _ = r.get_f64_slice(); }
            2 => { let _ = r.get_bytes_owned(); }
            _ => { let _ = r.get_seq::<FatElem>(); }
        }
        // Reaching here at all is the property: no abort, no huge reserve.
        // Cross-check the only success case that could still over-reserve:
        // a *valid* FatElem count must not have been amplified 512×.
        let mut r = RecordReader::new(&buf);
        if let Ok(v) = r.get_seq::<FatElem>() {
            prop_assert!(v.len() * 8 <= payload.len());
        }
    }
}

/// The concrete amplification scenario, end to end: a declared element
/// count that matches the payload byte count (so the pre-existing
/// `LengthOverflow` guard cannot reject it) over elements 512× larger in
/// memory than on the wire. Unclamped, the reader would reserve
/// `64 Ki × 4 KiB = 256 MiB` before validating a single element; clamped,
/// it reserves at most [`MAX_PREALLOC_BYTES`] and fails typed when the
/// payload runs dry.
#[test]
fn fat_element_amplification_is_clamped() {
    let n = 64 * 1024u64;
    let mut w = RecordWriter::new();
    w.put_u64(n);
    let mut buf = w.into_bytes();
    buf.extend_from_slice(&vec![0xAAu8; n as usize]);

    let mut r = RecordReader::new(&buf);
    let out = r.get_seq::<FatElem>();
    assert!(
        matches!(out, Err(DecodeError::UnexpectedEof { .. })),
        "hostile fat-element count must fail typed: {:?}",
        out.map(|v| v.len())
    );
}

/// Encodes `v` and decodes it back, requiring every byte consumed.
fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: &T) -> Vec<u8> {
    let mut w = RecordWriter::new();
    w.put(v);
    let bytes = w.into_bytes();
    let mut r = RecordReader::new(&bytes);
    assert_eq!(&r.get::<T>().unwrap(), v);
    assert!(r.is_empty(), "{} bytes left over", r.remaining());
    bytes
}

#[test]
fn nested_composites_round_trip_in_their_one_encoding() {
    let nested: Vec<(u32, Option<Vec<u8>>)> =
        vec![(7, Some(b"abc".to_vec())), (9, None), (1, Some(Vec::new()))];
    let bytes = round_trip(&nested);
    let mut want = RecordWriter::new();
    want.put_u64(3);
    for (n, v) in &nested {
        want.put_u32(*n);
        want.put_bool(v.is_some());
        if let Some(v) = v {
            want.put_bytes(v);
        }
    }
    assert_eq!(bytes, want.into_bytes());

    let map: BTreeMap<String, Vec<u64>> =
        [("b".to_string(), vec![2, 3]), ("a".to_string(), Vec::new())].into_iter().collect();
    let bytes = round_trip(&map);
    let mut want = RecordWriter::new();
    want.put_u64(2);
    want.put_str("a");
    want.put_u64_slice(&[]);
    want.put_str("b");
    want.put_u64_slice(&[2, 3]);
    assert_eq!(bytes, want.into_bytes());

    // A ring whose contents wrap: both halves are non-empty.
    let mut ring: VecDeque<u8> = VecDeque::with_capacity(8);
    ring.extend(0..6);
    ring.drain(..4);
    ring.extend(6..11);
    let (front, back) = ring.as_slices();
    assert!(!front.is_empty() && !back.is_empty(), "the ring must wrap");
    let bytes = round_trip(&ring);
    let mut want = RecordWriter::new();
    want.put_bytes(&[4, 5, 6, 7, 8, 9, 10]);
    assert_eq!(bytes, want.into_bytes());
}

#[test]
fn hostile_counts_on_composites_are_length_overflow() {
    for tail in [&[][..], &[1, 2, 3][..]] {
        for declared in [u64::MAX, tail.len() as u64 + 1] {
            let mut w = RecordWriter::new();
            w.put_u64(declared);
            let mut buf = w.into_bytes();
            buf.extend_from_slice(tail);
            let overflow = |res: Result<(), DecodeError>| {
                assert_eq!(res, Err(DecodeError::LengthOverflow { declared }), "count {declared}");
            };
            overflow(RecordReader::new(&buf).get::<Vec<(u64, String)>>().map(drop));
            overflow(RecordReader::new(&buf).get::<Vec<u8>>().map(drop));
            overflow(RecordReader::new(&buf).get::<VecDeque<u8>>().map(drop));
            overflow(RecordReader::new(&buf).get::<BTreeMap<u32, Vec<u8>>>().map(drop));
            overflow(RecordReader::new(&buf).get::<Vec<FatElem>>().map(drop));
        }
    }
}

#[test]
fn option_tag_other_than_zero_or_one_is_invalid() {
    let got = RecordReader::new(&[2, 0, 0, 0, 0]).get::<Option<u32>>();
    assert_eq!(got, Err(DecodeError::InvalidEnum { what: "bool", value: 2 }));
}

/// Every variant of a table-coded enum writes its position in `all` and
/// reads back as itself; the first code past the table is refused,
/// naming the enum.
fn table_round_trips<T>(all: &[T], what: &str)
where
    T: Encode + Decode + PartialEq + Copy + std::fmt::Debug,
{
    for (code, v) in all.iter().enumerate() {
        assert_eq!(round_trip(v), [code as u8], "{what}");
    }
    let past_end = [all.len() as u8];
    match RecordReader::new(&past_end).get::<T>() {
        Err(DecodeError::InvalidEnum { what: w, value }) => {
            assert_eq!((w, value), (what, all.len() as u64));
        }
        other => panic!("{what} code {}: got {other:?}", all.len()),
    }
}

#[test]
fn table_coded_enums_round_trip_and_refuse_the_code_past_their_table() {
    table_round_trips(&Transport::ALL, "Transport");
    table_round_trips(&ConnState::ALL, "ConnState");
    table_round_trips(&RestartRole::ALL, "RestartRole");
}

#[test]
fn current_version_constant_matches_writer() {
    let header = Header { pod: "x".into(), host: "y".into(), wall_ms: 0, flags: 0 };
    let bytes = ImageWriter::new(&header).finish();
    assert_eq!(bytes[MAGIC.len()..MAGIC.len() + 4], FORMAT_VERSION.to_le_bytes());
    assert!(ImageReader::open(&bytes).is_ok());
}
