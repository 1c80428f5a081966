//! Checkpoint image layout: a magic/version preamble followed by framed,
//! checked sections.
//!
//! ```text
//! +--------+---------+--------+-----------+-----------+-----+-------+
//! | MAGIC  | version | HEADER | section 1 | section 2 | ... | END   |
//! +--------+---------+--------+-----------+-----------+-----+-------+
//! ```
//!
//! Section contents are produced by the `zapc-ckpt` (per-pod state) and
//! `zapc-netckpt` (network state) crates; this module only defines framing
//! and ordering. Network state is written *first* (after the header) because
//! the Agent checkpoints it first (paper §4, Figure 1) and a streaming
//! restore consumes sections in write order.

use crate::error::{DecodeError, DecodeResult};
use crate::rw::{decode_exact, RecordStream, RecordWriter};

/// Magic bytes that start every ZapC checkpoint image.
pub const MAGIC: &[u8; 8] = b"ZAPCIMG\0";

/// The image format version: the only one written and the only one read.
/// Version 2 added [`SectionTag::MemoryDelta`] sections carrying only
/// dirty regions; they travel on live-migration streams, after the base
/// they apply to, and never appear in a stored image. Version 3 checks
/// every record with the low 32 bits of `digest64`.
pub const FORMAT_VERSION: u32 = 3;

/// Section tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum SectionTag {
    /// Image header: pod name, source host, wall-clock time, flags.
    Header = 0x0001,
    /// Network meta-data table (`zapc_proto::meta::MetaData`).
    NetMeta = 0x0010,
    /// Per-socket network state (parameters, queues, PCB extract).
    NetState = 0x0011,
    /// Pod namespace state (PID map, virtual address map, chroot).
    Namespace = 0x0020,
    /// One process: control block + program state.
    Process = 0x0030,
    /// One address-space memory region.
    Memory = 0x0031,
    /// File-descriptor table of one process.
    FdTable = 0x0032,
    /// Pending timers and the virtual clock bias.
    Timers = 0x0033,
    /// Delta replacement for [`SectionTag::Memory`]: only the
    /// regions dirtied since the base the same stream delivered earlier,
    /// plus the live-region set.
    MemoryDelta = 0x0034,
    /// File-system snapshot (optional; ZapC normally relies on shared
    /// storage and skips this, paper §3).
    FsSnapshot = 0x0040,
    /// End-of-image marker.
    End = 0x00FF,
}

impl SectionTag {
    /// Decodes a raw tag value.
    pub fn from_u16(v: u16) -> Option<SectionTag> {
        Some(match v {
            0x0001 => SectionTag::Header,
            0x0010 => SectionTag::NetMeta,
            0x0011 => SectionTag::NetState,
            0x0020 => SectionTag::Namespace,
            0x0030 => SectionTag::Process,
            0x0031 => SectionTag::Memory,
            0x0032 => SectionTag::FdTable,
            0x0033 => SectionTag::Timers,
            0x0034 => SectionTag::MemoryDelta,
            0x0040 => SectionTag::FsSnapshot,
            0x00FF => SectionTag::End,
            _ => return None,
        })
    }
}

/// Image header contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Name of the checkpointed pod.
    pub pod: String,
    /// Host the checkpoint was taken on (informational).
    pub host: String,
    /// Wall-clock time of the checkpoint in milliseconds since the epoch of
    /// the simulated cluster clock.
    pub wall_ms: u64,
    /// Bit flags (reserved; bit 0 = image contains an FS snapshot).
    pub flags: u32,
}

/// Builds a checkpoint image section by section: one appending writer,
/// every section framed in place in the image buffer itself.
#[derive(Debug)]
pub struct ImageWriter {
    out: RecordWriter,
}

impl ImageWriter {
    /// Starts a new image with the given header.
    pub fn new(header: &Header) -> Self {
        ImageWriter::with_capacity(header, 4096)
    }

    /// Starts a new image, pre-reserving `capacity_hint` bytes for the
    /// encoded image. Checkpoint images are dominated by application
    /// memory (§6.2), so callers that know the pod's mapped byte total
    /// should pass it here: a multi-MB image then allocates once instead
    /// of paying repeated `Vec` regrowth memcpys on the hot path.
    pub fn with_capacity(header: &Header, capacity_hint: usize) -> Self {
        let mut out = RecordWriter::with_capacity(capacity_hint.max(256));
        out.put_raw(MAGIC);
        out.put_u32(FORMAT_VERSION);
        let mark = out.begin_record(SectionTag::Header as u16);
        out.put_str(&header.pod);
        out.put_str(&header.host);
        out.put_u64(header.wall_ms);
        out.put_u32(header.flags);
        out.end_record(mark);
        ImageWriter { out }
    }

    /// Appends a section whose payload `f` encodes straight into the image.
    pub fn section(&mut self, tag: SectionTag, f: impl FnOnce(&mut RecordWriter)) {
        assert!(tag != SectionTag::Header && tag != SectionTag::End, "reserved tag");
        let mark = self.out.begin_record(tag as u16);
        f(&mut self.out);
        self.out.end_record(mark);
    }

    /// Appends a section from payload bytes the caller already holds
    /// encoded.
    pub fn section_bytes(&mut self, tag: SectionTag, payload: &[u8]) {
        self.section(tag, |w| w.put_raw(payload));
    }

    /// Terminates the image and returns its bytes.
    pub fn finish(mut self) -> Vec<u8> {
        let mark = self.out.begin_record(SectionTag::End as u16);
        self.out.end_record(mark);
        self.out.into_bytes()
    }
}

/// One decoded section.
#[derive(Debug, Clone)]
pub struct Section<'a> {
    /// Section tag.
    pub tag: SectionTag,
    /// Checked payload.
    pub payload: &'a [u8],
}

/// Reads a checkpoint image: validates the preamble, exposes the header, and
/// iterates sections until the end marker.
#[derive(Debug, Clone)]
pub struct ImageReader<'a> {
    header: Header,
    stream: RecordStream<'a>,
    done: bool,
}

impl<'a> ImageReader<'a> {
    /// Opens an image, validating magic, version ([`FORMAT_VERSION`]
    /// only) and the header's record check.
    pub fn open(bytes: &'a [u8]) -> DecodeResult<Self> {
        if bytes.len() < MAGIC.len() + 4 || &bytes[..MAGIC.len()] != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let ver = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if ver != FORMAT_VERSION {
            return Err(DecodeError::UnsupportedVersion { found: ver });
        }
        let mut stream = RecordStream::new(&bytes[12..]);
        let payload = stream.expect_record(SectionTag::Header as u16)?;
        let header = decode_exact(SectionTag::Header as u16, payload, |r| {
            Ok(Header {
                pod: r.get_str()?,
                host: r.get_str()?,
                wall_ms: r.get_u64()?,
                flags: r.get_u32()?,
            })
        })?;
        Ok(ImageReader { header, stream, done: false })
    }

    /// The image header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// Returns the next section, or `None` at the end marker.
    pub fn next_section(&mut self) -> DecodeResult<Option<Section<'a>>> {
        if self.done {
            return Ok(None);
        }
        let (raw, payload) = self.stream.next_record()?;
        let tag = SectionTag::from_u16(raw)
            .ok_or(DecodeError::InvalidEnum { what: "SectionTag", value: raw as u64 })?;
        if tag == SectionTag::End {
            self.done = true;
            return Ok(None);
        }
        if tag == SectionTag::Header {
            // The header is read by `open`; a second one is a forgery.
            return Err(DecodeError::DuplicateSection { tag: raw });
        }
        Ok(Some(Section { tag, payload }))
    }

    /// Collects all sections (for random-access restore paths).
    pub fn sections(mut self) -> DecodeResult<Vec<Section<'a>>> {
        let mut out = Vec::new();
        while let Some(s) = self.next_section()? {
            out.push(s);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rw::frame_record;

    fn header() -> Header {
        Header { pod: "pod-1".into(), host: "node-a".into(), wall_ms: 123_456, flags: 0 }
    }

    #[test]
    fn image_round_trip() {
        let mut w = ImageWriter::new(&header());
        w.section(SectionTag::NetMeta, |r| r.put_str("meta"));
        w.section(SectionTag::Memory, |r| r.put_bytes(&[9u8; 100]));
        let bytes = w.finish();

        let mut rd = ImageReader::open(&bytes).unwrap();
        assert_eq!(rd.header().pod, "pod-1");
        assert_eq!(rd.header().wall_ms, 123_456);

        let s1 = rd.next_section().unwrap().unwrap();
        assert_eq!(s1.tag, SectionTag::NetMeta);
        let s2 = rd.next_section().unwrap().unwrap();
        assert_eq!(s2.tag, SectionTag::Memory);
        assert!(rd.next_section().unwrap().is_none());
        // Idempotent at the end.
        assert!(rd.next_section().unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let err = ImageReader::open(b"NOTANIMG____").unwrap_err();
        assert_eq!(err, DecodeError::BadMagic);
    }

    #[test]
    fn every_other_version_rejected() {
        let mut w = ImageWriter::new(&header());
        w.section(SectionTag::NetMeta, |r| r.put_u8(0));
        let mut bytes = w.finish();
        // v1 (the pre-delta format) and v2 (the previous record check) are no
        // more readable than a future one.
        for found in [0, 1, 2, 4, 0xFE] {
            bytes[8..12].copy_from_slice(&u32::to_le_bytes(found));
            assert_eq!(
                ImageReader::open(&bytes).unwrap_err(),
                DecodeError::UnsupportedVersion { found }
            );
        }
    }

    #[test]
    fn truncated_image_detected() {
        let mut w = ImageWriter::new(&header());
        w.section(SectionTag::Memory, |r| r.put_bytes(&[1u8; 64]));
        let bytes = w.finish();
        // Cut deep enough to damage the memory section itself.
        let cut = &bytes[..bytes.len() - 20];
        let mut rd = ImageReader::open(cut).unwrap();
        assert!(rd.next_section().is_err());

        // Cut exactly the end marker: the section reads fine but the image
        // never terminates cleanly.
        let cut = &bytes[..bytes.len() - 10];
        let mut rd = ImageReader::open(cut).unwrap();
        let _ = rd.next_section().unwrap().unwrap();
        assert!(rd.next_section().is_err());
    }

    #[test]
    fn section_bytes_matches_section_closure() {
        let mut w1 = ImageWriter::new(&header());
        w1.section(SectionTag::NetState, |r| {
            r.put_u64(7);
            r.put_str("x");
        });
        let b1 = w1.finish();

        let mut pre = RecordWriter::new();
        pre.put_u64(7);
        pre.put_str("x");
        let mut w2 = ImageWriter::new(&header());
        w2.section_bytes(SectionTag::NetState, pre.bytes());
        let b2 = w2.finish();
        assert_eq!(b1, b2);
    }

    #[test]
    #[should_panic(expected = "reserved tag")]
    fn header_tag_is_reserved() {
        let mut w = ImageWriter::new(&header());
        w.section(SectionTag::Header, |_| {});
    }

    #[test]
    fn duplicate_header_rejected() {
        let mut w = ImageWriter::new(&header());
        w.section(SectionTag::NetMeta, |r| r.put_u8(0));
        let mut bytes = w.finish();
        // Splice a second header record before the end marker.
        let mut hw = RecordWriter::new();
        hw.put_str("evil");
        hw.put_str("evil");
        hw.put_u64(0);
        hw.put_u32(0);
        let dup = frame_record(SectionTag::Header as u16, hw.bytes());
        let end_len = 2 + 4 + 4; // empty End record framing
        let at = bytes.len() - end_len;
        bytes.splice(at..at, dup);
        let mut rd = ImageReader::open(&bytes).unwrap();
        let _ = rd.next_section().unwrap().unwrap();
        assert!(matches!(
            rd.next_section(),
            Err(DecodeError::DuplicateSection { tag: 0x0001 })
        ));
    }

    #[test]
    fn with_capacity_is_byte_identical_to_new() {
        let mut a = ImageWriter::new(&header());
        a.section(SectionTag::Memory, |r| r.put_bytes(&[5u8; 4096]));
        let mut b = ImageWriter::with_capacity(&header(), 1 << 20);
        b.section(SectionTag::Memory, |r| r.put_bytes(&[5u8; 4096]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn writer_emits_current_version() {
        let bytes = ImageWriter::new(&header()).finish();
        assert_eq!(bytes[8..12], FORMAT_VERSION.to_le_bytes());
        let mut rd = ImageReader::open(&bytes).unwrap();
        assert!(rd.next_section().unwrap().is_none());
    }
}
