//! Checkpoint commit manifests: the durable record whose atomic rename
//! *is* the commit point of a coordinated checkpoint.
//!
//! A coordinated checkpoint stages one image per pod into the durable
//! store and then publishes exactly one [`Manifest`] naming every staged
//! image with its digest, byte count and placement. Until the
//! manifest file lands at its final path the checkpoint does not exist: a
//! crash leaves only unreferenced staged images, which recovery
//! garbage-collects. After the rename the checkpoint is fully
//! described by durable state: recovery re-validates each referenced image
//! against its recorded digest and either resumes from the manifest or
//! rolls back to the previous one — a half-written checkpoint can never be
//! consumed (BLCR makes the same atomic-commit argument for its
//! checkpoint files; Chandy–Lamport requires the recorded cut to be
//! all-or-nothing).
//!
//! The wire form is deliberately boring: its own magic + version preamble
//! followed by one CRC-framed record, so a torn or corrupted manifest is a
//! typed [`DecodeError`] — exactly like a damaged image — never a misparse.

use crate::error::{DecodeError, DecodeResult};
use crate::rw::{preamble_decode, preamble_encode, Decode, Encode, RecordReader, RecordWriter};
use std::collections::HashSet;

/// Magic bytes that start every serialized manifest.
pub const MANIFEST_MAGIC: &[u8; 8] = b"ZAPCMAN\0";

/// Current manifest format version.
pub const MANIFEST_VERSION: u32 = 3;

/// Record tag of the manifest body (disjoint from image section tags).
pub const MANIFEST_TAG: u16 = 0x0100;

/// One pod's entry in a checkpoint manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Pod name (unique within the manifest).
    pub pod: String,
    /// Store-relative reference of the committed image
    /// (e.g. `images/7/worker-0`).
    pub image_ref: String,
    /// The image digest: `digest64` over its recipe's `(digest, len)`
    /// chunk list, each chunk keyed by the `digest64` of its bytes.
    /// Re-verified on every open.
    pub digest: u64,
    /// Image size in bytes.
    pub bytes: u64,
    /// Node the pod lived on at checkpoint time (restart placement hint).
    pub node: u32,
}

impl Encode for ManifestEntry {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_str(&self.pod);
        w.put_str(&self.image_ref);
        w.put_u64(self.digest);
        w.put_u64(self.bytes);
        w.put_u32(self.node);
    }
}

impl Decode for ManifestEntry {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(ManifestEntry {
            pod: r.get_str()?,
            image_ref: r.get_str()?,
            digest: r.get_u64()?,
            bytes: r.get_u64()?,
            node: r.get_u32()?,
        })
    }
}

/// The commit record of one coordinated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Manifest {
    /// Monotonic checkpoint id (also the store directory name).
    pub ckpt_id: u64,
    /// Manager epoch that produced this checkpoint (bumped on recovery).
    pub epoch: u64,
    /// Cluster wall-clock time of the commit (ms).
    pub wall_ms: u64,
    /// One entry per checkpointed pod.
    pub entries: Vec<ManifestEntry>,
}

impl Manifest {
    /// Looks an entry up by pod name.
    pub fn entry(&self, pod: &str) -> Option<&ManifestEntry> {
        self.entries.iter().find(|e| e.pod == pod)
    }

    /// Serializes the manifest: magic, version, one CRC-framed record.
    pub fn to_bytes(&self) -> Vec<u8> {
        preamble_encode(MANIFEST_MAGIC, MANIFEST_VERSION, MANIFEST_TAG, self)
    }

    /// Parses and validates a serialized manifest: magic, version, record
    /// CRC, full payload consumption, and pod-reference uniqueness. Every
    /// way a manifest can be torn, truncated, or forged surfaces as a
    /// typed [`DecodeError`].
    pub fn from_bytes(bytes: &[u8]) -> DecodeResult<Manifest> {
        let m: Manifest = preamble_decode(MANIFEST_MAGIC, MANIFEST_VERSION, MANIFEST_TAG, bytes)?;
        let mut seen = HashSet::with_capacity(m.entries.len());
        for e in &m.entries {
            if !seen.insert(e.pod.as_str()) {
                return Err(DecodeError::DuplicateEntry { what: "manifest pod" });
            }
        }
        Ok(m)
    }
}

impl Encode for Manifest {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.ckpt_id);
        w.put_u64(self.epoch);
        w.put_u64(self.wall_ms);
        w.put(&self.entries);
    }
}

impl Decode for Manifest {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(Manifest {
            ckpt_id: r.get_u64()?,
            epoch: r.get_u64()?,
            wall_ms: r.get_u64()?,
            entries: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            ckpt_id: 7,
            epoch: 2,
            wall_ms: 123,
            entries: vec![
                ManifestEntry {
                    pod: "w0".into(),
                    image_ref: "images/7/w0".into(),
                    digest: 0xDEAD_BEEF,
                    bytes: 4096,
                    node: 0,
                },
                ManifestEntry {
                    pod: "w1".into(),
                    image_ref: "images/7/w1".into(),
                    digest: 0xFEED_FACE,
                    bytes: 2048,
                    node: 1,
                },
            ],
        }
    }

    #[test]
    fn manifest_round_trip() {
        let m = sample();
        let bytes = m.to_bytes();
        assert_eq!(Manifest::from_bytes(&bytes).unwrap(), m);
        assert_eq!(m.entry("w1").unwrap().node, 1);
        assert!(m.entry("nope").is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(Manifest::from_bytes(b"NOTAMAN_____"), Err(DecodeError::BadMagic));
        assert_eq!(Manifest::from_bytes(b"short"), Err(DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        // 1 is the retired layout that carried per-entry lineage fields.
        for ver in [1u8, 0xFE] {
            let mut bytes = sample().to_bytes();
            bytes[8] = ver;
            assert_eq!(
                Manifest::from_bytes(&bytes),
                Err(DecodeError::UnsupportedVersion { found: ver as u32 })
            );
        }
    }

    #[test]
    fn truncation_is_a_typed_error() {
        let bytes = sample().to_bytes();
        for cut in 0..bytes.len() {
            assert!(Manifest::from_bytes(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn corruption_is_caught_by_crc() {
        let bytes = sample().to_bytes();
        // Flip one payload byte (past the 12-byte preamble and the 6-byte
        // record framing prefix).
        let mut bad = bytes.clone();
        let idx = 12 + 6 + 3;
        bad[idx] ^= 0xA5;
        assert!(Manifest::from_bytes(&bad).is_err());
    }

    #[test]
    fn duplicate_pod_refs_rejected() {
        let mut m = sample();
        m.entries.push(m.entries[0].clone());
        let err = Manifest::from_bytes(&m.to_bytes()).unwrap_err();
        assert_eq!(err, DecodeError::DuplicateEntry { what: "manifest pod" });
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            Manifest::from_bytes(&bytes),
            Err(DecodeError::TrailingBytes { .. }) | Err(DecodeError::UnexpectedEof { .. })
        ));
    }
}
