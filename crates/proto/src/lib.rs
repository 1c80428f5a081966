//! # zapc-proto — the portable checkpoint image format
//!
//! ZapC checkpoints are written in a *portable intermediate format* rather
//! than kernel-specific native data structures, so that an image produced on
//! one node (or kernel version) can be restored on another (paper §3).
//!
//! This crate implements that format from scratch:
//!
//! * [`crc`] — `digest64`, the one checksum: content identity, and (its
//!   low 32 bits) every record's check,
//! * [`rw`] — self-describing, length-prefixed, checked records with a
//!   typed primitive layer ([`rw::RecordWriter`] / [`rw::RecordReader`])
//!   and the one encoding of each composite value (sequences, options,
//!   tuples, maps, table-coded enums) that every record codec is built on,
//! * [`image`] — the section layout of a pod checkpoint image
//!   (header, network meta-data, network state, processes, memory, …),
//! * [`meta`] — the network meta-data table exchanged between Agents and the
//!   Manager during coordinated checkpoint/restart (paper §4): one entry per
//!   connection with source/target endpoints, transport protocol, connection
//!   state, and the restart `connect`/`accept` schedule tag.
//!
//! The format is versioned ([`image::FORMAT_VERSION`]) and every record is
//! independently checksummed, so truncated or corrupted images are detected
//! rather than mis-restored.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chunkindex;
pub mod crc;
pub mod error;
pub mod image;
pub mod manifest;
pub mod meta;
pub mod rw;

pub use chunkindex::{ChunkIndex, ChunkRef, CHUNK_INDEX_MAGIC, CHUNK_INDEX_TAG, CHUNK_INDEX_VERSION};
pub use error::{DecodeError, DecodeResult};
pub use image::{ImageReader, ImageWriter, SectionTag, FORMAT_VERSION, MAGIC};
pub use manifest::{Manifest, ManifestEntry, MANIFEST_MAGIC, MANIFEST_TAG, MANIFEST_VERSION};
pub use meta::{ConnEntry, ConnState, Endpoint, MetaData, RestartRole, Transport};
pub use rw::{seq_capacity, Decode, Encode, RecordReader, RecordWriter, MAX_PREALLOC_BYTES};
