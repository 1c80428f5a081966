//! Decode-side error type for the checkpoint image format.

use std::fmt;

/// Errors produced while decoding a checkpoint image or record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The input ended before a complete value could be read.
    UnexpectedEof {
        /// What the decoder was trying to read.
        wanted: &'static str,
    },
    /// A record's stored CRC does not match its payload.
    CrcMismatch {
        /// Record tag whose payload failed verification.
        tag: u16,
        /// CRC stored in the stream.
        stored: u32,
        /// CRC computed over the payload actually read.
        computed: u32,
    },
    /// A record with an unexpected tag was encountered.
    UnexpectedTag {
        /// Tag found in the stream.
        found: u16,
        /// Tag the caller required.
        expected: u16,
    },
    /// The image magic bytes are wrong (not a ZapC image).
    BadMagic,
    /// The image was written by an unsupported format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// A length field is implausible (guards against corrupt/hostile input).
    LengthOverflow {
        /// The offending declared length.
        declared: u64,
    },
    /// An enumeration discriminant had no defined meaning, or a field
    /// held a value its type cannot (a port past `u16`, an exit code past
    /// `i32`, a flag byte other than 0 or 1).
    InvalidEnum {
        /// Name of the enumeration or field being decoded.
        what: &'static str,
        /// The invalid raw value.
        value: u64,
    },
    /// A UTF-8 string field contained invalid UTF-8.
    InvalidUtf8,
    /// A section tag that may appear at most once (e.g. the image header)
    /// appeared again.
    DuplicateSection {
        /// The repeated tag.
        tag: u16,
    },
    /// The decoder finished a record with unconsumed payload bytes,
    /// indicating a reader/writer schema mismatch.
    TrailingBytes {
        /// Record tag with leftover bytes.
        tag: u16,
        /// Number of unread payload bytes.
        remaining: usize,
    },
    /// A keyed entry that must be unique within its table (e.g. a pod
    /// reference in a checkpoint manifest) appeared more than once.
    DuplicateEntry {
        /// What kind of entry was duplicated.
        what: &'static str,
    },
    /// A record decoded cleanly but its fields are mutually inconsistent
    /// (e.g. a chunk index whose per-chunk lengths do not sum to the
    /// recorded logical length) — a forgery or corruption the CRC alone
    /// cannot catch.
    Inconsistent {
        /// Which structural invariant failed.
        what: &'static str,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::UnexpectedEof { wanted } => {
                write!(f, "unexpected end of input while reading {wanted}")
            }
            DecodeError::CrcMismatch { tag, stored, computed } => write!(
                f,
                "CRC mismatch in record {tag:#06x}: stored {stored:#010x}, computed {computed:#010x}"
            ),
            DecodeError::UnexpectedTag { found, expected } => {
                write!(f, "unexpected record tag {found:#06x} (expected {expected:#06x})")
            }
            DecodeError::BadMagic => write!(f, "not a ZapC checkpoint image (bad magic)"),
            DecodeError::UnsupportedVersion { found } => {
                write!(f, "unsupported image format version {found}")
            }
            DecodeError::LengthOverflow { declared } => {
                write!(f, "declared length {declared} exceeds input size")
            }
            DecodeError::InvalidEnum { what, value } => {
                write!(f, "invalid {what} discriminant {value}")
            }
            DecodeError::InvalidUtf8 => write!(f, "invalid UTF-8 in string field"),
            DecodeError::DuplicateSection { tag } => {
                write!(f, "section {tag:#06x} appeared more than once")
            }
            DecodeError::TrailingBytes { tag, remaining } => {
                write!(f, "record {tag:#06x} has {remaining} unread payload bytes")
            }
            DecodeError::DuplicateEntry { what } => {
                write!(f, "duplicate {what} entry")
            }
            DecodeError::Inconsistent { what } => {
                write!(f, "inconsistent record: {what}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Convenience alias for decode results.
pub type DecodeResult<T> = Result<T, DecodeError>;
