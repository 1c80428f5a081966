//! Memory delta records: one process's address-space changes since an
//! earlier capture of the same process.
//!
//! A [`MemoryDeltaRecord`] ([`zapc_proto::SectionTag::MemoryDelta`])
//! carries only the regions dirtied since its base generation. It is only
//! ever resolved against a base that arrived earlier on the same stream:
//! live migration's pre-copy rounds and cutover feed
//! [`crate::DecodedPod::apply_section`], which applies each delta onto the
//! `Memory` section it already holds for that vpid. Stored images always
//! stand alone — [`crate::restore_standalone`] refuses a `MemoryDelta`.

use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::memory::{AddressSpace, Region};

/// Payload of a [`zapc_proto::SectionTag::MemoryDelta`] section: one
/// process's address-space changes since its base capture.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryDeltaRecord {
    /// Virtual PID this delta belongs to.
    pub vpid: u32,
    /// Address-space generation the base was captured at.
    pub base_gen: u64,
    /// Address-space generation at this capture (the next delta's base).
    pub new_gen: u64,
    /// Allocator watermark at this capture.
    pub next_base: u64,
    /// Bases of *all* live regions — regions of the base absent from this
    /// set were unmapped and must be dropped when the delta is applied.
    pub live: Vec<u64>,
    /// Full contents of every region written since `base_gen`.
    pub dirty: Vec<Region>,
}

impl MemoryDeltaRecord {
    /// Captures the delta of `mem` since `base_gen`.
    pub fn capture(vpid: u32, base_gen: u64, mem: &AddressSpace) -> Self {
        MemoryDeltaRecord {
            vpid,
            base_gen,
            new_gen: mem.generation(),
            next_base: mem.next_base(),
            live: mem.regions().map(|r| r.base).collect(),
            dirty: mem.dirty_regions(base_gen).cloned().collect(),
        }
    }

    /// Applies this delta on top of the base address space.
    pub fn apply(self, mem: &mut AddressSpace) {
        mem.apply_delta(&self.live, self.dirty, self.next_base);
    }
}

impl Encode for MemoryDeltaRecord {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.vpid);
        w.put_u64(self.base_gen);
        w.put_u64(self.new_gen);
        w.put_u64(self.next_base);
        w.put(&self.live);
        w.put(&self.dirty);
    }
}

impl Decode for MemoryDeltaRecord {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(MemoryDeltaRecord {
            vpid: r.get_u32()?,
            base_gen: r.get_u64()?,
            new_gen: r.get_u64()?,
            next_base: r.get_u64()?,
            live: r.get()?,
            dirty: r.get()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let mut mem = AddressSpace::new();
        let hot = mem.map_bytes("hot", 16);
        let snap = mem.generation();
        mem.bytes_mut(hot).unwrap()[0] = 9;
        let d = MemoryDeltaRecord::capture(7, snap, &mem);
        assert_eq!(d.dirty.len(), 1);
        let mut w = RecordWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let back = MemoryDeltaRecord::decode(&mut RecordReader::new(&bytes)).unwrap();
        assert_eq!(back, d);
    }
}
