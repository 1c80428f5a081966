//! Memory delta records: one process's address-space changes since an
//! earlier capture of the same process.
//!
//! A [`MemoryDeltaRecord`] ([`zapc_proto::SectionTag::MemoryDelta`])
//! carries only what was written since its base generation: the pages a
//! byte region's ranged writes touched, and whole regions for the rest
//! (mapped or borrowed whole since, and `f64` regions). It is only
//! ever resolved against a base that arrived earlier on the same stream:
//! live migration's pre-copy rounds and cutover feed
//! [`crate::DecodedPod::apply_section`], which applies each delta onto the
//! `Memory` section it already holds for that vpid. Stored images always
//! stand alone — [`crate::restore_standalone`] refuses a `MemoryDelta`.

use zapc_proto::{Decode, DecodeResult, Encode, RecordReader, RecordWriter};
use zapc_sim::memory::{AddressSpace, DeltaError, Dirty, PageDelta, Region};

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
    /// Full contents of every region mapped or written whole since
    /// `base_gen`.
    pub whole: Vec<Region>,
    /// The pages of byte regions written through ranged accesses since
    /// `base_gen`.
    pub pages: Vec<PageDelta>,
}

impl MemoryDeltaRecord {
    /// Captures the delta of `mem` since `base_gen`.
    pub fn capture(vpid: u32, base_gen: u64, mem: &AddressSpace) -> Self {
        let (mut whole, mut pages) = (Vec::new(), Vec::new());
        for dirty in mem.dirty_since(base_gen) {
            match dirty {
                Dirty::Whole(r) => whole.push(r.clone()),
                Dirty::Pages(r, idx) => pages.push(PageDelta::capture(r, &idx)),
            }
        }
        MemoryDeltaRecord {
            vpid,
            base_gen,
            new_gen: mem.generation(),
            next_base: mem.next_base(),
            live: mem.regions().map(|r| r.base).collect(),
            whole,
            pages,
        }
    }

    /// Region-content bytes the delta carries.
    pub fn byte_len(&self) -> usize {
        self.whole.iter().map(|r| r.data.byte_len()).sum::<usize>()
            + self.pages.iter().map(PageDelta::byte_len).sum::<usize>()
    }

    /// Applies this delta on top of the base address space.
    pub fn apply(self, mem: &mut AddressSpace) -> Result<(), DeltaError> {
        mem.apply_delta(&self.live, self.whole, self.pages, self.next_base)
    }
}

impl Encode for MemoryDeltaRecord {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u32(self.vpid);
        w.put_u64(self.base_gen);
        w.put_u64(self.new_gen);
        w.put_u64(self.next_base);
        w.put(&self.live);
        w.put(&self.whole);
        w.put(&self.pages);
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
            whole: r.get()?,
            pages: r.get()?,
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
        let table = mem.map_bytes("table", 3 * zapc_sim::memory::PAGE);
        let snap = mem.generation();
        mem.bytes_mut(hot).unwrap()[0] = 9;
        mem.bytes_range_mut(table, 5000..5001).unwrap()[0] = 1;
        let d = MemoryDeltaRecord::capture(7, snap, &mem);
        assert_eq!(d.whole.len(), 1);
        assert_eq!(d.pages.len(), 1);
        assert_eq!(d.byte_len(), 16 + zapc_sim::memory::PAGE);
        let mut w = RecordWriter::new();
        d.encode(&mut w);
        let bytes = w.into_bytes();
        let back = MemoryDeltaRecord::decode(&mut RecordReader::new(&bytes)).unwrap();
        assert_eq!(back, d);
    }
}
