//! Explicit address spaces.
//!
//! §6.2 shows that application memory dominates checkpoint images by
//! orders of magnitude over network state. The simulated kernel therefore
//! reifies process memory as named regions inside an [`AddressSpace`]:
//! workloads allocate their grids and buffers here, and the standalone
//! checkpoint serializes regions wholesale — the direct analogue of a
//! kernel checkpointer walking a process's VMAs.
//!
//! Regions are byte regions or `f64` regions (scientific workloads operate
//! on doubles; a typed region avoids transmuting and keeps the simulator
//! free of `unsafe`).

use std::collections::BTreeMap;
use zapc_proto::{Decode, DecodeError, DecodeResult, Encode, RecordReader, RecordWriter};

/// Backing data of one region.
#[derive(Debug, Clone, PartialEq)]
pub enum RegionData {
    /// Raw bytes.
    Bytes(Vec<u8>),
    /// 64-bit floats (grid/array state of the scientific workloads).
    F64(Vec<f64>),
}

impl RegionData {
    /// Size in bytes (what the checkpoint image will carry).
    pub fn byte_len(&self) -> usize {
        match self {
            RegionData::Bytes(b) => b.len(),
            RegionData::F64(v) => v.len() * 8,
        }
    }
}

/// One mapped region.
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Base address (opaque handle; addresses are never dereferenced).
    pub base: u64,
    /// Human-readable name (`"heap"`, `"grid"`, `"scene"`, …).
    pub name: String,
    /// Contents.
    pub data: RegionData,
}

impl Encode for Region {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.base);
        w.put_str(&self.name);
        match &self.data {
            RegionData::Bytes(b) => {
                w.put_u8(0);
                w.put_bytes(b);
            }
            RegionData::F64(v) => {
                w.put_u8(1);
                w.put_f64_slice(v);
            }
        }
    }
}

impl Decode for Region {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let base = r.get_u64()?;
        let name = r.get_str()?;
        let data = match r.get_u8()? {
            0 => RegionData::Bytes(r.get_bytes_owned()?),
            1 => RegionData::F64(r.get_f64_slice()?),
            v => return Err(DecodeError::InvalidEnum { what: "RegionData", value: v as u64 }),
        };
        Ok(Region { base, name, data })
    }
}

/// A process's address space: a map of disjoint named regions.
///
/// Every mutation path stamps the touched region with a monotonically
/// increasing *generation* (the analogue of a kernel's soft-dirty page
/// bits): an incremental checkpointer records the counter at checkpoint
/// time and later asks [`AddressSpace::dirty_regions`] for exactly the
/// regions written since. The counters are runtime bookkeeping, not
/// application state — they are excluded from serialization and equality
/// and reset to zero on restore (a restored space's lineage starts over).
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Region>,
    next_base: u64,
    /// Monotonic write counter; bumped by every mutating access.
    generation: u64,
    /// Per-region generation of the last mutating access, keyed by base.
    gens: BTreeMap<u64, u64>,
}

impl PartialEq for AddressSpace {
    /// Generation bookkeeping is deliberately ignored: two spaces holding
    /// the same regions are equal even if written through different
    /// histories (checkpoint round-trips must preserve equality).
    fn eq(&self, other: &Self) -> bool {
        self.regions == other.regions && self.next_base == other.next_base
    }
}

/// Address-space base for the first mapping (arbitrary, mmap-flavoured).
const MAP_BASE: u64 = 0x7f00_0000_0000;

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace {
            regions: BTreeMap::new(),
            next_base: MAP_BASE,
            generation: 0,
            gens: BTreeMap::new(),
        }
    }

    /// Stamps `base` as written at a fresh generation.
    fn touch(&mut self, base: u64) {
        self.generation += 1;
        self.gens.insert(base, self.generation);
    }

    fn alloc_base(&mut self, len_bytes: usize) -> u64 {
        let base = self.next_base;
        // Keep regions page-aligned and non-adjacent for realism.
        let sz = ((len_bytes as u64 + 4095) & !4095).max(4096);
        self.next_base = base + sz + 4096;
        base
    }

    /// Maps a zero-filled byte region; returns its base.
    pub fn map_bytes(&mut self, name: &str, len: usize) -> u64 {
        let base = self.alloc_base(len);
        self.regions.insert(
            base,
            Region { base, name: to_name(name), data: RegionData::Bytes(vec![0; len]) },
        );
        self.touch(base);
        base
    }

    /// Maps a zero-filled `f64` region of `len` words; returns its base.
    pub fn map_f64(&mut self, name: &str, len: usize) -> u64 {
        let base = self.alloc_base(len * 8);
        self.regions.insert(
            base,
            Region { base, name: to_name(name), data: RegionData::F64(vec![0.0; len]) },
        );
        self.touch(base);
        base
    }

    /// Unmaps a region; returns whether it existed.
    pub fn unmap(&mut self, base: u64) -> bool {
        let existed = self.regions.remove(&base).is_some();
        if existed {
            self.generation += 1;
            self.gens.remove(&base);
        }
        existed
    }

    /// Borrows a byte region.
    pub fn bytes(&self, base: u64) -> Option<&[u8]> {
        match &self.regions.get(&base)?.data {
            RegionData::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Mutably borrows a byte region, marking it dirty.
    pub fn bytes_mut(&mut self, base: u64) -> Option<&mut Vec<u8>> {
        if !matches!(self.regions.get(&base)?.data, RegionData::Bytes(_)) {
            return None;
        }
        self.touch(base);
        match &mut self.regions.get_mut(&base)?.data {
            RegionData::Bytes(b) => Some(b),
            _ => unreachable!("type checked above"),
        }
    }

    /// Borrows an `f64` region.
    pub fn f64(&self, base: u64) -> Option<&[f64]> {
        match &self.regions.get(&base)?.data {
            RegionData::F64(v) => Some(v),
            _ => None,
        }
    }

    /// Mutably borrows an `f64` region, marking it dirty.
    pub fn f64_mut(&mut self, base: u64) -> Option<&mut Vec<f64>> {
        if !matches!(self.regions.get(&base)?.data, RegionData::F64(_)) {
            return None;
        }
        self.touch(base);
        match &mut self.regions.get_mut(&base)?.data {
            RegionData::F64(v) => Some(v),
            _ => unreachable!("type checked above"),
        }
    }

    /// Mutably borrows two distinct `f64` regions at once (stencil codes
    /// read one grid while writing another). Both are marked dirty.
    pub fn f64_pair_mut(&mut self, a: u64, b: u64) -> Option<(&mut Vec<f64>, &mut Vec<f64>)> {
        if a == b {
            return None;
        }
        for base in [a, b] {
            if !matches!(self.regions.get(&base)?.data, RegionData::F64(_)) {
                return None;
            }
        }
        self.touch(a);
        self.touch(b);
        // BTreeMap has no get_pair_mut; split via range_mut on the ordered keys.
        let (lo, hi) = if a < b { (a, b) } else { (b, a) };
        let mut it = self.regions.range_mut(lo..=hi);
        let first = it.next()?;
        let last = it.last()?;
        let (rl, rh) = (first.1, last.1);
        if rl.base != lo || rh.base != hi {
            return None;
        }
        let (ra, rb) = if a < b { (rl, rh) } else { (rh, rl) };
        match (&mut ra.data, &mut rb.data) {
            (RegionData::F64(va), RegionData::F64(vb)) => Some((va, vb)),
            _ => None,
        }
    }

    /// Iterates the regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values()
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total mapped bytes — the dominant term of the checkpoint image size
    /// (Figure 6c).
    pub fn total_bytes(&self) -> usize {
        self.regions.values().map(|r| r.data.byte_len()).sum()
    }

    /// Restore path: reinstates a serialized region verbatim.
    pub fn restore_region(&mut self, region: Region) {
        self.next_base = self.next_base.max(region.base + region.data.byte_len() as u64 + 8192);
        let base = region.base;
        self.regions.insert(base, region);
        self.touch(base);
    }

    /// Current value of the monotonic write counter. A checkpointer records
    /// this and later passes it to [`AddressSpace::dirty_regions`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Allocator watermark (serialized so restored spaces don't collide).
    pub fn next_base(&self) -> u64 {
        self.next_base
    }

    /// Regions written strictly after generation `since`, in address order.
    ///
    /// A region with no recorded stamp (e.g. decoded from an image) counts
    /// as generation 0, i.e. clean for any `since >= 0` except `since`
    /// underflowing — callers use the value returned by
    /// [`AddressSpace::generation`] at the time of the base checkpoint.
    pub fn dirty_regions(&self, since: u64) -> impl Iterator<Item = &Region> {
        self.regions
            .values()
            .filter(move |r| self.gens.get(&r.base).copied().unwrap_or(0) > since)
    }

    /// Delta-apply path of the live-migration receiver: keeps only the
    /// regions whose bases appear in `live`, overlays the `dirty` regions,
    /// and adopts the recorded allocator watermark.
    pub fn apply_delta(&mut self, live: &[u64], dirty: Vec<Region>, next_base: u64) {
        let keep: std::collections::BTreeSet<u64> = live.iter().copied().collect();
        self.regions.retain(|base, _| keep.contains(base));
        for region in dirty {
            self.regions.insert(region.base, region);
        }
        self.next_base = self.next_base.max(next_base);
        self.generation += 1;
        self.gens.clear();
    }
}

fn to_name(s: &str) -> String {
    s.to_owned()
}

impl Encode for AddressSpace {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.regions.values().collect::<Vec<_>>());
        w.put_u64(self.next_base);
    }
}

impl Decode for AddressSpace {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        let regions = r.get::<Vec<Region>>()?.into_iter().map(|reg| (reg.base, reg)).collect();
        let next_base = r.get_u64()?;
        // Generation bookkeeping is runtime-only: a decoded space starts a
        // fresh lineage (every region clean at generation 0).
        Ok(AddressSpace { regions, next_base, generation: 0, gens: BTreeMap::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_access_bytes() {
        let mut a = AddressSpace::new();
        let base = a.map_bytes("heap", 100);
        a.bytes_mut(base).unwrap()[5] = 42;
        assert_eq!(a.bytes(base).unwrap()[5], 42);
        assert_eq!(a.total_bytes(), 100);
        assert!(a.f64(base).is_none(), "typed access enforced");
    }

    #[test]
    fn map_and_access_f64() {
        let mut a = AddressSpace::new();
        let g = a.map_f64("grid", 64);
        a.f64_mut(g).unwrap()[10] = 2.5;
        assert_eq!(a.f64(g).unwrap()[10], 2.5);
        assert_eq!(a.total_bytes(), 512);
    }

    #[test]
    fn distinct_bases() {
        let mut a = AddressSpace::new();
        let b1 = a.map_bytes("a", 10);
        let b2 = a.map_bytes("b", 10);
        assert_ne!(b1, b2);
        assert_eq!(a.region_count(), 2);
    }

    #[test]
    fn unmap() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("tmp", 10);
        assert!(a.unmap(b));
        assert!(!a.unmap(b));
        assert_eq!(a.total_bytes(), 0);
    }

    #[test]
    fn pair_mut_disjoint_borrows() {
        let mut a = AddressSpace::new();
        let g1 = a.map_f64("old", 8);
        let g2 = a.map_f64("new", 8);
        {
            let (old, new) = a.f64_pair_mut(g1, g2).unwrap();
            old[0] = 1.0;
            new[0] = old[0] * 2.0;
        }
        assert_eq!(a.f64(g2).unwrap()[0], 2.0);
        assert!(a.f64_pair_mut(g1, g1).is_none(), "same region refused");
    }

    #[test]
    fn pair_mut_reversed_order() {
        let mut a = AddressSpace::new();
        let g1 = a.map_f64("x", 4);
        let g2 = a.map_f64("y", 4);
        let (x2, x1) = a.f64_pair_mut(g2, g1).unwrap();
        x2[0] = 9.0;
        x1[0] = 3.0;
        assert_eq!(a.f64(g1).unwrap()[0], 3.0);
        assert_eq!(a.f64(g2).unwrap()[0], 9.0);
    }

    #[test]
    fn round_trip_preserves_everything() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("blob", 32);
        a.bytes_mut(b).unwrap()[0] = 7;
        let g = a.map_f64("grid", 16);
        a.f64_mut(g).unwrap()[15] = -1.25;
        let mut w = RecordWriter::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = RecordReader::new(&bytes);
        let back = AddressSpace::decode(&mut r).unwrap();
        assert_eq!(back, a);
        // New mappings in the restored space don't collide.
        let mut back = back;
        let nb = back.map_bytes("post", 8);
        assert!(back.bytes(nb).is_some());
        assert_ne!(nb, b);
        assert_ne!(nb, g);
    }

    #[test]
    fn generation_bumps_on_every_mutator() {
        let mut a = AddressSpace::new();
        let g0 = a.generation();
        let b = a.map_bytes("heap", 16);
        assert!(a.generation() > g0, "map bumps");
        let g1 = a.generation();
        a.bytes_mut(b).unwrap()[0] = 1;
        assert!(a.generation() > g1, "bytes_mut bumps");
        let g2 = a.generation();
        let f1 = a.map_f64("x", 4);
        let f2 = a.map_f64("y", 4);
        let g3 = a.generation();
        a.f64_pair_mut(f1, f2).unwrap();
        assert!(a.generation() > g3, "pair_mut bumps");
        a.unmap(b);
        assert!(a.generation() > g2, "unmap bumps");
        // Failed lookups must NOT bump.
        let g4 = a.generation();
        assert!(a.bytes_mut(0xdead).is_none());
        assert!(a.f64_mut(f1.wrapping_add(1)).is_none());
        assert!(a.f64_pair_mut(f1, f1).is_none());
        assert_eq!(a.generation(), g4, "misses leave the counter alone");
    }

    #[test]
    fn dirty_regions_since_filtering() {
        let mut a = AddressSpace::new();
        let b1 = a.map_bytes("clean", 8);
        let b2 = a.map_bytes("hot", 8);
        let snap = a.generation();
        assert_eq!(a.dirty_regions(snap).count(), 0, "nothing written since snapshot");
        a.bytes_mut(b2).unwrap()[0] = 5;
        let dirty: Vec<u64> = a.dirty_regions(snap).map(|r| r.base).collect();
        assert_eq!(dirty, vec![b2]);
        // since=0 sees everything ever touched.
        let all: Vec<u64> = a.dirty_regions(0).map(|r| r.base).collect();
        assert_eq!(all, vec![b1, b2]);
    }

    #[test]
    fn decode_resets_generations() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("blob", 8);
        a.bytes_mut(b).unwrap()[0] = 1;
        let mut w = RecordWriter::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let back = AddressSpace::decode(&mut RecordReader::new(&bytes)).unwrap();
        assert_eq!(back.generation(), 0);
        assert_eq!(back.dirty_regions(0).count(), 0, "decoded regions are clean");
        assert_eq!(back, a, "equality ignores generation bookkeeping");
    }

    #[test]
    fn apply_delta_drops_dead_and_overlays_dirty() {
        let mut a = AddressSpace::new();
        let b1 = a.map_bytes("keep", 4);
        let b2 = a.map_bytes("drop", 4);
        let nb = a.next_base();
        a.apply_delta(
            &[b1],
            vec![Region { base: b2 + 0x10000, name: "new".into(), data: RegionData::Bytes(vec![9]) }],
            nb + 0x20000,
        );
        assert!(a.bytes(b1).is_some());
        assert!(a.bytes(b2).is_none(), "dead region dropped");
        assert_eq!(a.bytes(b2 + 0x10000).unwrap(), &[9]);
        assert!(a.next_base() >= nb + 0x20000);
    }

    #[test]
    fn restore_region_bumps_allocator() {
        let mut a = AddressSpace::new();
        a.restore_region(Region {
            base: MAP_BASE + (1 << 20),
            name: "restored".into(),
            data: RegionData::Bytes(vec![1, 2, 3]),
        });
        let fresh = a.map_bytes("fresh", 16);
        assert!(a.bytes(fresh).is_some());
        assert_eq!(a.region_count(), 2);
    }
}
