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
//!
//! Dirtiness is tracked per [`PAGE`] for byte regions, the way a kernel's
//! soft-dirty bits track pages: a ranged write or an append stamps only the
//! pages it covers, so an incremental capture ships those pages
//! ([`PageDelta`]) rather than the region. A whole-region borrow stamps the
//! region once, in O(1), and the capture ships it whole, as it does every
//! `f64` region written since. Stored images are unaffected: they always
//! carry every region in full.
//!
//! Region contents are copy-on-write: each region's vector sits behind an
//! [`Arc`], so cloning an [`AddressSpace`] costs O(regions), and every
//! mutating accessor goes through `Arc::make_mut`. A checkpoint captures a
//! suspended process's memory by cloning it and encodes the clone after
//! the process resumes; the first write to a region the clone still
//! shares copies that region once, and a write after the clone is dropped
//! copies nothing.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;
use zapc_proto::{Decode, DecodeError, DecodeResult, Encode, RecordReader, RecordWriter};

/// Backing data of one region, shared with any clone of its address space
/// until one side writes it (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum RegionData {
    /// Raw bytes.
    Bytes(Arc<Vec<u8>>),
    /// 64-bit floats (grid/array state of the scientific workloads).
    F64(Arc<Vec<f64>>),
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
            0 => RegionData::Bytes(Arc::new(r.get_bytes_owned()?)),
            1 => RegionData::F64(Arc::new(r.get_f64_slice()?)),
            v => return Err(DecodeError::InvalidEnum { what: "RegionData", value: v as u64 }),
        };
        Ok(Region { base, name, data })
    }
}

/// One page of byte-region dirtiness tracking.
pub const PAGE: usize = 4096;

/// Dirtiness bookkeeping of one mapped region: the generation of its last
/// whole-region write and, for byte regions, of each page written through a
/// ranged access since then.
#[derive(Debug, Clone, Default)]
struct Stamps {
    /// Generation of the last whole-region write (map, restore, whole
    /// borrow). Such a write makes every page dirty at once, in O(1).
    whole: u64,
    /// Per-page generations of ranged writes after `whole`; a page past the
    /// end has generation 0. Cleared by a whole-region write.
    pages: Vec<u64>,
    /// The largest of the above: a clean region is skipped in O(1).
    last: u64,
}

#[derive(Debug, Clone)]
struct Mapped {
    region: Region,
    stamps: Stamps,
}

/// The part of one region written after some generation (see
/// [`AddressSpace::dirty_since`]).
#[derive(Debug, Clone, PartialEq)]
pub enum Dirty<'a> {
    /// The whole region: mapped, restored or borrowed whole since, or an
    /// `f64` region (typed regions are tracked whole).
    Whole(&'a Region),
    /// Only these [`PAGE`]-sized pages of a byte region, in order.
    Pages(&'a Region, Vec<u32>),
}

/// The dirty pages of one byte region the receiver already holds: the
/// region's length now, and the contents of each page written since the
/// base (the last page may be short).
#[derive(Debug, Clone, PartialEq)]
pub struct PageDelta {
    /// Base of the region.
    pub base: u64,
    /// The region's length in bytes at capture time.
    pub len: u64,
    /// `(page index, page contents)` in page order.
    pub pages: Vec<(u32, Vec<u8>)>,
}

impl PageDelta {
    /// Copies the listed pages of `region` (a byte region).
    pub fn capture(region: &Region, pages: &[u32]) -> PageDelta {
        let bytes = match &region.data {
            RegionData::Bytes(b) => b.as_slice(),
            RegionData::F64(_) => &[],
        };
        let pages = pages
            .iter()
            .map(|&i| {
                let at = i as usize * PAGE;
                (i, bytes[at..(at + PAGE).min(bytes.len())].to_vec())
            })
            .collect();
        PageDelta { base: region.base, len: bytes.len() as u64, pages }
    }

    /// Content bytes this delta carries.
    pub fn byte_len(&self) -> usize {
        self.pages.iter().map(|(_, p)| p.len()).sum()
    }
}

impl Encode for PageDelta {
    fn encode(&self, w: &mut RecordWriter) {
        w.put_u64(self.base);
        w.put_u64(self.len);
        w.put(&self.pages);
    }
}

impl Decode for PageDelta {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        Ok(PageDelta { base: r.get_u64()?, len: r.get_u64()?, pages: r.get()? })
    }
}

/// A page delta that does not fit the address space it is applied to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The delta names a byte region the base does not hold.
    MissingRegion(u64),
    /// A page lies outside the region's recorded length or is oversized.
    PageOutOfRange(u64),
}

/// A process's address space: a map of disjoint named regions.
///
/// Every mutation path stamps what it touched with a monotonically
/// increasing *generation* (the analogue of a kernel's soft-dirty page
/// bits): an incremental checkpointer records the counter at checkpoint
/// time and later asks [`AddressSpace::dirty_since`] for exactly what was
/// written since. Byte regions are tracked per [`PAGE`]: a ranged write
/// ([`AddressSpace::bytes_range_mut`], [`AddressSpace::bytes_extend`])
/// stamps only the pages it covers, while a whole-region borrow stamps the
/// region once, so `f64` grids and bulk buffers pay nothing per page. The
/// counters are runtime bookkeeping, not application state — they are
/// excluded from serialization and equality and reset to zero on restore
/// (a restored space's lineage starts over).
#[derive(Debug, Clone, Default)]
pub struct AddressSpace {
    regions: BTreeMap<u64, Mapped>,
    next_base: u64,
    /// Monotonic write counter; bumped by every mutating access.
    generation: u64,
}

impl PartialEq for AddressSpace {
    /// Generation bookkeeping is deliberately ignored: two spaces holding
    /// the same regions are equal even if written through different
    /// histories (checkpoint round-trips must preserve equality).
    fn eq(&self, other: &Self) -> bool {
        self.next_base == other.next_base && self.regions().eq(other.regions())
    }
}

/// Address-space base for the first mapping (arbitrary, mmap-flavoured).
const MAP_BASE: u64 = 0x7f00_0000_0000;

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        AddressSpace { regions: BTreeMap::new(), next_base: MAP_BASE, generation: 0 }
    }

    /// Takes a fresh generation.
    fn bump(&mut self) -> u64 {
        self.generation += 1;
        self.generation
    }

    /// Stamps the whole of `base` as written at a fresh generation.
    fn touch(&mut self, base: u64) {
        let gen = self.bump();
        if let Some(m) = self.regions.get_mut(&base) {
            m.stamps.whole = gen;
            m.stamps.last = gen;
            m.stamps.pages.clear();
        }
    }

    fn alloc_base(&mut self, len_bytes: usize) -> u64 {
        let base = self.next_base;
        // Keep regions page-aligned and non-adjacent for realism.
        let sz = ((len_bytes as u64 + 4095) & !4095).max(4096);
        self.next_base = base + sz + 4096;
        base
    }

    fn insert(&mut self, region: Region) {
        let base = region.base;
        self.regions.insert(base, Mapped { region, stamps: Stamps::default() });
        self.touch(base);
    }

    /// Maps a zero-filled byte region; returns its base.
    pub fn map_bytes(&mut self, name: &str, len: usize) -> u64 {
        let base = self.alloc_base(len);
        let data = RegionData::Bytes(Arc::new(vec![0; len]));
        self.insert(Region { base, name: to_name(name), data });
        base
    }

    /// Maps a zero-filled `f64` region of `len` words; returns its base.
    pub fn map_f64(&mut self, name: &str, len: usize) -> u64 {
        let base = self.alloc_base(len * 8);
        let data = RegionData::F64(Arc::new(vec![0.0; len]));
        self.insert(Region { base, name: to_name(name), data });
        base
    }

    /// Unmaps a region; returns whether it existed.
    pub fn unmap(&mut self, base: u64) -> bool {
        let existed = self.regions.remove(&base).is_some();
        if existed {
            self.bump();
        }
        existed
    }

    /// Borrows a byte region.
    pub fn bytes(&self, base: u64) -> Option<&[u8]> {
        match &self.regions.get(&base)?.region.data {
            RegionData::Bytes(b) => Some(b.as_slice()),
            _ => None,
        }
    }

    /// Mutably borrows a whole byte region, marking all of it dirty.
    pub fn bytes_mut(&mut self, base: u64) -> Option<&mut Vec<u8>> {
        if !matches!(self.regions.get(&base)?.region.data, RegionData::Bytes(_)) {
            return None;
        }
        self.touch(base);
        match &mut self.regions.get_mut(&base)?.region.data {
            RegionData::Bytes(b) => Some(Arc::make_mut(b)),
            _ => unreachable!("type checked above"),
        }
    }

    /// Mutably borrows `range` of a byte region, marking only the pages it
    /// covers dirty. `None` if the region is missing, typed `f64`, or
    /// shorter than `range`.
    pub fn bytes_range_mut(&mut self, base: u64, range: Range<usize>) -> Option<&mut [u8]> {
        let m = self.regions.get(&base)?;
        match &m.region.data {
            RegionData::Bytes(b) if range.start <= range.end && range.end <= b.len() => {}
            _ => return None,
        }
        let gen = self.bump();
        let m = self.regions.get_mut(&base)?;
        m.stamps.stamp_pages(&range, gen);
        match &mut m.region.data {
            RegionData::Bytes(b) => Some(&mut Arc::make_mut(b)[range]),
            _ => unreachable!("type checked above"),
        }
    }

    /// Appends `data` to a byte region, marking only the pages the new
    /// tail covers dirty; returns the offset it was written at.
    pub fn bytes_extend(&mut self, base: u64, data: &[u8]) -> Option<usize> {
        if !matches!(self.regions.get(&base)?.region.data, RegionData::Bytes(_)) {
            return None;
        }
        let gen = self.bump();
        let m = self.regions.get_mut(&base)?;
        let RegionData::Bytes(b) = &mut m.region.data else { unreachable!("type checked above") };
        let b = Arc::make_mut(b);
        let at = b.len();
        b.extend_from_slice(data);
        m.stamps.stamp_pages(&(at..at + data.len()), gen);
        Some(at)
    }

    /// Borrows an `f64` region.
    pub fn f64(&self, base: u64) -> Option<&[f64]> {
        match &self.regions.get(&base)?.region.data {
            RegionData::F64(v) => Some(v.as_slice()),
            _ => None,
        }
    }

    /// Mutably borrows an `f64` region, marking it dirty.
    pub fn f64_mut(&mut self, base: u64) -> Option<&mut Vec<f64>> {
        if !matches!(self.regions.get(&base)?.region.data, RegionData::F64(_)) {
            return None;
        }
        self.touch(base);
        match &mut self.regions.get_mut(&base)?.region.data {
            RegionData::F64(v) => Some(Arc::make_mut(v)),
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
            if !matches!(self.regions.get(&base)?.region.data, RegionData::F64(_)) {
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
        let (rl, rh) = (&mut first.1.region, &mut last.1.region);
        if rl.base != lo || rh.base != hi {
            return None;
        }
        let (ra, rb) = if a < b { (rl, rh) } else { (rh, rl) };
        match (&mut ra.data, &mut rb.data) {
            (RegionData::F64(va), RegionData::F64(vb)) => {
                Some((Arc::make_mut(va), Arc::make_mut(vb)))
            }
            _ => None,
        }
    }

    /// Iterates the regions in address order.
    pub fn regions(&self) -> impl Iterator<Item = &Region> {
        self.regions.values().map(|m| &m.region)
    }

    /// Number of regions.
    pub fn region_count(&self) -> usize {
        self.regions.len()
    }

    /// Total mapped bytes — the dominant term of the checkpoint image size
    /// (Figure 6c).
    pub fn total_bytes(&self) -> usize {
        self.regions().map(|r| r.data.byte_len()).sum()
    }

    /// Restore path: reinstates a serialized region verbatim.
    pub fn restore_region(&mut self, region: Region) {
        self.next_base = self.next_base.max(region.base + region.data.byte_len() as u64 + 8192);
        self.insert(region);
    }

    /// Current value of the monotonic write counter. A checkpointer records
    /// this and later passes it to [`AddressSpace::dirty_since`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Allocator watermark (serialized so restored spaces don't collide).
    pub fn next_base(&self) -> u64 {
        self.next_base
    }

    /// What was written strictly after generation `since`, region by
    /// region in address order: the whole region, or the pages of a byte
    /// region written through ranged accesses.
    ///
    /// Regions with no recorded write (e.g. decoded from an image) count as
    /// generation 0 — callers pass the value [`AddressSpace::generation`]
    /// returned at the time of the base capture.
    pub fn dirty_since(&self, since: u64) -> impl Iterator<Item = Dirty<'_>> {
        self.regions.values().filter(move |m| m.stamps.last > since).map(move |m| {
            if m.stamps.whole > since || !matches!(m.region.data, RegionData::Bytes(_)) {
                return Dirty::Whole(&m.region);
            }
            let count = m.region.data.byte_len().div_ceil(PAGE);
            let pages = (0..count.min(m.stamps.pages.len()))
                .filter(|&i| m.stamps.pages[i] > since)
                .map(|i| i as u32)
                .collect();
            Dirty::Pages(&m.region, pages)
        })
    }

    /// Delta-apply path of the live-migration receiver: keeps only the
    /// regions whose bases appear in `live`, overlays the `whole` regions,
    /// patches the `pages` of byte regions it already holds, and adopts the
    /// recorded allocator watermark. A page delta that names a region the
    /// base lacks, or a page outside the recorded length, is an error and
    /// leaves the space in an unspecified (but memory-safe) state.
    pub fn apply_delta(
        &mut self,
        live: &[u64],
        whole: Vec<Region>,
        pages: Vec<PageDelta>,
        next_base: u64,
    ) -> Result<(), DeltaError> {
        let keep: std::collections::BTreeSet<u64> = live.iter().copied().collect();
        self.regions.retain(|base, _| keep.contains(base));
        for region in whole {
            self.regions.insert(region.base, Mapped { region, stamps: Stamps::default() });
        }
        for delta in pages {
            let bytes = match self.regions.get_mut(&delta.base).map(|m| &mut m.region.data) {
                Some(RegionData::Bytes(b)) => Arc::make_mut(b),
                _ => return Err(DeltaError::MissingRegion(delta.base)),
            };
            // A region grows only by appends, and every page an append
            // reaches is shipped: a length past what the delta carries is
            // hostile, and is refused before anything is allocated for it.
            let len = usize::try_from(delta.len)
                .ok()
                .filter(|&len| len <= bytes.len() + delta.byte_len())
                .ok_or(DeltaError::PageOutOfRange(delta.base))?;
            let fits = |&(i, ref p): &(u32, Vec<u8>)| {
                let at = i as usize * PAGE;
                p.len() <= PAGE && at.checked_add(p.len()).is_some_and(|end| end <= len)
            };
            if !delta.pages.iter().all(fits) {
                return Err(DeltaError::PageOutOfRange(delta.base));
            }
            bytes.resize(len, 0);
            for (i, page) in delta.pages {
                let at = i as usize * PAGE;
                bytes[at..at + page.len()].copy_from_slice(&page);
            }
        }
        self.next_base = self.next_base.max(next_base);
        self.generation += 1;
        for m in self.regions.values_mut() {
            m.stamps = Stamps::default();
        }
        Ok(())
    }
}

impl Stamps {
    /// Stamps the pages `range` covers (none for an empty range).
    fn stamp_pages(&mut self, range: &Range<usize>, gen: u64) {
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start / PAGE, (range.end - 1) / PAGE);
        if self.pages.len() <= last {
            self.pages.resize(last + 1, 0);
        }
        self.pages[first..=last].fill(gen);
        self.last = gen;
    }
}

fn to_name(s: &str) -> String {
    s.to_owned()
}

impl Encode for AddressSpace {
    fn encode(&self, w: &mut RecordWriter) {
        w.put(&self.regions().collect::<Vec<_>>());
        w.put_u64(self.next_base);
    }
}

impl Decode for AddressSpace {
    fn decode(r: &mut RecordReader<'_>) -> DecodeResult<Self> {
        // Generation bookkeeping is runtime-only: a decoded space starts a
        // fresh lineage (every region clean at generation 0).
        let regions = r
            .get::<Vec<Region>>()?
            .into_iter()
            .map(|region| (region.base, Mapped { region, stamps: Stamps::default() }))
            .collect();
        Ok(AddressSpace { regions, next_base: r.get_u64()?, generation: 0 })
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

    /// The bases `dirty_since` reports, each with `None` for a whole
    /// region or its dirty page indices.
    fn dirt(a: &AddressSpace, since: u64) -> Vec<(u64, Option<Vec<u32>>)> {
        a.dirty_since(since)
            .map(|d| match d {
                Dirty::Whole(r) => (r.base, None),
                Dirty::Pages(r, pages) => (r.base, Some(pages)),
            })
            .collect()
    }

    #[test]
    fn dirty_since_filtering() {
        let mut a = AddressSpace::new();
        let b1 = a.map_bytes("clean", 8);
        let b2 = a.map_bytes("hot", 8);
        let snap = a.generation();
        assert!(dirt(&a, snap).is_empty(), "nothing written since snapshot");
        a.bytes_mut(b2).unwrap()[0] = 5;
        assert_eq!(dirt(&a, snap), vec![(b2, None)]);
        // since=0 sees everything ever touched.
        assert_eq!(dirt(&a, 0), vec![(b1, None), (b2, None)]);
    }

    #[test]
    fn ranged_write_dirties_only_its_pages() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("table", 10 * PAGE);
        let snap = a.generation();
        // Straddles pages 2 and 3; page 7 by itself.
        a.bytes_range_mut(b, 3 * PAGE - 2..3 * PAGE + 2).unwrap().fill(1);
        a.bytes_range_mut(b, 7 * PAGE..7 * PAGE + 1).unwrap()[0] = 2;
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![2, 3, 7]))]);
        let mid = a.generation();
        a.bytes_range_mut(b, 9 * PAGE..10 * PAGE).unwrap().fill(3);
        assert_eq!(dirt(&a, mid), vec![(b, Some(vec![9]))], "older pages are clean");
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![2, 3, 7, 9]))]);
        // An empty range is a write of nothing; out of range is refused.
        let g = a.generation();
        assert_eq!(a.bytes_range_mut(b, 5..5).unwrap().len(), 0);
        assert!(dirt(&a, g).is_empty());
        let g = a.generation();
        assert!(a.bytes_range_mut(b, 10 * PAGE - 1..10 * PAGE + 1).is_none());
        assert!(a.bytes_range_mut(0xdead, 0..1).is_none());
        assert_eq!(a.generation(), g, "refused ranges leave the counter alone");
        let f = a.map_f64("grid", 4);
        assert!(a.bytes_range_mut(f, 0..1).is_none(), "typed access enforced");
    }

    #[test]
    fn extend_dirties_only_the_new_tail() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("arena", 0);
        a.bytes_extend(b, &[7; 3 * PAGE]).unwrap();
        let snap = a.generation();
        assert_eq!(a.bytes_extend(b, &[8; 10]), Some(3 * PAGE));
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![3]))]);
        let snap = a.generation();
        a.bytes_extend(b, &[9; PAGE]).unwrap();
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![3, 4]))], "tail straddles two pages");
        assert_eq!(a.bytes(b).unwrap().len(), 4 * PAGE + 10);
    }

    #[test]
    fn whole_borrow_dirties_every_page_in_one_stamp() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("ballast", 640 * PAGE);
        a.bytes_range_mut(b, 0..1).unwrap()[0] = 1;
        let snap = a.generation();
        // A whole borrow keeps no per-page state: one stamp covers the
        // region, and the ranged stamps before it are dropped.
        a.bytes_mut(b).unwrap()[5 * PAGE] = 2;
        assert!(a.regions[&b].stamps.pages.is_empty());
        assert_eq!(dirt(&a, snap), vec![(b, None)]);
        // A ranged write after it is tracked per page again.
        let snap = a.generation();
        a.bytes_range_mut(b, PAGE..PAGE + 1).unwrap()[0] = 3;
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![1]))]);
        assert_eq!(a.regions[&b].stamps.pages.len(), 2, "only up to the written page");
    }

    #[test]
    fn map_unmap_and_decode_reset_lineage() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("blob", 2 * PAGE);
        let snap = a.generation();
        a.bytes_range_mut(b, PAGE..PAGE + 1).unwrap()[0] = 1;
        // A region mapped after the snapshot is new to the receiver: whole.
        let fresh = a.map_bytes("fresh", 2 * PAGE);
        a.bytes_range_mut(fresh, 0..1).unwrap()[0] = 1;
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![1])), (fresh, None)]);
        // Unmapping forgets the region's stamps.
        assert!(a.unmap(fresh));
        assert_eq!(dirt(&a, snap), vec![(b, Some(vec![1]))]);
        // A decoded space starts a fresh lineage: nothing is dirty.
        let mut w = RecordWriter::new();
        a.encode(&mut w);
        let bytes = w.into_bytes();
        let back = AddressSpace::decode(&mut RecordReader::new(&bytes)).unwrap();
        assert!(dirt(&back, 0).is_empty());
        assert_eq!(back, a);
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
        assert_eq!(back.dirty_since(0).count(), 0, "decoded regions are clean");
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
            vec![Region {
                base: b2 + 0x10000,
                name: "new".into(),
                data: RegionData::Bytes(Arc::new(vec![9])),
            }],
            vec![],
            nb + 0x20000,
        )
        .unwrap();
        assert!(a.bytes(b1).is_some());
        assert!(a.bytes(b2).is_none(), "dead region dropped");
        assert_eq!(a.bytes(b2 + 0x10000).unwrap(), &[9]);
        assert!(a.next_base() >= nb + 0x20000);
    }

    #[test]
    fn page_deltas_patch_grow_and_refuse_what_does_not_fit() {
        let mut src = AddressSpace::new();
        let b = src.map_bytes("arena", 2 * PAGE);
        let mut dst = src.clone();
        let snap = src.generation();
        src.bytes_range_mut(b, 10..20).unwrap().fill(4);
        src.bytes_extend(b, &[5; 100]).unwrap();
        let delta = match src.dirty_since(snap).next().unwrap() {
            Dirty::Pages(r, pages) => PageDelta::capture(r, &pages),
            Dirty::Whole(_) => panic!("ranged writes must ship pages"),
        };
        assert_eq!(delta.byte_len(), PAGE + 100);
        let nb = src.next_base();
        dst.apply_delta(&[b], vec![], vec![delta.clone()], nb).unwrap();
        assert_eq!(dst, src);
        // A page past the recorded length, or for a region the base lacks,
        // is a typed error.
        let bad = PageDelta { len: PAGE as u64, ..delta.clone() };
        let got = dst.apply_delta(&[b], vec![], vec![bad], nb);
        assert_eq!(got, Err(DeltaError::PageOutOfRange(b)));
        // A length the delta's pages cannot account for is refused before
        // the region is grown to it.
        let huge = PageDelta { base: b, len: 1 << 40, pages: vec![] };
        let got = dst.apply_delta(&[b], vec![], vec![huge], nb);
        assert_eq!(got, Err(DeltaError::PageOutOfRange(b)));
        let gone = PageDelta { base: b + 1, ..delta };
        let got = dst.apply_delta(&[b], vec![], vec![gone], nb);
        assert_eq!(got, Err(DeltaError::MissingRegion(b + 1)));
    }

    #[test]
    fn a_held_clone_keeps_the_bytes_it_was_taken_with() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("arena", 2 * PAGE);
        let f = a.map_f64("grid", 4);
        let g = a.map_f64("next", 4);
        a.bytes_range_mut(b, 0..1).unwrap()[0] = 1;
        let snap = a.clone();
        let before = a.clone();
        // Every mutating accessor leaves the clone alone.
        a.bytes_mut(b).unwrap()[1] = 2;
        a.bytes_range_mut(b, PAGE..PAGE + 1).unwrap()[0] = 3;
        a.bytes_extend(b, &[4; 10]).unwrap();
        a.f64_mut(f).unwrap()[0] = 5.0;
        a.f64_pair_mut(f, g).unwrap().1[0] = 6.0;
        let nb = a.next_base();
        let page = PageDelta { base: b, len: 2 * PAGE as u64, pages: vec![(0, vec![7; 8])] };
        a.apply_delta(&[b, f, g], vec![], vec![page], nb).unwrap();
        assert_eq!(snap, before, "the clone still holds what it was taken with");
        assert_eq!(snap.bytes(b).unwrap()[..2], [1, 0]);
        assert_eq!(snap.f64(f).unwrap()[0], 0.0);
        assert_ne!(a, snap);
    }

    #[test]
    fn a_write_after_the_clone_is_dropped_copies_nothing() {
        let mut a = AddressSpace::new();
        let b = a.map_bytes("arena", 4 * PAGE);
        let f = a.map_f64("grid", 512);
        let at = |a: &AddressSpace| (a.bytes(b).unwrap().as_ptr(), a.f64(f).unwrap().as_ptr());
        let unshared = at(&a);
        let snap = a.clone();
        assert_eq!(at(&snap), unshared, "a clone shares every region");
        a.bytes_range_mut(b, 0..1).unwrap()[0] = 1;
        a.f64_mut(f).unwrap()[0] = 1.0;
        let copied = at(&a);
        assert_ne!(copied.0, unshared.0, "the first write to a shared region copies it");
        assert_ne!(copied.1, unshared.1);
        drop(snap);
        // Sole owner again: no write, whole or ranged, copies.
        a.bytes_range_mut(b, PAGE..PAGE + 1).unwrap()[0] = 2;
        a.bytes_mut(b).unwrap()[2] = 3;
        a.f64_mut(f).unwrap()[1] = 2.0;
        assert_eq!(at(&a), copied);
    }

    #[test]
    fn restore_region_bumps_allocator() {
        let mut a = AddressSpace::new();
        a.restore_region(Region {
            base: MAP_BASE + (1 << 20),
            name: "restored".into(),
            data: RegionData::Bytes(Arc::new(vec![1, 2, 3])),
        });
        let fresh = a.map_bytes("fresh", 16);
        assert!(a.bytes(fresh).is_some());
        assert_eq!(a.region_count(), 2);
    }
}
