//! Paged guest memory with copy-on-write snapshot support.
//!
//! Pages are reference-counted: taking a checkpoint clones the page table
//! (bumping `Arc` counts) in O(mapped pages) without copying data, and the
//! first write to a shared page copies it — the same asymptotics as the
//! `fork()`-based shadow-process checkpoints of Rx/Flashback that Sweeper
//! builds on.
//!
//! A mapped page starts *never written*: it owns no bytes, reads as
//! zeros (a shared static zero page stands in), and costs neither an
//! allocation at map time nor hashing at checkpoint time. Its first
//! write goes through the same `Arc::make_mut` copy-on-write step as
//! any other write and allocates the page's bytes there. Each mapped
//! page keeps its own `Arc` whether written or not, so sharing counts
//! ([`Mem::shared_pages`]) and storage identities
//! ([`Mem::page_storage_ids`]) are the same as if every page had been
//! allocated eagerly.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::error::{Access, Fault};

/// Size in bytes of one page.
pub const PAGE_SIZE: usize = 4096;

/// What every never-written page reads as.
static ZERO_PAGE: [u8; PAGE_SIZE] = [0; PAGE_SIZE];

/// One page of guest memory: `None` until its first write.
#[derive(Clone)]
pub struct Page(Option<Box<[u8; PAGE_SIZE]>>);

impl Page {
    /// A never-written page: reads as zeros, holds no bytes.
    pub const fn zeroed() -> Page {
        Page(None)
    }

    /// The page's bytes (the static zero page if never written).
    #[inline]
    pub fn bytes(&self) -> &[u8; PAGE_SIZE] {
        match &self.0 {
            Some(b) => b,
            None => &ZERO_PAGE,
        }
    }

    /// Mutable bytes, allocating them (zeroed) on the first write.
    #[inline]
    pub fn bytes_mut(&mut self) -> &mut [u8; PAGE_SIZE] {
        self.0.get_or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Whether the page has ever been written (owns its bytes). A written
    /// page may still be all zeros.
    #[inline]
    pub fn is_written(&self) -> bool {
        self.0.is_some()
    }
}

/// Byte equality; two never-written pages compare equal without reading
/// a byte.
impl PartialEq for Page {
    fn eq(&self, other: &Page) -> bool {
        match (&self.0, &other.0) {
            (None, None) => true,
            _ => self.bytes() == other.bytes(),
        }
    }
}

/// Page permissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perm {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable.
    pub x: bool,
}

impl Perm {
    /// Read-only data.
    pub const R: Perm = Perm {
        r: true,
        w: false,
        x: false,
    };
    /// Read-write data.
    pub const RW: Perm = Perm {
        r: true,
        w: true,
        x: false,
    };
    /// Read-execute (code).
    pub const RX: Perm = Perm {
        r: true,
        w: false,
        x: true,
    };
    /// Read-write-execute (pre-NX data segments, 2003-era realism).
    pub const RWX: Perm = Perm {
        r: true,
        w: true,
        x: true,
    };

    fn allows(&self, access: Access) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec => self.x,
        }
    }
}

/// A named mapped region, for core-dump analysis and layout queries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Region {
    /// Inclusive start address (page aligned).
    pub start: u32,
    /// Length in bytes (page aligned).
    pub len: u32,
    /// Permissions applying to every page of the region.
    pub perm: Perm,
    /// Human-readable name (`code`, `lib`, `heap`, `stack`, ...).
    pub name: String,
}

impl Region {
    /// Whether `addr` falls inside this region.
    pub fn contains(&self, addr: u32) -> bool {
        addr >= self.start && (addr - self.start) < self.len
    }

    /// Exclusive end address.
    pub fn end(&self) -> u32 {
        self.start + self.len
    }
}

/// One mapped page plus its write-generation stamp.
///
/// The generation is bumped on every mutation of the page's bytes
/// (guest store, host injection, allocator metadata update); consumers
/// such as the predecoded instruction cache compare generations to
/// detect self-modifying code without scanning page contents.
#[derive(Clone)]
struct PageSlot {
    data: Arc<Page>,
    gen: u64,
}

/// The guest address space.
#[derive(Clone)]
pub struct Mem {
    pages: BTreeMap<u32, PageSlot>,
    perms: BTreeMap<u32, Perm>,
    regions: Vec<Region>,
    /// Monotone count of byte writes across the whole address space;
    /// see [`Mem::write_seq`].
    write_seq: u64,
    /// When true, exec permission is enforced (NX). The paper's 2003-era
    /// targets predate NX, so the default is `false` (data is executable).
    pub nx: bool,
}

impl Default for Mem {
    fn default() -> Self {
        Mem::new()
    }
}

impl Mem {
    /// An empty address space with NX disabled (period-accurate default).
    pub fn new() -> Mem {
        Mem {
            pages: BTreeMap::new(),
            perms: BTreeMap::new(),
            regions: Vec::new(),
            write_seq: 0,
            nx: false,
        }
    }

    fn page_of(addr: u32) -> u32 {
        addr / PAGE_SIZE as u32
    }

    /// Map a region of `len` bytes at `start` (both page-aligned) with the
    /// given permissions. Overlapping an existing mapping is an error.
    pub fn map(&mut self, start: u32, len: u32, perm: Perm, name: &str) -> Result<(), String> {
        if !start.is_multiple_of(PAGE_SIZE as u32)
            || !len.is_multiple_of(PAGE_SIZE as u32)
            || len == 0
        {
            return Err(format!("unaligned mapping {start:#x}+{len:#x}"));
        }
        if start.checked_add(len).is_none() {
            return Err(format!(
                "mapping {start:#x}+{len:#x} wraps the address space"
            ));
        }
        let first = Self::page_of(start);
        let count = len / PAGE_SIZE as u32;
        for p in first..first + count {
            if self.pages.contains_key(&p) {
                return Err(format!("page {:#x} already mapped", p * PAGE_SIZE as u32));
            }
        }
        for p in first..first + count {
            self.pages.insert(
                p,
                PageSlot {
                    data: Arc::new(Page::zeroed()),
                    gen: 0,
                },
            );
            self.perms.insert(p, perm);
        }
        self.regions.push(Region {
            start,
            len,
            perm,
            name: to_owned(name),
        });
        Ok(())
    }

    /// The region table (sorted by creation order).
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Find the region containing `addr`, if any.
    pub fn region_of(&self, addr: u32) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    /// Number of currently mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Number of pages whose storage is shared with a snapshot (`Arc`
    /// strong count > 1). Used by the checkpoint cost model.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .values()
            .filter(|p| Arc::strong_count(&p.data) > 1)
            .count()
    }

    /// Identity of each page's backing storage (for copy-on-write
    /// accounting): two address spaces hold the same physical page iff
    /// the identities are equal.
    pub fn page_storage_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages.values().map(|p| Arc::as_ptr(&p.data) as usize)
    }

    /// Monotone count of byte writes across the whole address space.
    ///
    /// Unchanged `write_seq` is a cheap O(1) proof that no page changed
    /// since a consumer last validated its view; the predecoded
    /// instruction cache uses it to skip per-page generation checks on
    /// the hot path.
    pub fn write_seq(&self) -> u64 {
        self.write_seq
    }

    /// Write generation of page `pno` (0 if never written or unmapped).
    ///
    /// Two observations of the same page with equal generations are
    /// guaranteed to have seen identical bytes.
    pub fn page_gen(&self, pno: u32) -> u64 {
        self.pages.get(&pno).map(|p| p.gen).unwrap_or(0)
    }

    /// Read-only view of page `pno`'s bytes, if mapped.
    pub fn page_bytes(&self, pno: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&pno).map(|p| p.data.bytes())
    }

    /// Whether an instruction fetch from page `pno` would pass the
    /// permission check (mirrors the per-byte check in [`Mem::fetch`],
    /// including the pre-NX "readable implies executable" default).
    pub fn page_exec_ok(&self, pno: u32) -> bool {
        match self.perms.get(&pno) {
            Some(p) => {
                if self.nx {
                    p.x
                } else {
                    p.r
                }
            }
            None => false,
        }
    }

    fn check(&self, pc: u32, addr: u32, access: Access) -> Result<(u32, usize), Fault> {
        let pno = Self::page_of(addr);
        let perm = match self.perms.get(&pno) {
            Some(p) => *p,
            None => return Err(Fault::Unmapped { pc, addr, access }),
        };
        let effective_allows = if access == Access::Exec && !self.nx {
            perm.r
        } else {
            perm.allows(access)
        };
        if !effective_allows {
            return Err(Fault::Protection { pc, addr, access });
        }
        Ok((pno, (addr % PAGE_SIZE as u32) as usize))
    }

    /// Read one byte; `pc` is the faulting instruction for diagnostics.
    pub fn read_u8(&self, pc: u32, addr: u32) -> Result<u8, Fault> {
        let (pno, off) = self.check(pc, addr, Access::Read)?;
        Ok(self.pages[&pno].data.bytes()[off])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, pc: u32, addr: u32, val: u8) -> Result<(), Fault> {
        let (pno, off) = self.check(pc, addr, Access::Write)?;
        let slot = self.pages.get_mut(&pno).expect("checked");
        Arc::make_mut(&mut slot.data).bytes_mut()[off] = val;
        self.write_seq += 1;
        slot.gen = self.write_seq;
        Ok(())
    }

    /// Read a little-endian 32-bit word (may straddle pages).
    pub fn read_u32(&self, pc: u32, addr: u32) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        for (i, out) in b.iter_mut().enumerate() {
            *out = self.read_u8(pc, addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(b))
    }

    /// Write a little-endian 32-bit word (may straddle pages).
    pub fn write_u32(&mut self, pc: u32, addr: u32, val: u32) -> Result<(), Fault> {
        for (i, byte) in val.to_le_bytes().iter().enumerate() {
            self.write_u8(pc, addr.wrapping_add(i as u32), *byte)?;
        }
        Ok(())
    }

    /// Fetch 8 instruction bytes, honouring exec permission.
    pub fn fetch(&self, pc: u32) -> Result<[u8; 8], Fault> {
        let mut b = [0u8; 8];
        for (i, out) in b.iter_mut().enumerate() {
            let addr = pc.wrapping_add(i as u32);
            let (pno, off) = self.check(pc, addr, Access::Exec)?;
            *out = self.pages[&pno].data.bytes()[off];
        }
        Ok(b)
    }

    /// Bulk read for the host (analysis tools); faults like a guest read.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::with_capacity(len as usize);
        for i in 0..len {
            v.push(self.read_u8(0, addr.wrapping_add(i))?);
        }
        Ok(v)
    }

    /// Bulk write for the host (loader); faults like a guest write but
    /// bypasses write permission (the loader fills code pages).
    ///
    /// Works a page at a time (one lookup, one copy-on-write, one copy),
    /// with the same effect as writing byte by byte: `write_seq` grows by
    /// one per byte, each touched page's generation is the sequence
    /// number of its last byte, and an unmapped page stops the write at
    /// its first byte, after the bytes before it have landed.
    pub fn write_bytes_host(&mut self, addr: u32, data: &[u8]) -> Result<(), Fault> {
        let mut done = 0usize;
        while done < data.len() {
            let a = addr.wrapping_add(done as u32);
            let off = (a % PAGE_SIZE as u32) as usize;
            let n = (PAGE_SIZE - off).min(data.len() - done);
            let Some(slot) = self.pages.get_mut(&Self::page_of(a)) else {
                return Err(Fault::Unmapped {
                    pc: 0,
                    addr: a,
                    access: Access::Write,
                });
            };
            Arc::make_mut(&mut slot.data).bytes_mut()[off..off + n]
                .copy_from_slice(&data[done..done + n]);
            self.write_seq += n as u64;
            slot.gen = self.write_seq;
            done += n;
        }
        Ok(())
    }

    /// Read a NUL-terminated guest string (bounded at `max` bytes).
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read_u8(0, addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }

    /// Snapshot the page table: O(pages) `Arc` clones, no data copies.
    pub fn snapshot(&self) -> Mem {
        self.clone()
    }

    /// Iterate every mapped page number with its write generation, in
    /// ascending page order.
    pub fn page_table(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.pages.iter().map(|(pno, s)| (*pno, s.gen))
    }

    /// Iterate every mapped page with its write generation and contents,
    /// in ascending page order (for digests that must tell never-written
    /// pages apart without reading their bytes).
    pub fn pages(&self) -> impl Iterator<Item = (u32, u64, &Page)> + '_ {
        self.pages.iter().map(|(pno, s)| (*pno, s.gen, &*s.data))
    }

    /// Iterate the pages whose write generation advanced past `gen`
    /// (i.e. pages dirtied since a consumer last observed `write_seq()
    /// == gen`), in ascending page order. Newly mapped pages start at
    /// generation 0, so a consumer that needs *every* page it has never
    /// seen must also diff [`Mem::page_table`] against its own table —
    /// but this address space never unmaps, and all mapping happens at
    /// load time, so post-boot consumers only ever see the gen ladder
    /// move.
    pub fn dirty_pages_since(&self, gen: u64) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.pages
            .iter()
            .filter(move |(_, s)| s.gen > gen)
            .map(|(pno, s)| (*pno, s.gen))
    }

    /// Capture page `pno`'s backing storage by reference: an O(1) `Arc`
    /// clone plus the page's generation. The captured page is immutable
    /// from the caller's perspective — a later guest write to the same
    /// page goes through `Arc::make_mut` and copies first (the same
    /// copy-on-write discipline [`Mem::snapshot`] relies on).
    pub fn page_arc(&self, pno: u32) -> Option<(Arc<Page>, u64)> {
        self.pages.get(&pno).map(|s| (Arc::clone(&s.data), s.gen))
    }

    /// Clone the address-space *skeleton*: permissions, regions, NX flag
    /// and the `write_seq` watermark, with an **empty** page table. The
    /// incremental checkpoint engine stores one skeleton per snapshot and
    /// reconstructs the page table from its delta chain via
    /// [`Mem::restore_page`]; the pair is bit-identical to a full
    /// [`Mem::snapshot`] once every page is restored.
    pub fn skeleton(&self) -> Mem {
        Mem {
            pages: BTreeMap::new(),
            perms: self.perms.clone(),
            regions: self.regions.clone(),
            write_seq: self.write_seq,
            nx: self.nx,
        }
    }

    /// Reinstate page `pno` with explicit backing storage and write
    /// generation (the inverse of [`Mem::page_arc`], used when
    /// reconstructing an address space from an incremental checkpoint).
    /// Replaces any existing slot for `pno`.
    pub fn restore_page(&mut self, pno: u32, data: Arc<Page>, gen: u64) {
        self.pages.insert(pno, PageSlot { data, gen });
    }
}

fn to_owned(s: &str) -> String {
    s.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem_with(start: u32, pages: u32, perm: Perm) -> Mem {
        let mut m = Mem::new();
        m.map(start, pages * PAGE_SIZE as u32, perm, "t")
            .expect("map");
        m
    }

    #[test]
    fn map_rejects_unaligned_and_overlap() {
        let mut m = Mem::new();
        assert!(m.map(10, PAGE_SIZE as u32, Perm::RW, "a").is_err());
        assert!(m.map(0x1000, 100, Perm::RW, "a").is_err());
        m.map(0x1000, 0x2000, Perm::RW, "a").expect("map");
        assert!(m.map(0x2000, 0x1000, Perm::RW, "b").is_err());
        assert!(m.map(0xffff_f000, 0x2000, Perm::RW, "wrap").is_err());
    }

    #[test]
    fn read_write_roundtrip_and_straddle() {
        let mut m = mem_with(0x1000, 2, Perm::RW);
        m.write_u32(0, 0x1ffe, 0xa1b2_c3d4)
            .expect("straddling write");
        assert_eq!(m.read_u32(0, 0x1ffe).expect("read"), 0xa1b2_c3d4);
        assert_eq!(m.read_u8(0, 0x1ffe).expect("read"), 0xd4);
    }

    #[test]
    fn unmapped_access_faults_with_pc() {
        let m = mem_with(0x1000, 1, Perm::RW);
        match m.read_u8(0x40, 0x5000) {
            Err(Fault::Unmapped {
                pc: 0x40,
                addr: 0x5000,
                access: Access::Read,
            }) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn write_to_readonly_faults() {
        let mut m = mem_with(0x1000, 1, Perm::R);
        assert!(matches!(
            m.write_u8(0, 0x1000, 1),
            Err(Fault::Protection {
                access: Access::Write,
                ..
            })
        ));
    }

    #[test]
    fn nx_disabled_allows_exec_of_data() {
        let mut m = mem_with(0x1000, 1, Perm::RW);
        assert!(
            m.fetch(0x1000).is_ok(),
            "pre-NX default: data is executable"
        );
        m.nx = true;
        assert!(matches!(
            m.fetch(0x1000),
            Err(Fault::Protection {
                access: Access::Exec,
                ..
            })
        ));
    }

    #[test]
    fn snapshot_is_cow() {
        let mut m = mem_with(0x1000, 4, Perm::RW);
        m.write_u8(0, 0x1000, 7).expect("w");
        let snap = m.snapshot();
        assert_eq!(m.shared_pages(), 4);
        m.write_u8(0, 0x1004, 9).expect("w");
        // The written page was copied; the other three remain shared.
        assert_eq!(m.shared_pages(), 3);
        assert_eq!(
            snap.read_u8(0, 0x1004).expect("r"),
            0,
            "snapshot unaffected"
        );
        assert_eq!(m.read_u8(0, 0x1004).expect("r"), 9);
        assert_eq!(snap.read_u8(0, 0x1000).expect("r"), 7);
    }

    #[test]
    fn region_lookup() {
        let mut m = Mem::new();
        m.map(0x1000, 0x1000, Perm::RX, "code").expect("map");
        m.map(0x8000, 0x2000, Perm::RW, "heap").expect("map");
        assert_eq!(m.region_of(0x1800).map(|r| r.name.as_str()), Some("code"));
        assert_eq!(m.region_of(0x9fff).map(|r| r.name.as_str()), Some("heap"));
        assert!(m.region_of(0x4000).is_none());
        assert_eq!(m.region_of(0x8000).map(|r| r.end()), Some(0xa000));
    }

    #[test]
    fn write_generations_track_mutation() {
        let mut m = mem_with(0x1000, 2, Perm::RW);
        let (p0, p1) = (1u32, 2u32); // page numbers of the two pages
        assert_eq!(m.write_seq(), 0);
        assert_eq!(m.page_gen(p0), 0);
        m.write_u8(0, 0x1000, 1).expect("w");
        assert_eq!(m.write_seq(), 1);
        assert_eq!(m.page_gen(p0), 1);
        assert_eq!(m.page_gen(p1), 0, "untouched page keeps its gen");
        m.write_u32(0, 0x2000, 5).expect("w");
        assert_eq!(m.write_seq(), 5, "u32 = four byte writes");
        assert_eq!(m.page_gen(p1), 5);
        // Host injection bumps too (shellcode planting must invalidate).
        m.write_bytes_host(0x1000, b"ab").expect("w");
        assert_eq!(m.page_gen(p0), 7);
        // Snapshots carry generations; failed writes don't bump.
        let snap = m.snapshot();
        assert_eq!(snap.page_gen(p0), m.page_gen(p0));
        assert!(m.write_u8(0, 0x9000, 1).is_err());
        assert_eq!(m.write_seq(), 7);
    }

    #[test]
    fn page_queries_mirror_fetch_permissions() {
        let mut m = Mem::new();
        m.map(0x1000, 0x1000, Perm::RX, "code").expect("map");
        m.map(0x2000, 0x1000, Perm::RW, "data").expect("map");
        assert!(m.page_exec_ok(1));
        assert!(m.page_exec_ok(2), "pre-NX: readable implies executable");
        assert!(!m.page_exec_ok(9), "unmapped");
        m.nx = true;
        assert!(m.page_exec_ok(1));
        assert!(!m.page_exec_ok(2), "NX forbids data exec");
        assert!(m.page_bytes(1).is_some());
        assert!(m.page_bytes(9).is_none());
    }

    #[test]
    fn dirty_iteration_capture_and_rebuild_roundtrip() {
        let mut m = mem_with(0x1000, 3, Perm::RW);
        m.write_u8(0, 0x1000, 1).expect("w");
        let watermark = m.write_seq();
        m.write_u8(0, 0x2000, 2).expect("w");
        m.write_u32(0, 0x3000, 3).expect("w");
        // Only the two pages written past the watermark show up.
        let dirty: Vec<(u32, u64)> = m.dirty_pages_since(watermark).collect();
        assert_eq!(dirty.iter().map(|(p, _)| *p).collect::<Vec<_>>(), [2, 3]);
        assert!(dirty.iter().all(|(p, g)| *g == m.page_gen(*p)));
        assert_eq!(m.dirty_pages_since(m.write_seq()).count(), 0);
        assert_eq!(m.page_table().count(), m.mapped_pages());
        // Rebuild from skeleton + captured pages: bit-identical.
        let mut rebuilt = m.skeleton();
        assert_eq!(rebuilt.mapped_pages(), 0, "skeleton has no pages");
        assert_eq!(rebuilt.write_seq(), m.write_seq());
        for (pno, _) in m.page_table() {
            let (arc, gen) = m.page_arc(pno).expect("mapped");
            rebuilt.restore_page(pno, arc, gen);
        }
        for (pno, gen) in m.page_table() {
            assert_eq!(rebuilt.page_gen(pno), gen);
            assert_eq!(rebuilt.page_bytes(pno), m.page_bytes(pno));
        }
        assert_eq!(rebuilt.regions(), m.regions());
        // Restored pages share storage COW-style: a write to the origin
        // copies first and leaves the rebuilt view untouched.
        m.write_u8(0, 0x1004, 9).expect("w");
        assert_eq!(rebuilt.read_u8(0, 0x1004).expect("r"), 0);
    }

    #[test]
    fn host_writes_straddle_pages_and_stop_at_unmapped() {
        let mut m = mem_with(0x1000, 2, Perm::R);
        // Crosses page 1 → 2 → unmapped 3: the first 4,098 bytes land
        // (even on read-only pages), the fault names the first unmapped
        // byte, and each page's generation is that of its last byte.
        let err = m
            .write_bytes_host(0x1ffe, &[9; 4100])
            .expect_err("unmapped");
        assert!(matches!(
            err,
            Fault::Unmapped {
                addr: 0x3000,
                access: Access::Write,
                ..
            }
        ));
        assert_eq!(m.write_seq(), 4098, "one write per landed byte");
        assert_eq!((m.page_gen(1), m.page_gen(2)), (2, 4098));
        assert_eq!(m.read_bytes(0x2ffc, 4).expect("r"), [9; 4]);
        m.write_bytes_host(0x1fff, &[1, 2, 3]).expect("w");
        assert_eq!((m.page_gen(1), m.page_gen(2)), (4099, 4101));
        assert_eq!(m.read_bytes(0x1ffe, 4).expect("r"), [9, 1, 2, 3]);
        assert!(m.write_bytes_host(0x1000, &[]).is_ok());
        assert_eq!(m.write_seq(), 4101, "an empty write writes nothing");
    }

    fn written(m: &Mem) -> Vec<u32> {
        m.pages()
            .filter(|(_, _, p)| p.is_written())
            .map(|(pno, _, _)| pno)
            .collect()
    }

    #[test]
    fn mapping_allocates_no_page_bytes() {
        let m = mem_with(0x1000, 4, Perm::RW);
        assert!(written(&m).is_empty(), "no page owns bytes yet");
        assert_eq!(m.read_u32(0, 0x2ffc).expect("r"), 0);
        assert_eq!(m.fetch(0x3000).expect("fetch"), [0; 8]);
        assert!(m.page_bytes(4).expect("mapped").iter().all(|&b| b == 0));
    }

    #[test]
    fn first_write_copies_only_that_page() {
        let mut m = mem_with(0x1000, 4, Perm::RW);
        let snap = m.snapshot();
        m.write_u8(0, 0x2010, 0xab).expect("w");
        assert_eq!(written(&m), [2], "only the written page owns bytes");
        assert!(written(&snap).is_empty());
        assert_eq!(
            snap.read_u8(0, 0x2010).expect("r"),
            0,
            "snapshot unaffected"
        );
        assert_eq!(m.read_u8(0, 0x2010).expect("r"), 0xab);
        assert_eq!(m.read_u8(0, 0x2011).expect("r"), 0);
        assert_eq!(m.shared_pages(), 3);
        // Writing a zero still gives the page its own bytes.
        m.write_u8(0, 0x3000, 0).expect("w");
        assert_eq!(written(&m), [2, 3]);
    }

    /// The same address space with every page allocated up front, the
    /// way pages were before they became lazy.
    fn eager_copy(m: &Mem) -> Mem {
        let mut eager = m.skeleton();
        for (pno, gen, page) in m.pages() {
            let mut p = page.clone();
            p.bytes_mut();
            eager.restore_page(pno, Arc::new(p), gen);
        }
        eager
    }

    /// Per page: is its storage shared with `snap`'s?
    fn shared_with(m: &Mem, snap: &Mem) -> Vec<bool> {
        m.page_storage_ids()
            .zip(snap.page_storage_ids())
            .map(|(a, b)| a == b)
            .collect()
    }

    #[test]
    fn lazy_and_eager_pages_share_alike() {
        let mut lazy = mem_with(0x1000, 4, Perm::RW);
        let mut eager = eager_copy(&lazy);
        assert!(written(&eager).len() == 4 && written(&lazy).is_empty());
        assert_eq!(lazy.shared_pages(), 0, "fresh: nothing shared");
        assert_eq!(eager.shared_pages(), 0);
        let ids: std::collections::HashSet<usize> = lazy.page_storage_ids().collect();
        assert_eq!(ids.len(), 4, "one storage per mapped page");
        let (snap_l, snap_e) = (lazy.snapshot(), eager.snapshot());
        assert_eq!(lazy.shared_pages(), 4);
        assert_eq!(eager.shared_pages(), 4);
        assert_eq!(shared_with(&lazy, &snap_l), [true; 4]);
        for m in [&mut lazy, &mut eager] {
            m.write_u8(0, 0x3004, 5).expect("w");
        }
        assert_eq!(lazy.shared_pages(), 3);
        assert_eq!(eager.shared_pages(), 3);
        assert_eq!(shared_with(&lazy, &snap_l), shared_with(&eager, &snap_e));
        assert_eq!(shared_with(&lazy, &snap_l), [true, true, false, true]);
        for pno in 1..=4 {
            assert_eq!(lazy.page_bytes(pno), eager.page_bytes(pno));
            assert_eq!(lazy.page_gen(pno), eager.page_gen(pno));
        }
    }

    #[test]
    fn cstr_reading_is_bounded() {
        let mut m = mem_with(0x1000, 1, Perm::RW);
        m.write_bytes_host(0x1000, b"hi\0there").expect("w");
        assert_eq!(m.read_cstr(0x1000, 64).expect("r"), b"hi");
        assert_eq!(m.read_cstr(0x1003, 3).expect("r"), b"the", "bounded");
    }
}
