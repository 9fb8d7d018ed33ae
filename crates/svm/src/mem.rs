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
//!
//! The page table is a handful of *spans* — runs of consecutive page
//! numbers, one per mapped region — over one dense vector of slots, so
//! finding a page is a scan of at most a few spans and one index, and
//! walking every page in ascending page order is a flat scan. A
//! [`Mem::skeleton`] starts with no spans at all; [`Mem::restore_page`]
//! adds the covering region's span the first time it restores a page
//! into it, so a skeleton costs only the slots of the regions it gets
//! pages back for.
//!
//! Each page's slot holds its permission next to its bytes, so a guest
//! access costs one span lookup per page it touches: a byte, a word or
//! an 8-byte fetch that lies within one page is checked once and copied
//! whole, only a page-crossing access splits (into one piece per page),
//! and bulk reads and writes go a page chunk at a time. Each piece has
//! exactly the effect of its bytes taken one at a time: a fault names
//! the first byte whose page refuses the access, after the bytes before
//! it have landed, and [`Mem::write_seq`] and every page's generation
//! count bytes.
//!
//! The store path keeps two records for the layers above it, so that
//! neither has to scan the page table:
//!
//! - **The write set**: the page numbers written since the last
//!   [`Mem::mark_clean`], kept sorted. A store records its page when the
//!   page's generation was at or below the mark, i.e. on the page's
//!   first write since the mark, so every page whose generation is past
//!   the mark is in the set. [`Mem::dirty_pages_since`] answers from the
//!   set for any watermark at or past the mark, in O(pages written), and
//!   falls back to a scan of the whole table for an older one.
//! - **Watched pages**: a page the decode cache has decoded is marked
//!   watched ([`Mem::watch_page`]), and a write to a watched page, guest
//!   store, host injection or [`Mem::restore_page`] alike, moves
//!   [`Mem::watched_seq`]. A store to any other page leaves it alone, so
//!   the decode cache's hot check survives data stores.

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

    /// Whether this permission admits `access`. With `nx` off, every
    /// readable page is executable (the pre-NX default).
    fn admits(self, access: Access, nx: bool) -> bool {
        match access {
            Access::Read => self.r,
            Access::Write => self.w,
            Access::Exec if nx => self.x,
            Access::Exec => self.r,
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

/// One mapped page: its storage, its write-generation stamp and its
/// permission.
///
/// The generation is bumped on every mutation of the page's bytes
/// (guest store, host injection, allocator metadata update); consumers
/// such as the predecoded instruction cache compare generations to
/// detect self-modifying code without scanning page contents. The
/// permission is the mapping region's; nothing changes it after
/// [`Mem::map`], so it lives here, one lookup away from the bytes it
/// guards.
#[derive(Clone)]
struct PageSlot {
    data: Arc<Page>,
    gen: u64,
    perm: Perm,
    /// Whether a write to this page moves [`Mem::watched_seq`].
    watched: bool,
}

/// The permission of a restored page that no region covers.
const NO_ACCESS: Perm = Perm {
    r: false,
    w: false,
    x: false,
};

/// A run of `count` consecutive page numbers from `first`, whose slots
/// are `slots[base..base + count]` of the [`PageTable`].
#[derive(Clone, Copy)]
struct Span {
    first: u32,
    count: u32,
    base: usize,
}

impl Span {
    /// One past the last page number (as `u64`: a span may end at the
    /// top of the page-number space).
    fn end(&self) -> u64 {
        self.first as u64 + self.count as u64
    }
}

/// The page table: a few [`Span`]s, sorted by page number and never
/// overlapping, over one dense slot vector. A slot is `None` until its
/// page is mapped or restored.
#[derive(Clone, Default)]
struct PageTable {
    spans: Vec<Span>,
    slots: Vec<Option<PageSlot>>,
}

impl PageTable {
    /// Where page `pno`'s slot lives, if a span covers it.
    #[inline]
    fn index(&self, pno: u32) -> Option<usize> {
        self.spans.iter().find_map(|s| {
            let d = pno.wrapping_sub(s.first);
            (d < s.count).then(|| s.base + d as usize)
        })
    }

    #[inline]
    fn get(&self, pno: u32) -> Option<&PageSlot> {
        self.slots[self.index(pno)?].as_ref()
    }

    #[inline]
    fn get_mut(&mut self, pno: u32) -> Option<&mut PageSlot> {
        let i = self.index(pno)?;
        self.slots[i].as_mut()
    }

    /// Put `slot` at page `pno`, adding a one-page span for it if no
    /// span covers it yet.
    fn set(&mut self, pno: u32, slot: PageSlot) {
        let i = match self.index(pno) {
            Some(i) => i,
            None => {
                self.cover(pno, 1);
                self.slots.len() - 1
            }
        };
        self.slots[i] = Some(slot);
    }

    /// Add spans for the pages of `first..first + count` that no span
    /// covers yet, one per maximal uncovered run.
    fn cover(&mut self, first: u32, count: u32) {
        let end = first as u64 + count as u64;
        let mut at = first as u64;
        let mut gaps = Vec::new();
        for s in &self.spans {
            if s.end() <= at {
                continue;
            }
            if s.first as u64 >= end {
                break;
            }
            if (s.first as u64) > at {
                gaps.push((at, s.first as u64 - at));
            }
            at = s.end();
        }
        if at < end {
            gaps.push((at, end - at));
        }
        for (first, count) in gaps {
            let base = self.slots.len();
            self.slots.resize(base + count as usize, None);
            let first = first as u32;
            let pos = self.spans.partition_point(|s| s.first < first);
            self.spans.insert(
                pos,
                Span {
                    first,
                    count: count as u32,
                    base,
                },
            );
        }
    }

    /// Every held slot with its page number, in ascending page order.
    fn iter(&self) -> impl Iterator<Item = (u32, &PageSlot)> + '_ {
        self.spans.iter().flat_map(move |s| {
            self.slots[s.base..s.base + s.count as usize]
                .iter()
                .zip(0..)
                .filter_map(move |(slot, i)| slot.as_ref().map(|slot| (s.first + i, slot)))
        })
    }
}

/// The guest address space.
///
/// Its page table is span-indexed (see the [module docs](self)): one
/// span per mapped region, so a lookup scans a handful of spans.
#[derive(Clone)]
pub struct Mem {
    pages: PageTable,
    regions: Vec<Region>,
    /// Monotone count of byte writes across the whole address space;
    /// see [`Mem::write_seq`].
    write_seq: u64,
    /// `write_seq` at the last [`Mem::mark_clean`].
    mark: u64,
    /// The write set: every page whose generation passed `mark`, in
    /// ascending page order (a page restored back below the mark may
    /// linger; readers filter by generation).
    written: Vec<u32>,
    /// Count of writes to watched pages; see [`Mem::watched_seq`].
    watched_seq: u64,
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
            pages: PageTable::default(),
            regions: Vec::new(),
            write_seq: 0,
            mark: 0,
            written: Vec::new(),
            watched_seq: 0,
            nx: false,
        }
    }

    fn page_of(addr: u32) -> u32 {
        addr / PAGE_SIZE as u32
    }

    fn offset(addr: u32) -> usize {
        (addr % PAGE_SIZE as u32) as usize
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
            if self.pages.get(p).is_some() {
                return Err(format!("page {:#x} already mapped", p * PAGE_SIZE as u32));
            }
        }
        self.pages.cover(first, count);
        for p in first..first + count {
            self.pages.set(
                p,
                PageSlot {
                    data: Arc::new(Page::zeroed()),
                    gen: 0,
                    perm,
                    watched: false,
                },
            );
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
        self.pages.iter().count()
    }

    /// Number of pages whose storage is shared with a snapshot (`Arc`
    /// strong count > 1). Used by the checkpoint cost model.
    pub fn shared_pages(&self) -> usize {
        self.pages
            .iter()
            .filter(|(_, p)| Arc::strong_count(&p.data) > 1)
            .count()
    }

    /// Identity of each page's backing storage (for copy-on-write
    /// accounting): two address spaces hold the same physical page iff
    /// the identities are equal.
    pub fn page_storage_ids(&self) -> impl Iterator<Item = usize> + '_ {
        self.pages
            .iter()
            .map(|(_, p)| Arc::as_ptr(&p.data) as usize)
    }

    /// Monotone count of byte writes across the whole address space.
    ///
    /// It counts bytes, not accesses: a word store adds 4 and a bulk
    /// write its length, and after each write every page it touched
    /// carries, as its generation, the sequence number of its own last
    /// byte — the numbers one-byte-at-a-time stores would leave.
    /// Unchanged `write_seq` is a cheap O(1) proof that no page changed
    /// since a consumer last observed it; the checkpoint manager keeps
    /// its dirty-page watermark in these units. (The predecoded
    /// instruction cache watches only the pages it decoded:
    /// [`Mem::watched_seq`].)
    pub fn write_seq(&self) -> u64 {
        self.write_seq
    }

    /// Monotone count of writes (stores and restores) to watched pages:
    /// unchanged, it proves that no page the decode cache has decoded
    /// was written. Stores to unwatched pages do not move it.
    pub fn watched_seq(&self) -> u64 {
        self.watched_seq
    }

    /// Watch page `pno` (no-op if unmapped): from now on every write to
    /// it moves [`Mem::watched_seq`]. The decode cache watches each page
    /// it decodes. Clones and snapshots keep the watch; nothing clears
    /// it, so a page the cache later drops stays watched, which costs
    /// only a re-validation after a write to it.
    pub fn watch_page(&mut self, pno: u32) {
        if let Some(slot) = self.pages.get_mut(pno) {
            slot.watched = true;
        }
    }

    /// Write generation of page `pno` (0 if never written or unmapped).
    ///
    /// Two observations of the same page with equal generations are
    /// guaranteed to have seen identical bytes.
    pub fn page_gen(&self, pno: u32) -> u64 {
        self.pages.get(pno).map_or(0, |p| p.gen)
    }

    /// Read-only view of page `pno`'s bytes, if mapped.
    pub fn page_bytes(&self, pno: u32) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(pno).map(|p| p.data.bytes())
    }

    /// Whether an instruction fetch from page `pno` would pass the
    /// permission check (the check [`Mem::fetch`] makes, including the
    /// pre-NX "readable implies executable" default).
    pub fn page_exec_ok(&self, pno: u32) -> bool {
        self.pages
            .get(pno)
            .is_some_and(|s| s.perm.admits(Access::Exec, self.nx))
    }

    /// The slot holding `addr`, and `addr`'s offset in it, if the slot's
    /// permission admits `access`: one span lookup. An address with no
    /// slot is `Unmapped`; a slot that refuses `access` is `Protection`.
    #[inline]
    fn slot(&self, pc: u32, addr: u32, access: Access) -> Result<(&PageSlot, usize), Fault> {
        match self.pages.get(Self::page_of(addr)) {
            None => Err(Fault::Unmapped { pc, addr, access }),
            Some(s) if s.perm.admits(access, self.nx) => Ok((s, Self::offset(addr))),
            Some(_) => Err(Fault::Protection { pc, addr, access }),
        }
    }

    /// [`Mem::slot`] for a write, over the page table alone so that the
    /// caller can bump `write_seq` while it holds the slot. `guest`
    /// enforces write permission; host writes skip it.
    #[inline]
    fn slot_mut(
        pages: &mut PageTable,
        pc: u32,
        addr: u32,
        guest: bool,
    ) -> Result<(&mut PageSlot, usize), Fault> {
        let access = Access::Write;
        match pages.get_mut(Self::page_of(addr)) {
            None => Err(Fault::Unmapped { pc, addr, access }),
            Some(s) if guest && !s.perm.w => Err(Fault::Protection { pc, addr, access }),
            Some(s) => Ok((s, Self::offset(addr))),
        }
    }

    /// Store `data`, which lies within one page, at `addr`: one lookup,
    /// one copy-on-write step, one copy. `write_seq` grows by the length
    /// and the page's generation becomes the new value; the page's first
    /// write since the mark enters the write set, and a write to a
    /// watched page moves `watched_seq`.
    #[inline]
    fn store(&mut self, pc: u32, addr: u32, data: &[u8], guest: bool) -> Result<(), Fault> {
        let (slot, off) = Self::slot_mut(&mut self.pages, pc, addr, guest)?;
        Arc::make_mut(&mut slot.data).bytes_mut()[off..off + data.len()].copy_from_slice(data);
        let first = slot.gen <= self.mark;
        self.write_seq += data.len() as u64;
        slot.gen = self.write_seq;
        if slot.watched {
            self.watched_seq += 1;
        }
        if first {
            Self::note_written(&mut self.written, Self::page_of(addr));
        }
        Ok(())
    }

    /// Put `pno` in the sorted write set (once).
    #[cold]
    fn note_written(written: &mut Vec<u32>, pno: u32) {
        if let Err(i) = written.binary_search(&pno) {
            written.insert(i, pno);
        }
    }

    /// Write `data` from `addr` on, one [`Mem::store`] per page chunk
    /// (wrapping at the top of the address space). A refused page stops
    /// the write at its first byte, after the chunks before it landed.
    fn store_span(&mut self, pc: u32, addr: u32, data: &[u8], guest: bool) -> Result<(), Fault> {
        let mut done = 0;
        while done < data.len() {
            let a = addr.wrapping_add(done as u32);
            let n = (PAGE_SIZE - Self::offset(a)).min(data.len() - done);
            self.store(pc, a, &data[done..done + n], guest)?;
            done += n;
        }
        Ok(())
    }

    /// Fill `out` from `addr` on, one lookup and one copy per page chunk
    /// (wrapping at the top of the address space). A refused page faults
    /// at its first byte.
    fn load(&self, pc: u32, addr: u32, access: Access, out: &mut [u8]) -> Result<(), Fault> {
        let mut done = 0;
        while done < out.len() {
            let (slot, off) = self.slot(pc, addr.wrapping_add(done as u32), access)?;
            let n = (PAGE_SIZE - off).min(out.len() - done);
            out[done..done + n].copy_from_slice(&slot.data.bytes()[off..off + n]);
            done += n;
        }
        Ok(())
    }

    /// `N` bytes from `addr`: one lookup and one copy when they lie within
    /// one page, else [`Mem::load`]'s per-page pieces.
    #[inline]
    fn load_array<const N: usize>(
        &self,
        pc: u32,
        addr: u32,
        access: Access,
    ) -> Result<[u8; N], Fault> {
        let mut b = [0u8; N];
        if Self::offset(addr) <= PAGE_SIZE - N {
            let (slot, off) = self.slot(pc, addr, access)?;
            b.copy_from_slice(&slot.data.bytes()[off..off + N]);
        } else {
            self.load(pc, addr, access, &mut b)?;
        }
        Ok(b)
    }

    /// Read one byte; `pc` is the faulting instruction for diagnostics.
    pub fn read_u8(&self, pc: u32, addr: u32) -> Result<u8, Fault> {
        let (slot, off) = self.slot(pc, addr, Access::Read)?;
        Ok(slot.data.bytes()[off])
    }

    /// Write one byte.
    pub fn write_u8(&mut self, pc: u32, addr: u32, val: u8) -> Result<(), Fault> {
        self.store(pc, addr, &[val], true)
    }

    /// Read a little-endian 32-bit word (may straddle pages).
    pub fn read_u32(&self, pc: u32, addr: u32) -> Result<u32, Fault> {
        self.load_array(pc, addr, Access::Read)
            .map(u32::from_le_bytes)
    }

    /// Write a little-endian 32-bit word (may straddle pages; a fault on
    /// the second page leaves the first page's bytes written).
    pub fn write_u32(&mut self, pc: u32, addr: u32, val: u32) -> Result<(), Fault> {
        let b = val.to_le_bytes();
        if Self::offset(addr) <= PAGE_SIZE - b.len() {
            self.store(pc, addr, &b, true)
        } else {
            self.store_span(pc, addr, &b, true)
        }
    }

    /// Fetch 8 instruction bytes, honouring exec permission.
    pub fn fetch(&self, pc: u32) -> Result<[u8; 8], Fault> {
        self.load_array(pc, pc, Access::Exec)
    }

    /// Bulk read for the host (analysis tools); faults like a guest read.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        let mut v = vec![0; len as usize];
        self.load(0, addr, Access::Read, &mut v)?;
        Ok(v)
    }

    /// Bulk guest write (the `read` syscall filling its buffer): checked
    /// like [`Mem::write_u8`] on every page it touches, with the same
    /// effect as writing byte by byte — `write_seq` grows by one per
    /// byte, each touched page's generation is the sequence number of
    /// its last byte, and a refused page stops the write at its first
    /// byte, after the bytes before it have landed.
    pub fn write_bytes(&mut self, pc: u32, addr: u32, data: &[u8]) -> Result<(), Fault> {
        self.store_span(pc, addr, data, true)
    }

    /// Bulk write for the host (loader); faults like a guest write but
    /// bypasses write permission (the loader fills code pages). Otherwise
    /// the same as [`Mem::write_bytes`].
    pub fn write_bytes_host(&mut self, addr: u32, data: &[u8]) -> Result<(), Fault> {
        self.store_span(0, addr, data, false)
    }

    /// Read a NUL-terminated guest string (bounded at `max` bytes), a
    /// page chunk at a time.
    pub fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::new();
        let mut done = 0u32;
        while done < max {
            let (slot, off) = self.slot(0, addr.wrapping_add(done), Access::Read)?;
            let n = (PAGE_SIZE - off).min((max - done) as usize);
            let chunk = &slot.data.bytes()[off..off + n];
            if let Some(end) = chunk.iter().position(|&b| b == 0) {
                v.extend_from_slice(&chunk[..end]);
                break;
            }
            v.extend_from_slice(chunk);
            done += n as u32;
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
        self.pages.iter().map(|(pno, s)| (pno, s.gen))
    }

    /// Iterate every mapped page with its write generation and backing
    /// storage, in ascending page order (for digests that must tell
    /// never-written pages apart without reading their bytes, and for
    /// captures: cloning the `Arc` is the same O(1) copy-on-write capture
    /// as [`Mem::page_arc`], without a second page-table lookup).
    pub fn pages(&self) -> impl Iterator<Item = (u32, u64, &Arc<Page>)> + '_ {
        self.pages.iter().map(|(pno, s)| (pno, s.gen, &s.data))
    }

    /// [`Mem::pages`] restricted to the pages whose write generation
    /// advanced past `gen` (i.e. pages dirtied since a consumer last
    /// observed `write_seq() == gen`), in ascending page order. Newly
    /// mapped pages start at generation 0, so a consumer that needs
    /// *every* page it has never seen must also diff
    /// [`Mem::page_table`] against its own table — but this address
    /// space never unmaps, and all mapping happens at load time, so
    /// post-boot consumers only ever see the gen ladder move.
    ///
    /// For `gen` at or past the last [`Mem::mark_clean`] the answer
    /// comes from the write set, visiting only the pages written since
    /// the mark; an older `gen` scans the whole table.
    /// [`Mem::dirty_scan_len`] says how many entries a call visits.
    pub fn dirty_pages_since(&self, gen: u64) -> impl Iterator<Item = (u32, u64, &Arc<Page>)> + '_ {
        let (set, scan) = if gen >= self.mark {
            let set = self.written.iter().filter_map(move |&pno| {
                let s = self.pages.get(pno)?;
                Some((pno, s.gen, &s.data))
            });
            (Some(set), None)
        } else {
            (None, Some(self.pages()))
        };
        set.into_iter()
            .flatten()
            .chain(scan.into_iter().flatten())
            .filter(move |&(_, g, _)| g > gen)
    }

    /// How many page-table entries [`Mem::dirty_pages_since`]`(gen)`
    /// visits: the write set's length at or past the mark, else every
    /// slot of the table.
    pub fn dirty_scan_len(&self, gen: u64) -> usize {
        if gen >= self.mark {
            self.written.len()
        } else {
            self.pages.slots.len()
        }
    }

    /// Set the mark to the current `write_seq` and empty the write set:
    /// the next page written is the first of a new set. A consumer that
    /// keeps its own watermark at `write_seq` calls this each time it
    /// catches up, so its next [`Mem::dirty_pages_since`] is O(pages
    /// written since). A page restored at a generation past `write_seq`
    /// (never done by a checkpoint, whose generations come from this
    /// address space's own past) stays in the set.
    pub fn mark_clean(&mut self) {
        let (pages, seq) = (&self.pages, self.write_seq);
        self.written
            .retain(|&pno| pages.get(pno).is_some_and(|s| s.gen > seq));
        self.mark = seq;
    }

    /// Capture page `pno`'s backing storage by reference: an O(1) `Arc`
    /// clone plus the page's generation. The captured page is immutable
    /// from the caller's perspective — a later guest write to the same
    /// page goes through `Arc::make_mut` and copies first (the same
    /// copy-on-write discipline [`Mem::snapshot`] relies on).
    pub fn page_arc(&self, pno: u32) -> Option<(Arc<Page>, u64)> {
        self.pages.get(pno).map(|s| (Arc::clone(&s.data), s.gen))
    }

    /// Clone the address-space *skeleton*: regions, NX flag and the
    /// `write_seq` watermark, with an **empty** page table (no spans, no
    /// slots). The incremental checkpoint engine stores one skeleton per
    /// snapshot and reconstructs the page table from its delta chain via
    /// [`Mem::restore_page`]; the pair is bit-identical to a full
    /// [`Mem::snapshot`] once every page is restored.
    pub fn skeleton(&self) -> Mem {
        Mem {
            pages: PageTable::default(),
            regions: self.regions.clone(),
            write_seq: self.write_seq,
            mark: self.write_seq,
            written: Vec::new(),
            watched_seq: self.watched_seq,
            nx: self.nx,
        }
    }

    /// Reinstate page `pno` with explicit backing storage and write
    /// generation (the inverse of [`Mem::page_arc`], used when
    /// reconstructing an address space from an incremental checkpoint).
    /// An existing slot keeps its permission and takes the new storage
    /// and generation; a new slot takes the permission of the region
    /// that covers it (no access at all if none does, which a page that
    /// came from [`Mem::map`] never meets). The first page restored into
    /// a region adds that region's span to the table; a page outside
    /// every region gets a span of its own. A page restored past the
    /// mark enters the write set, and restoring a watched page moves
    /// [`Mem::watched_seq`], as a write would.
    pub fn restore_page(&mut self, pno: u32, data: Arc<Page>, gen: u64) {
        if gen > self.mark && self.pages.get(pno).is_none_or(|s| s.gen <= self.mark) {
            Self::note_written(&mut self.written, pno);
        }
        if let Some(slot) = self.pages.get_mut(pno) {
            slot.data = data;
            slot.gen = gen;
            if slot.watched {
                self.watched_seq += 1;
            }
            return;
        }
        let start = pno.checked_mul(PAGE_SIZE as u32);
        let region = self
            .regions
            .iter()
            .find(|r| start.is_some_and(|a| r.contains(a)));
        let perm = region.map_or(NO_ACCESS, |r| r.perm);
        if let Some(r) = region {
            self.pages
                .cover(Self::page_of(r.start), r.len / PAGE_SIZE as u32);
        }
        self.pages.set(
            pno,
            PageSlot {
                data,
                gen,
                perm,
                watched: false,
            },
        );
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
        let dirty: Vec<(u32, u64)> = m
            .dirty_pages_since(watermark)
            .map(|(p, g, _)| (p, g))
            .collect();
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
            let mut p = Page::clone(page);
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
