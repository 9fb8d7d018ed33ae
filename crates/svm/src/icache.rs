//! Predecoded-page instruction cache for the interpreter hot loop.
//!
//! Every layer of the reproduction — the always-on production service,
//! checkpointed replay, each DBI re-execution, and the real-host
//! community campaign — funnels through
//! [`Machine::run`](crate::Machine::run), which would otherwise fetch 8
//! bytes (a page-table probe and a permission check) and re-run
//! `Op::decode` for every retired instruction. This module caches the
//! decode work at page granularity, the unit JITScanner-style
//! systems use for check-and-cache over executable memory:
//!
//! - **Per-page arrays** of decoded [`Op`]s ([`SLOTS_PER_PAGE`] slots),
//!   built lazily the first time any instruction on a page executes.
//! - **Keyed by (page index, layout, NX)**: a layout change (ASLR
//!   re-randomization) or an NX toggle flushes the cache. Neither can change while the machine runs —
//!   hooks only ever see `&Machine` — so the key is checked once per
//!   `run` or `step_hooked` call ([`DecodeCache::enter`]), not on every
//!   lookup.
//! - **Precise invalidation** on any guest or host write to a cached
//!   page, via [`Mem::page_gen`] write generations — self-modifying
//!   code, host shellcode injection, and allocator-metadata stores near
//!   code all invalidate exactly the dirtied page. The hot-path check
//!   is O(1): while [`Mem::write_seq`] is unchanged since the last
//!   validation, the page is provably untouched.
//! - **Cold after clone**: cloning a machine *is* a checkpoint, so a
//!   rolled-back machine must never reuse decode state from the live
//!   one; [`DecodeCache`]'s `Clone` therefore yields an empty cache
//!   (see `checkpoint::manager` for the rollback side).
//!
//! Correctness contract: a cache hit returns exactly the `Op` that
//! `Op::decode(mem.fetch(pc)?, pc)` would return, and every bypass
//! (disabled cache, unaligned pc, non-executable page, undecodable
//! word) falls back to that slow path, so faults surface at the same
//! pc with the same payload and the virtual clock advances identically.
//!
//! The cache is the machine's only accelerator; the interpreter it
//! falls back to on a bypass also runs alone, as its reference
//! ([`Machine::with_decode_cache`](crate::machine::Machine::with_decode_cache)).

use crate::isa::{Op, INSN_SIZE};
use crate::loader::Layout;
use crate::mem::{Mem, PAGE_SIZE};

/// Decoded slots per page (512 fixed-width instructions).
pub const SLOTS_PER_PAGE: usize = PAGE_SIZE / INSN_SIZE as usize;

/// Upper bound on cached pages before a wholesale flush (guards memory
/// on pathological jump-everywhere guests; ordinary servers execute a
/// handful of code pages).
const MAX_CACHED_PAGES: usize = 128;

/// Hit/miss/invalidation counters, exposed for reports and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Dispatches served from a predecoded slot.
    pub hits: u64,
    /// Page builds (first execution of a page).
    pub misses: u64,
    /// Page rebuilds forced by a write to a cached page.
    pub invalidations: u64,
    /// Dispatches that fell back to the slow fetch+decode path
    /// (unaligned pc, non-executable page, undecodable word).
    pub bypasses: u64,
    /// Wholesale flushes (layout change, NX toggle, capacity, restore).
    pub flushes: u64,
}

/// The slot of `pc` within its page.
fn slot_of(pc: u32) -> usize {
    ((pc % PAGE_SIZE as u32) / INSN_SIZE) as usize
}

/// One predecoded page.
struct CachedPage {
    /// Guest page number.
    pno: u32,
    /// [`Mem::page_gen`] value the slots were decoded against.
    gen: u64,
    /// [`Mem::write_seq`] value at the last validation of this page.
    seen_seq: u64,
    /// Decoded slot per aligned pc; `None` = undecodable word (the
    /// dispatcher re-runs the slow path to raise the precise fault).
    slots: Box<[Option<Op>]>,
}

impl CachedPage {
    fn build(pno: u32, mem: &Mem) -> Option<CachedPage> {
        let bytes = mem.page_bytes(pno)?;
        let mut slots = Vec::with_capacity(SLOTS_PER_PAGE);
        for i in 0..SLOTS_PER_PAGE {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[i * INSN_SIZE as usize..(i + 1) * INSN_SIZE as usize]);
            slots.push(Op::decode_word(w));
        }
        Some(CachedPage {
            pno,
            gen: mem.page_gen(pno),
            seen_seq: mem.write_seq(),
            slots: slots.into_boxed_slice(),
        })
    }

    fn redecode(&mut self, mem: &Mem) {
        if let Some(bytes) = mem.page_bytes(self.pno) {
            for (i, slot) in self.slots.iter_mut().enumerate() {
                let mut w = [0u8; 8];
                w.copy_from_slice(&bytes[i * INSN_SIZE as usize..(i + 1) * INSN_SIZE as usize]);
                *slot = Op::decode_word(w);
            }
            self.gen = mem.page_gen(self.pno);
        }
    }
}

/// The per-machine predecoded instruction cache.
///
/// Lives inside `Machine`; key it with [`DecodeCache::enter`] on entry
/// to every run or step, then consult it with [`DecodeCache::lookup`]
/// before the slow fetch+decode path. `Clone` is intentionally *cold*
/// (an empty cache with the same enable flag): machine clones are
/// checkpoints, and decode state must never leak across a rollback.
pub struct DecodeCache {
    enabled: bool,
    /// The [`Layout`] and NX setting the cached pages were decoded
    /// under (an NX toggle flushes too, since executability of data
    /// pages changes under it); `None` before the first entry.
    key: Option<(Layout, bool)>,
    pages: Vec<CachedPage>,
    /// Index of the most recently used page (hot loops stay on one page).
    mru: usize,
    stats: CacheStats,
}

impl Clone for DecodeCache {
    /// Cloning yields a *cold* cache: clones are checkpoints/rollbacks
    /// and must revalidate everything against their own memory.
    fn clone(&self) -> DecodeCache {
        DecodeCache::new(self.enabled)
    }
}

impl DecodeCache {
    /// An empty cache.
    pub fn new(enabled: bool) -> DecodeCache {
        DecodeCache {
            enabled,
            key: None,
            pages: Vec::new(),
            mru: 0,
            stats: CacheStats::default(),
        }
    }

    /// Whether the cache is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable the cache (disabling drops all entries).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.pages.clear();
            self.mru = 0;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Number of pages currently predecoded.
    pub fn cached_pages(&self) -> usize {
        self.pages.len()
    }

    /// Drop every entry (layout re-randomization, checkpoint restore,
    /// or any out-of-band replacement of the machine's memory).
    pub fn flush(&mut self) {
        if !self.pages.is_empty() {
            self.stats.flushes += 1;
        }
        self.pages.clear();
        self.mru = 0;
    }

    /// Key the cache to the layout and NX setting a run or step is about
    /// to execute under: a change since the pages were decoded flushes
    /// them all. Call it on entry to every run or step, before the first
    /// [`DecodeCache::lookup`].
    pub fn enter(&mut self, layout: &Layout, nx: bool) {
        let key = Some((*layout, nx));
        if self.enabled && self.key != key {
            self.flush();
            self.key = key;
        }
    }

    /// Look up the decoded instruction at `pc`, building/validating the
    /// page entry as needed. `None` means "take the slow path" (which
    /// reproduces the exact fault, if any). The key is the one of the
    /// last [`DecodeCache::enter`].
    ///
    /// The common case — `pc` on the most recently used page, nothing
    /// written anywhere since that page was last validated, a decodable
    /// slot — is answered inline; everything else goes out of line.
    #[inline]
    pub fn lookup(&mut self, mem: &Mem, pc: u32) -> Option<Op> {
        if let Some(page) = self.pages.get(self.mru) {
            if page.pno == pc / PAGE_SIZE as u32
                && page.seen_seq == mem.write_seq()
                && pc.is_multiple_of(INSN_SIZE)
            {
                if let Some(op) = page.slots[slot_of(pc)] {
                    self.stats.hits += 1;
                    return Some(op);
                }
            }
        }
        self.lookup_slow(mem, pc)
    }

    #[inline(never)]
    fn lookup_slow(&mut self, mem: &Mem, pc: u32) -> Option<Op> {
        if !self.enabled {
            return None;
        }
        if !pc.is_multiple_of(INSN_SIZE) {
            // Misaligned fetch can straddle pages; slow path handles it.
            self.stats.bypasses += 1;
            return None;
        }
        let pno = pc / PAGE_SIZE as u32;
        let idx = match self.find(pno) {
            Some(i) => i,
            None => {
                if !mem.page_exec_ok(pno) {
                    // Unmapped or not executable: the slow path raises
                    // the precise Unmapped/Protection fault.
                    self.stats.bypasses += 1;
                    return None;
                }
                if self.pages.len() >= MAX_CACHED_PAGES {
                    self.flush();
                }
                let built = CachedPage::build(pno, mem)?;
                self.stats.misses += 1;
                self.pages.push(built);
                self.pages.len() - 1
            }
        };
        self.mru = idx;
        let page = &mut self.pages[idx];
        // Precise invalidation: skip entirely while nothing anywhere was
        // written; otherwise compare this page's write generation.
        if page.seen_seq != mem.write_seq() {
            if page.gen != mem.page_gen(pno) {
                page.redecode(mem);
                self.stats.invalidations += 1;
            }
            page.seen_seq = mem.write_seq();
        }
        match page.slots[slot_of(pc)] {
            Some(op) => {
                self.stats.hits += 1;
                Some(op)
            }
            None => {
                self.stats.bypasses += 1;
                None
            }
        }
    }

    fn find(&self, pno: u32) -> Option<usize> {
        if let Some(p) = self.pages.get(self.mru) {
            if p.pno == pno {
                return Some(self.mru);
            }
        }
        self.pages.iter().position(|p| p.pno == pno)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::Perm;

    fn code_mem(ops: &[Op]) -> Mem {
        let mut m = Mem::new();
        m.map(0x1000, PAGE_SIZE as u32, Perm::RWX, "code")
            .expect("map");
        let mut bytes = Vec::new();
        for op in ops {
            bytes.extend_from_slice(&op.encode());
        }
        m.write_bytes_host(0x1000, &bytes).expect("w");
        m
    }

    #[test]
    fn hit_returns_the_decoded_op_and_counts() {
        use crate::isa::Reg;
        let op = Op::MovI {
            rd: Reg(3),
            imm: 0x42,
        };
        let mem = code_mem(&[op, Op::Halt]);
        let mut c = DecodeCache::new(true);
        c.enter(&Layout::nominal(), mem.nx);
        assert_eq!(c.lookup(&mem, 0x1000), Some(op));
        assert_eq!(c.lookup(&mem, 0x1008), Some(Op::Halt));
        assert_eq!(c.stats().misses, 1, "one page build");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.cached_pages(), 1);
    }

    #[test]
    fn write_to_cached_page_invalidates_precisely() {
        let mem = code_mem(&[Op::Nop, Op::Halt]);
        let mut c = DecodeCache::new(true);
        c.enter(&Layout::nominal(), mem.nx);
        assert_eq!(c.lookup(&mem, 0x1000), Some(Op::Nop));
        // Overwrite slot 0 with `halt` via a guest-visible write.
        let mut mem = mem;
        mem.write_bytes_host(0x1000, &Op::Halt.encode()).expect("w");
        assert_eq!(
            c.lookup(&mem, 0x1000),
            Some(Op::Halt),
            "stale Op must not be served after the page was written"
        );
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn unaligned_and_undecodable_bypass() {
        let mut mem = code_mem(&[Op::Nop]);
        // Plant an undecodable opcode in slot 1.
        mem.write_bytes_host(0x1008, &[0x7f; 8]).expect("w");
        let mut c = DecodeCache::new(true);
        c.enter(&Layout::nominal(), mem.nx);
        assert_eq!(c.lookup(&mem, 0x1004), None, "unaligned");
        assert_eq!(c.lookup(&mem, 0x1008), None, "undecodable word");
        assert_eq!(c.lookup(&mem, 0x9000), None, "unmapped page");
        assert_eq!(c.stats().hits, 0);
        assert!(c.stats().bypasses >= 3);
    }

    #[test]
    fn layout_and_nx_changes_flush() {
        let mem = code_mem(&[Op::Nop]);
        let mut c = DecodeCache::new(true);
        let lay = Layout::nominal();
        c.enter(&lay, mem.nx);
        assert!(c.lookup(&mem, 0x1000).is_some());
        c.enter(&lay, mem.nx);
        assert_eq!(c.stats().flushes, 0, "same key: nothing flushed");
        assert_eq!(c.cached_pages(), 1);
        let mut other = Layout::nominal();
        other.code_base += PAGE_SIZE as u32; // re-randomized layout
        c.enter(&other, mem.nx);
        assert_eq!(c.stats().flushes, 1, "layout change flushed");
        assert!(c.lookup(&mem, 0x1000).is_some());
        let mut mem = mem;
        mem.nx = true; // RWX page stays executable, but the key changes
        c.enter(&other, mem.nx);
        assert!(c.lookup(&mem, 0x1000).is_some());
        assert_eq!(c.stats().flushes, 2, "NX toggle flushed");
    }

    #[test]
    fn clone_is_cold() {
        let mem = code_mem(&[Op::Nop]);
        let mut c = DecodeCache::new(true);
        c.enter(&Layout::nominal(), mem.nx);
        assert!(c.lookup(&mem, 0x1000).is_some());
        let snap = c.clone();
        assert!(snap.enabled());
        assert_eq!(snap.cached_pages(), 0, "clone starts cold");
        assert_eq!(snap.stats(), CacheStats::default());
    }

    #[test]
    fn disabled_cache_never_answers() {
        let mem = code_mem(&[Op::Nop]);
        let mut c = DecodeCache::new(false);
        c.enter(&Layout::nominal(), mem.nx);
        assert_eq!(c.lookup(&mem, 0x1000), None);
        assert_eq!(c.stats(), CacheStats::default());
    }
}
