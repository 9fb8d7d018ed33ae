//! Superblock execution tier: fused straight-line runs above the icache.
//!
//! The predecoded instruction cache ([`crate::icache`]) removed
//! fetch+decode from the hot loop, but dispatch itself still pays the
//! full per-instruction toll: a status check, a hook-interest check, a
//! cache probe, and a jump-table dispatch for every retired instruction.
//! This module adds a second tier above it, in the spirit of the
//! check-once-per-executable-region pattern JITScanner-style systems
//! use: *superblocks* — maximal straight-line runs of decoded [`Op`]s —
//! are compiled once into chains of closures and then executed as one
//! unit, with the architectural registers cached in locals for the whole
//! block ([`SbCtx`]). A hot loop body dispatches once per block instead
//! of once per instruction.
//!
//! A superblock ends at the first
//!
//! - control-flow or effectful terminator (`jmp`/`jcond`/`jmpr`/
//!   `call`/`callr`/`ret`/`sys`/`halt`),
//! - undecodable word (the interpreter's slow path raises the precise
//!   fault), or
//! - page boundary (blocks never span pages, so the per-page
//!   write-generation check covers the whole block).
//!
//! Runs shorter than a small minimum fusion length (three ops)
//! are cached but reported as bypasses: the fixed per-dispatch cost
//! (probe + register copy-in/out) does not amortize over one or two
//! instructions, and the icache tier already runs those at full speed.
//!
//! Correctness contract, mirroring the icache's: executing a superblock
//! is **bit-identical** to interpreting its instructions one at a time —
//! same register/flag effects, same [`Mem`] traffic, same virtual-clock
//! ticks, same fault at the same pc with the cpu frozen exactly as the
//! interpreter would freeze it, and the same preemption point under a
//! cycle deadline. The dispatcher (`Machine::run`) only enters this tier
//! while the run's [`crate::hook::Interest`] is empty; it asks the hook
//! on entry to every run, so a tool attached between runs still observes
//! every subsequent instruction through the per-instruction path.
//!
//! Invalidation reuses the memory write generations exactly as the
//! icache does: blocks are keyed by `(entry pc, Layout::cache_tag, NX)`,
//! validated against [`Mem::write_seq`]/[`Mem::page_gen`] on every
//! dispatch, and rebuilt when their page was written. Stores *inside* a
//! block check the block's own page generation after every executed
//! store and bail back to the interpreter if the block mutated itself,
//! so self-modifying code can never run stale fused ops. The cache is
//! cold after `Clone` (a clone is a checkpoint) and is flushed alongside
//! the decode cache on rollback and layout changes.
//!
//! Accounting note (count-once contract): superblock counters are kept
//! strictly separate from [`crate::icache::CacheStats`]. Both tiers
//! observe the same dirtying events (a rollback flush, a write-generation
//! bump), and folding them into one counter would double-count a single
//! event; `Machine::icache_stats` therefore reports only decode-cache
//! activity and `Machine::superblock_stats` only block activity.

use std::sync::Arc;

use crate::clock::{cost, Clock};
use crate::cpu::Flags;
use crate::error::Fault;
use crate::icache::SLOTS_PER_PAGE;
use crate::isa::{Op, INSN_SIZE, NUM_REGS};
use crate::loader::Layout;
use crate::mem::{Mem, PAGE_SIZE};

/// Upper bound on cached superblocks before a wholesale flush. Distinct
/// entry pcs into the same run get distinct blocks, so the bound is
/// larger than the icache's page bound but still small enough that the
/// linear probe in [`SbCache::find`] stays cheap.
const MAX_BLOCKS: usize = 192;

/// Minimum fused run length worth dispatching as a superblock. A
/// dispatch pays fixed overhead (cache probe, register copy-in/out)
/// that only amortizes across several instructions; on a branch-dense
/// 2-instruction loop body the tier measured *slower* than the plain
/// icache (0.82x). Blocks shorter than this are still cached — so hot
/// short targets don't recompile every visit — but `lookup` reports
/// them as bypasses and the per-instruction icache tier runs them.
const MIN_FUSE: usize = 3;

/// Execution context for one superblock dispatch: the architectural
/// registers and flags are *copied* into this struct (registers cached
/// in locals across the block) and written back by the executor at every
/// block exit — normal end, fault, deadline preemption, or
/// self-modification bailout.
pub struct SbCtx<'m> {
    /// Local copy of the register file (written back on exit).
    pub regs: [u32; NUM_REGS],
    /// Local copy of the comparison flags (written back on exit).
    pub flags: Flags,
    /// Guest memory (loads/stores go straight through, so memory faults
    /// and write-generation bumps are identical to the interpreter's).
    pub mem: &'m mut Mem,
    /// Virtual clock; every op ticks exactly as the interpreter would.
    pub clock: &'m mut Clock,
    /// pc of the op currently executing (for precise fault payloads).
    pub pc: u32,
    /// Lowest valid stack address (from the machine's [`Layout`]).
    pub stack_base: u32,
    /// One past the highest valid stack address.
    pub stack_top: u32,
}

/// One compiled operation inside a superblock: a closure over the
/// decoded fields. Returns `Ok(true)` iff the op performed a guest
/// store (the executor then re-checks the block's own page generation),
/// or the precise fault the interpreter would raise at this pc.
pub type SbOp = Box<dyn for<'m> Fn(&mut SbCtx<'m>) -> Result<bool, Fault> + Send + Sync>;

/// A dispatchable reference to a validated superblock, returned by
/// [`SbCache::lookup`]. Holds the closure chain by `Arc` so the executor
/// can run it while the cache remains free for stats updates.
pub struct SbRef {
    /// The compiled ops, in program order from the entry pc.
    pub ops: Arc<[SbOp]>,
    /// Page the block was decoded from (blocks never span pages).
    pub pno: u32,
    /// [`Mem::page_gen`] the block was validated against; stores inside
    /// the block compare against this to detect self-modification.
    pub gen: u64,
}

/// Superblock-tier counters, exported as `svm.superblock.*` and kept
/// separate from the decode cache's [`crate::icache::CacheStats`] so a
/// single page-dirtying event is never counted twice across tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SbStats {
    /// Blocks compiled (first dispatch at an entry pc).
    pub built: u64,
    /// Block dispatches (each executes >= 1 fused instruction).
    pub dispatches: u64,
    /// Instructions retired inside superblocks.
    pub insns: u64,
    /// Block rebuilds forced by a write to the block's page.
    pub invalidations: u64,
    /// Mid-block exits because the block wrote its own page (SMC).
    pub bailouts: u64,
    /// Dispatch attempts that fell back to the interpreter (disabled
    /// tier, unaligned pc, non-executable page, or a block shorter than
    /// the minimum fusion length — including a terminator at entry).
    pub bypasses: u64,
    /// Wholesale flushes (layout change, NX toggle, capacity, restore).
    pub flushes: u64,
}

/// One compiled superblock.
struct Superblock {
    /// Entry pc (blocks are keyed by exact entry).
    entry: u32,
    /// Page the block lives on.
    pno: u32,
    /// [`Mem::page_gen`] the ops were compiled against.
    gen: u64,
    /// [`Mem::write_seq`] at the last validation.
    seen_seq: u64,
    /// The closure chain; shorter than [`MIN_FUSE`] (possibly empty)
    /// when the run at the entry pc is too short to be worth fusing
    /// (cached anyway so hot branch targets don't recompile every time).
    ops: Arc<[SbOp]>,
}

impl Superblock {
    /// Compile the maximal straight-line run starting at `entry`.
    /// Returns `None` only if the page is unmapped.
    fn build(entry: u32, mem: &Mem) -> Option<Superblock> {
        let pno = entry / PAGE_SIZE as u32;
        let bytes = mem.page_bytes(pno)?;
        let start = ((entry % PAGE_SIZE as u32) / INSN_SIZE) as usize;
        let mut ops: Vec<SbOp> = Vec::new();
        for slot in start..SLOTS_PER_PAGE {
            let mut w = [0u8; 8];
            w.copy_from_slice(&bytes[slot * INSN_SIZE as usize..(slot + 1) * INSN_SIZE as usize]);
            let Some(op) = Op::decode_word(w) else {
                break; // undecodable: interpreter raises the precise fault
            };
            let Some(compiled) = compile(op) else {
                break; // terminator: block ends, interpreter takes over
            };
            ops.push(compiled);
        }
        Some(Superblock {
            entry,
            pno,
            gen: mem.page_gen(pno),
            seen_seq: mem.write_seq(),
            ops: ops.into(),
        })
    }
}

/// The per-machine superblock cache (tier 2 above the decode cache).
///
/// `Clone` is intentionally *cold*, exactly like
/// [`crate::icache::DecodeCache`]: machine clones are checkpoints, and
/// compiled blocks must never leak across a rollback.
pub struct SbCache {
    enabled: bool,
    /// [`Layout::cache_tag`] the blocks were compiled against.
    layout_tag: u64,
    /// NX setting the blocks were compiled against.
    nx: bool,
    blocks: Vec<Superblock>,
    /// Most recently dispatched block (hot loops re-enter one block).
    mru: usize,
    stats: SbStats,
}

impl Clone for SbCache {
    /// Cloning yields a *cold* cache: clones are checkpoints/rollbacks
    /// and must recompile everything against their own memory. Together
    /// with the dispatcher asking the hook's interest on entry to every
    /// run, this guarantees a clone's first instruction is never skipped
    /// by a decision made before the clone.
    fn clone(&self) -> SbCache {
        SbCache::new(self.enabled)
    }
}

impl SbCache {
    /// An empty cache.
    pub fn new(enabled: bool) -> SbCache {
        SbCache {
            enabled,
            layout_tag: 0,
            nx: false,
            blocks: Vec::new(),
            mru: 0,
            stats: SbStats::default(),
        }
    }

    /// Whether the tier is consulted at all.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Enable or disable the tier (disabling drops all blocks).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.blocks.clear();
            self.mru = 0;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SbStats {
        self.stats
    }

    /// Number of blocks currently compiled.
    pub fn cached_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Drop every block (layout re-randomization, rollback restore, or
    /// any out-of-band replacement of the machine's memory).
    pub fn flush(&mut self) {
        if !self.blocks.is_empty() {
            self.stats.flushes += 1;
        }
        self.blocks.clear();
        self.mru = 0;
    }

    /// Record one finished dispatch: `retired` fused instructions, and
    /// whether the block bailed out after writing its own page.
    pub fn note_dispatch(&mut self, retired: u64, bailed: bool) {
        self.stats.insns += retired;
        if bailed {
            self.stats.bailouts += 1;
        }
    }

    /// Look up (building/validating as needed) the superblock entered at
    /// `pc`. `None` means "take the per-instruction path" — tier
    /// disabled, unaligned pc, non-executable page, or a fused run
    /// shorter than the minimum fusion length — and never loses a
    /// fault: the interpreter reproduces it precisely.
    pub fn lookup(&mut self, mem: &Mem, layout: &Layout, pc: u32) -> Option<SbRef> {
        if !self.enabled {
            return None;
        }
        let tag = layout.cache_tag();
        if self.layout_tag != tag || self.nx != mem.nx {
            self.flush();
            self.layout_tag = tag;
            self.nx = mem.nx;
        }
        if !pc.is_multiple_of(INSN_SIZE) {
            self.stats.bypasses += 1;
            return None;
        }
        let pno = pc / PAGE_SIZE as u32;
        let idx = match self.find(pc) {
            Some(i) => i,
            None => {
                if !mem.page_exec_ok(pno) {
                    self.stats.bypasses += 1;
                    return None;
                }
                if self.blocks.len() >= MAX_BLOCKS {
                    self.flush();
                }
                let built = Superblock::build(pc, mem)?;
                self.stats.built += 1;
                self.blocks.push(built);
                self.blocks.len() - 1
            }
        };
        self.mru = idx;
        // Same O(1) validation ladder as the decode cache: while nothing
        // anywhere was written the block is provably current; otherwise
        // compare the block's page generation and recompile on mismatch.
        let seq = mem.write_seq();
        if self.blocks[idx].seen_seq != seq {
            if self.blocks[idx].gen != mem.page_gen(pno) {
                match Superblock::build(pc, mem) {
                    Some(rebuilt) => {
                        self.blocks[idx] = rebuilt;
                        self.stats.invalidations += 1;
                    }
                    None => {
                        // Page no longer mapped: drop the block; the
                        // interpreter raises the precise fault.
                        self.blocks.swap_remove(idx);
                        self.mru = 0;
                        self.stats.bypasses += 1;
                        return None;
                    }
                }
            }
            self.blocks[idx].seen_seq = seq;
        }
        let b = &self.blocks[idx];
        if b.ops.len() < MIN_FUSE {
            self.stats.bypasses += 1;
            return None;
        }
        self.stats.dispatches += 1;
        Some(SbRef {
            ops: Arc::clone(&b.ops),
            pno: b.pno,
            gen: b.gen,
        })
    }

    fn find(&self, pc: u32) -> Option<usize> {
        if let Some(b) = self.blocks.get(self.mru) {
            if b.entry == pc {
                return Some(self.mru);
            }
        }
        self.blocks.iter().position(|b| b.entry == pc)
    }
}

/// Compile one straight-line op into its closure, or `None` for a
/// terminator. Each closure replicates the interpreter's exact effect
/// order for its op: the executor has already counted the instruction
/// and ticked `cost::INSN`; the closure ticks any additional cost
/// (`cost::MEM`) before touching memory, exactly as `exec_one` does.
fn compile(op: Op) -> Option<SbOp> {
    Some(match op {
        Op::Nop => Box::new(|_| Ok(false)),
        Op::MovI { rd, imm } => {
            let rd = rd.idx();
            Box::new(move |c| {
                c.regs[rd] = imm;
                Ok(false)
            })
        }
        Op::Mov { rd, rs } => {
            let (rd, rs) = (rd.idx(), rs.idx());
            Box::new(move |c| {
                c.regs[rd] = c.regs[rs];
                Ok(false)
            })
        }
        Op::Ld { rd, rs, off } => {
            let (rd, rs) = (rd.idx(), rs.idx());
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let addr = c.regs[rs].wrapping_add(off as u32);
                c.regs[rd] = c.mem.read_u32(c.pc, addr)?;
                Ok(false)
            })
        }
        Op::LdB { rd, rs, off } => {
            let (rd, rs) = (rd.idx(), rs.idx());
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let addr = c.regs[rs].wrapping_add(off as u32);
                c.regs[rd] = c.mem.read_u8(c.pc, addr)? as u32;
                Ok(false)
            })
        }
        Op::St { rd, rs, off } => {
            let (rd, rs) = (rd.idx(), rs.idx());
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let addr = c.regs[rd].wrapping_add(off as u32);
                c.mem.write_u32(c.pc, addr, c.regs[rs])?;
                Ok(true)
            })
        }
        Op::StB { rd, rs, off } => {
            let (rd, rs) = (rd.idx(), rs.idx());
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let addr = c.regs[rd].wrapping_add(off as u32);
                c.mem.write_u8(c.pc, addr, (c.regs[rs] & 0xff) as u8)?;
                Ok(true)
            })
        }
        Op::Alu { op, rd, rs1, rs2 } => {
            let (rd, rs1, rs2) = (rd.idx(), rs1.idx(), rs2.idx());
            Box::new(move |c| {
                c.regs[rd] = op.eval(c.regs[rs1], c.regs[rs2], c.pc)?;
                Ok(false)
            })
        }
        Op::AluI { op, rd, rs1, imm } => {
            let (rd, rs1) = (rd.idx(), rs1.idx());
            Box::new(move |c| {
                c.regs[rd] = op.eval(c.regs[rs1], imm as u32, c.pc)?;
                Ok(false)
            })
        }
        Op::Cmp { rs1, rs2 } => {
            let (rs1, rs2) = (rs1.idx(), rs2.idx());
            Box::new(move |c| {
                let (a, b) = (c.regs[rs1], c.regs[rs2]);
                c.flags.set_cmp(a, b);
                Ok(false)
            })
        }
        Op::CmpI { rs1, imm } => {
            let rs1 = rs1.idx();
            Box::new(move |c| {
                let a = c.regs[rs1];
                c.flags.set_cmp(a, imm);
                Ok(false)
            })
        }
        Op::Push { rs } => {
            let rs = rs.idx();
            const SP: usize = NUM_REGS - 1;
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let sp = c.regs[SP].wrapping_sub(4);
                if sp < c.stack_base || sp >= c.stack_top {
                    return Err(Fault::StackOverflow { pc: c.pc, sp });
                }
                c.mem.write_u32(c.pc, sp, c.regs[rs])?;
                c.regs[SP] = sp;
                Ok(true)
            })
        }
        Op::Pop { rd } => {
            let rd = rd.idx();
            const SP: usize = NUM_REGS - 1;
            Box::new(move |c| {
                c.clock.tick(cost::MEM);
                let sp = c.regs[SP];
                let v = c.mem.read_u32(c.pc, sp)?;
                c.regs[rd] = v;
                c.regs[SP] = sp.wrapping_add(4);
                Ok(false)
            })
        }
        // Terminators: anything that moves the pc non-sequentially,
        // halts, or enters the kernel model ends the block.
        Op::Halt
        | Op::Jmp { .. }
        | Op::JCond { .. }
        | Op::JmpR { .. }
        | Op::Call { .. }
        | Op::CallR { .. }
        | Op::Ret
        | Op::Sys { .. } => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Reg;
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
    fn block_ends_at_terminator_and_caches_by_entry() {
        let mem = code_mem(&[
            Op::MovI { rd: Reg(1), imm: 3 },
            Op::Nop,
            Op::Nop,
            Op::Jmp { target: 0x1000 },
        ]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        let b = c.lookup(&mem, &lay, 0x1000).expect("block");
        assert_eq!(b.ops.len(), 3, "movi + nop + nop, jmp terminates");
        assert_eq!(c.stats().built, 1);
        assert!(c.lookup(&mem, &lay, 0x1000).is_some(), "cached re-dispatch");
        assert_eq!(c.stats().built, 1, "no rebuild");
        assert_eq!(c.stats().dispatches, 2);
    }

    #[test]
    fn short_blocks_are_cached_bypasses() {
        // A 2-op run is below the minimum fusion length: cached (no
        // recompilation on re-entry) but never dispatched — the icache
        // tier runs it without the per-dispatch overhead.
        let mem = code_mem(&[Op::Nop, Op::Nop, Op::Jmp { target: 0x1000 }]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        assert!(c.lookup(&mem, &lay, 0x1000).is_none());
        assert!(c.lookup(&mem, &lay, 0x1000).is_none());
        assert_eq!(c.stats().built, 1, "short block cached, not recompiled");
        assert_eq!(c.stats().bypasses, 2);
        assert_eq!(c.stats().dispatches, 0);
    }

    #[test]
    fn terminator_at_entry_is_a_cached_bypass() {
        let mem = code_mem(&[Op::Halt]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        assert!(c.lookup(&mem, &lay, 0x1000).is_none());
        assert!(c.lookup(&mem, &lay, 0x1000).is_none());
        assert_eq!(c.stats().built, 1, "empty block cached, not recompiled");
        assert_eq!(c.stats().bypasses, 2);
    }

    #[test]
    fn write_to_block_page_invalidates() {
        let mem = code_mem(&[Op::Nop, Op::Nop, Op::Nop, Op::Nop, Op::Nop, Op::Halt]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        assert_eq!(c.lookup(&mem, &lay, 0x1000).expect("b").ops.len(), 5);
        let mut mem = mem;
        // Rewrite slot 3 to a terminator: the block must shrink.
        mem.write_bytes_host(0x1018, &Op::Halt.encode()).expect("w");
        assert_eq!(c.lookup(&mem, &lay, 0x1000).expect("b").ops.len(), 3);
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn unaligned_nonexec_and_disabled_bypass() {
        let mem = code_mem(&[Op::Nop, Op::Halt]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        assert!(c.lookup(&mem, &lay, 0x1004).is_none(), "unaligned");
        assert!(c.lookup(&mem, &lay, 0x9000).is_none(), "unmapped");
        assert!(c.stats().bypasses >= 2);
        let mut off = SbCache::new(false);
        assert!(off.lookup(&mem, &lay, 0x1000).is_none());
        assert_eq!(off.stats(), SbStats::default(), "disabled tier is inert");
    }

    #[test]
    fn layout_and_nx_changes_flush() {
        let mem = code_mem(&[Op::Nop, Op::Nop, Op::Nop, Op::Halt]);
        let mut c = SbCache::new(true);
        let lay = Layout::nominal();
        assert!(c.lookup(&mem, &lay, 0x1000).is_some());
        let mut other = Layout::nominal();
        other.code_base += PAGE_SIZE as u32;
        assert!(c.lookup(&mem, &other, 0x1000).is_some());
        assert_eq!(c.stats().flushes, 1, "layout change flushed");
        let mut mem = mem;
        mem.nx = true;
        assert!(c.lookup(&mem, &other, 0x1000).is_some());
        assert_eq!(c.stats().flushes, 2, "NX toggle flushed");
    }

    #[test]
    fn clone_is_cold() {
        let mem = code_mem(&[Op::Nop, Op::Nop, Op::Nop, Op::Halt]);
        let mut c = SbCache::new(true);
        assert!(c.lookup(&mem, &Layout::nominal(), 0x1000).is_some());
        let snap = c.clone();
        assert!(snap.enabled());
        assert_eq!(snap.cached_blocks(), 0, "clone starts cold");
        assert_eq!(snap.stats(), SbStats::default());
    }
}
