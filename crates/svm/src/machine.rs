//! The virtual machine: fetch/decode/execute loop, syscalls, and status.
//!
//! The machine is a plain value: cloning it (cheaply, thanks to COW pages)
//! *is* a checkpoint, and assigning a clone back *is* a rollback. The
//! `checkpoint` crate wraps this with interval policy, input logging, and
//! replay; here we only guarantee deterministic, fault-containing
//! execution.

use crate::alloc::HeapState;
use crate::asm::Program;
use crate::clock::{cost, Clock};
use crate::cpu::Cpu;
use crate::error::{Fault, SvmError};
use crate::hook::{Hook, Interest, NopHook};
use crate::icache::{CacheStats, DecodeCache};
use crate::isa::{Op, Reg, Syscall, INSN_SIZE};
use crate::loader::{self, Aslr, Layout, SymbolMap};
use crate::mem::Mem;
use crate::net::{BlockedOn, NetState};
use crate::rng::XorShift64;
use crate::superblock::{SbCache, SbCtx, SbStats};

/// Execution status after a step or run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// More instructions to run.
    Running,
    /// The guest executed `halt` or `sys exit`; code in the payload.
    Halted(u32),
    /// The guest is blocked on network input.
    Blocked(BlockedOn),
    /// The guest faulted; the machine is frozen at the faulting state.
    Faulted(Fault),
}

impl Status {
    /// Whether the machine can make further progress without host action.
    pub fn is_running(&self) -> bool {
        matches!(self, Status::Running)
    }
}

/// A loaded guest process.
#[derive(Clone)]
pub struct Machine {
    /// Architectural registers.
    pub cpu: Cpu,
    /// Paged address space.
    pub mem: Mem,
    /// Heap allocator state (metadata itself lives in `mem`).
    pub heap: HeapState,
    /// Network endpoint.
    pub net: NetState,
    /// Deterministic guest RNG.
    pub rng: XorShift64,
    /// Virtual clock.
    pub clock: Clock,
    /// Chosen address-space layout.
    pub layout: Layout,
    /// Symbol map for diagnostics (shared, not mutated).
    pub symbols: SymbolMap,
    /// Count of executed instructions.
    pub insns_retired: u64,
    /// Count of executed syscall instructions (including blocked
    /// retries, which re-enter the kernel model each attempt).
    pub syscalls_retired: u64,
    /// Written by [`Machine::step_hooked`] after every step, and by
    /// [`Machine::run`] only when a step leaves `Running`.
    status: Status,
    /// Predecoded-page instruction cache (cold after any clone, so
    /// checkpoints and rollbacks never inherit decode state).
    icache: DecodeCache,
    /// Superblock cache, the execution tier above the decode cache
    /// (also cold after any clone). Blocks run only while the current
    /// run's hook interest is empty.
    sblocks: SbCache,
    /// The hook interest of the current `run` or `step_hooked` call,
    /// asked for on entry to each. Only the buffer outlives a call, and
    /// a clone starts empty, so a clone whose hook goes live before its
    /// first step still delivers its very first instruction to it.
    interest: InterestBuf,
}

/// The machine's reusable [`Interest`] buffer: a scratch value, so a
/// clone gets an empty one rather than a copy.
#[derive(Default)]
struct InterestBuf(Interest);

impl Clone for InterestBuf {
    fn clone(&self) -> InterestBuf {
        InterestBuf::default()
    }
}

impl Machine {
    /// Load `prog` under the given randomization policy.
    pub fn boot(prog: &Program, aslr: Aslr) -> Result<Machine, SvmError> {
        let layout = Layout::randomized(aslr);
        Machine::boot_with_layout(prog, layout)
    }

    /// Load `prog` at an explicit layout (used to model an attacker's
    /// assumed layout or a lucky guess).
    pub fn boot_with_layout(prog: &Program, layout: Layout) -> Result<Machine, SvmError> {
        let img = loader::load(prog, layout)?;
        let mut cpu = Cpu::new();
        cpu.pc = img.entry;
        cpu.set(Reg::SP, img.initial_sp);
        cpu.set(Reg::FP, img.initial_sp);
        Ok(Machine {
            cpu,
            mem: img.mem,
            heap: HeapState::new(layout.heap_base, layout.heap_size),
            net: NetState::new(),
            rng: XorShift64::new(0x5eed ^ layout.code_base as u64),
            clock: Clock::new(),
            layout,
            symbols: img.symbols,
            insns_retired: 0,
            syscalls_retired: 0,
            status: Status::Running,
            icache: DecodeCache::new(true),
            sblocks: SbCache::new(true),
            interest: InterestBuf::default(),
        })
    }

    /// Current status.
    pub fn status(&self) -> Status {
        self.status
    }

    /// Restore a previously captured status verbatim.
    ///
    /// Recovery support: partial (domain) rollback rebuilds a machine
    /// from a faulted live image plus a captured service boundary, and
    /// must be able to clear the `Faulted` latch back to the boundary's
    /// blocked-on-accept state. Not for general use — ordinary code
    /// transitions status through execution and [`Machine::unblock`].
    pub fn restore_status(&mut self, status: Status) {
        self.status = status;
    }

    /// Builder-style decode-cache knob: `boot(..)?.with_decode_cache(false)`
    /// yields the pre-cache interpreter (useful for differential parity
    /// testing and the `vm_decode_cache` benchmarks). The cache is **on**
    /// by default and is bit-identical to the slow path by construction.
    ///
    /// The knob selects the whole accelerated stack: it also sets the
    /// superblock tier, so `false` drops to the pure word-at-a-time
    /// interpreter. Refine with [`Machine::with_superblocks`] *after*
    /// this call for the icache-only middle tier.
    pub fn with_decode_cache(mut self, enabled: bool) -> Machine {
        self.set_decode_cache(enabled);
        self
    }

    /// Enable/disable the predecoded instruction cache in place (also
    /// sets the superblock tier; see [`Machine::with_decode_cache`]).
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.icache.set_enabled(enabled);
        self.sblocks.set_enabled(enabled);
    }

    /// Whether the predecoded instruction cache is enabled.
    pub fn decode_cache_enabled(&self) -> bool {
        self.icache.enabled()
    }

    /// Builder-style superblock-tier knob, applied on top of the decode
    /// cache: `with_decode_cache(true).with_superblocks(false)` is the
    /// icache-only middle tier. The tier is **on** by default and is
    /// bit-identical to per-instruction execution by construction.
    pub fn with_superblocks(mut self, enabled: bool) -> Machine {
        self.sblocks.set_enabled(enabled);
        self
    }

    /// Enable/disable the superblock tier in place.
    pub fn set_superblocks(&mut self, enabled: bool) {
        self.sblocks.set_enabled(enabled);
    }

    /// Whether the superblock execution tier is enabled.
    pub fn superblocks_enabled(&self) -> bool {
        self.sblocks.enabled()
    }

    /// Hit/miss/invalidation counters of the decode cache.
    ///
    /// Deliberately excludes superblock-tier activity: both tiers
    /// observe the same dirtying events (a rollback flush and a
    /// write-generation bump to the same page in one step, say), and a
    /// merged counter would double-count that single event. Use
    /// [`Machine::superblock_stats`] for the tier-2 counters.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Dispatch/retire/invalidation counters of the superblock tier
    /// (kept separate from [`Machine::icache_stats`]; see there).
    pub fn superblock_stats(&self) -> SbStats {
        self.sblocks.stats()
    }

    /// Export this machine's execution counters into an
    /// [`obs::MetricsRegistry`] under the `svm.` prefix.
    ///
    /// Counters are written as absolute values (`set_counter`), so
    /// repeated exports of the same machine never double-count. The
    /// hot interpreter loop keeps its plain `u64` fields; this is the
    /// only point where they meet the registry.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.set_counter("svm.insns_retired", self.insns_retired);
        reg.set_counter("svm.syscalls_retired", self.syscalls_retired);
        reg.set_counter("svm.cycles", self.clock.cycles());
        let st = self.icache.stats();
        reg.set_counter("svm.icache.hits", st.hits);
        reg.set_counter("svm.icache.misses", st.misses);
        reg.set_counter("svm.icache.invalidations", st.invalidations);
        reg.set_counter("svm.icache.bypasses", st.bypasses);
        reg.set_counter("svm.icache.flushes", st.flushes);
        let sb = self.sblocks.stats();
        reg.set_counter("svm.superblock.built", sb.built);
        reg.set_counter("svm.superblock.dispatches", sb.dispatches);
        reg.set_counter("svm.superblock.insns", sb.insns);
        reg.set_counter("svm.superblock.invalidations", sb.invalidations);
        reg.set_counter("svm.superblock.bailouts", sb.bailouts);
        reg.set_counter("svm.superblock.bypasses", sb.bypasses);
        reg.set_counter("svm.superblock.flushes", sb.flushes);
        reg.set_counter("svm.mem.write_seq", self.mem.write_seq());
        reg.set_counter("svm.heap.allocs", self.heap.allocs);
        reg.set_counter("svm.heap.frees", self.heap.frees);
        let mapped = self.mem.mapped_pages();
        let shared = self.mem.shared_pages();
        reg.gauge("svm.mem.mapped_pages", mapped as f64);
        // Pages private to this machine, i.e. dirtied (unshared from the
        // last checkpoint's COW pages) since the last snapshot.
        reg.gauge(
            "svm.mem.private_pages",
            mapped.saturating_sub(shared) as f64,
        );
    }

    /// Drop every predecoded page *and* every compiled superblock.
    ///
    /// Required after any out-of-band replacement of this machine's
    /// memory or layout (checkpoint restore does this via `Clone`, which
    /// is already cold; call it explicitly if you swap `mem` by hand).
    /// Both tiers flush together so rollback can never leave stale fused
    /// blocks behind a fresh decode cache; each tier records the flush
    /// in its *own* stats (count-once: one event, one counter per tier,
    /// never summed — see [`Machine::icache_stats`]).
    pub fn flush_decode_cache(&mut self) {
        self.icache.flush();
        self.sblocks.flush();
    }

    /// Clear a `Blocked` status so stepping retries the blocked syscall
    /// (call after supplying input).
    pub fn unblock(&mut self) {
        if matches!(self.status, Status::Blocked(_)) {
            self.status = Status::Running;
        }
    }

    /// Execute one instruction without instrumentation.
    pub fn step(&mut self) -> Status {
        self.step_hooked(&mut NopHook)
    }

    /// Execute one instruction, delivering to `hook` the events it asks
    /// for ([`Hook::interest`], asked once per call).
    pub fn step_hooked(&mut self, hook: &mut dyn Hook) -> Status {
        self.ask_interest(hook);
        if !self.enter() {
            return self.status; // Host must unblock a `Blocked` machine.
        }
        let pc = self.cpu.pc;
        self.status = match self.exec_one(pc, hook) {
            Ok(s) => s,
            Err(f) => Status::Faulted(f),
        };
        self.status
    }

    /// Ask `hook` for its interest, into the machine's buffer.
    fn ask_interest(&mut self, hook: &dyn Hook) {
        let out = &mut self.interest.0;
        out.clear();
        hook.interest(out);
    }

    /// Entry of a run or step: whether the machine may execute, and if
    /// so the decode cache keyed to the layout and NX setting it will
    /// execute under (neither can change until the call returns).
    fn enter(&mut self) -> bool {
        if !self.status.is_running() {
            return false;
        }
        self.icache.enter(&self.layout, self.mem.nx);
        true
    }

    /// Run until the status leaves `Running` or `max_cycles` elapse.
    ///
    /// Returns the final status; on cycle exhaustion the status remains
    /// `Running` (the machine is preemptible). A machine that is not
    /// running on entry (halted, faulted or blocked) returns at once.
    ///
    /// The status lives in a local while the run lasts: `self.status`
    /// is written only when a step leaves `Running` (halt, block or
    /// fault), and nothing can observe it in between, since hooks only
    /// ever see `&Machine` (and read `Running` there).
    ///
    /// The hook's [`Hook::interest`] is asked once, on entry, and only
    /// the events it asks for are delivered. While it asks for nothing,
    /// whole superblocks are dispatched through the tier-2 fast path
    /// (`svm::superblock`). The answer is never kept across calls, so a
    /// tool attached between runs (or on a fresh clone) observes every
    /// subsequent instruction it asks for. Superblock execution is
    /// bit-identical to per-instruction execution: same state, faults,
    /// cycle accounting, and preemption points.
    pub fn run(&mut self, hook: &mut dyn Hook, max_cycles: u64) -> Status {
        let deadline = self.clock.cycles().saturating_add(max_cycles);
        self.ask_interest(hook);
        if !self.enter() {
            return self.status;
        }
        let quiet = self.interest.0.is_empty();
        // Superblock entries are control-transfer targets by
        // construction (blocks end at terminators), so the cache is
        // probed at the start of the run and after every non-sequential
        // pc move. Sequentially-advancing stretches — exactly the runs
        // the tier declined to fuse — skip the probe per instruction
        // instead of paying a guaranteed miss on every step.
        let mut at_entry = true;
        // The entry the tier most recently declined, valid while the
        // memory write sequence is unchanged (identical memory means an
        // identical answer). A branch-dense loop whose short body the
        // tier hands back therefore runs at full icache speed instead
        // of re-probing its entry every iteration. Skipping a probe is
        // always safe: it only means the per-instruction path runs.
        let mut no_fuse: Option<(u32, u64)> = None;
        loop {
            let probe = at_entry
                && self.sblocks.enabled()
                && quiet
                && no_fuse != Some((self.cpu.pc, self.mem.write_seq()));
            if probe {
                if self.exec_superblock(deadline) {
                    if !self.status.is_running() || self.clock.cycles() >= deadline {
                        return self.status;
                    }
                    continue;
                }
                no_fuse = Some((self.cpu.pc, self.mem.write_seq()));
            }
            let pc = self.cpu.pc;
            match self.exec_one(pc, hook) {
                Ok(Status::Running) => {}
                Ok(s) => {
                    self.status = s;
                    return s;
                }
                Err(f) => {
                    self.status = Status::Faulted(f);
                    return self.status;
                }
            }
            if self.clock.cycles() >= deadline {
                return Status::Running;
            }
            at_entry = self.cpu.pc != pc.wrapping_add(INSN_SIZE);
        }
    }

    /// Dispatch one superblock at the current pc. Returns `false` when
    /// the tier has nothing to offer here (no block, terminator at the
    /// entry, bypass) and the caller should take one per-instruction
    /// step instead. On `true`, at least one instruction was retired and
    /// the machine state (cpu, clock, counters, status) is exactly what
    /// per-instruction execution of the same run would have produced.
    fn exec_superblock(&mut self, deadline: u64) -> bool {
        let entry = self.cpu.pc;
        let Some(blk) = self.sblocks.lookup(&self.mem, &self.layout, entry) else {
            return false;
        };
        let mut ctx = SbCtx {
            regs: self.cpu.regs,
            flags: self.cpu.flags,
            mem: &mut self.mem,
            clock: &mut self.clock,
            pc: entry,
            stack_base: self.layout.stack_top - self.layout.stack_size,
            stack_top: self.layout.stack_top,
        };
        let mut retired = 0u64;
        let mut done = 0u32;
        let mut fault: Option<Fault> = None;
        let mut bailed = false;
        for op in blk.ops.iter() {
            ctx.pc = entry + done * INSN_SIZE;
            retired += 1;
            ctx.clock.tick(cost::INSN);
            match op(&mut ctx) {
                Ok(stored) => {
                    done += 1;
                    // Self-modifying code: if the store dirtied the
                    // block's own page, the remaining fused ops may be
                    // stale — commit and bail to the interpreter, which
                    // (re)validates lazily, exactly like the icache.
                    if stored && ctx.mem.page_gen(blk.pno) != blk.gen {
                        bailed = true;
                        break;
                    }
                    // Same preemption point the interpreter's run loop
                    // checks after every instruction.
                    if ctx.clock.cycles() >= deadline {
                        break;
                    }
                }
                Err(f) => {
                    fault = Some(f);
                    break;
                }
            }
        }
        // Write the locally-cached registers back at the block exit.
        let fault_pc = ctx.pc;
        self.cpu.regs = ctx.regs;
        self.cpu.flags = ctx.flags;
        self.insns_retired += retired;
        match fault {
            // Freeze at the faulting pc with the faulting instruction
            // counted — identical to `exec_one`'s fault semantics.
            Some(f) => {
                self.cpu.pc = fault_pc;
                self.status = Status::Faulted(f);
            }
            None => self.cpu.pc = entry + done * INSN_SIZE,
        }
        self.sblocks.note_dispatch(retired, bailed);
        true
    }

    #[inline(always)]
    fn exec_one(&mut self, pc: u32, hook: &mut dyn Hook) -> Result<Status, Fault> {
        // Instruction events (`on_insn` and this instruction's memory
        // events) go out only at pcs the run's interest watches.
        let watched = self.interest.0.watches(pc);
        // Fast path: serve the decoded op from the predecoded-page
        // cache. Any bypass (disabled, unaligned pc, written/unmapped/
        // non-executable page, undecodable word) falls back to the slow
        // fetch+decode, which raises the precise fault at this pc. Both
        // paths yield bit-identical ops, faults, and cycle accounting.
        let op = match self.icache.lookup(&self.mem, pc) {
            Some(op) => op,
            None => {
                let word = self.mem.fetch(pc)?;
                Op::decode(word, pc)?
            }
        };
        if watched {
            hook.on_insn(self, pc, &op);
        }
        self.insns_retired += 1;
        self.clock.tick(cost::INSN);
        let mut next_pc = pc.wrapping_add(INSN_SIZE);
        match op {
            Op::Nop => {}
            Op::Halt => return Ok(Status::Halted(self.cpu.get(Reg::R0))),
            Op::MovI { rd, imm } => self.cpu.set(rd, imm),
            Op::Mov { rd, rs } => {
                let v = self.cpu.get(rs);
                self.cpu.set(rd, v);
            }
            Op::Ld { rd, rs, off } => {
                self.clock.tick(cost::MEM);
                let addr = self.cpu.get(rs).wrapping_add(off as u32);
                let v = self.mem.read_u32(pc, addr)?;
                if watched {
                    hook.on_mem_read(self, pc, addr, 4, v);
                }
                self.cpu.set(rd, v);
            }
            Op::LdB { rd, rs, off } => {
                self.clock.tick(cost::MEM);
                let addr = self.cpu.get(rs).wrapping_add(off as u32);
                let v = self.mem.read_u8(pc, addr)? as u32;
                if watched {
                    hook.on_mem_read(self, pc, addr, 1, v);
                }
                self.cpu.set(rd, v);
            }
            Op::St { rd, rs, off } => {
                self.clock.tick(cost::MEM);
                let addr = self.cpu.get(rd).wrapping_add(off as u32);
                let v = self.cpu.get(rs);
                if watched {
                    hook.on_mem_write(self, pc, addr, 4, v);
                }
                self.mem.write_u32(pc, addr, v)?;
            }
            Op::StB { rd, rs, off } => {
                self.clock.tick(cost::MEM);
                let addr = self.cpu.get(rd).wrapping_add(off as u32);
                let v = self.cpu.get(rs) & 0xff;
                if watched {
                    hook.on_mem_write(self, pc, addr, 1, v);
                }
                self.mem.write_u8(pc, addr, v as u8)?;
            }
            Op::Alu { op, rd, rs1, rs2 } => {
                let a = self.cpu.get(rs1);
                let b = self.cpu.get(rs2);
                self.cpu.set(rd, op.eval(a, b, pc)?);
            }
            Op::AluI { op, rd, rs1, imm } => {
                let a = self.cpu.get(rs1);
                self.cpu.set(rd, op.eval(a, imm as u32, pc)?);
            }
            Op::Cmp { rs1, rs2 } => {
                let (a, b) = (self.cpu.get(rs1), self.cpu.get(rs2));
                self.cpu.flags.set_cmp(a, b);
            }
            Op::CmpI { rs1, imm } => {
                let a = self.cpu.get(rs1);
                self.cpu.flags.set_cmp(a, imm);
            }
            Op::Jmp { target } => next_pc = target,
            Op::JCond { cond, target } => {
                if self.cpu.flags.holds(cond) {
                    next_pc = target;
                }
            }
            Op::JmpR { rs } => next_pc = self.cpu.get(rs),
            Op::Call { target } => {
                next_pc = self.do_call(pc, target, hook)?;
            }
            Op::CallR { rs } => {
                let target = self.cpu.get(rs);
                next_pc = self.do_call(pc, target, hook)?;
            }
            Op::Ret => {
                self.clock.tick(cost::MEM);
                let sp = self.cpu.sp();
                let ret = self.mem.read_u32(pc, sp)?;
                if self.interest.0.other() {
                    hook.on_ret(self, pc, ret, sp);
                }
                self.cpu.set(Reg::SP, sp.wrapping_add(4));
                next_pc = ret;
            }
            Op::Push { rs } => {
                self.clock.tick(cost::MEM);
                let sp = self.cpu.sp().wrapping_sub(4);
                self.check_stack(pc, sp)?;
                let v = self.cpu.get(rs);
                if watched {
                    hook.on_mem_write(self, pc, sp, 4, v);
                }
                self.mem.write_u32(pc, sp, v)?;
                self.cpu.set(Reg::SP, sp);
            }
            Op::Pop { rd } => {
                self.clock.tick(cost::MEM);
                let sp = self.cpu.sp();
                let v = self.mem.read_u32(pc, sp)?;
                if watched {
                    hook.on_mem_read(self, pc, sp, 4, v);
                }
                self.cpu.set(rd, v);
                self.cpu.set(Reg::SP, sp.wrapping_add(4));
            }
            Op::Sys { num } => {
                let sc = Syscall::from_num(num).ok_or(Fault::BadOpcode { pc, opcode: num })?;
                match self.do_syscall(pc, sc, hook)? {
                    SysOutcome::Done => {}
                    SysOutcome::Halt(code) => return Ok(Status::Halted(code)),
                    SysOutcome::Block(b) => {
                        // Do not advance the pc: re-stepping after
                        // `unblock()` retries the syscall.
                        return Ok(Status::Blocked(b));
                    }
                }
            }
        }
        self.cpu.pc = next_pc;
        Ok(Status::Running)
    }

    fn do_call(&mut self, pc: u32, target: u32, hook: &mut dyn Hook) -> Result<u32, Fault> {
        self.clock.tick(cost::MEM);
        let ret_addr = pc.wrapping_add(INSN_SIZE);
        let sp = self.cpu.sp().wrapping_sub(4);
        self.check_stack(pc, sp)?;
        if self.interest.0.other() {
            hook.on_call(self, pc, target, ret_addr, sp);
        }
        self.mem.write_u32(pc, sp, ret_addr)?;
        self.cpu.set(Reg::SP, sp);
        Ok(target)
    }

    fn check_stack(&self, pc: u32, sp: u32) -> Result<(), Fault> {
        let stack_base = self.layout.stack_top - self.layout.stack_size;
        if sp < stack_base || sp >= self.layout.stack_top {
            return Err(Fault::StackOverflow { pc, sp });
        }
        Ok(())
    }

    fn do_syscall(
        &mut self,
        pc: u32,
        sc: Syscall,
        hook: &mut dyn Hook,
    ) -> Result<SysOutcome, Fault> {
        self.clock.tick(cost::SYSCALL);
        self.syscalls_retired += 1;
        let args = [
            self.cpu.get(Reg::R0),
            self.cpu.get(Reg::R1),
            self.cpu.get(Reg::R2),
            self.cpu.get(Reg::R3),
        ];
        let ret: u32 = match sc {
            Syscall::Exit => return Ok(SysOutcome::Halt(args[0])),
            Syscall::Accept => match self.net.accept() {
                Some(id) => {
                    self.clock.tick(cost::NET_RTT);
                    id
                }
                None => return Ok(SysOutcome::Block(BlockedOn::Accept)),
            },
            Syscall::Read => {
                let (conn, buf, len) = (args[0], args[1], args[2]);
                match self.net.read(conn, len as usize) {
                    Ok(Some((off, data))) => {
                        self.clock.tick(cost::IO_BYTE * data.len() as u64);
                        self.mem.write_bytes(pc, buf, &data)?;
                        if self.interest.0.other() {
                            hook.on_input(self, conn, off as u32, buf, &data);
                        }
                        data.len() as u32
                    }
                    Ok(None) => return Ok(SysOutcome::Block(BlockedOn::Read { conn })),
                    Err(_) => u32::MAX, // -1: bad fd or closed.
                }
            }
            Syscall::Write => {
                let (conn, buf, len) = (args[0], args[1], args[2]);
                let data = self.mem.read_bytes(buf, len)?;
                self.clock.tick(cost::IO_BYTE * data.len() as u64);
                match self.net.write(conn, &data) {
                    Ok(n) => n as u32,
                    Err(_) => u32::MAX,
                }
            }
            Syscall::Close => match self.net.close(args[0]) {
                Ok(()) => 0,
                Err(_) => u32::MAX,
            },
            Syscall::Alloc => {
                self.clock.tick(cost::ALLOC);
                let ptr = self.heap.alloc(&mut self.mem, pc, args[0])?;
                if ptr != 0 && self.interest.0.other() {
                    hook.on_alloc(self, pc, args[0], ptr);
                }
                ptr
            }
            Syscall::Free => {
                self.clock.tick(cost::ALLOC);
                let kind = self.heap.free(&mut self.mem, pc, args[0])?;
                if self.interest.0.other() {
                    hook.on_free(self, pc, args[0], kind);
                }
                0
            }
            Syscall::Time => self.clock.micros() as u32,
            Syscall::Rand => self.rng.next_u32(),
            Syscall::Log => {
                let data = self.mem.read_bytes(args[0], args[1])?;
                self.net.log.extend_from_slice(&data);
                args[1]
            }
        };
        self.cpu.set(Reg::R0, ret);
        if self.interest.0.other() {
            hook.on_syscall(self, pc, sc, args, ret);
        }
        Ok(SysOutcome::Done)
    }
}

enum SysOutcome {
    Done,
    Halt(u32),
    Block(BlockedOn),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn boot(src: &str) -> Machine {
        let prog = assemble(src).expect("asm");
        Machine::boot(&prog, Aslr::off()).expect("boot")
    }

    fn run_to_halt(m: &mut Machine) -> u32 {
        match m.run(&mut NopHook, 10_000_000) {
            Status::Halted(code) => code,
            other => panic!("did not halt: {other:?}"),
        }
    }

    #[test]
    fn arithmetic_program() {
        let mut m = boot(".text\nmain:\n movi r0, 6\n movi r1, 7\n mul r0, r0, r1\n halt\n");
        assert_eq!(run_to_halt(&mut m), 42);
    }

    #[test]
    fn export_metrics_mirrors_counters_without_double_counting() {
        let mut m = boot(".text\nmain:\n movi r0, 6\n movi r1, 7\n mul r0, r0, r1\n halt\n");
        run_to_halt(&mut m);
        let mut reg = obs::MetricsRegistry::new();
        m.export_metrics(&mut reg);
        assert_eq!(reg.counter("svm.insns_retired"), m.insns_retired);
        assert_eq!(reg.counter("svm.cycles"), m.clock.cycles());
        // Exporting twice must not double-count (absolute mirror).
        m.export_metrics(&mut reg);
        assert_eq!(reg.counter("svm.insns_retired"), m.insns_retired);
        assert!(reg.gauge_value("svm.mem.mapped_pages").unwrap() > 0.0);
    }

    #[test]
    fn loop_and_memory() {
        // Sum bytes of a string.
        let mut m = boot(
            "
.text
main:
    movi r1, s
    movi r0, 0
loop:
    ldb r2, [r1, 0]
    cmpi r2, 0
    jz done
    add r0, r0, r2
    addi r1, r1, 1
    jmp loop
done:
    halt
.data
s: .string \"abc\"
",
        );
        assert_eq!(run_to_halt(&mut m), b'a' as u32 + b'b' as u32 + b'c' as u32);
    }

    #[test]
    fn call_ret_and_stack() {
        let mut m = boot(
            "
.text
main:
    movi r0, 5
    call double
    call double
    halt
double:
    add r0, r0, r0
    ret
",
        );
        assert_eq!(run_to_halt(&mut m), 20);
    }

    #[test]
    fn division_by_zero_faults() {
        let mut m = boot(".text\nmain:\n movi r0, 4\n movi r1, 0\n div r0, r0, r1\n halt\n");
        match m.run(&mut NopHook, 1000) {
            Status::Faulted(Fault::DivByZero { .. }) => {}
            other => panic!("expected div fault, got {other:?}"),
        }
        // A faulted machine stays faulted.
        assert!(matches!(m.step(), Status::Faulted(_)));
    }

    #[test]
    fn wild_store_faults_and_freezes_state() {
        let mut m = boot(".text\nmain:\n movi r1, 0x600000\n movi r2, 9\n st [r1, 0], r2\n halt\n");
        let pc_before = m.cpu.pc;
        match m.run(&mut NopHook, 1000) {
            Status::Faulted(Fault::Unmapped {
                pc,
                addr: 0x0060_0000,
                ..
            }) => {
                assert_eq!(pc, pc_before + 16, "fault at the store instruction");
            }
            other => panic!("expected segv, got {other:?}"),
        }
        // Registers are frozen at the faulting state for core-dump analysis.
        assert_eq!(m.cpu.get(Reg(2)), 9);
    }

    #[test]
    fn null_deref_classification_end_to_end() {
        let mut m = boot(".text\nmain:\n movi r1, 0\n ld r0, [r1, 8]\n halt\n");
        match m.run(&mut NopHook, 1000) {
            Status::Faulted(f) => assert!(f.is_null_deref()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn echo_server_blocks_then_serves() {
        let mut m = boot(
            "
.text
main:
    sys accept
    mov r4, r0          ; conn
    mov r0, r4
    movi r1, buf
    movi r2, 64
    sys read
    mov r3, r0          ; n
    mov r0, r4
    movi r1, buf
    mov r2, r3
    sys write
    mov r0, r3
    halt
.data
buf: .space 64
",
        );
        // No connection yet: blocks on accept without advancing.
        assert_eq!(
            m.run(&mut NopHook, 100_000),
            Status::Blocked(BlockedOn::Accept)
        );
        m.net.push_connection(b"ping".to_vec());
        m.unblock();
        assert_eq!(run_to_halt(&mut m), 4);
        assert_eq!(m.net.conn(0).expect("conn").output, b"ping");
    }

    #[test]
    fn read_blocks_on_streaming_connection() {
        let mut m = boot(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    halt
.data
buf: .space 8
",
        );
        let c = m.net.push_streaming_connection(Vec::new());
        assert_eq!(
            m.run(&mut NopHook, 10_000_000),
            Status::Blocked(BlockedOn::Read { conn: c })
        );
        m.net.append_input(c, b"hi").expect("append");
        m.unblock();
        assert_eq!(run_to_halt(&mut m), 2);
    }

    #[test]
    fn alloc_free_via_syscalls() {
        let mut m = boot(
            "
.text
main:
    movi r0, 100
    sys alloc
    mov r5, r0
    movi r1, 0x1234
    st [r5, 0], r1
    mov r0, r5
    sys free
    mov r0, r5
    halt
",
        );
        let ptr = run_to_halt(&mut m);
        assert!(ptr >= m.layout.heap_base && ptr < m.layout.heap_base + m.layout.heap_size);
        assert_eq!(m.heap.allocs, 1);
        assert_eq!(m.heap.frees, 1);
    }

    #[test]
    fn machine_clone_is_checkpoint() {
        let mut m = boot(
            ".text\nmain:\n movi r0, 1\n movi r1, v\n st [r1, 0], r0\n add r0, r0, r0\n halt\n.data\nv: .word 0\n",
        );
        m.step(); // movi r0,1
        let snap = m.clone();
        run_to_halt(&mut m);
        assert_eq!(m.cpu.get(Reg(0)), 2);
        // Rollback.
        let mut m = snap;
        assert_eq!(m.cpu.get(Reg(0)), 1);
        assert_eq!(run_to_halt(&mut m), 2, "replay reaches the same result");
    }

    #[test]
    fn deterministic_replay_includes_rng_and_clock() {
        let src = ".text\nmain:\n sys rand\n mov r5, r0\n sys time\n add r0, r0, r5\n halt\n";
        let mut a = boot(src);
        let mut b = boot(src);
        assert_eq!(run_to_halt(&mut a), run_to_halt(&mut b));
        assert_eq!(a.clock.cycles(), b.clock.cycles());
    }

    #[test]
    fn stack_overflow_is_caught() {
        let mut m = boot(".text\nmain:\n call main\n halt\n");
        match m.run(&mut NopHook, 100_000_000) {
            Status::Faulted(Fault::StackOverflow { .. }) => {}
            other => panic!("expected stack overflow, got {other:?}"),
        }
    }

    #[test]
    fn ret_to_attacker_address_faults_under_aslr_style_miss() {
        // Simulate a smashed return address pointing at unmapped memory.
        let mut m = boot(".text\nmain:\n movi r1, 0x66660000\n push r1\n ret\n");
        match m.run(&mut NopHook, 1000) {
            Status::Faulted(Fault::Unmapped {
                addr: 0x6666_0000, ..
            }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shellcode_on_stack_executes_when_nx_off() {
        // Write encoded instructions into the data segment and jump there.
        let mut m = boot(
            "
.text
main:
    movi r1, sc
    jmpr r1
.data
sc: .space 16
",
        );
        let sc_addr = m.symbols.addr_of("sc").expect("sc");
        let mut shell = Vec::new();
        shell.extend_from_slice(
            &Op::MovI {
                rd: Reg(0),
                imm: 0x77,
            }
            .encode(),
        );
        shell.extend_from_slice(&Op::Halt.encode());
        m.mem.write_bytes_host(sc_addr, &shell).expect("inject");
        assert_eq!(
            run_to_halt(&mut m),
            0x77,
            "data-segment shellcode ran (pre-NX)"
        );
        // With NX the same jump faults.
        let mut m2 = boot(".text\nmain:\n movi r1, sc\n jmpr r1\n.data\nsc: .space 16\n");
        m2.mem.write_bytes_host(sc_addr, &shell).expect("inject");
        m2.mem.nx = true;
        assert!(matches!(
            m2.run(&mut NopHook, 1000),
            Status::Faulted(Fault::Protection { .. })
        ));
    }

    #[test]
    fn cycle_budget_preempts() {
        let mut m = boot(".text\nmain:\n jmp main\n");
        let s = m.run(&mut NopHook, 1000);
        assert_eq!(s, Status::Running, "preempted, not stuck");
        assert!(m.clock.cycles() >= 1000);
    }
}
