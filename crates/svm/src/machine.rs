//! The virtual machine: fetch/decode/execute loop, syscalls, and status.
//!
//! The machine is a plain value: cloning it (cheaply, thanks to COW pages)
//! *is* a checkpoint, and assigning a clone back *is* a rollback. The
//! `checkpoint` crate wraps this with interval policy, input logging, and
//! replay; here we only guarantee deterministic, fault-containing
//! execution.

use std::cell::Cell;

use crate::alloc::HeapState;
use crate::asm::Program;
use crate::clock::{cost, Clock};
use crate::cpu::Cpu;
use crate::error::{Fault, SvmError};
use crate::hook::{Hook, Interest};
use crate::icache::{CacheStats, DecodeCache};
use crate::isa::{Op, Reg, Syscall, INSN_SIZE};
use crate::loader::{self, Aslr, Layout, SymbolMap};
use crate::mem::Mem;
use crate::net::{BlockedOn, NetState};
use crate::rng::XorShift64;

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
    /// Written by [`Machine::run`] only when a step leaves `Running`
    /// (and by the test-only single step after every step).
    status: Status,
    /// Predecoded-page instruction cache (cold after any clone, so
    /// checkpoints and rollbacks never inherit decode state).
    icache: DecodeCache,
    /// The hook interest of the current `run` or `step_hooked` call,
    /// asked for on entry to each. Only the buffer outlives a call, and
    /// a clone starts empty, so a clone whose hook goes live before its
    /// first step still delivers its very first instruction to it.
    interest: InterestBuf,
    /// The clock reading at which the current `run` returns: set on
    /// entry to every `run`, and to 0 by [`Machine::request_stop`], so
    /// a stop request ends the run through the same check as its cycle
    /// budget.
    deadline: Cell<u64>,
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

impl Clone for Machine {
    fn clone(&self) -> Machine {
        self.clone_with_mem(self.mem.clone())
    }
}

impl Machine {
    /// A clone of everything but the address space, which is `mem`: an
    /// incremental snapshot keeps the machine with a [`Mem::skeleton`]
    /// without first copying the live page table. Like every clone it
    /// starts with a cold decode cache.
    pub fn clone_with_mem(&self, mem: Mem) -> Machine {
        Machine {
            cpu: self.cpu.clone(),
            mem,
            heap: self.heap,
            net: self.net.clone(),
            rng: self.rng,
            clock: self.clock,
            layout: self.layout,
            symbols: self.symbols.clone(),
            insns_retired: self.insns_retired,
            syscalls_retired: self.syscalls_retired,
            status: self.status,
            icache: self.icache.clone(),
            interest: self.interest.clone(),
            deadline: Cell::new(0),
        }
    }

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
            interest: InterestBuf::default(),
            deadline: Cell::new(0),
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

    /// Builder-style decode-cache knob, choosing between the machine's
    /// two execution tiers: `true` (the default) runs decoded ops from
    /// the predecoded-page cache, `false` the word-at-a-time
    /// interpreter, which is the cache's reference for differential
    /// parity tests. The two are bit-identical by construction.
    pub fn with_decode_cache(mut self, enabled: bool) -> Machine {
        self.set_decode_cache(enabled);
        self
    }

    /// Enable/disable the predecoded instruction cache in place (see
    /// [`Machine::with_decode_cache`]).
    pub fn set_decode_cache(&mut self, enabled: bool) {
        self.icache.set_enabled(enabled);
    }

    /// Whether the predecoded instruction cache is enabled.
    pub fn decode_cache_enabled(&self) -> bool {
        self.icache.enabled()
    }

    /// Inert: returns `self` unchanged. The machine has no superblock
    /// tier; this is kept only so the `benchmark` package builds, and
    /// ROADMAP item 3 deletes it together with its caller.
    pub fn with_superblocks(self, _enabled: bool) -> Machine {
        self
    }

    /// Hit/miss/invalidation counters of the decode cache.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// Inert: always all-zero. The machine has no superblock tier; this
    /// is kept only so the `benchmark` package builds, and ROADMAP item
    /// 3 deletes it together with its caller.
    pub fn superblock_stats(&self) -> SbStats {
        SbStats::default()
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

    /// Drop every predecoded page.
    ///
    /// Required after any out-of-band replacement of this machine's
    /// memory or layout (checkpoint restore does this via `Clone`, which
    /// is already cold; call it explicitly if you swap `mem` by hand).
    /// The flush counts once in [`Machine::icache_stats`].
    pub fn flush_decode_cache(&mut self) {
        self.icache.flush();
    }

    /// Clear a `Blocked` status so stepping retries the blocked syscall
    /// (call after supplying input).
    pub fn unblock(&mut self) {
        if matches!(self.status, Status::Blocked(_)) {
            self.status = Status::Running;
        }
    }

    /// Execute one instruction without instrumentation. A test
    /// reference only: production code runs [`Machine::run`]. Built
    /// under `cfg(test)` or the `oracle` feature.
    #[cfg(any(test, feature = "oracle"))]
    pub fn step(&mut self) -> Status {
        self.step_hooked(&mut crate::hook::NopHook)
    }

    /// Execute one instruction, delivering to `hook` the events it asks
    /// for ([`Hook::interest`], asked once per call). The single-step
    /// reference the oracle tests check [`Machine::run`] against; a
    /// [`Machine::request_stop`] made here has no run to end. Built
    /// under `cfg(test)` or the `oracle` feature.
    #[cfg(any(test, feature = "oracle"))]
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

    /// End the current [`Machine::run`] once the executing instruction
    /// completes, leaving the status `Running` as a cycle deadline does.
    /// Hooks call it through the `&Machine` they receive, so a monitor
    /// that detects an attack stops the guest at the detecting
    /// instruction. A request outside a run is forgotten by the next.
    pub fn request_stop(&self) {
        self.deadline.set(0);
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

    /// Run until the status leaves `Running`, `max_cycles` elapse, or a
    /// hook calls [`Machine::request_stop`].
    ///
    /// Returns the final status; on cycle exhaustion or a stop request
    /// the status remains `Running` (the machine is preemptible). A
    /// machine that is not running on entry (halted, faulted or blocked)
    /// returns at once.
    ///
    /// The status lives in a local while the run lasts: `self.status`
    /// is written only when a step leaves `Running` (halt, block or
    /// fault), and nothing can observe it in between, since hooks only
    /// ever see `&Machine` (and read `Running` there).
    ///
    /// The hook's [`Hook::interest`] is asked once, on entry, and only
    /// the events it asks for are delivered. The answer is never kept
    /// across calls, so a tool attached between runs (or on a fresh
    /// clone) observes every subsequent instruction it asks for.
    pub fn run(&mut self, hook: &mut dyn Hook, max_cycles: u64) -> Status {
        self.deadline
            .set(self.clock.cycles().saturating_add(max_cycles));
        self.ask_interest(hook);
        if !self.enter() {
            return self.status;
        }
        loop {
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
            if self.clock.cycles() >= self.deadline.get() {
                return Status::Running;
            }
        }
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

/// Counters of the superblock tier the machine no longer has: inert,
/// always zero, kept only so the `benchmark` package builds. ROADMAP
/// item 3 deletes it together with [`Machine::superblock_stats`].
#[derive(Debug, Default)]
pub struct SbStats {
    /// Instructions retired by the superblock tier: always 0.
    pub insns: u64,
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
    use crate::hook::NopHook;

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
    fn a_hook_stops_the_run_after_the_current_instruction() {
        struct StopAt(u32);
        impl Hook for StopAt {
            fn on_insn(&mut self, m: &Machine, pc: u32, _op: &Op) {
                if pc == self.0 {
                    m.request_stop();
                }
            }
        }
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n movi r0, 3\n halt\n");
        let second = m.cpu.pc + INSN_SIZE;
        let mut hook = StopAt(second);
        assert_eq!(m.run(&mut hook, 1_000_000), Status::Running);
        assert_eq!(m.insns_retired, 2, "the requesting instruction completed");
        assert_eq!(m.cpu.get(Reg::R0), 2);
        // A request made outside a run does not end the next one.
        m.request_stop();
        assert_eq!(m.run(&mut NopHook, 1_000_000), Status::Halted(3));
    }

    #[test]
    fn cycle_budget_preempts() {
        let mut m = boot(".text\nmain:\n jmp main\n");
        let s = m.run(&mut NopHook, 1000);
        assert_eq!(s, Status::Running, "preempted, not stuck");
        assert!(m.clock.cycles() >= 1000);
    }
}
