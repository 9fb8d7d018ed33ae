//! Vulnerability-Specific Execution Filters (paper §3.3, after the VSEF
//! paper, Newsome/Brumley/Song NDSS'06).
//!
//! A VSEF re-applies the *same checks* the heavyweight analysis performed
//! — bounds checking, return-address protection, double-free detection,
//! taint tracking — but only at the handful of instructions the analysis
//! implicated. Because the watch set is tiny, overhead is negligible, and
//! because the check targets the *vulnerability* (not the exploit bytes),
//! poly- and meta-morphic variants of the attack are still caught.
//!
//! A [`VsefSpec`] is the shareable description (what gets distributed to
//! other hosts); [`VsefRuntime`] is the deployed instrumentation tool.

use std::any::Any;
use std::collections::{BTreeMap, HashMap, HashSet};

use analysis::ShadowStack;
use dbi::effects::{effects, Loc};
use dbi::tool::{Tool, Watch};
use svm::alloc::FreeKind;
use svm::isa::Op;
use svm::Machine;

/// A shareable VSEF description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VsefSpec {
    /// Keep a side stack of return addresses for one function; detect on
    /// mismatch at return (initial stack-smash VSEF).
    RetAddrGuard {
        /// Protected function entry address.
        func: u32,
        /// Function name (reporting only).
        func_name: String,
    },
    /// Detect writes from one store instruction onto any live return-
    /// address slot (refined stack-smash VSEF: targets the overflow
    /// itself, catching function-pointer-smash variants too).
    StoreSmashGuard {
        /// The overflowing store instruction.
        store_pc: u32,
    },
    /// Heap bounds check at one store instruction, optionally only when
    /// called from a particular function (the paper's Squid VSEF:
    /// "bounds-check `strcat` when called by `ftpBuildTitleUrl`").
    HeapBoundsCheck {
        /// The store instruction inside the (library) routine.
        store_pc: u32,
        /// Required caller function entry, if refined.
        caller: Option<u32>,
    },
    /// Detect double frees at one free callsite.
    DoubleFreeGuard {
        /// The `free` routine's syscall pc.
        free_pc: u32,
    },
    /// Validate heap metadata (arg header + free-list sanity) at an
    /// allocator callsite, before the allocator acts.
    HeapIntegrityGuard {
        /// The allocator syscall pcs to guard.
        sites: Vec<u32>,
    },
    /// NULL-pointer check before one memory-access instruction.
    NullCheck {
        /// The faulting instruction.
        insn_pc: u32,
    },
    /// Mini taint analysis over only the propagation instructions the
    /// full analysis identified, with one control-transfer sink.
    TaintFilter {
        /// Instructions that propagated taint in the analyzed exploit.
        prop_pcs: Vec<u32>,
        /// The sink instruction.
        sink_pc: u32,
    },
}

impl VsefSpec {
    /// Short kind name for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            VsefSpec::RetAddrGuard { .. } => "ret-addr-guard",
            VsefSpec::StoreSmashGuard { .. } => "store-smash-guard",
            VsefSpec::HeapBoundsCheck { .. } => "heap-bounds-check",
            VsefSpec::DoubleFreeGuard { .. } => "double-free-guard",
            VsefSpec::HeapIntegrityGuard { .. } => "heap-integrity-guard",
            VsefSpec::NullCheck { .. } => "null-check",
            VsefSpec::TaintFilter { .. } => "taint-filter",
        }
    }

    /// The pcs this spec needs instruction events for.
    pub fn watched_pcs(&self) -> Vec<u32> {
        match self {
            VsefSpec::RetAddrGuard { .. } | VsefSpec::DoubleFreeGuard { .. } => Vec::new(),
            VsefSpec::StoreSmashGuard { store_pc } => vec![*store_pc],
            VsefSpec::HeapBoundsCheck { store_pc, .. } => vec![*store_pc],
            VsefSpec::HeapIntegrityGuard { sites } => sites.clone(),
            VsefSpec::NullCheck { insn_pc } => vec![*insn_pc],
            VsefSpec::TaintFilter { prop_pcs, sink_pc } => {
                let mut v = prop_pcs.clone();
                v.push(*sink_pc);
                v
            }
        }
    }

    /// Number of instrumented sites (the paper's overhead argument: a
    /// handful, versus every instruction for the full tools).
    pub fn site_count(&self) -> usize {
        self.watched_pcs().len().max(1)
    }

    /// Translate every code address from one address-space layout to
    /// another.
    ///
    /// VSEF addresses are virtual addresses, but every Sweeper host
    /// randomizes its layout independently; antibodies are therefore
    /// distributed *normalized to the nominal layout* and rebased on
    /// deployment (the analogue of shipping binary+offset instead of an
    /// absolute address).
    pub fn rebase(&self, from: &svm::loader::Layout, to: &svm::loader::Layout) -> VsefSpec {
        let tr = |pc: u32| rebase_addr(pc, from, to);
        match self.clone() {
            VsefSpec::RetAddrGuard { func, func_name } => VsefSpec::RetAddrGuard {
                func: tr(func),
                func_name,
            },
            VsefSpec::StoreSmashGuard { store_pc } => VsefSpec::StoreSmashGuard {
                store_pc: tr(store_pc),
            },
            VsefSpec::HeapBoundsCheck { store_pc, caller } => VsefSpec::HeapBoundsCheck {
                store_pc: tr(store_pc),
                caller: caller.map(tr),
            },
            VsefSpec::DoubleFreeGuard { free_pc } => VsefSpec::DoubleFreeGuard {
                free_pc: tr(free_pc),
            },
            VsefSpec::HeapIntegrityGuard { sites } => VsefSpec::HeapIntegrityGuard {
                sites: sites.into_iter().map(tr).collect(),
            },
            VsefSpec::NullCheck { insn_pc } => VsefSpec::NullCheck {
                insn_pc: tr(insn_pc),
            },
            VsefSpec::TaintFilter { prop_pcs, sink_pc } => VsefSpec::TaintFilter {
                prop_pcs: prop_pcs.into_iter().map(tr).collect(),
                sink_pc: tr(sink_pc),
            },
        }
    }
}

/// Map an address across layouts by segment membership; addresses in no
/// known segment (e.g. a wild-jump target) pass through unchanged.
pub fn rebase_addr(addr: u32, from: &svm::loader::Layout, to: &svm::loader::Layout) -> u32 {
    // Segment extents are not known here: attribute the address to the
    // nearest base at or below it (bases are spaced wider than any
    // segment), bounded by a generous window.
    const WINDOW: u32 = 0x0100_0000;
    let pairs = [
        (from.code_base, to.code_base),
        (from.lib_base, to.lib_base),
        (from.data_base, to.data_base),
        (from.heap_base, to.heap_base),
    ];
    let best = pairs
        .iter()
        .filter(|(f, _)| addr >= *f && addr - *f < WINDOW)
        .min_by_key(|(f, _)| addr - *f);
    match best {
        Some((f, t)) => t + (addr - f),
        None => addr,
    }
}

/// One VSEF detection.
#[derive(Debug, Clone)]
pub struct Detection {
    /// Kind of the firing VSEF.
    pub vsef_kind: &'static str,
    /// Instruction where the violation was observed.
    pub pc: u32,
    /// Human-readable detail.
    pub detail: String,
}

/// Deployed VSEF instrumentation: all of a host's VSEFs in one tool.
///
/// Every detection also asks the machine to stop
/// ([`Machine::request_stop`]), so the run that raised it returns right
/// after the detecting instruction, before the exploit goes further.
pub struct VsefRuntime {
    specs: Vec<VsefSpec>,
    by_pc: HashMap<u32, Vec<usize>>,
    shadow: ShadowStack,
    /// Per-RetAddrGuard side stacks: spec idx -> (slot, expected) stack.
    side_stacks: HashMap<usize, Vec<(u32, u32)>>,
    /// Live return-address slots (for StoreSmashGuard).
    ret_slots: BTreeMap<u32, u32>,
    /// Freed payload pointers (for DoubleFreeGuard).
    freed: HashSet<u32>,
    /// Mini-taint shadow (for TaintFilter).
    taint: HashMap<Loc, ()>,
    detections: Vec<Detection>,
}

impl VsefRuntime {
    /// Deploy a set of specs.
    pub fn new(specs: Vec<VsefSpec>) -> VsefRuntime {
        let mut by_pc: HashMap<u32, Vec<usize>> = HashMap::new();
        for (i, s) in specs.iter().enumerate() {
            for pc in s.watched_pcs() {
                by_pc.entry(pc).or_default().push(i);
            }
        }
        VsefRuntime {
            specs,
            by_pc,
            shadow: ShadowStack::new(),
            side_stacks: HashMap::new(),
            ret_slots: BTreeMap::new(),
            freed: HashSet::new(),
            taint: HashMap::new(),
            detections: Vec::new(),
        }
    }

    /// Add another spec to a deployed runtime (piecemeal distribution).
    /// The caller must re-register watch sets via
    /// [`dbi::Instrumenter::refresh`].
    pub fn add(&mut self, spec: VsefSpec) {
        let idx = self.specs.len();
        for pc in spec.watched_pcs() {
            self.by_pc.entry(pc).or_default().push(idx);
        }
        self.specs.push(spec);
    }

    /// Deployed specs.
    pub fn specs(&self) -> &[VsefSpec] {
        &self.specs
    }

    /// Detections so far.
    pub fn detections(&self) -> &[Detection] {
        &self.detections
    }

    /// Drain detections (the runtime module polls per request).
    pub fn take_detections(&mut self) -> Vec<Detection> {
        std::mem::take(&mut self.detections)
    }

    /// Clear all per-execution state (shadow stacks, watched slots, taint,
    /// freed set) while keeping the deployed specs. Must be called when
    /// the protected process is rolled back or restarted — the runtime is
    /// logically re-attached to a different execution.
    pub fn reset_state(&mut self) {
        self.shadow = ShadowStack::new();
        self.side_stacks.clear();
        self.ret_slots.clear();
        self.freed.clear();
        self.taint.clear();
        self.detections.clear();
    }
}

/// The detection `spec` reports at `pc`.
fn detection(spec: &VsefSpec, pc: u32, detail: String) -> Detection {
    Detection {
        vsef_kind: spec.kind(),
        pc,
        detail,
    }
}

impl Tool for VsefRuntime {
    fn name(&self) -> &str {
        "vsef-runtime"
    }

    fn watches(&self) -> Watch {
        Watch::pcs(self.by_pc.keys().copied())
    }

    fn insn_cost(&self) -> u64 {
        // A handful of checks at a handful of sites.
        8
    }

    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        let Some(idxs) = self.by_pc.get(&pc) else {
            return;
        };
        let e = effects(m, op);
        // Disjoint field borrows: `idxs` stays borrowed from `by_pc`
        // while detections are pushed, so nothing is cloned per event.
        let specs = &self.specs;
        let detections = &mut self.detections;
        let mut detect = |i: usize, detail: String| {
            detections.push(detection(&specs[i], pc, detail));
            m.request_stop();
        };
        for &i in idxs {
            match specs[i] {
                VsefSpec::StoreSmashGuard { .. } => {
                    if let Some((addr, len)) = e.mem_write {
                        let overlap = self
                            .ret_slots
                            .range(addr.saturating_sub(3)..addr.wrapping_add(len))
                            .map(|(&s, _)| s)
                            .find(|&s| addr < s + 4 && s < addr.wrapping_add(len));
                        if let Some(slot) = overlap {
                            detect(i, format!("store hits return-address slot {slot:#010x}"));
                        }
                    }
                }
                VsefSpec::HeapBoundsCheck { caller, .. } => {
                    if let Some((addr, _len)) = e.mem_write {
                        let heap_lo = m.layout.heap_base;
                        let heap_hi = m.layout.heap_base + m.layout.heap_size;
                        if addr < heap_lo || addr >= heap_hi {
                            continue;
                        }
                        if let Some(req) = caller {
                            // Refined VSEF: only when called (transitively
                            // directly) by the implicated function. Labels
                            // are unique, so the symbol a return address
                            // resolves to starts at `req` exactly when it
                            // is the implicated function.
                            let caller_ok = self.shadow.frames().iter().any(|f| {
                                m.symbols.resolve(f.ret_addr).is_some_and(|s| s.addr == req)
                            });
                            if !caller_ok {
                                continue;
                            }
                        }
                        if m.heap.live_chunk_containing(&m.mem, addr).is_none() {
                            detect(i, format!("out-of-bounds heap write to {addr:#010x}"));
                        }
                    }
                }
                VsefSpec::HeapIntegrityGuard { .. } => {
                    // Validate the free list before the allocator acts.
                    let mut cur = m.heap.free_head;
                    let mut hops = 0;
                    while cur != 0 && hops < 64 {
                        let ok = m
                            .mem
                            .read_u32(0, cur + 4)
                            .ok()
                            .map(|w| {
                                let size = w & !1;
                                size >= 24 && size % 8 == 0 && cur + size <= m.heap.brk
                            })
                            .unwrap_or(false);
                        let fd = m.mem.read_u32(0, cur + 8).unwrap_or(u32::MAX);
                        let fd_ok = fd == 0
                            || (fd >= m.layout.heap_base
                                && fd < m.layout.heap_base + m.layout.heap_size);
                        if !ok || !fd_ok {
                            detect(i, format!("heap free-list corruption at chunk {cur:#010x}"));
                            break;
                        }
                        cur = fd;
                        hops += 1;
                    }
                    // For `free(ptr)`, also validate the argument header.
                    if matches!(op, Op::Sys { num } if *num == svm::isa::Syscall::Free.num()) {
                        let ptr = m.cpu.get(svm::isa::Reg::R0);
                        let c = ptr.wrapping_sub(8);
                        let bad = m
                            .mem
                            .read_u32(0, c + 4)
                            .ok()
                            .map(|w| {
                                let size = w & !1;
                                size < 24 || size % 8 != 0 || c + size > m.heap.brk
                            })
                            .unwrap_or(true);
                        if bad {
                            detect(i, format!("corrupt chunk header at {c:#010x}"));
                        }
                    }
                }
                VsefSpec::NullCheck { .. } => {
                    let addr = e.mem_read.map(|(a, _)| a).or(e.mem_write.map(|(a, _)| a));
                    if let Some(a) = addr {
                        if a < svm::mem::PAGE_SIZE as u32 {
                            detect(i, format!("NULL dereference of {a:#x}"));
                        }
                    }
                }
                VsefSpec::TaintFilter { sink_pc, .. } => {
                    if pc == sink_pc {
                        if let Some((loc, target)) = &e.indirect_target {
                            let tainted = match loc {
                                Loc::MemByte(a) => {
                                    (0..4).any(|k| self.taint.contains_key(&Loc::MemByte(a + k)))
                                }
                                other => self.taint.contains_key(other),
                            };
                            if tainted {
                                detect(i, format!("tainted control transfer to {target:#010x}"));
                            }
                        }
                    }
                    // Propagate along the watched instructions, using the
                    // same per-destination value flows as full taint.
                    for f in &e.flows {
                        if f.from.iter().any(|l| self.taint.contains_key(l)) {
                            self.taint.insert(f.to, ());
                        } else {
                            self.taint.remove(&f.to);
                        }
                    }
                }
                VsefSpec::RetAddrGuard { .. } | VsefSpec::DoubleFreeGuard { .. } => {}
            }
        }
    }

    fn on_call(&mut self, _m: &Machine, _pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.shadow.push(target, ret_addr, sp);
        self.ret_slots.insert(sp, target);
        for (i, s) in self.specs.iter().enumerate() {
            if let VsefSpec::RetAddrGuard { func, .. } = s {
                if *func == target {
                    self.side_stacks.entry(i).or_default().push((sp, ret_addr));
                }
            }
        }
    }

    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.shadow.pop_to(sp);
        // Slots at or below `sp` are the lowest keys: remove them in
        // place (unlike `split_off`, this builds no second tree).
        while let Some(slot) = self.ret_slots.first_entry() {
            if *slot.key() > sp {
                break;
            }
            slot.remove();
        }
        for (&i, stack) in self.side_stacks.iter_mut() {
            while let Some(&(slot, expected)) = stack.last() {
                if slot > sp {
                    break;
                }
                stack.pop();
                if slot == sp && expected != ret_target {
                    self.detections.push(detection(
                        &self.specs[i],
                        pc,
                        format!(
                            "return address changed: expected {expected:#010x}, got {ret_target:#010x}"
                        ),
                    ));
                    m.request_stop();
                }
            }
        }
    }

    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        for spec in &self.specs {
            if let VsefSpec::DoubleFreeGuard { free_pc } = *spec {
                if free_pc == pc && (kind == FreeKind::DoubleFree || self.freed.contains(&ptr)) {
                    self.detections.push(detection(
                        spec,
                        pc,
                        format!("double free of {ptr:#010x}"),
                    ));
                    m.request_stop();
                }
            }
        }
        self.freed.insert(ptr);
    }

    fn on_alloc(&mut self, _m: &Machine, _pc: u32, _size: u32, ptr: u32) {
        self.freed.remove(&ptr);
    }

    fn on_input(&mut self, _m: &Machine, _conn: u32, _off: u32, addr: u32, data: &[u8]) {
        // Taint sources for TaintFilter specs.
        if self
            .specs
            .iter()
            .any(|s| matches!(s, VsefSpec::TaintFilter { .. }))
        {
            for i in 0..data.len() as u32 {
                self.taint.insert(Loc::MemByte(addr + i), ());
            }
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi::instr::Instrumenter;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::Status;

    fn boot(src: &str, input: &[u8]) -> Machine {
        let prog = assemble(src).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        m.net.push_connection(input.to_vec());
        m
    }

    const SMASHER: &str = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    call victim
    halt
victim:
    push fp
    mov fp, sp
    movi r1, buf
    ld r1, [r1, 0]
smash:
    st [fp, 4], r1
    mov sp, fp
    pop fp
    ret
.data
buf: .space 8
";

    #[test]
    fn ret_addr_guard_detects_smash_before_wild_jump() {
        let mut m = boot(SMASHER, &0x6666_6666u32.to_le_bytes());
        let func = m.symbols.addr_of("victim").expect("victim");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![VsefSpec::RetAddrGuard {
            func,
            func_name: "victim".into(),
        }])));
        m.run(&mut ins, 10_000_000);
        let v = ins.get::<VsefRuntime>(id).expect("tool");
        let d = v.detections().first().expect("detected");
        assert_eq!(d.vsef_kind, "ret-addr-guard");
        assert!(d.detail.contains("0x66666666"));
    }

    #[test]
    fn store_smash_guard_fires_at_the_overflowing_store() {
        let mut m = boot(SMASHER, &0x6666_6666u32.to_le_bytes());
        let store_pc = m.symbols.addr_of("smash").expect("smash");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![
            VsefSpec::StoreSmashGuard { store_pc },
        ])));
        m.run(&mut ins, 10_000_000);
        let v = ins.get::<VsefRuntime>(id).expect("tool");
        assert_eq!(v.detections().len(), 1);
        assert_eq!(v.detections()[0].pc, store_pc);
    }

    #[test]
    fn ret_addr_guard_silent_on_benign_run() {
        let benign = "
.text
main:
    sys accept
    call victim
    halt
victim:
    push fp
    mov fp, sp
    movi r1, 5
    st [fp, -4], r1
    mov sp, fp
    pop fp
    ret
";
        let mut m = boot(benign, b"x");
        let func = m.symbols.addr_of("victim").expect("victim");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![VsefSpec::RetAddrGuard {
            func,
            func_name: "victim".into(),
        }])));
        let s = m.run(&mut ins, 10_000_000);
        assert!(matches!(s, Status::Halted(_)));
        assert!(ins
            .get::<VsefRuntime>(id)
            .expect("t")
            .detections()
            .is_empty());
    }

    #[test]
    fn null_check_fires_before_the_crash_would() {
        let src = "
.text
main:
    sys accept
    movi r0, 0
look:
    ldb r1, [r0, 4]
    halt
";
        let mut m = boot(src, b"x");
        let pc = m.symbols.addr_of("look").expect("look");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![VsefSpec::NullCheck {
            insn_pc: pc,
        }])));
        m.run(&mut ins, 10_000_000);
        let v = ins.get::<VsefRuntime>(id).expect("tool");
        assert_eq!(v.detections().len(), 1, "detected at the instruction");
    }

    #[test]
    fn double_free_guard_detects_at_site() {
        let src = "
.text
main:
    sys accept
    movi r0, 32
    sys alloc
    mov r4, r0
    mov r0, r4
    call libfree
    mov r0, r4
    call libfree
    halt
.lib
libfree:
freesys:
    sys free
    ret
";
        let mut m = boot(src, b"x");
        let free_pc = m.symbols.addr_of("freesys").expect("freesys");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![
            VsefSpec::DoubleFreeGuard { free_pc },
        ])));
        m.run(&mut ins, 10_000_000);
        let v = ins.get::<VsefRuntime>(id).expect("tool");
        assert_eq!(v.detections().len(), 1);
        assert!(v.detections()[0].detail.contains("double free"));
    }

    #[test]
    fn taint_filter_detects_tainted_sink_cheaply() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r1, buf
p1:
    ld r3, [r1, 0]
p2:
    mov r4, r3
sink:
    callr r4
    halt
.data
buf: .space 8
";
        let mut m = boot(src, &0x5555_5555u32.to_le_bytes());
        let p1 = m.symbols.addr_of("p1").expect("p1");
        let p2 = m.symbols.addr_of("p2").expect("p2");
        let sink = m.symbols.addr_of("sink").expect("sink");
        let spec = VsefSpec::TaintFilter {
            prop_pcs: vec![p1, p2],
            sink_pc: sink,
        };
        assert_eq!(spec.site_count(), 3, "only three instrumented sites");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(VsefRuntime::new(vec![spec])));
        m.run(&mut ins, 10_000_000);
        let v = ins.get::<VsefRuntime>(id).expect("tool");
        assert_eq!(v.detections().len(), 1);
        assert!(v.detections()[0]
            .detail
            .contains("tainted control transfer"));
    }

    #[test]
    fn vsef_overhead_is_tiny_versus_full_instrumentation() {
        // The paper's core overhead claim, at the accounting level: the
        // VSEF is charged only at its watched sites.
        let mut m = boot(SMASHER, b"ok\0\0");
        let store_pc = m.symbols.addr_of("smash").expect("smash");
        let mut ins = Instrumenter::new();
        ins.attach(Box::new(VsefRuntime::new(vec![
            VsefSpec::StoreSmashGuard { store_pc },
        ])));
        m.run(&mut ins, 10_000_000);
        let vsef_overhead = ins.pending_overhead();
        assert!(vsef_overhead <= 8, "one site, one visit: {vsef_overhead}");
    }
}
