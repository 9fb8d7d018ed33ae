//! Dynamic taint analysis (paper §3.2, third analysis step).
//!
//! The TaintCheck-style tool: bytes arriving from the network are tainted
//! with their `(connection, stream offset)` provenance; taint propagates
//! through data movement and arithmetic (per the resolved dataflow
//! effects of each instruction); using tainted data as a control-transfer
//! target — a return address or function pointer — raises an alert that
//! names the exact input bytes responsible, which is what drives input
//! signature generation and fast recovery.
//!
//! # Shadow
//!
//! Every location holds an optional shared [`TaintSet`], kept where
//! indexing is cheapest:
//!
//! - registers in an array indexed by register number;
//! - the flags in one slot;
//! - memory in 4 KiB shadow pages, one slot per guest byte, found by one
//!   lookup of the page number and an index into the page. A page is
//!   allocated when a byte in it is first tainted; clearing a byte on an
//!   unallocated page is a no-op.
//!
//! Untainted is `None` everywhere. `tests/taint_oracle.rs` checks the
//! tool against a `HashMap<Loc, TaintSet>` shadow.

use std::any::Any;
use std::collections::BTreeSet;
use std::sync::Arc;

use dbi::effects::{effects, Loc};
use dbi::tool::{Tool, Watch};
use svm::isa::{Op, NUM_REGS};
use svm::Machine;

use crate::addr::AddrMap;

/// Provenance of one tainted byte: `(connection id, stream offset)`.
pub type TaintSource = (u32, u32);

/// A set of input provenances (shared to keep propagation cheap).
pub type TaintSet = Arc<BTreeSet<TaintSource>>;

/// An alert: tainted data consumed as a control-transfer target.
#[derive(Debug, Clone)]
pub struct TaintAlert {
    /// The sink instruction (`ret`, `callr`, `jmpr`).
    pub pc: u32,
    /// The (attacker-controlled) target value.
    pub target: u32,
    /// The input bytes that produced it.
    pub sources: BTreeSet<TaintSource>,
}

/// Guest bytes per shadow page, as a power of two.
const PAGE_BITS: u32 = 12;
/// Guest bytes per shadow page.
const PAGE: usize = 1 << PAGE_BITS;

/// The taint of every location; see the module docs.
#[derive(Default)]
struct Shadow {
    regs: [Option<TaintSet>; NUM_REGS],
    flags: Option<TaintSet>,
    pages: AddrMap<Box<[Option<TaintSet>; PAGE]>>,
}

impl Shadow {
    fn get(&self, loc: Loc) -> Option<&TaintSet> {
        match loc {
            Loc::Reg(r) => self.regs.get(usize::from(r))?.as_ref(),
            Loc::Flags => self.flags.as_ref(),
            Loc::MemByte(a) => self.pages.get(&(a >> PAGE_BITS))?[a as usize % PAGE].as_ref(),
        }
    }

    fn insert(&mut self, loc: Loc, set: TaintSet) {
        let slot = match loc {
            Loc::Reg(r) => &mut self.regs[usize::from(r)],
            Loc::Flags => &mut self.flags,
            Loc::MemByte(a) => {
                let page = self
                    .pages
                    .entry(a >> PAGE_BITS)
                    .or_insert_with(|| Box::new([const { None }; PAGE]));
                &mut page[a as usize % PAGE]
            }
        };
        *slot = Some(set);
    }

    fn remove(&mut self, loc: Loc) {
        let slot = match loc {
            Loc::Reg(r) => self.regs.get_mut(usize::from(r)),
            Loc::Flags => Some(&mut self.flags),
            Loc::MemByte(a) => self
                .pages
                .get_mut(&(a >> PAGE_BITS))
                .map(|page| &mut page[a as usize % PAGE]),
        };
        if let Some(slot) = slot {
            *slot = None;
        }
    }
}

/// The dynamic taint analysis tool.
#[derive(Default)]
pub struct TaintTool {
    shadow: Shadow,
    alerts: Vec<TaintAlert>,
    /// Propagation log: pcs of instructions that moved taint (the raw
    /// material for taint-based VSEFs).
    prop_pcs: BTreeSet<u32>,
    /// Whether an alert stops the run ([`TaintTool::stopping`]).
    stop_on_alert: bool,
}

impl TaintTool {
    /// A fresh tool with an empty shadow that lets the run go on past
    /// its alerts (analysis replays, which read the whole attack).
    pub fn new() -> TaintTool {
        TaintTool::default()
    }

    /// A fresh tool whose alerts stop the run
    /// ([`Machine::request_stop`]): §4.2 sampling, where the tainted
    /// control transfer must not be followed into the attacker's code.
    pub fn stopping() -> TaintTool {
        TaintTool {
            stop_on_alert: true,
            ..TaintTool::default()
        }
    }

    /// Alerts raised so far.
    pub fn alerts(&self) -> &[TaintAlert] {
        &self.alerts
    }

    /// Pcs of every instruction that propagated taint.
    pub fn propagation_pcs(&self) -> &BTreeSet<u32> {
        &self.prop_pcs
    }

    /// Taint of a register.
    pub fn taint_of_reg(&self, reg: u8) -> BTreeSet<TaintSource> {
        self.taint_of(Loc::Reg(reg))
    }

    /// Union taint of a memory range (the pipeline queries the corrupt
    /// chunk header for heap attacks that never reach a control sink).
    pub fn taint_of_mem(&self, addr: u32, len: u32) -> BTreeSet<TaintSource> {
        let mut out = BTreeSet::new();
        for i in 0..len {
            if let Some(s) = self.shadow.get(Loc::MemByte(addr.wrapping_add(i))) {
                out.extend(s.iter().copied());
            }
        }
        out
    }

    fn taint_of(&self, loc: Loc) -> BTreeSet<TaintSource> {
        self.shadow
            .get(loc)
            .map(|s| s.as_ref().clone())
            .unwrap_or_default()
    }

    /// The union taint of `locs`: `None` when none is tainted, the one
    /// tainted location's set itself (shared, not copied) when exactly
    /// one is, and a fresh union only when two or more are.
    fn union_of(&self, locs: &[Loc]) -> Option<TaintSet> {
        let mut hits = locs.iter().filter_map(|&l| self.shadow.get(l));
        let first = hits.next()?;
        let Some(second) = hits.next() else {
            return Some(first.clone());
        };
        let mut u = BTreeSet::new();
        for s in [first, second].into_iter().chain(hits) {
            u.extend(s.iter().copied());
        }
        Some(Arc::new(u))
    }
}

impl Tool for TaintTool {
    fn name(&self) -> &str {
        "dynamic-taint"
    }

    fn watches(&self) -> Watch {
        Watch::All
    }

    fn insn_cost(&self) -> u64 {
        // Paper band: TaintCheck-class tools are ~20x-40x.
        40
    }

    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        let e = effects(m, op);
        // Sink check first: tainted control-transfer target.
        if let Some((loc, target)) = &e.indirect_target {
            let tainted = match loc {
                Loc::MemByte(a) => self.taint_of_mem(*a, 4),
                other => self.taint_of(*other),
            };
            if !tainted.is_empty() {
                self.alerts.push(TaintAlert {
                    pc,
                    target: *target,
                    sources: tainted,
                });
                if self.stop_on_alert {
                    m.request_stop();
                }
            }
        }
        // Propagate per value flow: each destination receives the union
        // of its own sources; destinations without a flow (or with
        // untainted sources) are cleared — a constant or kernel-produced
        // overwrite removes taint. Address registers and stack-pointer
        // bookkeeping are deliberately not flows (classic TaintCheck
        // policy); slicing covers those dependencies instead. `e` and its
        // flow lists live on the stack, so the heap is touched only by a
        // shadow page's first taint and by a union set built when two or
        // more sources of one flow are tainted.
        let mut propagated = false;
        for f in &e.flows {
            match self.union_of(&f.from) {
                Some(set) => {
                    propagated = true;
                    self.shadow.insert(f.to, set);
                }
                None => self.shadow.remove(f.to),
            }
        }
        if propagated {
            self.prop_pcs.insert(pc);
        }
        for w in &e.writes {
            if !e.flows.iter().any(|f| f.to == *w) {
                self.shadow.remove(*w);
            }
        }
    }

    fn on_input(&mut self, _m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        for i in 0..data.len() as u32 {
            let src: BTreeSet<TaintSource> = [(conn, stream_off + i)].into_iter().collect();
            self.shadow.insert(Loc::MemByte(addr + i), Arc::new(src));
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
    use svm::stdlib::LIB_ASM;
    use svm::Status;

    fn run_tainted(src: &str, input: &[u8]) -> (Machine, Instrumenter, dbi::ToolId) {
        let prog = assemble(src).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        m.net.push_connection(input.to_vec());
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(TaintTool::new()));
        m.run(&mut ins, 400_000_000);
        (m, ins, id)
    }

    #[test]
    fn input_bytes_are_tainted_and_copies_propagate() {
        let src = format!(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 16
    sys read
    movi r0, dst
    movi r1, buf
    call strcpy
    halt
.data
buf: .space 16
dst: .space 16
{LIB_ASM}
"
        );
        let (m, ins, id) = run_tainted(&src, b"abc");
        let t = ins.get::<TaintTool>(id).expect("tool");
        let dst = m.symbols.addr_of("dst").expect("dst");
        let taint = t.taint_of_mem(dst, 3);
        assert_eq!(taint, [(0u32, 0u32), (0, 1), (0, 2)].into_iter().collect());
        // The copy loop's pcs are recorded as propagators.
        assert!(!t.propagation_pcs().is_empty());
    }

    #[test]
    fn smashed_return_address_raises_alert_with_sources() {
        let src = "
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
    st [fp, 4], r1
    mov sp, fp
    pop fp
    ret
.data
buf: .space 8
"
        .to_string();
        let (m, ins, id) = run_tainted(&src, &0x6666_6666u32.to_le_bytes());
        assert!(matches!(m.status(), Status::Faulted(_)));
        let t = ins.get::<TaintTool>(id).expect("tool");
        let alert = t.alerts().first().expect("alert");
        assert_eq!(alert.target, 0x6666_6666);
        assert_eq!(
            alert.sources,
            [(0u32, 0u32), (0, 1), (0, 2), (0, 3)].into_iter().collect()
        );
        assert_eq!(m.symbols.resolve(alert.pc).expect("sym").name, "victim");
    }

    #[test]
    fn tainted_function_pointer_raises_alert() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r1, buf
    ld r1, [r1, 0]
    callr r1
    halt
.data
buf: .space 8
"
        .to_string();
        let (_m, ins, id) = run_tainted(&src, &0x7777_0000u32.to_le_bytes());
        let t = ins.get::<TaintTool>(id).expect("tool");
        assert_eq!(t.alerts().len(), 1);
        assert_eq!(t.alerts()[0].target, 0x7777_0000);
    }

    #[test]
    fn constants_clear_taint() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 4
    sys read
    movi r1, buf
    ld r3, [r1, 0]     ; r3 tainted
    movi r3, 9         ; overwritten by constant
    st [r1, 0], r3     ; buf overwritten by untainted value
    halt
.data
buf: .space 4
"
        .to_string();
        let (m, ins, id) = run_tainted(&src, b"zzzz");
        let t = ins.get::<TaintTool>(id).expect("tool");
        let buf = m.symbols.addr_of("buf").expect("buf");
        assert!(
            t.taint_of_mem(buf, 4).is_empty(),
            "constant store cleared taint"
        );
        assert!(t.taint_of_reg(3).is_empty());
    }

    #[test]
    fn arithmetic_unions_taint() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r1, buf
    ldb r3, [r1, 0]
    ldb r4, [r1, 5]
    add r5, r3, r4
    halt
.data
buf: .space 8
"
        .to_string();
        let (_m, ins, id) = run_tainted(&src, b"abcdefgh");
        let t = ins.get::<TaintTool>(id).expect("tool");
        assert_eq!(
            t.taint_of_reg(5),
            [(0u32, 0u32), (0, 5)].into_iter().collect()
        );
    }

    #[test]
    fn benign_control_flow_raises_no_alert() {
        let src = format!(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 16
    sys read
    movi r0, buf
    call strlen
    halt
.data
buf: .space 16
{LIB_ASM}
"
        );
        let (_m, ins, id) = run_tainted(&src, b"hello");
        let t = ins.get::<TaintTool>(id).expect("tool");
        assert!(t.alerts().is_empty(), "strlen's ret is untainted");
    }
}
