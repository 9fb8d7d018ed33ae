//! Dynamic backward slicing (paper §3.2, final analysis step).
//!
//! From a full execution trace, compute the set of dynamic instructions
//! that influenced a criterion instruction — data dependencies through
//! registers, memory bytes, and flags, plus (optionally) control
//! dependencies on the most recent branch. The paper uses the slice as a
//! *sanity check*: any instruction another tool blames must appear in the
//! slice; a finding outside the slice means that tool is wrong. Unlike
//! taint analysis, the slice also captures control and pointer-indirection
//! influences (the paper's `z = x` example).
//!
//! # Algorithm
//!
//! [`backward_slice`] makes one backward pass over the trace, from the
//! criterion down to index 0. It keeps a *demand set*: the locations some
//! slice member reads whose writer has not been reached yet. Registers
//! and the flags are one bitmask, in the layout of
//! [`dbi::effects::access`]; memory bytes are an integer-keyed hash set.
//! At each index, in this order:
//!
//! 1. input events recorded there, latest first, turn each demanded byte
//!    they delivered into an input dependency and drop it from the set;
//! 2. the instruction joins the slice if it writes a demanded location,
//!    and its writes leave the set;
//! 3. with control dependencies on, a branch joins regardless: every
//!    member depends on the nearest earlier branch, and a branch is a
//!    member, so the chain reaches every branch before the criterion;
//! 4. a member's reads join the set.
//!
//! Each step reads the entry's [`access`] masks and its memory range
//! `addr .. addr + len` directly: a register step is one AND and one OR,
//! and no per-entry location list is built. The memory set holds only
//! demanded bytes, so its size follows the slice, not the guest's
//! address span.
//!
//! Without control dependencies the pass stops once nothing is demanded.
//! It is the last-writer relation of a forward pass, resolved lazily, so
//! nothing is allocated per trace entry. The forward-pass and worklist
//! formulation it replaced is kept as the test oracle in
//! `tests/slice_oracle.rs`.

use std::collections::BTreeSet;

use dbi::effects::access;
use dbi::trace::{TraceEvent, TraceRecorder};
use svm::isa::Op;

use crate::addr::AddrSet;

/// A computed backward slice.
#[derive(Debug, Clone, Default)]
pub struct Slice {
    /// Dynamic trace indices in the slice.
    pub indices: BTreeSet<usize>,
    /// Static pcs covered by the slice.
    pub pcs: BTreeSet<u32>,
    /// Input bytes `(conn, stream offset)` the criterion depends on.
    pub input_deps: BTreeSet<(u32, u32)>,
}

impl Slice {
    /// Whether a static pc appears in the slice — the cross-tool
    /// verification primitive.
    pub fn contains_pc(&self, pc: u32) -> bool {
        self.pcs.contains(&pc)
    }

    /// Number of dynamic instructions in the slice.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// Whether the slice is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Locations demanded by the slice built so far.
#[derive(Default)]
struct Demand {
    /// Registers and flags, as an [`access`] mask.
    regs: u32,
    mem: AddrSet,
}

impl Demand {
    fn insert_mem(&mut self, addr: u32, len: u32) {
        for i in 0..len {
            self.mem.insert(addr.wrapping_add(i));
        }
    }

    /// Drop the bytes `addr .. addr + len`; whether any was demanded.
    fn remove_mem(&mut self, addr: u32, len: u32) -> bool {
        if self.mem.is_empty() {
            return false;
        }
        let mut hit = false;
        for i in 0..len {
            hit |= self.mem.remove(&addr.wrapping_add(i));
        }
        hit
    }

    fn is_empty(&self) -> bool {
        self.regs == 0 && self.mem.is_empty()
    }
}

/// Compute the backward slice of the trace from `criterion` (a dynamic
/// instruction index). `include_control` adds control dependencies: each
/// instruction depends on the most recent conditional/indirect branch
/// before it.
pub fn backward_slice(trace: &TraceRecorder, criterion: usize, include_control: bool) -> Slice {
    if criterion >= trace.len() {
        return Slice::default();
    }
    // Input events strictly before the criterion, in recording order
    // (ascending `at_idx`); the pass consumes them from the back.
    let mut inputs: Vec<_> = trace
        .events
        .iter()
        .filter_map(|ev| match *ev {
            TraceEvent::Input {
                at_idx,
                conn,
                stream_off,
                addr,
                len,
            } if at_idx < criterion => Some((at_idx, conn, stream_off, addr, len)),
            _ => None,
        })
        .collect();

    let mut demand = Demand::default();
    let mut members = vec![criterion];
    let mut input_deps = Vec::new();
    let crit = &trace.entries[criterion];
    let acc = access(&crit.op);
    demand.regs = acc.reads;
    demand.insert_mem(crit.addr, acc.mem_read);
    for idx in (0..criterion).rev() {
        if !include_control && demand.is_empty() {
            break;
        }
        while let Some(&(at, conn, off, addr, len)) = inputs.last() {
            if at != idx {
                break;
            }
            inputs.pop();
            for i in 0..len {
                if demand.mem.remove(&addr.wrapping_add(i)) {
                    input_deps.push((conn, off + i));
                }
            }
        }
        let e = &trace.entries[idx];
        let acc = access(&e.op);
        let mut joined = include_control && is_branch(&e.op);
        joined |= demand.regs & acc.writes != 0;
        demand.regs &= !acc.writes;
        joined |= demand.remove_mem(e.addr, acc.mem_write);
        if joined {
            members.push(idx);
            demand.regs |= acc.reads;
            demand.insert_mem(e.addr, acc.mem_read);
        }
    }

    // `members` is descending and duplicate-free: build each set in one
    // sorted bulk step.
    members.reverse();
    let pcs = members.iter().map(|&i| trace.entries[i].pc).collect();
    Slice {
        indices: members.into_iter().collect(),
        pcs,
        input_deps: input_deps.into_iter().collect(),
    }
}

/// Branches later instructions are control-dependent on.
fn is_branch(op: &Op) -> bool {
    matches!(
        op,
        Op::JCond { .. } | Op::JmpR { .. } | Op::CallR { .. } | Op::Ret
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbi::instr::Instrumenter;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::{Machine, NopHook, Status};

    fn trace_of(src: &str, input: Option<&[u8]>) -> (Machine, TraceRecorder) {
        let prog = assemble(src).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        if let Some(i) = input {
            m.net.push_connection(i.to_vec());
        }
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(TraceRecorder::new()));
        m.run(&mut ins, 400_000_000);
        let tool = ins.detach(id).expect("tool");
        // Move the recorder out of the box via Any.
        let mut holder: Option<TraceRecorder> = None;
        let mut boxed = tool;
        if let Some(tr) = boxed.as_any_mut().downcast_mut::<TraceRecorder>() {
            holder = Some(std::mem::take(tr));
        }
        (m, holder.expect("downcast"))
    }

    #[test]
    fn slice_follows_data_deps_and_skips_irrelevant() {
        // r5 depends on r3 (and buf load); r7 is irrelevant.
        let src = "
.text
main:
    movi r3, 5
    movi r7, 9
    addi r7, r7, 1
    add r5, r3, r3
    halt
";
        let (_m, tr) = trace_of(src, None);
        // Criterion: the `add r5, r3, r3` (index 3).
        let s = backward_slice(&tr, 3, false);
        assert!(s.indices.contains(&3));
        assert!(s.indices.contains(&0), "movi r3 is a dep");
        assert!(!s.indices.contains(&1), "movi r7 is not");
        assert!(!s.indices.contains(&2), "addi r7 is not");
    }

    #[test]
    fn slice_tracks_memory_deps() {
        let src = "
.text
main:
    movi r1, v
    movi r2, 42
    st [r1, 0], r2
    movi r2, 0
    ld r3, [r1, 0]
    halt
.data
v: .word 0
";
        let (_m, tr) = trace_of(src, None);
        let s = backward_slice(&tr, 4, false);
        assert!(s.indices.contains(&2), "the store feeding the load");
        assert!(s.indices.contains(&1), "the stored value's producer");
        assert!(!s.indices.contains(&3), "clobbering r2 later is irrelevant");
    }

    #[test]
    fn control_deps_capture_what_taint_misses() {
        // The paper's example: the branch condition influences the result
        // even though no data flows from it.
        let src = "
.text
main:
    movi r1, 0          ; w
    cmpi r1, 0
    jz take_i
    movi r5, 111
    jmp done
take_i:
    movi r5, 222
done:
    mov r6, r5
    halt
";
        let (_m, tr) = trace_of(src, None);
        let crit = tr.entries.len() - 2; // mov r6, r5
        let without = backward_slice(&tr, crit, false);
        let with = backward_slice(&tr, crit, true);
        // Pure data slice misses the compare/branch; control slice has it.
        let jz_idx = 2;
        assert!(!without.indices.contains(&jz_idx));
        assert!(with.indices.contains(&jz_idx), "branch in control slice");
        assert!(with.indices.contains(&1), "cmp feeding the branch");
        assert!(with.indices.contains(&0), "w's producer");
        assert!(with.len() > without.len());
    }

    #[test]
    fn input_deps_surface_responsible_bytes() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r1, buf
    ldb r3, [r1, 2]
    add r4, r3, r3
    halt
.data
buf: .space 8
";
        let (_m, tr) = trace_of(src, Some(b"abcdef"));
        let crit = tr.entries.len() - 2; // add r4
        let s = backward_slice(&tr, crit, false);
        assert_eq!(
            s.input_deps,
            [(0u32, 2u32)].into_iter().collect(),
            "exactly byte 2"
        );
    }

    #[test]
    fn criterion_out_of_range_is_empty() {
        let (_m, tr) = trace_of(".text\nmain:\n halt\n", None);
        assert!(backward_slice(&tr, 99, true).is_empty());
    }

    #[test]
    fn faulting_instruction_is_traced_and_sliceable() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r1, buf
    ld r1, [r1, 0]
    ld r2, [r1, 0]      ; wild read from attacker pointer
    halt
.data
buf: .space 8
";
        let (m, tr) = trace_of(src, Some(&0x5555_0000u32.to_le_bytes()));
        assert!(matches!(m.status(), Status::Faulted(_)));
        // The faulting instruction is the last trace entry.
        let crit = tr.entries.len() - 1;
        let s = backward_slice(&tr, crit, true);
        assert_eq!(
            s.input_deps.len(),
            4,
            "all four pointer bytes: {:?}",
            s.input_deps
        );
        let _ = NopHook; // Silence unused import in some cfgs.
    }
}
