//! Dynamic memory-bug detection (paper §3.2, second analysis step).
//!
//! Attached to a *replay from a checkpoint*, the detector watches for the
//! three bug classes the paper targets: stack smashing (writes to
//! recorded return-address slots), heap overflow (writes outside any
//! live chunk's payload, via the allocator's own inline metadata — the
//! "modified red-zone technique"), and double free. Pre-existing state is
//! inferred exactly as the paper describes: stack frames from the frame
//! pointer, heap buffers from the boundary tags in the checkpoint image.

use std::any::Any;
use std::collections::BTreeMap;

use dbi::tool::{Tool, Watch};
use svm::alloc::FreeKind;
use svm::isa::Op;
use svm::Machine;

use crate::callstack::ShadowStack;

/// The kind of memory bug found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemBugKind {
    /// A write landed on a recorded return-address slot.
    StackSmash,
    /// A write landed outside every live chunk payload (metadata or
    /// unallocated heap space).
    HeapOverflow,
    /// `free` of an already-free pointer.
    DoubleFree,
    /// A write into a freed chunk's payload.
    DanglingWrite,
}

/// One detected memory bug.
#[derive(Debug, Clone)]
pub struct MemBugFinding {
    /// Bug class.
    pub kind: MemBugKind,
    /// The instruction (or allocator callsite) responsible.
    pub pc: u32,
    /// The address or pointer involved.
    pub addr: u32,
    /// A pc inside the calling function, for one-frame-up attribution.
    pub caller_pc: Option<u32>,
}

/// The memory-bug detection tool.
pub struct MemBugDetector {
    shadow: ShadowStack,
    /// Live chunks: payload start -> payload length.
    live: BTreeMap<u32, u32>,
    /// Freed chunks: payload start -> payload length.
    freed: BTreeMap<u32, u32>,
    /// Watched return-address slots: slot -> owning function entry.
    ret_slots: BTreeMap<u32, u32>,
    /// Heap region bounds.
    heap: (u32, u32),
    /// Current break (writes between live chunks and brk are overflows;
    /// writes past brk into the mapped-but-virgin region are too).
    findings: Vec<MemBugFinding>,
}

impl MemBugDetector {
    /// Create a detector, seeding pre-existing state from the machine
    /// image (the state at the checkpoint being replayed).
    pub fn attach_to(m: &Machine) -> MemBugDetector {
        let mut live = BTreeMap::new();
        let mut freed = BTreeMap::new();
        // Paper: "Buffers allocated prior to the checkpoint are inferred
        // from the memory image at the checkpoint."
        let (chunks, _ok) = m.heap.walk(&m.mem);
        for (c, size, in_use) in chunks {
            let pay = c + svm::alloc::HEADER_SIZE;
            let len = size - svm::alloc::HEADER_SIZE;
            if in_use {
                live.insert(pay, len);
            } else {
                freed.insert(pay, len);
            }
        }
        // Paper: "Pre-existing stack frames are inferred from the stack
        // frame base pointer register (ebp)."
        let mut ret_slots = BTreeMap::new();
        let mut fp = m.cpu.fp();
        let stack_base = m.layout.stack_top - m.layout.stack_size;
        for _ in 0..64 {
            if fp < stack_base || fp >= m.layout.stack_top - 16 || !fp.is_multiple_of(4) {
                break;
            }
            let Ok(saved) = m.mem.read_u32(0, fp) else {
                break;
            };
            let Ok(ret) = m.mem.read_u32(0, fp + 4) else {
                break;
            };
            if !m.symbols.in_bounds(ret) || saved <= fp {
                break;
            }
            ret_slots.insert(fp + 4, 0);
            fp = saved;
        }
        MemBugDetector {
            shadow: ShadowStack::new(),
            live,
            freed,
            ret_slots,
            heap: (m.layout.heap_base, m.layout.heap_base + m.layout.heap_size),
            findings: Vec::new(),
        }
    }

    /// All findings so far, in detection order.
    pub fn findings(&self) -> &[MemBugFinding] {
        &self.findings
    }

    fn in_heap(&self, addr: u32) -> bool {
        addr >= self.heap.0 && addr < self.heap.1
    }

    /// Whether `addr` is inside a map entry's payload.
    fn containing(map: &BTreeMap<u32, u32>, addr: u32) -> Option<(u32, u32)> {
        map.range(..=addr).next_back().and_then(|(&pay, &len)| {
            if addr < pay + len {
                Some((pay, len))
            } else {
                None
            }
        })
    }

    fn record(&mut self, kind: MemBugKind, pc: u32, addr: u32) {
        Self::record_into(&mut self.findings, &self.shadow, kind, pc, addr);
    }

    /// [`Self::record`] over disjoint fields, so a caller can record
    /// while it walks one of the watch maps.
    fn record_into(
        findings: &mut Vec<MemBugFinding>,
        shadow: &ShadowStack,
        kind: MemBugKind,
        pc: u32,
        addr: u32,
    ) {
        // One finding per (kind, pc): a copy loop revisits the same
        // overflowing store thousands of times.
        if findings.iter().any(|f| f.kind == kind && f.pc == pc) {
            return;
        }
        let caller_pc = shadow.caller_pc();
        findings.push(MemBugFinding {
            kind,
            pc,
            addr,
            caller_pc,
        });
    }
}

impl Tool for MemBugDetector {
    fn name(&self) -> &str {
        "memory-bug-detector"
    }

    fn watches(&self) -> Watch {
        Watch::All
    }

    fn insn_cost(&self) -> u64 {
        // Paper band: memory-bug detection is ~20x-40x.
        25
    }

    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {}

    fn on_mem_write(&mut self, _m: &Machine, pc: u32, addr: u32, size: u8, _val: u32) {
        // Stack smashing: does this write overlap a watched ret slot?
        let lo = addr;
        let hi = addr.wrapping_add(size as u32);
        for (&slot, _) in self.ret_slots.range(lo.saturating_sub(3)..hi) {
            if lo < slot + 4 && slot < hi {
                Self::record_into(
                    &mut self.findings,
                    &self.shadow,
                    MemBugKind::StackSmash,
                    pc,
                    slot,
                );
            }
        }
        // Heap discipline: writes inside the heap must hit a live payload.
        if self.in_heap(addr) {
            if Self::containing(&self.live, addr).is_some() {
                return;
            }
            if Self::containing(&self.freed, addr).is_some() {
                self.record(MemBugKind::DanglingWrite, pc, addr);
            } else {
                self.record(MemBugKind::HeapOverflow, pc, addr);
            }
        }
    }

    fn on_call(&mut self, _m: &Machine, _pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.shadow.push(target, ret_addr, sp);
        self.ret_slots.insert(sp, target);
    }

    fn on_ret(&mut self, _m: &Machine, _pc: u32, _ret_target: u32, sp: u32) {
        self.shadow.pop_to(sp);
        // Retire every watched slot at or below the popped one: they are
        // the lowest keys, so remove them in place from the front.
        while let Some(slot) = self.ret_slots.first_entry() {
            if *slot.key() > sp {
                break;
            }
            slot.remove();
        }
    }

    fn on_alloc(&mut self, _m: &Machine, _pc: u32, size: u32, ptr: u32) {
        // Chunk payloads may be larger than the request after first-fit
        // reuse; track the requested size (red zone starts right after).
        self.freed.remove(&ptr);
        // Remove any freed entry this allocation carves into, lowest
        // first, re-probing the range after each removal.
        let carved = ptr..ptr + size.max(16);
        while let Some((&s, _)) = self.freed.range(carved.clone()).next() {
            self.freed.remove(&s);
        }
        self.live.insert(ptr, size.max(16));
    }

    fn on_free(&mut self, _m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        if kind == FreeKind::DoubleFree || !self.live.contains_key(&ptr) {
            self.record(MemBugKind::DoubleFree, pc, ptr);
        }
        if let Some(len) = self.live.remove(&ptr) {
            self.freed.insert(ptr, len);
        } else {
            self.freed.entry(ptr).or_insert(16);
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
    use svm::Machine;

    fn run_with_detector2(src: &str, input: &[u8]) -> (Machine, Vec<MemBugFinding>) {
        let prog = assemble(src).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        m.net.push_connection(input.to_vec());
        let det = MemBugDetector::attach_to(&m);
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(det));
        m.run(&mut ins, 400_000_000);
        let findings = ins
            .get::<MemBugDetector>(id)
            .expect("tool")
            .findings()
            .to_vec();
        (m, findings)
    }

    fn first_of(findings: &[MemBugFinding], kind: MemBugKind) -> Option<&MemBugFinding> {
        findings.iter().find(|f| f.kind == kind)
    }

    #[test]
    fn detects_stack_smash_with_store_pc() {
        let src = format!(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 64
    sys read
    call victim
    halt
victim:
    push fp
    mov fp, sp
    movi r1, buf
    ld r1, [r1, 0]
overwrite:
    st [fp, 4], r1
    mov sp, fp
    pop fp
    ret
.data
buf: .space 64
{LIB_ASM}
"
        );
        let (m, det) = run_with_detector2(&src, &0x6666_6666u32.to_le_bytes());
        let f = first_of(&det, MemBugKind::StackSmash).expect("finding");
        assert_eq!(m.symbols.resolve(f.pc).expect("sym").name, "overwrite");
        // Caller attribution: victim was called from main.
        let caller = f.caller_pc.expect("caller");
        assert_eq!(m.symbols.resolve(caller).expect("sym").name, "main");
    }

    #[test]
    fn detects_heap_overflow_in_strcat_with_caller() {
        // A strcat overflowing a heap buffer — the Squid pattern.
        let src = format!(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 128
    sys read
    call build
    halt
build:
    push r4
    movi r0, 16
    call malloc
    mov r4, r0
    movi r0, 16
    call malloc
    mov r0, r4
    movi r1, buf
    call strcat
    pop r4
    ret
.data
buf: .space 136
{LIB_ASM}
.lib
malloc:
    sys alloc
    ret
free:
    sys free
    ret
"
        );
        let long = vec![b'Z'; 64];
        let (m, det) = run_with_detector2(&src, &long);
        let f = first_of(&det, MemBugKind::HeapOverflow).expect("finding");
        assert_eq!(m.symbols.resolve(f.pc).expect("sym").name, "strcat_copy");
        let caller = f.caller_pc.expect("caller");
        assert_eq!(m.symbols.resolve(caller).expect("sym").name, "build");
    }

    #[test]
    fn detects_double_free_at_callsite() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    call doit
    halt
doit:
    movi r0, 32
    call malloc
    mov r4, r0
    mov r0, r4
    call free
    mov r0, r4
    call free
    ret
.lib
malloc:
    sys alloc
    ret
free:
    sys free
    ret
.data
buf: .space 8
"
        .to_string();
        let (m, det) = run_with_detector2(&src, b"x");
        let f = first_of(&det, MemBugKind::DoubleFree).expect("finding");
        assert_eq!(m.symbols.resolve(f.pc).expect("sym").name, "free");
        let caller = f.caller_pc.expect("caller");
        assert_eq!(m.symbols.resolve(caller).expect("sym").name, "doit");
        assert_eq!(
            det.iter()
                .filter(|f| f.kind == MemBugKind::DoubleFree)
                .count(),
            1
        );
    }

    #[test]
    fn detects_dangling_write() {
        let src = "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 8
    sys read
    movi r0, 32
    sys alloc
    mov r4, r0
    mov r0, r4
    sys free
    movi r1, 7
    st [r4, 0], r1
    halt
.data
buf: .space 8
"
        .to_string();
        let (_m, det) = run_with_detector2(&src, b"x");
        assert!(first_of(&det, MemBugKind::DanglingWrite).is_some());
        assert!(
            first_of(&det, MemBugKind::HeapOverflow).is_none(),
            "not misclassified"
        );
    }

    #[test]
    fn benign_execution_has_no_findings() {
        let src = format!(
            "
.text
main:
    sys accept
    movi r1, buf
    movi r2, 16
    sys read
    movi r0, 32
    sys alloc
    mov r4, r0
    mov r0, r4
    movi r1, buf
    call strcpy
    mov r0, r4
    sys free
    call helper
    halt
helper:
    push fp
    mov fp, sp
    movi r1, 5
    st [fp, -4], r1
    mov sp, fp
    pop fp
    ret
.data
buf: .space 24
{LIB_ASM}
"
        );
        let (_m, det) = run_with_detector2(&src, b"short");
        assert!(det.is_empty(), "{det:?}");
    }
}
