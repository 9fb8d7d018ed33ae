//! Full execution-trace recording for offline analysis.
//!
//! Dynamic backward slicing needs the complete dynamic dependency history
//! of the replayed window; the [`TraceRecorder`] tool captures one
//! [`TraceEntry`] per retired instruction plus the input-delivery and heap
//! events interleaved with them. The paper notes slicing costs
//! 100x-1000x — this is the expensive part, which is why it is only ever
//! attached to a *replay from a checkpoint*, never to live execution.
//!
//! # Layout
//!
//! A [`TraceEntry`] is 16 bytes: `pc`, the decoded `op` and `addr`, the
//! one memory address the op touches ([`mem_addr`]). Everything else a
//! consumer needs follows from those without the machine state: the
//! registers and memory lengths come from [`access`]`(op)`, and the
//! memory bytes from `addr`. Recording an instruction is one address
//! computation and one push, and a trace is two growing buffers (entries
//! and events).
//!
//! [`TraceRecorder::reads`], [`TraceRecorder::writes`] and
//! [`TraceRecorder::mem_write`] derive an entry's locations that way, as
//! lists; the slicer skips the lists and reads the [`access`] masks
//! directly.

use std::any::Any;

use svm::alloc::FreeKind;
use svm::isa::{Op, Syscall, NUM_REGS};
use svm::Machine;

use crate::effects::{access, mem_addr, Loc, FLAGS_BIT};
use crate::tool::{Tool, Watch};

/// One dynamic instruction in the trace. Its position in
/// [`TraceRecorder::entries`] is its dynamic index.
#[derive(Debug, Clone, Copy)]
pub struct TraceEntry {
    /// Program counter.
    pub pc: u32,
    /// Decoded instruction.
    pub op: Op,
    /// The memory address `op` read or wrote ([`mem_addr`]); 0 when it
    /// touched no memory.
    pub addr: u32,
}

const _: () = assert!(std::mem::size_of::<TraceEntry>() == 16);

/// A non-instruction event interleaved with the trace.
#[derive(Debug, Clone)]
pub enum TraceEvent {
    /// Input bytes delivered by a `read` syscall, *before* instruction
    /// `at_idx` retires its successor.
    Input {
        /// Dynamic index of the `sys read` instruction.
        at_idx: usize,
        /// Connection id.
        conn: u32,
        /// Offset of the first byte within the connection input stream.
        stream_off: u32,
        /// Guest buffer address the bytes were copied to.
        addr: u32,
        /// Number of bytes delivered.
        len: u32,
    },
    /// A guest allocation.
    Alloc {
        /// Dynamic index of the `sys alloc` instruction.
        at_idx: usize,
        /// Requested size.
        size: u32,
        /// Returned payload pointer.
        ptr: u32,
    },
    /// A guest free.
    Free {
        /// Dynamic index of the `sys free` instruction.
        at_idx: usize,
        /// Freed payload pointer.
        ptr: u32,
        /// Allocator's double-free verdict.
        kind: FreeKind,
    },
}

/// Records the complete dynamic trace of a (short) execution window.
#[derive(Default)]
pub struct TraceRecorder {
    /// Recorded instructions in execution order.
    pub entries: Vec<TraceEntry>,
    /// Interleaved non-instruction events.
    pub events: Vec<TraceEvent>,
}

impl TraceRecorder {
    /// An empty recorder.
    pub fn new() -> TraceRecorder {
        TraceRecorder::default()
    }

    /// Number of recorded instructions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The last recorded instruction, if any.
    pub fn last(&self) -> Option<&TraceEntry> {
        self.entries.last()
    }

    /// Locations instruction `i` read (its data dependencies):
    /// registers in ascending order, then the flags, then the memory
    /// bytes.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn reads(&self, i: usize) -> Vec<Loc> {
        let e = &self.entries[i];
        let acc = access(&e.op);
        locs(acc.reads, e.addr, acc.mem_read)
    }

    /// Locations instruction `i` wrote, in the order of
    /// [`TraceRecorder::reads`].
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn writes(&self, i: usize) -> Vec<Loc> {
        let e = &self.entries[i];
        let acc = access(&e.op);
        locs(acc.writes, e.addr, acc.mem_write)
    }

    /// Memory region instruction `i` wrote, as `(addr, len)`, if any.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn mem_write(&self, i: usize) -> Option<(u32, u32)> {
        let e = &self.entries[i];
        let len = access(&e.op).mem_write;
        (len > 0).then_some((e.addr, len))
    }
}

/// The locations an [`access`] mask and a memory range name.
fn locs(mask: u32, addr: u32, len: u32) -> Vec<Loc> {
    let regs = (0..NUM_REGS as u8).filter(|r| mask & (1 << r) != 0);
    let mut v: Vec<Loc> = regs.map(Loc::Reg).collect();
    if mask & FLAGS_BIT != 0 {
        v.push(Loc::Flags);
    }
    v.extend((0..len).map(|i| Loc::MemByte(addr.wrapping_add(i))));
    v
}

impl Tool for TraceRecorder {
    fn name(&self) -> &str {
        "trace-recorder"
    }

    fn watches(&self) -> Watch {
        Watch::All
    }

    fn insn_cost(&self) -> u64 {
        // Backward slicing's trace collection is the paper's costliest
        // tool: 100x-1000x. We charge 500 cycles per 1-cycle instruction.
        500
    }

    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        self.entries.push(TraceEntry {
            pc,
            op: *op,
            addr: mem_addr(m, op),
        });
    }

    fn on_input(&mut self, _m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        self.events.push(TraceEvent::Input {
            at_idx: self.entries.len().saturating_sub(1),
            conn,
            stream_off,
            addr,
            len: data.len() as u32,
        });
    }

    fn on_alloc(&mut self, _m: &Machine, _pc: u32, size: u32, ptr: u32) {
        self.events.push(TraceEvent::Alloc {
            at_idx: self.entries.len().saturating_sub(1),
            size,
            ptr,
        });
    }

    fn on_free(&mut self, _m: &Machine, _pc: u32, ptr: u32, kind: FreeKind) {
        self.events.push(TraceEvent::Free {
            at_idx: self.entries.len().saturating_sub(1),
            ptr,
            kind,
        });
    }

    fn on_syscall(&mut self, _m: &Machine, _pc: u32, _sc: Syscall, _args: [u32; 4], _ret: u32) {}

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
    use crate::instr::Instrumenter;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::Status;

    #[test]
    fn records_instructions_with_effects() {
        let prog = assemble(
            ".text\nmain:\n movi r1, buf\n movi r2, 5\n st [r1, 0], r2\n halt\n.data\nbuf: .space 8\n",
        )
        .expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(TraceRecorder::new()));
        assert!(matches!(m.run(&mut ins, 1_000_000), Status::Halted(_)));
        let tr = ins.get::<TraceRecorder>(id).expect("tool");
        assert_eq!(tr.len(), 4);
        let st = &tr.entries[2];
        assert!(matches!(st.op, Op::St { .. }));
        let buf = m.symbols.addr_of("buf").expect("buf");
        assert_eq!(tr.mem_write(2), Some((buf, 4)));
        assert_eq!(tr.reads(2), [Loc::Reg(1), Loc::Reg(2)]);
        let bytes: Vec<Loc> = (0..4).map(|i| Loc::MemByte(buf + i)).collect();
        assert_eq!(tr.writes(2), bytes);
        assert!(matches!(tr.last().map(|e| e.op), Some(Op::Halt)));
        assert!(tr.reads(3).is_empty() && tr.writes(3).is_empty());
    }

    #[test]
    fn records_input_and_heap_events_in_order() {
        let prog = assemble(
            "
.text
main:
    sys accept
    mov r4, r0
    movi r1, buf
    movi r2, 16
    sys read
    movi r0, 32
    sys alloc
    sys free
    halt
.data
buf: .space 16
",
        )
        .expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        m.net.push_connection(b"abc".to_vec());
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(TraceRecorder::new()));
        assert!(matches!(m.run(&mut ins, 10_000_000), Status::Halted(_)));
        let tr = ins.get::<TraceRecorder>(id).expect("tool");
        assert_eq!(tr.events.len(), 3);
        match &tr.events[0] {
            TraceEvent::Input {
                stream_off: 0,
                len: 3,
                ..
            } => {}
            other => panic!("{other:?}"),
        }
        assert!(matches!(tr.events[1], TraceEvent::Alloc { size: 32, .. }));
        assert!(matches!(
            tr.events[2],
            TraceEvent::Free {
                kind: FreeKind::Normal,
                ..
            }
        ));
        // Alloc event is attributed to a later dynamic index than input.
        let (a, b) = match (&tr.events[0], &tr.events[1]) {
            (TraceEvent::Input { at_idx: a, .. }, TraceEvent::Alloc { at_idx: b, .. }) => (*a, *b),
            _ => unreachable!(),
        };
        assert!(a < b);
    }

    #[test]
    fn trace_cost_is_heavyweight() {
        let t = TraceRecorder::new();
        assert!(
            t.insn_cost() >= 100,
            "slicing-grade instrumentation must be expensive"
        );
        assert!(t.is_empty());
    }
}
