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
//! Slicing needs only each instruction's resolved read and write
//! locations, so the recorder keeps just those, not the full
//! [`Effects`](crate::effects::Effects). Every instruction appends its
//! reads and then its writes to one flat `Vec<Loc>` arena; its
//! [`TraceEntry`] holds `pc`, `op`, `mem_write` and three offsets into
//! that arena:
//!
//! ```text
//! locs:   [ r0 r0 | w0 | r1 | w1 w1 w1 w1 | ... ]
//!           ^start  ^mid ^end = start of entry 1
//! ```
//!
//! [`TraceRecorder::reads`] and [`TraceRecorder::writes`] return the two
//! slices of entry `i`. A trace is then two growing buffers instead of
//! several `Vec`s per instruction, and dropping it is two frees.

use std::any::Any;

use svm::alloc::FreeKind;
use svm::isa::{Op, Syscall};
use svm::Machine;

use crate::effects::{effects, Loc};
use crate::tool::{Tool, Watch};

/// One dynamic instruction in the trace. Its position in
/// [`TraceRecorder::entries`] is its dynamic index.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Program counter.
    pub pc: u32,
    /// Decoded instruction.
    pub op: Op,
    /// Memory region written, as `(addr, len)`, if any.
    pub mem_write: Option<(u32, u32)>,
    /// Arena offset of the first read location.
    start: usize,
    /// Arena offset of the first write location (one past the reads).
    mid: usize,
    /// One past the last write location.
    end: usize,
}

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
    /// Read and write locations of every entry, back to back.
    locs: Vec<Loc>,
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

    /// Locations instruction `i` read (its data dependencies).
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn reads(&self, i: usize) -> &[Loc] {
        let e = &self.entries[i];
        &self.locs[e.start..e.mid]
    }

    /// Locations instruction `i` wrote.
    ///
    /// # Panics
    ///
    /// If `i` is out of range.
    pub fn writes(&self, i: usize) -> &[Loc] {
        let e = &self.entries[i];
        &self.locs[e.mid..e.end]
    }
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
        let e = effects(m, op);
        let start = self.locs.len();
        self.locs.extend_from_slice(&e.reads);
        let mid = self.locs.len();
        self.locs.extend_from_slice(&e.writes);
        self.entries.push(TraceEntry {
            pc,
            op: *op,
            mem_write: e.mem_write,
            start,
            mid,
            end: self.locs.len(),
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
        assert_eq!(st.mem_write, Some((buf, 4)));
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
