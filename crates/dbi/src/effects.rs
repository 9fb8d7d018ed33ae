//! Per-instruction dataflow effects.
//!
//! Given the pre-execution machine state and a decoded instruction, compute
//! exactly which registers, memory bytes, and flags the instruction reads
//! and writes. Taint analysis and dynamic backward slicing are both just
//! folds over these effect sets, which is why they live here in the
//! instrumentation layer rather than in each tool.
//!
//! Two decoders share one view of the ISA:
//!
//! - [`effects`] resolves everything, value flows and indirect targets
//!   included. It runs once per instruction under taint analysis, and at
//!   every watched pc under a VSEF runtime.
//! - [`access`] is the compact, state-free part: register reads and
//!   writes as bitmasks ([`FLAGS_BIT`] stands for the flags) and the
//!   lengths of the memory read and write. Together with the one address
//!   the op touches, [`mem_addr`], it names the same locations as
//!   [`Effects::reads`] and [`Effects::writes`]; the trace recorder keeps
//!   only that address, and the slicer works on the masks.
//!
//! [`effects`] takes its own address from [`mem_addr`] as well. It does
//! not allocate: every list in [`Effects`] and [`Flow`] is an [`Inline`]
//! array sized to the ISA's worst case, and both types are `Copy`. The
//! capacities are exact maxima, not guesses, because no instruction
//! touches more than one 4-byte word of memory:
//!
//! - [`MAX_READS`] = 5: `ld`/`ldb` read a base register plus up to 4
//!   bytes, `ret`/`pop` read SP plus 4 bytes, and `sys` reads r0–r3;
//! - [`MAX_WRITES`] = 5: `call`/`callr`/`push` write SP plus 4 bytes;
//! - [`MAX_FLOWS`] = 4: `st`/`push` have one flow per stored byte;
//! - [`MAX_SOURCES`] = 4: `ld`/`pop` compute from 4 loaded bytes.
//!
//! A push past a capacity would be a bug in [`effects`] and panics on the
//! bounds check; `tests/effects_oracle.rs` checks every op against the
//! earlier heap-allocated decoder, element for element, and [`access`]
//! against [`effects`], location set for location set.

use core::fmt;
use core::ops::Deref;

use svm::isa::{Op, Reg, NUM_REGS};
use svm::Machine;

/// Most locations one instruction reads.
pub const MAX_READS: usize = 5;
/// Most locations one instruction writes.
pub const MAX_WRITES: usize = 5;
/// Most value flows one instruction has.
pub const MAX_FLOWS: usize = 4;
/// Most source locations one value flow has.
pub const MAX_SOURCES: usize = 4;

/// A list of at most `N` items stored inline, in insertion order.
///
/// Unused slots hold `T::default()` and are never observed: the list
/// dereferences, compares and prints as the slice of its `len` items.
#[derive(Clone, Copy)]
pub struct Inline<T, const N: usize> {
    len: u8,
    items: [T; N],
}

impl<T: Copy + Default, const N: usize> Default for Inline<T, N> {
    fn default() -> Self {
        Inline {
            len: 0,
            items: [T::default(); N],
        }
    }
}

impl<T, const N: usize> Inline<T, N> {
    /// Append `v`.
    ///
    /// # Panics
    ///
    /// If the list already holds `N` items.
    pub fn push(&mut self, v: T) {
        self.items[self.len as usize] = v;
        self.len += 1;
    }
}

impl<T, const N: usize> Deref for Inline<T, N> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.items[..self.len as usize]
    }
}

impl<'a, T, const N: usize> IntoIterator for &'a Inline<T, N> {
    type Item = &'a T;
    type IntoIter = core::slice::Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for Inline<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for Inline<T, N> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl<T: Eq, const N: usize> Eq for Inline<T, N> {}

/// A dataflow location.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Loc {
    /// A general-purpose register.
    Reg(u8),
    /// One byte of guest memory.
    MemByte(u32),
    /// The comparison flags (also the filler of unused [`Inline`] slots).
    #[default]
    Flags,
}

/// One value flow: `to` receives a value computed from `from`.
///
/// Flows are the *taint-relevant* subset of the dependency structure:
/// address computations and stack-pointer bookkeeping appear in
/// [`Effects::reads`]/[`Effects::writes`] (so slicing sees pointer
/// indirection, per the paper's taint-vs-slicing example) but not here.
/// A written location covered by no flow receives a constant-derived
/// value (taint must be cleared).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flow {
    /// Source locations the value is computed from.
    pub from: Inline<Loc, MAX_SOURCES>,
    /// Destination location.
    pub to: Loc,
}

/// The resolved effects of one dynamic instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Effects {
    /// Locations read (data dependencies).
    pub reads: Inline<Loc, MAX_READS>,
    /// Locations written.
    pub writes: Inline<Loc, MAX_WRITES>,
    /// Per-destination value flows (taint propagation rules).
    pub flows: Inline<Flow, MAX_FLOWS>,
    /// Memory region written, as `(addr, len)`, if any (convenience for
    /// bounds-checking tools; bytes also appear in `writes`).
    pub mem_write: Option<(u32, u32)>,
    /// Memory region read, as `(addr, len)`, if any.
    pub mem_read: Option<(u32, u32)>,
    /// Control-flow target read from a register or memory, if this is an
    /// indirect transfer (`jmpr`/`callr`/`ret`) — the hijack sinks.
    pub indirect_target: Option<(Loc, u32)>,
    /// Whether the instruction conditionally branches on the flags.
    pub reads_flags: bool,
}

/// Bit of [`Access::reads`] and [`Access::writes`] that stands for the
/// comparison flags; bit `r` below it stands for register `r`.
pub const FLAGS_BIT: u32 = 1 << NUM_REGS;

const _: () = assert!(NUM_REGS < 32);

/// What one instruction touches, independent of machine state: the
/// registers as bitmasks and the memory as lengths at [`mem_addr`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Access {
    /// Registers read, one bit each, plus [`FLAGS_BIT`].
    pub reads: u32,
    /// Registers written, one bit each, plus [`FLAGS_BIT`].
    pub writes: u32,
    /// Bytes read from memory at [`mem_addr`] (0: none).
    pub mem_read: u32,
    /// Bytes written to memory at [`mem_addr`] (0: none).
    pub mem_write: u32,
}

/// The registers and memory lengths `op` reads and writes.
pub fn access(op: &Op) -> Access {
    let bit = |r: Reg| 1u32 << r.0;
    let sp = bit(Reg::SP);
    let regs = |reads, writes| Access {
        reads,
        writes,
        ..Access::default()
    };
    match *op {
        Op::Nop | Op::Halt | Op::Jmp { .. } => Access::default(),
        Op::MovI { rd, .. } => regs(0, bit(rd)),
        Op::Mov { rd, rs } => regs(bit(rs), bit(rd)),
        Op::Ld { rd, rs, .. } => Access {
            mem_read: 4,
            ..regs(bit(rs), bit(rd))
        },
        Op::LdB { rd, rs, .. } => Access {
            mem_read: 1,
            ..regs(bit(rs), bit(rd))
        },
        Op::St { rd, rs, .. } => Access {
            mem_write: 4,
            ..regs(bit(rd) | bit(rs), 0)
        },
        Op::StB { rd, rs, .. } => Access {
            mem_write: 1,
            ..regs(bit(rd) | bit(rs), 0)
        },
        Op::Alu { rd, rs1, rs2, .. } => regs(bit(rs1) | bit(rs2), bit(rd)),
        Op::AluI { rd, rs1, .. } => regs(bit(rs1), bit(rd)),
        Op::Cmp { rs1, rs2 } => regs(bit(rs1) | bit(rs2), FLAGS_BIT),
        Op::CmpI { rs1, .. } => regs(bit(rs1), FLAGS_BIT),
        Op::JCond { .. } => regs(FLAGS_BIT, 0),
        Op::JmpR { rs } => regs(bit(rs), 0),
        Op::Call { .. } => Access {
            mem_write: 4,
            ..regs(sp, sp)
        },
        Op::CallR { rs } | Op::Push { rs } => Access {
            mem_write: 4,
            ..regs(bit(rs) | sp, sp)
        },
        Op::Ret => Access {
            mem_read: 4,
            ..regs(sp, sp)
        },
        Op::Pop { rd } => Access {
            mem_read: 4,
            ..regs(sp, bit(rd) | sp)
        },
        // r0–r3 in, r0 out.
        Op::Sys { .. } => regs(0b1111, 1),
    }
}

/// The one memory address `op` reads or writes on machine `m` (no
/// instruction does both), or 0 when it touches no memory.
///
/// Must be called *before* the instruction executes.
pub fn mem_addr(m: &Machine, op: &Op) -> u32 {
    match *op {
        Op::Ld { rs: base, off, .. }
        | Op::LdB { rs: base, off, .. }
        | Op::St { rd: base, off, .. }
        | Op::StB { rd: base, off, .. } => m.cpu.get(base).wrapping_add(off as u32),
        Op::Call { .. } | Op::CallR { .. } | Op::Push { .. } => m.cpu.sp().wrapping_sub(4),
        Op::Ret | Op::Pop { .. } => m.cpu.sp(),
        _ => 0,
    }
}

fn push_mem<const N: usize>(v: &mut Inline<Loc, N>, addr: u32, len: u32) {
    for i in 0..len {
        v.push(Loc::MemByte(addr.wrapping_add(i)));
    }
}

/// The sources of a flow computed from registers.
fn sources(regs: &[Reg]) -> Inline<Loc, MAX_SOURCES> {
    let mut from = Inline::default();
    for reg in regs {
        from.push(Loc::Reg(reg.0));
    }
    from
}

/// Compute the effects of `op` about to execute at `pc` on machine `m`.
///
/// Must be called *before* the instruction executes (effective addresses
/// are taken from current register values).
pub fn effects(m: &Machine, op: &Op) -> Effects {
    let mut e = Effects::default();
    let addr = mem_addr(m, op);
    let r = |reg: Reg| Loc::Reg(reg.0);
    let mem_locs = |addr: u32, len: u32| {
        let mut locs = Inline::default();
        push_mem(&mut locs, addr, len);
        locs
    };
    match *op {
        Op::Nop | Op::Halt | Op::Jmp { .. } => {}
        Op::MovI { rd, .. } => {
            e.writes.push(r(rd));
            e.flows.push(Flow {
                from: Inline::default(),
                to: r(rd),
            });
        }
        Op::Mov { rd, rs } => {
            e.reads.push(r(rs));
            e.writes.push(r(rd));
            e.flows.push(Flow {
                from: sources(&[rs]),
                to: r(rd),
            });
        }
        Op::Ld { rd, rs, .. } => {
            e.reads.push(r(rs));
            push_mem(&mut e.reads, addr, 4);
            e.mem_read = Some((addr, 4));
            e.writes.push(r(rd));
            // Value flow: the loaded bytes only. The address register is
            // a *pointer* dependency: visible to slicing, not to taint.
            e.flows.push(Flow {
                from: mem_locs(addr, 4),
                to: r(rd),
            });
        }
        Op::LdB { rd, rs, .. } => {
            e.reads.push(r(rs));
            push_mem(&mut e.reads, addr, 1);
            e.mem_read = Some((addr, 1));
            e.writes.push(r(rd));
            e.flows.push(Flow {
                from: mem_locs(addr, 1),
                to: r(rd),
            });
        }
        Op::St { rd, rs, .. } => {
            e.reads.push(r(rd));
            e.reads.push(r(rs));
            push_mem(&mut e.writes, addr, 4);
            e.mem_write = Some((addr, 4));
            for &l in &mem_locs(addr, 4) {
                e.flows.push(Flow {
                    from: sources(&[rs]),
                    to: l,
                });
            }
        }
        Op::StB { rd, rs, .. } => {
            e.reads.push(r(rd));
            e.reads.push(r(rs));
            push_mem(&mut e.writes, addr, 1);
            e.mem_write = Some((addr, 1));
            e.flows.push(Flow {
                from: sources(&[rs]),
                to: Loc::MemByte(addr),
            });
        }
        Op::Alu { rd, rs1, rs2, .. } => {
            e.reads.push(r(rs1));
            e.reads.push(r(rs2));
            e.writes.push(r(rd));
            e.flows.push(Flow {
                from: sources(&[rs1, rs2]),
                to: r(rd),
            });
        }
        Op::AluI { rd, rs1, .. } => {
            e.reads.push(r(rs1));
            e.writes.push(r(rd));
            e.flows.push(Flow {
                from: sources(&[rs1]),
                to: r(rd),
            });
        }
        Op::Cmp { rs1, rs2 } => {
            e.reads.push(r(rs1));
            e.reads.push(r(rs2));
            e.writes.push(Loc::Flags);
            e.flows.push(Flow {
                from: sources(&[rs1, rs2]),
                to: Loc::Flags,
            });
        }
        Op::CmpI { rs1, .. } => {
            e.reads.push(r(rs1));
            e.writes.push(Loc::Flags);
            e.flows.push(Flow {
                from: sources(&[rs1]),
                to: Loc::Flags,
            });
        }
        Op::JCond { .. } => {
            e.reads.push(Loc::Flags);
            e.reads_flags = true;
        }
        Op::JmpR { rs } => {
            e.reads.push(r(rs));
            e.indirect_target = Some((r(rs), m.cpu.get(rs)));
        }
        Op::Call { .. } => {
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, addr, 4);
            e.mem_write = Some((addr, 4));
            // The pushed return address is constant-derived: the flows
            // (none) clear any stale taint in the slot and leave SP
            // untainted. Slicing still sees the SP dependency above.
        }
        Op::CallR { rs } => {
            e.reads.push(r(rs));
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, addr, 4);
            e.mem_write = Some((addr, 4));
            e.indirect_target = Some((r(rs), m.cpu.get(rs)));
        }
        Op::Ret => {
            e.reads.push(r(Reg::SP));
            push_mem(&mut e.reads, addr, 4);
            e.mem_read = Some((addr, 4));
            e.writes.push(r(Reg::SP));
            let target = m.mem.read_u32(0, addr).unwrap_or(0);
            e.indirect_target = Some((Loc::MemByte(addr), target));
        }
        Op::Push { rs } => {
            e.reads.push(r(rs));
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, addr, 4);
            e.mem_write = Some((addr, 4));
            for &l in &mem_locs(addr, 4) {
                e.flows.push(Flow {
                    from: sources(&[rs]),
                    to: l,
                });
            }
        }
        Op::Pop { rd } => {
            e.reads.push(r(Reg::SP));
            push_mem(&mut e.reads, addr, 4);
            e.mem_read = Some((addr, 4));
            e.writes.push(r(rd));
            e.writes.push(r(Reg::SP));
            e.flows.push(Flow {
                from: mem_locs(addr, 4),
                to: r(rd),
            });
        }
        Op::Sys { .. } => {
            // Syscall argument registers are address/size operands; the
            // result in r0 is kernel-produced. Input-data taint enters
            // via the dedicated on_input hook, so at the effects level a
            // syscall clears r0 (no flow) and carries no value flows.
            // Slicing still records the argument dependencies.
            for i in 0..4 {
                e.reads.push(Loc::Reg(i));
            }
            e.writes.push(Loc::Reg(0));
        }
    }
    e
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::Machine;

    fn machine() -> Machine {
        let prog = assemble(".text\nmain:\n halt\n").expect("asm");
        Machine::boot(&prog, Aslr::off()).expect("boot")
    }

    #[test]
    fn load_effects_use_effective_address() {
        let mut m = machine();
        m.cpu.set(Reg(2), 0x2000);
        let e = effects(
            &m,
            &Op::Ld {
                rd: Reg(1),
                rs: Reg(2),
                off: 8,
            },
        );
        assert!(e.reads.contains(&Loc::Reg(2)));
        assert!(e.reads.contains(&Loc::MemByte(0x2008)));
        assert!(e.reads.contains(&Loc::MemByte(0x200b)));
        assert_eq!(e.mem_read, Some((0x2008, 4)));
        assert_eq!(*e.writes, [Loc::Reg(1)]);
    }

    #[test]
    fn store_effects() {
        let mut m = machine();
        m.cpu.set(Reg(3), 0x3000);
        let e = effects(
            &m,
            &Op::StB {
                rd: Reg(3),
                rs: Reg(4),
                off: -1,
            },
        );
        assert_eq!(e.mem_write, Some((0x2fff, 1)));
        assert!(e.reads.contains(&Loc::Reg(4)));
        assert_eq!(*e.writes, [Loc::MemByte(0x2fff)]);
    }

    #[test]
    fn ret_is_an_indirect_sink_reading_stack() {
        let mut m = machine();
        let sp = m.cpu.sp();
        m.mem.write_u32(0, sp, 0x4242).expect("w");
        let e = effects(&m, &Op::Ret);
        assert_eq!(e.indirect_target, Some((Loc::MemByte(sp), 0x4242)));
        assert!(e.reads.contains(&Loc::MemByte(sp)));
    }

    #[test]
    fn callr_is_an_indirect_sink() {
        let mut m = machine();
        m.cpu.set(Reg(6), 0x7777);
        let e = effects(&m, &Op::CallR { rs: Reg(6) });
        assert_eq!(e.indirect_target, Some((Loc::Reg(6), 0x7777)));
        assert!(e.mem_write.is_some(), "pushes the return address");
    }

    #[test]
    fn cmp_writes_flags_jcond_reads_them() {
        let m = machine();
        let e = effects(
            &m,
            &Op::Cmp {
                rs1: Reg(0),
                rs2: Reg(1),
            },
        );
        assert!(e.writes.contains(&Loc::Flags));
        let e2 = effects(
            &m,
            &Op::JCond {
                cond: svm::isa::Cond::Eq,
                target: 0,
            },
        );
        assert!(e2.reads_flags);
        assert!(e2.reads.contains(&Loc::Flags));
    }

    #[test]
    fn alu_reads_both_sources() {
        let m = machine();
        let e = effects(
            &m,
            &Op::Alu {
                op: svm::isa::AluOp::Xor,
                rd: Reg(0),
                rs1: Reg(5),
                rs2: Reg(6),
            },
        );
        assert_eq!(*e.reads, [Loc::Reg(5), Loc::Reg(6)]);
        assert_eq!(*e.writes, [Loc::Reg(0)]);
    }
}
