//! Differential test: `dbi::effects` against the heap-allocated decoder
//! it replaced.
//!
//! `effects` fills fixed-capacity inline lists. [`old_effects`] is the
//! reference model it must agree with: the same decoder written over
//! `Vec`s, kept here verbatim. Random ops of every variant, over random
//! register files (including addresses near `u32::MAX`, so effective
//! addresses wrap), every syscall number, and `ret`/`pop` at mapped,
//! page-straddling and unmapped stack slots (where the return target
//! reads as 0) must give equal effects, field by field and element by
//! element in order. Named cases drive every variant at its maximal
//! shape, check each list against its capacity, and pin the capacities
//! to the maxima the ISA actually reaches.
//!
//! The same cases check the compact decoder against `effects`: the
//! locations named by `access(op)`'s register masks and memory lengths
//! at `mem_addr(m, op)` must be exactly the sets of `effects(m, op)`'s
//! reads and writes, and the lengths and address must give its
//! `mem_read` and `mem_write`.

use std::collections::BTreeSet;

use dbi::effects::{
    access, effects, mem_addr, Effects, Loc, FLAGS_BIT, MAX_FLOWS, MAX_READS, MAX_SOURCES,
    MAX_WRITES,
};
use proptest::collection::vec;
use proptest::prelude::*;
use svm::asm::assemble;
use svm::isa::{AluOp, Cond, Op, Reg, NUM_REGS};
use svm::loader::Aslr;
use svm::Machine;

/// [`dbi::Flow`] over a `Vec`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct OldFlow {
    from: Vec<Loc>,
    to: Loc,
}

/// [`dbi::Effects`] over `Vec`s.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct OldEffects {
    reads: Vec<Loc>,
    writes: Vec<Loc>,
    flows: Vec<OldFlow>,
    mem_write: Option<(u32, u32)>,
    mem_read: Option<(u32, u32)>,
    indirect_target: Option<(Loc, u32)>,
    reads_flags: bool,
}

fn push_mem(v: &mut Vec<Loc>, addr: u32, len: u32) {
    for i in 0..len {
        v.push(Loc::MemByte(addr.wrapping_add(i)));
    }
}

/// The reference decoder: `effects` as it was before its lists went
/// inline.
fn old_effects(m: &Machine, op: &Op) -> OldEffects {
    let mut e = OldEffects::default();
    let r = |reg: Reg| Loc::Reg(reg.0);
    let mem_locs = |addr: u32, len: u32| -> Vec<Loc> {
        (0..len)
            .map(|i| Loc::MemByte(addr.wrapping_add(i)))
            .collect()
    };
    match *op {
        Op::Nop | Op::Halt | Op::Jmp { .. } => {}
        Op::MovI { rd, .. } => {
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: Vec::new(),
                to: r(rd),
            });
        }
        Op::Mov { rd, rs } => {
            e.reads.push(r(rs));
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: vec![r(rs)],
                to: r(rd),
            });
        }
        Op::Ld { rd, rs, off } => {
            let addr = m.cpu.get(rs).wrapping_add(off as u32);
            e.reads.push(r(rs));
            push_mem(&mut e.reads, addr, 4);
            e.mem_read = Some((addr, 4));
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: mem_locs(addr, 4),
                to: r(rd),
            });
        }
        Op::LdB { rd, rs, off } => {
            let addr = m.cpu.get(rs).wrapping_add(off as u32);
            e.reads.push(r(rs));
            push_mem(&mut e.reads, addr, 1);
            e.mem_read = Some((addr, 1));
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: mem_locs(addr, 1),
                to: r(rd),
            });
        }
        Op::St { rd, rs, off } => {
            let addr = m.cpu.get(rd).wrapping_add(off as u32);
            e.reads.push(r(rd));
            e.reads.push(r(rs));
            push_mem(&mut e.writes, addr, 4);
            e.mem_write = Some((addr, 4));
            for l in mem_locs(addr, 4) {
                e.flows.push(OldFlow {
                    from: vec![r(rs)],
                    to: l,
                });
            }
        }
        Op::StB { rd, rs, off } => {
            let addr = m.cpu.get(rd).wrapping_add(off as u32);
            e.reads.push(r(rd));
            e.reads.push(r(rs));
            push_mem(&mut e.writes, addr, 1);
            e.mem_write = Some((addr, 1));
            e.flows.push(OldFlow {
                from: vec![r(rs)],
                to: Loc::MemByte(addr),
            });
        }
        Op::Alu { rd, rs1, rs2, .. } => {
            e.reads.push(r(rs1));
            e.reads.push(r(rs2));
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: vec![r(rs1), r(rs2)],
                to: r(rd),
            });
        }
        Op::AluI { rd, rs1, .. } => {
            e.reads.push(r(rs1));
            e.writes.push(r(rd));
            e.flows.push(OldFlow {
                from: vec![r(rs1)],
                to: r(rd),
            });
        }
        Op::Cmp { rs1, rs2 } => {
            e.reads.push(r(rs1));
            e.reads.push(r(rs2));
            e.writes.push(Loc::Flags);
            e.flows.push(OldFlow {
                from: vec![r(rs1), r(rs2)],
                to: Loc::Flags,
            });
        }
        Op::CmpI { rs1, .. } => {
            e.reads.push(r(rs1));
            e.writes.push(Loc::Flags);
            e.flows.push(OldFlow {
                from: vec![r(rs1)],
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
            let sp = m.cpu.sp().wrapping_sub(4);
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, sp, 4);
            e.mem_write = Some((sp, 4));
        }
        Op::CallR { rs } => {
            let sp = m.cpu.sp().wrapping_sub(4);
            e.reads.push(r(rs));
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, sp, 4);
            e.mem_write = Some((sp, 4));
            e.indirect_target = Some((r(rs), m.cpu.get(rs)));
        }
        Op::Ret => {
            let sp = m.cpu.sp();
            e.reads.push(r(Reg::SP));
            push_mem(&mut e.reads, sp, 4);
            e.mem_read = Some((sp, 4));
            e.writes.push(r(Reg::SP));
            let target = m.mem.read_u32(0, sp).unwrap_or(0);
            e.indirect_target = Some((Loc::MemByte(sp), target));
        }
        Op::Push { rs } => {
            let sp = m.cpu.sp().wrapping_sub(4);
            e.reads.push(r(rs));
            e.reads.push(r(Reg::SP));
            e.writes.push(r(Reg::SP));
            push_mem(&mut e.writes, sp, 4);
            e.mem_write = Some((sp, 4));
            for l in mem_locs(sp, 4) {
                e.flows.push(OldFlow {
                    from: vec![r(rs)],
                    to: l,
                });
            }
        }
        Op::Pop { rd } => {
            let sp = m.cpu.sp();
            e.reads.push(r(Reg::SP));
            push_mem(&mut e.reads, sp, 4);
            e.mem_read = Some((sp, 4));
            e.writes.push(r(rd));
            e.writes.push(r(Reg::SP));
            e.flows.push(OldFlow {
                from: mem_locs(sp, 4),
                to: r(rd),
            });
        }
        Op::Sys { .. } => {
            for i in 0..4 {
                e.reads.push(Loc::Reg(i));
            }
            e.writes.push(Loc::Reg(0));
        }
    }
    e
}

/// `e` in the reference model's representation, so the derived `==`
/// compares every field element by element, in order.
fn as_old(e: &Effects) -> OldEffects {
    OldEffects {
        reads: e.reads.to_vec(),
        writes: e.writes.to_vec(),
        flows: e
            .flows
            .iter()
            .map(|f| OldFlow {
                from: f.from.to_vec(),
                to: f.to,
            })
            .collect(),
        mem_write: e.mem_write,
        mem_read: e.mem_read,
        indirect_target: e.indirect_target,
        reads_flags: e.reads_flags,
    }
}

fn machine() -> Machine {
    let prog = assemble(".text\nmain:\n halt\n").expect("asm");
    Machine::boot(&prog, Aslr::off()).expect("boot")
}

/// Where SP points when a case runs.
#[derive(Debug, Clone, Copy)]
enum Stack {
    /// A mapped stack word, holding the given value.
    Mapped { depth: u32, word: u32 },
    /// Two bytes below the stack top: the word straddles into the
    /// unmapped page above, so reading it faults.
    Straddle,
    /// Whatever register value the case drew (usually unmapped).
    Drawn,
}

fn set_stack(m: &mut Machine, stack: Stack) {
    let top = m.layout.stack_top;
    match stack {
        Stack::Mapped { depth, word } => {
            let sp = top - 4 - 4 * (depth % 256);
            m.cpu.set(Reg::SP, sp);
            m.mem.write_u32(0, sp, word).expect("mapped stack word");
        }
        Stack::Straddle => m.cpu.set(Reg::SP, top - 2),
        Stack::Drawn => {}
    }
}

/// The locations a register mask and a memory range name.
fn expand(mask: u32, addr: u32, len: u32) -> BTreeSet<Loc> {
    assert_eq!(mask & !(FLAGS_BIT | (FLAGS_BIT - 1)), 0, "stray bits");
    let regs = (0..NUM_REGS as u8).filter(|r| mask & (1 << r) != 0);
    let flags = (mask & FLAGS_BIT != 0).then_some(Loc::Flags);
    let mem = (0..len).map(|i| Loc::MemByte(addr.wrapping_add(i)));
    regs.map(Loc::Reg).chain(flags).chain(mem).collect()
}

/// Check `access` and `mem_addr` against `e = effects(m, op)`.
fn access_agrees(m: &Machine, op: &Op, e: &Effects) -> Result<(), String> {
    let (acc, addr) = (access(op), mem_addr(m, op));
    let range = |len: u32| (len > 0).then_some((addr, len));
    let reads: BTreeSet<Loc> = e.reads.iter().copied().collect();
    let writes: BTreeSet<Loc> = e.writes.iter().copied().collect();
    if expand(acc.reads, addr, acc.mem_read) != reads
        || expand(acc.writes, addr, acc.mem_write) != writes
        || range(acc.mem_read) != e.mem_read
        || range(acc.mem_write) != e.mem_write
    {
        return Err(format!("{op:?}: {acc:?} at {addr:#x} vs effects {e:?}"));
    }
    Ok(())
}

/// Check `effects` against the reference model on `m`, and `access`
/// against `effects`.
fn agree(m: &Machine, op: &Op) -> Result<Effects, String> {
    let e = effects(m, op);
    let (new, old) = (as_old(&e), old_effects(m, op));
    if new != old {
        return Err(format!("{op:?}: {new:?} vs oracle {old:?}"));
    }
    access_agrees(m, op, &e)?;
    Ok(e)
}

fn arb_reg() -> impl Strategy<Value = Reg> {
    (0u8..NUM_REGS as u8).prop_map(Reg)
}

fn arb_word() -> impl Strategy<Value = u32> {
    prop_oneof![
        any::<u32>(),
        (u32::MAX - 8)..=u32::MAX,
        0u32..16,
        0xbffe_0000u32..0xbfff_0008,
    ]
}

fn arb_off() -> impl Strategy<Value = i32> {
    prop_oneof![any::<i32>(), -8i32..8]
}

fn arb_alu() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Sub),
        Just(AluOp::Mul),
        Just(AluOp::Div),
        Just(AluOp::Rem),
        Just(AluOp::And),
        Just(AluOp::Or),
        Just(AluOp::Xor),
        Just(AluOp::Shl),
        Just(AluOp::Shr),
    ]
}

fn arb_cond() -> impl Strategy<Value = Cond> {
    prop_oneof![
        Just(Cond::Eq),
        Just(Cond::Ne),
        Just(Cond::Lt),
        Just(Cond::Le),
        Just(Cond::Gt),
        Just(Cond::Ge),
    ]
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Nop),
        Just(Op::Halt),
        (arb_reg(), any::<u32>()).prop_map(|(rd, imm)| Op::MovI { rd, imm }),
        (arb_reg(), arb_reg()).prop_map(|(rd, rs)| Op::Mov { rd, rs }),
        (arb_reg(), arb_reg(), arb_off()).prop_map(|(rd, rs, off)| Op::Ld { rd, rs, off }),
        (arb_reg(), arb_reg(), arb_off()).prop_map(|(rd, rs, off)| Op::St { rd, rs, off }),
        (arb_reg(), arb_reg(), arb_off()).prop_map(|(rd, rs, off)| Op::LdB { rd, rs, off }),
        (arb_reg(), arb_reg(), arb_off()).prop_map(|(rd, rs, off)| Op::StB { rd, rs, off }),
        (arb_alu(), arb_reg(), arb_reg(), arb_reg()).prop_map(|(op, rd, rs1, rs2)| Op::Alu {
            op,
            rd,
            rs1,
            rs2
        }),
        (arb_alu(), arb_reg(), arb_reg(), arb_off()).prop_map(|(op, rd, rs1, imm)| Op::AluI {
            op,
            rd,
            rs1,
            imm
        }),
        (arb_reg(), arb_reg()).prop_map(|(rs1, rs2)| Op::Cmp { rs1, rs2 }),
        (arb_reg(), any::<u32>()).prop_map(|(rs1, imm)| Op::CmpI { rs1, imm }),
        any::<u32>().prop_map(|target| Op::Jmp { target }),
        (arb_cond(), any::<u32>()).prop_map(|(cond, target)| Op::JCond { cond, target }),
        arb_reg().prop_map(|rs| Op::JmpR { rs }),
        any::<u32>().prop_map(|target| Op::Call { target }),
        arb_reg().prop_map(|rs| Op::CallR { rs }),
        Just(Op::Ret),
        arb_reg().prop_map(|rs| Op::Push { rs }),
        arb_reg().prop_map(|rd| Op::Pop { rd }),
        any::<u8>().prop_map(|num| Op::Sys { num }),
    ]
}

fn arb_stack() -> impl Strategy<Value = Stack> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(depth, word)| Stack::Mapped { depth, word }),
        Just(Stack::Straddle),
        Just(Stack::Drawn),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn effects_match_the_vec_oracle(
        op in arb_op(),
        regs in vec(arb_word(), NUM_REGS),
        stack in arb_stack(),
    ) {
        let mut m = machine();
        for (i, &v) in regs.iter().enumerate() {
            m.cpu.set(Reg(i as u8), v);
        }
        set_stack(&mut m, stack);
        let res = agree(&m, &op);
        prop_assert!(res.is_ok(), "{}", res.err().unwrap_or_default());
    }
}

/// Every variant at its maximal shape: the widest access, distinct
/// registers, and an effective address that wraps past `u32::MAX`.
fn maximal_ops() -> Vec<Op> {
    let (a, b, c) = (Reg(1), Reg(2), Reg(3));
    let mut ops = vec![
        Op::Nop,
        Op::Halt,
        Op::MovI { rd: a, imm: 7 },
        Op::Mov { rd: a, rs: b },
        Op::Ld {
            rd: a,
            rs: b,
            off: 2,
        },
        Op::St {
            rd: a,
            rs: b,
            off: 2,
        },
        Op::LdB {
            rd: a,
            rs: b,
            off: 2,
        },
        Op::StB {
            rd: a,
            rs: b,
            off: 2,
        },
        Op::AluI {
            op: AluOp::Add,
            rd: a,
            rs1: b,
            imm: -1,
        },
        Op::Cmp { rs1: a, rs2: b },
        Op::CmpI { rs1: a, imm: 1 },
        Op::Jmp { target: 0x40 },
        Op::JCond {
            cond: Cond::Ne,
            target: 0x40,
        },
        Op::JmpR { rs: c },
        Op::Call { target: 0x40 },
        Op::CallR { rs: c },
        Op::Ret,
        Op::Push { rs: c },
        Op::Pop { rd: c },
    ];
    ops.push(Op::Alu {
        op: AluOp::Xor,
        rd: a,
        rs1: b,
        rs2: c,
    });
    ops.extend((0..=u8::MAX).map(|num| Op::Sys { num }));
    ops
}

#[test]
fn maximal_shapes_fit_their_capacities_and_reach_them() {
    let mut peak = [0usize; 4];
    for stack in [
        Stack::Mapped {
            depth: 3,
            word: 0x4242_4242,
        },
        Stack::Straddle,
    ] {
        let mut m = machine();
        // Base registers near `u32::MAX`: a 4-byte access at offset 2
        // wraps to address 0.
        m.cpu.set(Reg(1), u32::MAX - 3);
        m.cpu.set(Reg(2), u32::MAX - 3);
        m.cpu.set(Reg(3), 0x1234);
        set_stack(&mut m, stack);
        for op in maximal_ops() {
            let e = agree(&m, &op).unwrap_or_else(|msg| panic!("{msg}"));
            let sources = e.flows.iter().map(|f| f.from.len()).max().unwrap_or(0);
            assert!(e.reads.len() <= MAX_READS, "{op:?} reads");
            assert!(e.writes.len() <= MAX_WRITES, "{op:?} writes");
            assert!(e.flows.len() <= MAX_FLOWS, "{op:?} flows");
            assert!(sources <= MAX_SOURCES, "{op:?} sources");
            for (p, n) in
                peak.iter_mut()
                    .zip([e.reads.len(), e.writes.len(), e.flows.len(), sources])
            {
                *p = (*p).max(n);
            }
        }
    }
    assert_eq!(
        peak,
        [MAX_READS, MAX_WRITES, MAX_FLOWS, MAX_SOURCES],
        "the capacities are exactly the ISA's maxima"
    );
}

#[test]
fn wrapping_load_names_bytes_on_both_sides_of_zero() {
    let mut m = machine();
    m.cpu.set(Reg(2), u32::MAX - 1);
    let e = agree(
        &m,
        &Op::Ld {
            rd: Reg(1),
            rs: Reg(2),
            off: 0,
        },
    )
    .unwrap_or_else(|msg| panic!("{msg}"));
    assert_eq!(
        *e.flows[0].from,
        [
            Loc::MemByte(u32::MAX - 1),
            Loc::MemByte(u32::MAX),
            Loc::MemByte(0),
            Loc::MemByte(1),
        ]
    );
}

#[test]
fn ret_and_pop_at_mapped_and_unmapped_slots() {
    let cases = [
        (
            Stack::Mapped {
                depth: 0,
                word: 0xdead_beef,
            },
            0xdead_beef,
        ),
        (Stack::Straddle, 0),
        (Stack::Drawn, 0),
    ];
    for (stack, want) in cases {
        let mut m = machine();
        // Used by `Drawn`: nothing is mapped at the top of the space.
        m.cpu.set(Reg::SP, u32::MAX - 1);
        set_stack(&mut m, stack);
        let sp = m.cpu.sp();
        assert_eq!(m.mem.read_u32(0, sp).is_ok(), want != 0, "{stack:?}");
        let ret = agree(&m, &Op::Ret).unwrap_or_else(|msg| panic!("{msg}"));
        assert_eq!(ret.indirect_target, Some((Loc::MemByte(sp), want)));
        agree(&m, &Op::Pop { rd: Reg(4) }).unwrap_or_else(|msg| panic!("{msg}"));
    }
}

#[test]
fn effects_are_copy_and_print_their_lists_as_slices() {
    let m = machine();
    let e = agree(&m, &Op::MovI { rd: Reg(5), imm: 0 }).unwrap_or_else(|msg| panic!("{msg}"));
    let copy = e;
    assert_eq!(copy, e);
    assert_eq!(format!("{:?}", e.writes), "[Reg(5)]");
    assert_eq!(format!("{:?}", e.flows), "[Flow { from: [], to: Reg(5) }]");
}
