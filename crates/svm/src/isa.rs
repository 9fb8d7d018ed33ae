//! Instruction-set architecture of the Sweeper VM.
//!
//! A deliberately small, fixed-width (8-byte) RISC-like ISA. Fixed width
//! keeps encode/decode trivial, which matters because exploit payloads are
//! *real encoded instructions* smuggled inside request bytes — the stack
//! smashing exploit genuinely redirects control into attacker-supplied
//! shellcode, just as the 2003-era CVEs the paper evaluates did.

use crate::error::Fault;

/// Number of general-purpose registers (r0..r12, fp, sp).
pub const NUM_REGS: usize = 15;

/// Size in bytes of one encoded instruction.
pub const INSN_SIZE: u32 = 8;

/// A register name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u8);

impl Reg {
    /// The frame-pointer register (`fp`, alias r13).
    pub const FP: Reg = Reg(13);
    /// The stack-pointer register (`sp`, alias r14).
    pub const SP: Reg = Reg(14);
    /// First argument / return-value register.
    pub const R0: Reg = Reg(0);
    /// Second argument register.
    pub const R1: Reg = Reg(1);
    /// Third argument register.
    pub const R2: Reg = Reg(2);
    /// Fourth argument register.
    pub const R3: Reg = Reg(3);

    /// Parse a register name (`r0`..`r12`, `fp`, `sp`).
    pub fn parse(s: &str) -> Option<Reg> {
        match s {
            "fp" => Some(Reg::FP),
            "sp" => Some(Reg::SP),
            _ => {
                let n: u8 = s.strip_prefix('r')?.parse().ok()?;
                if (n as usize) < NUM_REGS - 2 {
                    Some(Reg(n))
                } else {
                    None
                }
            }
        }
    }

    /// Index into the register file.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl core::fmt::Display for Reg {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            Reg::FP => write!(f, "fp"),
            Reg::SP => write!(f, "sp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

/// Branch/set condition derived from the flags register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Cond {
    /// Equal / zero.
    Eq,
    /// Not equal / non-zero.
    Ne,
    /// Unsigned less-than.
    Lt,
    /// Unsigned less-or-equal.
    Le,
    /// Unsigned greater-than.
    Gt,
    /// Unsigned greater-or-equal.
    Ge,
}

/// Arithmetic/logic operation selector for [`Op::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division (faults on zero divisor).
    Div,
    /// Unsigned remainder (faults on zero divisor).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Logical shift left (modulo 32).
    Shl,
    /// Logical shift right (modulo 32).
    Shr,
}

impl AluOp {
    /// Evaluate the operation on two unsigned operands.
    ///
    /// `pc` is used only to populate the [`Fault::DivByZero`] payload.
    pub fn eval(self, a: u32, b: u32, pc: u32) -> Result<u32, Fault> {
        Ok(match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::Div => {
                if b == 0 {
                    return Err(Fault::DivByZero { pc });
                }
                a / b
            }
            AluOp::Rem => {
                if b == 0 {
                    return Err(Fault::DivByZero { pc });
                }
                a % b
            }
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl(b),
            AluOp::Shr => a.wrapping_shr(b),
        })
    }
}

/// A decoded instruction.
///
/// Field meanings are given in each variant's doc line; `rd`/`rs*` are
/// destination/source registers, `imm`/`off`/`target` immediates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Op {
    /// No operation.
    Nop,
    /// Stop the machine with exit code from `r0`.
    Halt,
    /// `rd <- imm`.
    MovI { rd: Reg, imm: u32 },
    /// `rd <- rs`.
    Mov { rd: Reg, rs: Reg },
    /// `rd <- mem32[rs + imm]`.
    Ld { rd: Reg, rs: Reg, off: i32 },
    /// `mem32[rd + imm] <- rs`.
    St { rd: Reg, rs: Reg, off: i32 },
    /// `rd <- zext(mem8[rs + imm])`.
    LdB { rd: Reg, rs: Reg, off: i32 },
    /// `mem8[rd + imm] <- rs & 0xff`.
    StB { rd: Reg, rs: Reg, off: i32 },
    /// Three-register ALU operation: `rd <- rs1 op rs2`.
    Alu {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        rs2: Reg,
    },
    /// Immediate ALU operation: `rd <- rs1 op imm`.
    AluI {
        op: AluOp,
        rd: Reg,
        rs1: Reg,
        imm: i32,
    },
    /// Compare two registers, setting flags.
    Cmp { rs1: Reg, rs2: Reg },
    /// Compare register with immediate, setting flags.
    CmpI { rs1: Reg, imm: u32 },
    /// Unconditional absolute jump.
    Jmp { target: u32 },
    /// Conditional absolute jump.
    JCond { cond: Cond, target: u32 },
    /// Indirect jump through a register.
    JmpR { rs: Reg },
    /// Call: push return address, jump to absolute target.
    Call { target: u32 },
    /// Indirect call through a register (classic hijack vector).
    CallR { rs: Reg },
    /// Return: pop return address, jump to it.
    Ret,
    /// Push a register onto the stack.
    Push { rs: Reg },
    /// Pop the stack into a register.
    Pop { rd: Reg },
    /// Invoke host syscall `num` (args in r0..r3, result in r0).
    Sys { num: u8 },
}

const OP_NOP: u8 = 0x00;
const OP_HALT: u8 = 0x01;
const OP_MOVI: u8 = 0x02;
const OP_MOV: u8 = 0x03;
const OP_LD: u8 = 0x04;
const OP_ST: u8 = 0x05;
const OP_LDB: u8 = 0x06;
const OP_STB: u8 = 0x07;
const OP_ALU: u8 = 0x08; // rs2 in byte 3
const OP_ALUI: u8 = 0x09; // imm in word
const OP_CMP: u8 = 0x0a;
const OP_CMPI: u8 = 0x0b;
const OP_JMP: u8 = 0x0c;
const OP_JCOND: u8 = 0x0d; // cond in byte 1
const OP_JMPR: u8 = 0x0e;
const OP_CALL: u8 = 0x0f;
const OP_CALLR: u8 = 0x10;
const OP_RET: u8 = 0x11;
const OP_PUSH: u8 = 0x12;
const OP_POP: u8 = 0x13;
const OP_SYS: u8 = 0x14;

fn alu_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Shl => 8,
        AluOp::Shr => 9,
    }
}

fn alu_from(code: u8) -> Option<AluOp> {
    Some(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Shl,
        9 => AluOp::Shr,
        _ => return None,
    })
}

fn cond_code(c: Cond) -> u8 {
    match c {
        Cond::Eq => 0,
        Cond::Ne => 1,
        Cond::Lt => 2,
        Cond::Le => 3,
        Cond::Gt => 4,
        Cond::Ge => 5,
    }
}

fn cond_from(code: u8) -> Option<Cond> {
    Some(match code {
        0 => Cond::Eq,
        1 => Cond::Ne,
        2 => Cond::Lt,
        3 => Cond::Le,
        4 => Cond::Gt,
        5 => Cond::Ge,
        _ => return None,
    })
}

impl Op {
    /// Encode this instruction into its fixed 8-byte representation.
    ///
    /// Layout: `[opcode, a, b, c, imm0, imm1, imm2, imm3]` (imm little-endian).
    pub fn encode(&self) -> [u8; 8] {
        let mut w = [0u8; 8];
        let (opc, a, b, c, imm): (u8, u8, u8, u8, u32) = match *self {
            Op::Nop => (OP_NOP, 0, 0, 0, 0),
            Op::Halt => (OP_HALT, 0, 0, 0, 0),
            Op::MovI { rd, imm } => (OP_MOVI, rd.0, 0, 0, imm),
            Op::Mov { rd, rs } => (OP_MOV, rd.0, rs.0, 0, 0),
            Op::Ld { rd, rs, off } => (OP_LD, rd.0, rs.0, 0, off as u32),
            Op::St { rd, rs, off } => (OP_ST, rd.0, rs.0, 0, off as u32),
            Op::LdB { rd, rs, off } => (OP_LDB, rd.0, rs.0, 0, off as u32),
            Op::StB { rd, rs, off } => (OP_STB, rd.0, rs.0, 0, off as u32),
            Op::Alu { op, rd, rs1, rs2 } => (OP_ALU, rd.0, rs1.0, (alu_code(op) << 4) | rs2.0, 0),
            Op::AluI { op, rd, rs1, imm } => (OP_ALUI, rd.0, rs1.0, alu_code(op), imm as u32),
            Op::Cmp { rs1, rs2 } => (OP_CMP, rs1.0, rs2.0, 0, 0),
            Op::CmpI { rs1, imm } => (OP_CMPI, rs1.0, 0, 0, imm),
            Op::Jmp { target } => (OP_JMP, 0, 0, 0, target),
            Op::JCond { cond, target } => (OP_JCOND, cond_code(cond), 0, 0, target),
            Op::JmpR { rs } => (OP_JMPR, rs.0, 0, 0, 0),
            Op::Call { target } => (OP_CALL, 0, 0, 0, target),
            Op::CallR { rs } => (OP_CALLR, rs.0, 0, 0, 0),
            Op::Ret => (OP_RET, 0, 0, 0, 0),
            Op::Push { rs } => (OP_PUSH, rs.0, 0, 0, 0),
            Op::Pop { rd } => (OP_POP, rd.0, 0, 0, 0),
            Op::Sys { num } => (OP_SYS, num, 0, 0, 0),
        };
        w[0] = opc;
        w[1] = a;
        w[2] = b;
        w[3] = c;
        w[4..8].copy_from_slice(&imm.to_le_bytes());
        w
    }

    /// Decode an instruction from its 8-byte representation.
    ///
    /// `pc` is used only to populate the [`Fault::BadOpcode`] error.
    pub fn decode(w: [u8; 8], pc: u32) -> Result<Op, Fault> {
        Op::decode_word(w).ok_or(Fault::BadOpcode { pc, opcode: w[0] })
    }

    /// Decode an instruction word without a program counter.
    ///
    /// This is the pure core of [`Op::decode`]: the result depends only
    /// on the bytes, never on where they are executed from, which is
    /// what makes predecoded per-page instruction caches sound —
    /// identical bytes decode to the identical [`Op`] at any pc, and an
    /// undecodable word (`None`) faults identically at every fetch site
    /// (the fault's `pc` is supplied by the caller of [`Op::decode`]).
    pub fn decode_word(w: [u8; 8]) -> Option<Op> {
        let reg = |b: u8| -> Option<Reg> {
            if (b as usize) < NUM_REGS {
                Some(Reg(b))
            } else {
                None
            }
        };
        let imm = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        Some(match w[0] {
            OP_NOP => Op::Nop,
            OP_HALT => Op::Halt,
            OP_MOVI => Op::MovI {
                rd: reg(w[1])?,
                imm,
            },
            OP_MOV => Op::Mov {
                rd: reg(w[1])?,
                rs: reg(w[2])?,
            },
            OP_LD => Op::Ld {
                rd: reg(w[1])?,
                rs: reg(w[2])?,
                off: imm as i32,
            },
            OP_ST => Op::St {
                rd: reg(w[1])?,
                rs: reg(w[2])?,
                off: imm as i32,
            },
            OP_LDB => Op::LdB {
                rd: reg(w[1])?,
                rs: reg(w[2])?,
                off: imm as i32,
            },
            OP_STB => Op::StB {
                rd: reg(w[1])?,
                rs: reg(w[2])?,
                off: imm as i32,
            },
            OP_ALU => Op::Alu {
                op: alu_from(w[3] >> 4)?,
                rd: reg(w[1])?,
                rs1: reg(w[2])?,
                rs2: reg(w[3] & 0x0f)?,
            },
            OP_ALUI => Op::AluI {
                op: alu_from(w[3])?,
                rd: reg(w[1])?,
                rs1: reg(w[2])?,
                imm: imm as i32,
            },
            OP_CMP => Op::Cmp {
                rs1: reg(w[1])?,
                rs2: reg(w[2])?,
            },
            OP_CMPI => Op::CmpI {
                rs1: reg(w[1])?,
                imm,
            },
            OP_JMP => Op::Jmp { target: imm },
            OP_JCOND => Op::JCond {
                cond: cond_from(w[1])?,
                target: imm,
            },
            OP_JMPR => Op::JmpR { rs: reg(w[1])? },
            OP_CALL => Op::Call { target: imm },
            OP_CALLR => Op::CallR { rs: reg(w[1])? },
            OP_RET => Op::Ret,
            OP_PUSH => Op::Push { rs: reg(w[1])? },
            OP_POP => Op::Pop { rd: reg(w[1])? },
            OP_SYS => Op::Sys { num: w[1] },
            _ => return None,
        })
    }
}

/// Syscall numbers understood by the VM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Syscall {
    /// Terminate the process; `r0` = exit code.
    Exit,
    /// Accept a pending connection; returns connection id or -1.
    Accept,
    /// `read(conn, buf, len)` -> bytes read (0 = EOF, -1 = error).
    Read,
    /// `write(conn, buf, len)` -> bytes written.
    Write,
    /// Close a connection.
    Close,
    /// `alloc(size)` -> pointer (0 on OOM).
    Alloc,
    /// `free(ptr)`.
    Free,
    /// Current virtual time in microseconds.
    Time,
    /// Pseudo-random 32-bit value from the (checkpointed) guest RNG.
    Rand,
    /// Debug log: `log(buf, len)` (captured by the host).
    Log,
}

impl Syscall {
    /// Numeric syscall code.
    pub fn num(self) -> u8 {
        match self {
            Syscall::Exit => 0,
            Syscall::Accept => 1,
            Syscall::Read => 2,
            Syscall::Write => 3,
            Syscall::Close => 4,
            Syscall::Alloc => 5,
            Syscall::Free => 6,
            Syscall::Time => 7,
            Syscall::Rand => 8,
            Syscall::Log => 9,
        }
    }

    /// Decode a syscall number.
    pub fn from_num(n: u8) -> Option<Syscall> {
        Some(match n {
            0 => Syscall::Exit,
            1 => Syscall::Accept,
            2 => Syscall::Read,
            3 => Syscall::Write,
            4 => Syscall::Close,
            5 => Syscall::Alloc,
            6 => Syscall::Free,
            7 => Syscall::Time,
            8 => Syscall::Rand,
            9 => Syscall::Log,
            _ => return None,
        })
    }

    /// Parse the assembler mnemonic used after `sys` (e.g. `sys read`).
    pub fn parse(s: &str) -> Option<Syscall> {
        Some(match s {
            "exit" => Syscall::Exit,
            "accept" => Syscall::Accept,
            "read" => Syscall::Read,
            "write" => Syscall::Write,
            "close" => Syscall::Close,
            "alloc" => Syscall::Alloc,
            "free" => Syscall::Free,
            "time" => Syscall::Time,
            "rand" => Syscall::Rand,
            "log" => Syscall::Log,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: Op) {
        let enc = op.encode();
        let dec = Op::decode(enc, 0).expect("decode");
        assert_eq!(op, dec, "roundtrip failed for {op:?}");
    }

    #[test]
    fn encode_decode_roundtrip_all_forms() {
        let r = |n| Reg(n);
        for op in [
            Op::Nop,
            Op::Halt,
            Op::MovI {
                rd: r(3),
                imm: 0xdead_beef,
            },
            Op::Mov { rd: r(1), rs: r(2) },
            Op::Ld {
                rd: r(4),
                rs: Reg::FP,
                off: -8,
            },
            Op::St {
                rd: Reg::SP,
                rs: r(0),
                off: 12,
            },
            Op::LdB {
                rd: r(5),
                rs: r(6),
                off: 255,
            },
            Op::StB {
                rd: r(7),
                rs: r(8),
                off: -1,
            },
            Op::Alu {
                op: AluOp::Add,
                rd: r(1),
                rs1: r(2),
                rs2: r(3),
            },
            Op::Alu {
                op: AluOp::Shr,
                rd: r(9),
                rs1: r(10),
                rs2: r(11),
            },
            Op::AluI {
                op: AluOp::Sub,
                rd: r(1),
                rs1: r(1),
                imm: -4,
            },
            Op::Cmp {
                rs1: r(0),
                rs2: r(1),
            },
            Op::CmpI { rs1: r(2), imm: 77 },
            Op::Jmp { target: 0x1000 },
            Op::JCond {
                cond: Cond::Le,
                target: 0x2000,
            },
            Op::JmpR { rs: r(6) },
            Op::Call { target: 0x3000 },
            Op::CallR { rs: r(9) },
            Op::Ret,
            Op::Push { rs: r(12) },
            Op::Pop { rd: r(0) },
            Op::Sys {
                num: Syscall::Read.num(),
            },
        ] {
            roundtrip(op);
        }
    }

    #[test]
    fn decode_word_agrees_with_decode_at_every_pc() {
        // decode_word is pc-free; decode must agree with it at any pc,
        // differing only in the fault's reported site.
        for opc in 0u8..=0x20 {
            let mut w = [0u8; 8];
            w[0] = opc;
            w[1] = 1;
            w[2] = 2;
            match Op::decode_word(w) {
                Some(op) => {
                    assert_eq!(Op::decode(w, 0x1000).expect("ok"), op);
                    assert_eq!(Op::decode(w, 0xdead_0000).expect("ok"), op);
                }
                None => {
                    assert!(matches!(
                        Op::decode(w, 0x40),
                        Err(Fault::BadOpcode { pc: 0x40, .. })
                    ));
                }
            }
        }
    }

    #[test]
    fn decode_rejects_bad_opcode() {
        let mut w = [0u8; 8];
        w[0] = 0x7f;
        assert!(matches!(
            Op::decode(w, 0x40),
            Err(Fault::BadOpcode {
                pc: 0x40,
                opcode: 0x7f
            })
        ));
    }

    #[test]
    fn decode_rejects_bad_register() {
        let mut w = Op::Mov {
            rd: Reg(0),
            rs: Reg(1),
        }
        .encode();
        w[1] = 15; // Out of range register index.
        assert!(Op::decode(w, 0).is_err());
    }

    #[test]
    fn reg_parsing() {
        assert_eq!(Reg::parse("r0"), Some(Reg(0)));
        assert_eq!(Reg::parse("r12"), Some(Reg(12)));
        assert_eq!(Reg::parse("r13"), None);
        assert_eq!(Reg::parse("fp"), Some(Reg::FP));
        assert_eq!(Reg::parse("sp"), Some(Reg::SP));
        assert_eq!(Reg::parse("x1"), None);
    }

    #[test]
    fn syscall_roundtrip() {
        for n in 0..10u8 {
            let s = Syscall::from_num(n).expect("valid");
            assert_eq!(s.num(), n);
        }
        assert!(Syscall::from_num(10).is_none());
    }
}
