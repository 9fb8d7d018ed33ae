//! Two-pass assembler for SVM guest programs.
//!
//! Programs are written in a small assembly dialect with three segments:
//! `.text` (application code), `.lib` (shared library code — mapped at its
//! own randomized base so that library-relative analysis results such as
//! "overflow in `strcat` called from `ftp_build_title_url`" are
//! meaningful, mirroring Table 2 of the paper), and `.data`.
//!
//! The assembler emits *position-independent* output: label references are
//! recorded as relocations and patched by the [loader](crate::loader) once
//! address-space randomization has picked segment bases.
//!
//! # Examples
//!
//! ```
//! use svm::asm::assemble;
//! let prog = assemble(
//!     r#"
//! .text
//! main:
//!     movi r0, greeting
//!     call strlen_local
//!     halt
//! strlen_local:
//!     movi r1, 0
//! loop:
//!     ldb r2, [r0, 0]
//!     cmpi r2, 0
//!     jz done
//!     addi r0, r0, 1
//!     addi r1, r1, 1
//!     jmp loop
//! done:
//!     mov r0, r1
//!     ret
//! .data
//! greeting: .string "hello"
//! "#,
//! )
//! .expect("assembles");
//! assert!(prog.symbols.contains_key("main"));
//! ```

use std::collections::HashMap;

use crate::error::SvmError;
use crate::isa::{AluOp, Cond, Op, Reg, Syscall, INSN_SIZE};

/// Which segment a symbol or relocation lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Seg {
    /// Application code.
    Text,
    /// Library code (separately randomized base).
    Lib,
    /// Initialized data.
    Data,
}

/// A symbol: segment plus byte offset within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sym {
    /// Segment the symbol is defined in.
    pub seg: Seg,
    /// Byte offset within the segment.
    pub off: u32,
}

/// A pending absolute-address patch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reloc {
    /// Segment containing the 4-byte slot to patch.
    pub seg: Seg,
    /// Byte offset of the 4-byte little-endian slot within that segment.
    pub slot: u32,
    /// Symbol whose final address is written (plus `addend`).
    pub symbol: String,
    /// Constant added to the symbol address.
    pub addend: i64,
}

/// An assembled, relocatable program.
#[derive(Debug, Clone, Default)]
pub struct Program {
    /// Raw `.text` bytes.
    pub text: Vec<u8>,
    /// Raw `.lib` bytes.
    pub lib: Vec<u8>,
    /// Raw `.data` bytes.
    pub data: Vec<u8>,
    /// Label definitions.
    pub symbols: HashMap<String, Sym>,
    /// Pending address patches.
    pub relocs: Vec<Reloc>,
    /// Entry symbol (defaults to `main`).
    pub entry: String,
}

impl Program {
    /// The bytes of a segment.
    pub fn seg_bytes(&self, seg: Seg) -> &[u8] {
        match seg {
            Seg::Text => &self.text,
            Seg::Lib => &self.lib,
            Seg::Data => &self.data,
        }
    }

    fn seg_bytes_mut(&mut self, seg: Seg) -> &mut Vec<u8> {
        match seg {
            Seg::Text => &mut self.text,
            Seg::Lib => &mut self.lib,
            Seg::Data => &mut self.data,
        }
    }
}

/// A parsed operand.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Operand {
    Reg(Reg),
    Imm(i64),
    Label(String, i64),
    /// `[reg, off]` or `[reg]`.
    Mem(Reg, i64),
}

struct Assembler {
    prog: Program,
    cur: Seg,
    line: usize,
}

/// Assemble SVM assembly source into a relocatable [`Program`].
pub fn assemble(src: &str) -> Result<Program, SvmError> {
    let mut a = Assembler {
        prog: Program {
            entry: "main".to_string(),
            ..Program::default()
        },
        cur: Seg::Text,
        line: 0,
    };
    for (i, raw) in src.lines().enumerate() {
        a.line = i + 1;
        a.line_pass(raw)?;
    }
    // Validate that every relocation target is defined.
    for r in &a.prog.relocs {
        if !a.prog.symbols.contains_key(&r.symbol) {
            return Err(SvmError::Asm {
                line: 0,
                msg: format!("undefined symbol `{}`", r.symbol),
            });
        }
    }
    if !a.prog.symbols.contains_key(&a.prog.entry) {
        return Err(SvmError::Asm {
            line: 0,
            msg: format!("entry symbol `{}` not defined", a.prog.entry),
        });
    }
    Ok(a.prog)
}

impl Assembler {
    fn err<T>(&self, msg: impl Into<String>) -> Result<T, SvmError> {
        Err(SvmError::Asm {
            line: self.line,
            msg: msg.into(),
        })
    }

    fn line_pass(&mut self, raw: &str) -> Result<(), SvmError> {
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            return Ok(());
        }
        let mut rest = line;
        // Leading labels (possibly several).
        while let Some(colon) = find_label_colon(rest) {
            let (label, tail) = rest.split_at(colon);
            let label = label.trim();
            if !is_ident(label) {
                return self.err(format!("bad label `{label}`"));
            }
            let off = self.prog.seg_bytes(self.cur).len() as u32;
            if self
                .prog
                .symbols
                .insert(label.to_string(), Sym { seg: self.cur, off })
                .is_some()
            {
                return self.err(format!("duplicate label `{label}`"));
            }
            rest = tail[1..].trim();
        }
        if rest.is_empty() {
            return Ok(());
        }
        if let Some(dir) = rest.strip_prefix('.') {
            return self.directive(dir);
        }
        self.instruction(rest)
    }

    fn directive(&mut self, dir: &str) -> Result<(), SvmError> {
        let (name, args) = match dir.find(char::is_whitespace) {
            Some(i) => (&dir[..i], dir[i..].trim()),
            None => (dir, ""),
        };
        match name {
            "text" => self.cur = Seg::Text,
            "lib" => self.cur = Seg::Lib,
            "data" => self.cur = Seg::Data,
            "entry" => {
                if !is_ident(args) {
                    return self.err("bad .entry symbol");
                }
                self.prog.entry = args.to_string();
            }
            "string" => {
                let mut bytes = self.parse_string(args)?;
                bytes.push(0);
                self.emit_data(&bytes);
            }
            "ascii" => {
                let bytes = self.parse_string(args)?;
                self.emit_data(&bytes);
            }
            "space" => {
                let n: usize = args.parse().map_err(|_| SvmError::Asm {
                    line: self.line,
                    msg: "bad .space size".into(),
                })?;
                self.emit_data(&vec![0u8; n]);
            }
            "byte" => {
                for part in split_commas(args) {
                    let v = self.parse_int(&part)?;
                    if !(-128..=255).contains(&v) {
                        return self.err(format!("byte out of range: {v}"));
                    }
                    self.emit_data(&[v as u8]);
                }
            }
            "word" => {
                for part in split_commas(args) {
                    match self.parse_operand(&part)? {
                        Operand::Imm(v) => self.emit_data(&(v as u32).to_le_bytes()),
                        Operand::Label(sym, addend) => {
                            let slot = self.prog.seg_bytes(self.cur).len() as u32;
                            self.prog.relocs.push(Reloc {
                                seg: self.cur,
                                slot,
                                symbol: sym,
                                addend,
                            });
                            self.emit_data(&[0, 0, 0, 0]);
                        }
                        other => return self.err(format!("bad .word operand {other:?}")),
                    }
                }
            }
            other => return self.err(format!("unknown directive `.{other}`")),
        }
        Ok(())
    }

    fn emit_data(&mut self, bytes: &[u8]) {
        self.prog.seg_bytes_mut(self.cur).extend_from_slice(bytes);
    }

    fn emit_op(&mut self, op: Op, label_imm: Option<(String, i64)>) {
        let off = self.prog.seg_bytes(self.cur).len() as u32;
        if let Some((symbol, addend)) = label_imm {
            self.prog.relocs.push(Reloc {
                seg: self.cur,
                slot: off + 4,
                symbol,
                addend,
            });
        }
        let enc = op.encode();
        self.prog.seg_bytes_mut(self.cur).extend_from_slice(&enc);
        debug_assert_eq!(enc.len() as u32, INSN_SIZE);
    }

    fn instruction(&mut self, text: &str) -> Result<(), SvmError> {
        if self.cur == Seg::Data {
            return self.err("instruction in .data segment");
        }
        let (mn, args) = match text.find(char::is_whitespace) {
            Some(i) => (&text[..i], text[i..].trim()),
            None => (text, ""),
        };
        let mn = mn.to_ascii_lowercase();
        let ops: Vec<Operand> = split_commas(args)
            .into_iter()
            .map(|p| self.parse_operand(&p))
            .collect::<Result<_, _>>()?;

        let alu = |m: &str| -> Option<AluOp> {
            Some(match m {
                "add" | "addi" => AluOp::Add,
                "sub" | "subi" => AluOp::Sub,
                "mul" | "muli" => AluOp::Mul,
                "div" | "divi" => AluOp::Div,
                "rem" | "remi" => AluOp::Rem,
                "and" | "andi" => AluOp::And,
                "or" | "ori" => AluOp::Or,
                "xor" | "xori" => AluOp::Xor,
                "shl" | "shli" => AluOp::Shl,
                "shr" | "shri" => AluOp::Shr,
                _ => return None,
            })
        };
        let cond = |m: &str| -> Option<Cond> {
            Some(match m {
                "jz" | "je" => Cond::Eq,
                "jnz" | "jne" => Cond::Ne,
                "jlt" | "jb" => Cond::Lt,
                "jle" | "jbe" => Cond::Le,
                "jgt" | "ja" => Cond::Gt,
                "jge" | "jae" => Cond::Ge,
                _ => return None,
            })
        };

        match mn.as_str() {
            "nop" => self.emit_op(Op::Nop, None),
            "halt" => self.emit_op(Op::Halt, None),
            "ret" => self.emit_op(Op::Ret, None),
            "movi" => match self.two(&ops)? {
                (Operand::Reg(rd), Operand::Imm(v)) => {
                    self.emit_op(Op::MovI { rd, imm: v as u32 }, None)
                }
                (Operand::Reg(rd), Operand::Label(s, a)) => {
                    self.emit_op(Op::MovI { rd, imm: 0 }, Some((s, a)))
                }
                _ => return self.err("movi rd, imm|label"),
            },
            "mov" => match self.two(&ops)? {
                (Operand::Reg(rd), Operand::Reg(rs)) => self.emit_op(Op::Mov { rd, rs }, None),
                (Operand::Reg(rd), Operand::Imm(v)) => {
                    self.emit_op(Op::MovI { rd, imm: v as u32 }, None)
                }
                (Operand::Reg(rd), Operand::Label(s, a)) => {
                    self.emit_op(Op::MovI { rd, imm: 0 }, Some((s, a)))
                }
                _ => return self.err("mov rd, rs|imm"),
            },
            "ld" | "ldb" => match self.two(&ops)? {
                (Operand::Reg(rd), Operand::Mem(rs, off)) => {
                    let off = off as i32;
                    let op = if mn == "ld" {
                        Op::Ld { rd, rs, off }
                    } else {
                        Op::LdB { rd, rs, off }
                    };
                    self.emit_op(op, None);
                }
                _ => return self.err(format!("{mn} rd, [rs, off]")),
            },
            "st" | "stb" => match self.two(&ops)? {
                (Operand::Mem(rd, off), Operand::Reg(rs)) => {
                    let off = off as i32;
                    let op = if mn == "st" {
                        Op::St { rd, rs, off }
                    } else {
                        Op::StB { rd, rs, off }
                    };
                    self.emit_op(op, None);
                }
                _ => return self.err(format!("{mn} [rd, off], rs")),
            },
            m if let Some(op) = alu(m) => match self.three(&ops)? {
                (Operand::Reg(rd), Operand::Reg(rs1), Operand::Reg(rs2)) => {
                    self.emit_op(Op::Alu { op, rd, rs1, rs2 }, None)
                }
                (Operand::Reg(rd), Operand::Reg(rs1), Operand::Imm(v)) => self.emit_op(
                    Op::AluI {
                        op,
                        rd,
                        rs1,
                        imm: v as i32,
                    },
                    None,
                ),
                _ => return self.err(format!("{m} rd, rs1, rs2|imm")),
            },
            "cmp" => match self.two(&ops)? {
                (Operand::Reg(rs1), Operand::Reg(rs2)) => self.emit_op(Op::Cmp { rs1, rs2 }, None),
                (Operand::Reg(rs1), Operand::Imm(v)) => {
                    self.emit_op(Op::CmpI { rs1, imm: v as u32 }, None)
                }
                _ => return self.err("cmp rs1, rs2|imm"),
            },
            "cmpi" => match self.two(&ops)? {
                (Operand::Reg(rs1), Operand::Imm(v)) => {
                    self.emit_op(Op::CmpI { rs1, imm: v as u32 }, None)
                }
                _ => return self.err("cmpi rs1, imm"),
            },
            "jmp" => match self.one(&ops)? {
                Operand::Label(s, a) => self.emit_op(Op::Jmp { target: 0 }, Some((s, a))),
                Operand::Imm(v) => self.emit_op(Op::Jmp { target: v as u32 }, None),
                _ => return self.err("jmp label"),
            },
            m if let Some(c) = cond(m) => match self.one(&ops)? {
                Operand::Label(s, a) => {
                    self.emit_op(Op::JCond { cond: c, target: 0 }, Some((s, a)))
                }
                Operand::Imm(v) => self.emit_op(
                    Op::JCond {
                        cond: c,
                        target: v as u32,
                    },
                    None,
                ),
                _ => return self.err(format!("{m} label")),
            },
            "jmpr" => match self.one(&ops)? {
                Operand::Reg(rs) => self.emit_op(Op::JmpR { rs }, None),
                _ => return self.err("jmpr rs"),
            },
            "call" => match self.one(&ops)? {
                Operand::Label(s, a) => self.emit_op(Op::Call { target: 0 }, Some((s, a))),
                Operand::Imm(v) => self.emit_op(Op::Call { target: v as u32 }, None),
                _ => return self.err("call label"),
            },
            "callr" => match self.one(&ops)? {
                Operand::Reg(rs) => self.emit_op(Op::CallR { rs }, None),
                _ => return self.err("callr rs"),
            },
            "push" => match self.one(&ops)? {
                Operand::Reg(rs) => self.emit_op(Op::Push { rs }, None),
                _ => return self.err("push rs"),
            },
            "pop" => match self.one(&ops)? {
                Operand::Reg(rd) => self.emit_op(Op::Pop { rd }, None),
                _ => return self.err("pop rd"),
            },
            "sys" => {
                let name = args.trim();
                let sc = Syscall::parse(name).ok_or_else(|| SvmError::Asm {
                    line: self.line,
                    msg: format!("unknown syscall `{name}`"),
                })?;
                self.emit_op(Op::Sys { num: sc.num() }, None);
            }
            other => return self.err(format!("unknown mnemonic `{other}`")),
        }
        Ok(())
    }

    fn one(&self, ops: &[Operand]) -> Result<Operand, SvmError> {
        if ops.len() != 1 {
            return self.err(format!("expected 1 operand, got {}", ops.len()));
        }
        Ok(ops[0].clone())
    }

    fn two(&self, ops: &[Operand]) -> Result<(Operand, Operand), SvmError> {
        if ops.len() != 2 {
            return self.err(format!("expected 2 operands, got {}", ops.len()));
        }
        Ok((ops[0].clone(), ops[1].clone()))
    }

    fn three(&self, ops: &[Operand]) -> Result<(Operand, Operand, Operand), SvmError> {
        if ops.len() != 3 {
            return self.err(format!("expected 3 operands, got {}", ops.len()));
        }
        Ok((ops[0].clone(), ops[1].clone(), ops[2].clone()))
    }

    fn parse_operand(&self, s: &str) -> Result<Operand, SvmError> {
        let s = s.trim();
        if let Some(inner) = s.strip_prefix('[') {
            let inner = inner.strip_suffix(']').ok_or_else(|| SvmError::Asm {
                line: self.line,
                msg: "unclosed `[`".into(),
            })?;
            let parts = split_commas(inner);
            let (rs, off) = match parts.len() {
                1 => (parts[0].trim().to_string(), 0i64),
                2 => (
                    parts[0].trim().to_string(),
                    self.parse_int(parts[1].trim())?,
                ),
                _ => return self.err("memory operand is [reg] or [reg, off]"),
            };
            let r = Reg::parse(&rs).ok_or_else(|| SvmError::Asm {
                line: self.line,
                msg: format!("bad reg `{rs}`"),
            })?;
            return Ok(Operand::Mem(r, off));
        }
        if let Some(r) = Reg::parse(s) {
            return Ok(Operand::Reg(r));
        }
        if let Ok(v) = self.parse_int(s) {
            return Ok(Operand::Imm(v));
        }
        // label, label+N, label-N.
        let (name, addend) = if let Some(i) = s[1..].find(['+', '-']).map(|i| i + 1) {
            let (n, rest) = s.split_at(i);
            (n, self.parse_int(rest)?)
        } else {
            (s, 0)
        };
        if is_ident(name) {
            return Ok(Operand::Label(name.to_string(), addend));
        }
        self.err(format!("bad operand `{s}`"))
    }

    fn parse_int(&self, s: &str) -> Result<i64, SvmError> {
        let s = s.trim();
        let (neg, body) = match s.strip_prefix('-') {
            Some(b) => (true, b),
            None => (false, s.strip_prefix('+').unwrap_or(s)),
        };
        let v: i64 = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X"))
        {
            i64::from_str_radix(hex, 16).map_err(|_| SvmError::Asm {
                line: self.line,
                msg: format!("bad hex `{s}`"),
            })?
        } else if body.starts_with('\'') {
            let c =
                self.parse_string(&format!("\"{}\"", &body[1..body.len().saturating_sub(1)]))?;
            if c.len() != 1 {
                return self.err(format!("bad char literal `{s}`"));
            }
            c[0] as i64
        } else {
            body.parse().map_err(|_| SvmError::Asm {
                line: self.line,
                msg: format!("bad int `{s}`"),
            })?
        };
        Ok(if neg { -v } else { v })
    }

    fn parse_string(&self, s: &str) -> Result<Vec<u8>, SvmError> {
        let s = s.trim();
        let inner = s
            .strip_prefix('"')
            .and_then(|t| t.strip_suffix('"'))
            .ok_or_else(|| SvmError::Asm {
                line: self.line,
                msg: format!("bad string `{s}`"),
            })?;
        let mut out = Vec::new();
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '\\' {
                let esc = chars.next().ok_or_else(|| SvmError::Asm {
                    line: self.line,
                    msg: "dangling \\".into(),
                })?;
                out.push(match esc {
                    'n' => b'\n',
                    'r' => b'\r',
                    't' => b'\t',
                    '0' => 0,
                    '\\' => b'\\',
                    '"' => b'"',
                    '\'' => b'\'',
                    other => {
                        return self.err(format!("bad escape `\\{other}`"));
                    }
                });
            } else {
                let mut buf = [0u8; 4];
                out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
            }
        }
        Ok(out)
    }
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut in_char = false;
    let mut prev_escape = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' if !prev_escape && !in_char => in_str = !in_str,
            '\'' if !prev_escape && !in_str => in_char = !in_char,
            ';' | '#' if !in_str && !in_char => return &line[..i],
            _ => {}
        }
        prev_escape = c == '\\' && !prev_escape;
    }
    line
}

/// Find the colon ending a leading label, ignoring colons in strings.
fn find_label_colon(s: &str) -> Option<usize> {
    let candidate = s.find(':')?;
    // A label must be a bare identifier before the colon.
    if is_ident(s[..candidate].trim()) {
        Some(candidate)
    } else {
        None
    }
}

fn is_ident(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .map(|c| c.is_ascii_alphabetic() || c == '_')
            .unwrap_or(false)
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Split on top-level commas (not inside brackets or strings).
fn split_commas(s: &str) -> Vec<String> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut in_str = false;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '[' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            ']' if !in_str => {
                depth = depth.saturating_sub(1);
                cur.push(c);
            }
            ',' if depth == 0 && !in_str => {
                parts.push(cur.trim().to_string());
                cur = String::new();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        parts.push(cur.trim().to_string());
    }
    parts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isa::Op;

    fn decode_at(prog: &Program, seg: Seg, idx: usize) -> Op {
        let bytes = prog.seg_bytes(seg);
        let mut w = [0u8; 8];
        w.copy_from_slice(&bytes[idx * 8..idx * 8 + 8]);
        Op::decode(w, 0).expect("decode")
    }

    #[test]
    fn assembles_basic_program() {
        let p = assemble(
            "
.text
main:
    movi r0, 0x10
    addi r1, r0, -4
    halt
",
        )
        .expect("ok");
        assert_eq!(p.text.len(), 24);
        assert_eq!(
            decode_at(&p, Seg::Text, 0),
            Op::MovI {
                rd: Reg(0),
                imm: 0x10
            }
        );
        assert_eq!(
            decode_at(&p, Seg::Text, 1),
            Op::AluI {
                op: AluOp::Add,
                rd: Reg(1),
                rs1: Reg(0),
                imm: -4
            }
        );
        assert_eq!(decode_at(&p, Seg::Text, 2), Op::Halt);
    }

    #[test]
    fn labels_generate_relocs() {
        let p = assemble(
            "
.text
main:
    movi r0, msg
    call f
    jmp main
f:
    ret
.data
msg: .string \"hi\"
",
        )
        .expect("ok");
        assert_eq!(p.relocs.len(), 3);
        assert_eq!(
            p.symbols["msg"],
            Sym {
                seg: Seg::Data,
                off: 0
            }
        );
        assert_eq!(
            p.symbols["f"],
            Sym {
                seg: Seg::Text,
                off: 24
            }
        );
        assert_eq!(p.data, b"hi\0");
    }

    #[test]
    fn rejects_undefined_symbol() {
        let e = assemble(".text\nmain:\n jmp nowhere\n").unwrap_err();
        assert!(e.to_string().contains("nowhere"));
    }

    #[test]
    fn rejects_missing_entry() {
        let e = assemble(".text\nstart:\n halt\n").unwrap_err();
        assert!(e.to_string().contains("main"));
        assert!(assemble(".entry start\n.text\nstart:\n halt\n").is_ok());
    }

    #[test]
    fn rejects_duplicate_label() {
        let e = assemble(".text\nmain:\nmain:\n halt\n").unwrap_err();
        assert!(e.to_string().contains("duplicate"));
    }

    #[test]
    fn rejects_instructions_in_data() {
        let e = assemble(".data\nmain:\n movi r0, 1\n").unwrap_err();
        assert!(e.to_string().contains(".data"));
    }

    #[test]
    fn memory_operands() {
        let p = assemble(".text\nmain:\n ld r1, [fp, -8]\n st [sp, 4], r2\n ldb r3, [r4]\n halt\n")
            .expect("ok");
        assert_eq!(
            decode_at(&p, Seg::Text, 0),
            Op::Ld {
                rd: Reg(1),
                rs: Reg::FP,
                off: -8
            }
        );
        assert_eq!(
            decode_at(&p, Seg::Text, 1),
            Op::St {
                rd: Reg::SP,
                rs: Reg(2),
                off: 4
            }
        );
        assert_eq!(
            decode_at(&p, Seg::Text, 2),
            Op::LdB {
                rd: Reg(3),
                rs: Reg(4),
                off: 0
            }
        );
    }

    #[test]
    fn string_escapes_and_char_literals() {
        let p = assemble(".text\nmain:\n cmpi r0, 'a'\n halt\n.data\ns: .string \"a\\n\\0b\"\n")
            .expect("ok");
        assert_eq!(p.data, b"a\n\0b\0");
        assert_eq!(
            decode_at(&p, Seg::Text, 0),
            Op::CmpI {
                rs1: Reg(0),
                imm: b'a' as u32
            }
        );
    }

    #[test]
    fn word_directive_with_labels() {
        let p = assemble(
            ".text\nmain:\n halt\n.data\ntbl: .word 1, main, 0x10\nx: .byte 1, 2\n.space 3\n",
        )
        .expect("ok");
        assert_eq!(p.data.len(), 4 * 3 + 2 + 3);
        assert_eq!(&p.data[0..4], &1u32.to_le_bytes());
        let r = &p.relocs[0];
        assert_eq!((r.seg, r.slot, r.symbol.as_str()), (Seg::Data, 4, "main"));
    }

    #[test]
    fn label_plus_offset() {
        let p =
            assemble(".text\nmain:\n movi r0, buf+8\n halt\n.data\nbuf: .space 16\n").expect("ok");
        assert_eq!(p.relocs[0].addend, 8);
    }

    #[test]
    fn lib_segment_and_comments() {
        let p = assemble(
            "; comment\n.text\nmain: call helper ; tail comment\n halt\n.lib\nhelper:\n ret # other comment style\n",
        )
        .expect("ok");
        assert_eq!(p.symbols["helper"].seg, Seg::Lib);
        assert_eq!(p.lib.len(), 8);
    }

    #[test]
    fn sys_mnemonics() {
        let p = assemble(".text\nmain:\n sys read\n sys exit\n").expect("ok");
        assert_eq!(
            decode_at(&p, Seg::Text, 0),
            Op::Sys {
                num: Syscall::Read.num()
            }
        );
        assert_eq!(
            decode_at(&p, Seg::Text, 1),
            Op::Sys {
                num: Syscall::Exit.num()
            }
        );
        assert!(assemble(".text\nmain:\n sys bogus\n").is_err());
    }
}
