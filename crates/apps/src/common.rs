//! Shared scaffolding for the vulnerable guest servers.
//!
//! Each server (Table 1 analogue) exports: its assembly source, an
//! assembled [`Program`], exploit builders, and a benign-request
//! generator. The `malloc`/`free` library wrappers live here so that
//! heap faults are attributed to *library* code (the paper's crash sites
//! are `lib. free`/`lib. strcat`), with the application callsite one
//! frame up — recovered by the analyses via shadow call stacks.

use std::sync::Arc;

use svm::asm::{assemble, Program};
use svm::loader::{Aslr, Layout};
use svm::{Machine, SvmError};

/// Marker string a successful compromise writes back on the connection;
/// the harness treats its presence as "host infected".
pub const PWNED_MARKER: &[u8] = b"0WNED-BY-WORM";

/// Library wrappers for the allocator syscalls.
///
/// Faults raised by corrupt heap metadata surface at the `sys` instruction
/// inside these wrappers, i.e. *inside the library*, matching the paper's
/// crash-site attribution.
pub const RT_ASM: &str = r#"
.lib
; --- malloc(size) -> ptr --------------------------------------------------
malloc:
    sys alloc
    ret

; --- free(ptr) ------------------------------------------------------------
free:
    sys free
    ret
"#;

/// The four bug classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugType {
    /// Stack-smashing buffer overflow (Apache1, CVE-2003-0542 analogue).
    StackSmash,
    /// NULL-pointer dereference (Apache2, CVE-2003-1054 analogue).
    NullDeref,
    /// Double free (CVS, CVE-2003-0015 analogue).
    DoubleFree,
    /// Heap buffer overflow (Squid, CVE-2002-0068 analogue).
    HeapOverflow,
}

impl core::fmt::Display for BugType {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            BugType::StackSmash => "Stack Smashing",
            BugType::NullDeref => "NULL Pointer",
            BugType::DoubleFree => "Double Free",
            BugType::HeapOverflow => "Heap Buffer Overflow",
        };
        write!(f, "{s}")
    }
}

/// A vulnerable server application (one row of Table 1).
pub struct App {
    /// Short name (`Apache1`, `Apache2`, `CVS`, `Squid`).
    pub name: &'static str,
    /// The real-world program it stands in for.
    pub stands_for: &'static str,
    /// The CVE it reproduces.
    pub cve: &'static str,
    /// Bug class.
    pub bug: BugType,
    /// Threat description (Table 1 column).
    pub threat: &'static str,
    /// Full assembly source.
    pub source: String,
    /// Assembled program, shared with every host that protects it.
    pub program: Arc<Program>,
}

impl App {
    /// Assemble an app from its parts.
    pub fn build(
        name: &'static str,
        stands_for: &'static str,
        cve: &'static str,
        bug: BugType,
        threat: &'static str,
        source: String,
    ) -> Result<App, SvmError> {
        let program = Arc::new(assemble(&source)?);
        Ok(App {
            name,
            stands_for,
            cve,
            bug,
            threat,
            source,
            program,
        })
    }

    /// Boot a fresh instance under the given randomization policy.
    pub fn boot(&self, aslr: Aslr) -> Result<Machine, SvmError> {
        Machine::boot(&self.program, aslr)
    }

    /// Boot at an explicit layout (for compromise-variant experiments
    /// where the attacker's assumed layout matches reality).
    pub fn boot_at(&self, layout: Layout) -> Result<Machine, SvmError> {
        Machine::boot_with_layout(&self.program, layout)
    }
}

/// Whether a machine shows the compromise marker on any connection
/// output or in the debug log (i.e. attacker shellcode ran).
pub fn is_compromised(m: &Machine) -> bool {
    let has = |hay: &[u8]| hay.windows(PWNED_MARKER.len()).any(|w| w == PWNED_MARKER);
    m.net.conns().iter().any(|c| has(&c.output)) || has(&m.net.log)
}

/// Build the encoded shellcode used by compromise-variant exploits.
///
/// The payload runs with the connection id still live in `r10` (all our
/// servers keep it there): it writes [`PWNED_MARKER`] back on the
/// connection — the worm's "propagation" stand-in — then exits. The
/// marker string is embedded right after the code; `payload_base` is the
/// absolute guest address where the returned bytes will live.
pub fn shellcode(payload_base: u32) -> Vec<u8> {
    use svm::isa::{Op, Reg, Syscall};
    let insns = 5;
    let marker_addr = payload_base + insns * 8;
    let mut code = Vec::new();
    code.extend_from_slice(
        &Op::Mov {
            rd: Reg::R0,
            rs: Reg(10),
        }
        .encode(),
    );
    code.extend_from_slice(
        &Op::MovI {
            rd: Reg::R1,
            imm: marker_addr,
        }
        .encode(),
    );
    code.extend_from_slice(
        &Op::MovI {
            rd: Reg::R2,
            imm: PWNED_MARKER.len() as u32,
        }
        .encode(),
    );
    code.extend_from_slice(
        &Op::Sys {
            num: Syscall::Write.num(),
        }
        .encode(),
    );
    code.extend_from_slice(
        &Op::Sys {
            num: Syscall::Exit.num(),
        }
        .encode(),
    );
    debug_assert_eq!(code.len() as u32, insns * 8);
    code.extend_from_slice(PWNED_MARKER);
    code
}

/// An attack request paired with provenance, for harnesses.
#[derive(Debug, Clone)]
pub struct Exploit {
    /// Which app it targets.
    pub app: &'static str,
    /// Raw request bytes.
    pub input: Vec<u8>,
    /// Human description of the variant.
    pub variant: &'static str,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shellcode_embeds_marker_after_code() {
        let sc = shellcode(0x1000);
        assert_eq!(&sc[40..], PWNED_MARKER);
        // First instruction decodes.
        let mut w = [0u8; 8];
        w.copy_from_slice(&sc[..8]);
        assert!(svm::isa::Op::decode(w, 0).is_ok());
    }

    #[test]
    fn rt_asm_assembles_alone() {
        let src = format!(".text\nmain:\n movi r0, 32\n call malloc\n halt\n{RT_ASM}");
        let prog = assemble(&src).expect("asm");
        assert!(prog.symbols.contains_key("malloc"));
        assert!(prog.symbols.contains_key("free"));
    }
}
