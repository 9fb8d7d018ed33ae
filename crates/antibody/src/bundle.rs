//! Antibody bundles: packaging, piecemeal distribution, and verification.
//!
//! Paper §3.3 "Distribution": "The concrete manifestation of an antibody
//! to be disseminated is a set of VSEFs and an exploit-triggering input."
//! Consumers may apply VSEFs immediately (they are safe by construction —
//! at worst they add unnecessary checks) and defer verification; to
//! verify, a host replays the exploit input against a sandboxed, fully
//! instrumented instance and confirms the detection. Results are
//! distributed piecemeal: each analysis stage's output is shared as soon
//! as it exists, so the first (weaker) VSEF races the worm while refined
//! VSEFs and signatures follow.

use svm::asm::Program;
use svm::loader::Aslr;
use svm::{Machine, Status};

use crate::signature::{Signature, SignatureSet};
use crate::vsef::{VsefRuntime, VsefSpec};

/// One distributable antibody item, stamped with its production time.
#[derive(Debug, Clone, PartialEq)]
pub enum AntibodyItem {
    /// A vulnerability-specific execution filter.
    Vsef(VsefSpec),
    /// An input signature.
    Signature(Signature),
    /// The exploit-triggering input (enables local verification and
    /// independent re-analysis by untrusting hosts).
    ExploitInput(Vec<u8>),
}

/// A timestamped antibody item as released by a producer.
#[derive(Debug, Clone, PartialEq)]
pub struct Release {
    /// The item.
    pub item: AntibodyItem,
    /// Milliseconds (virtual time) after detection when it became
    /// available — first VSEF at tens of ms, refined ones later.
    pub at_ms: f64,
}

/// The full antibody for one vulnerability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Antibody {
    /// Releases in production order.
    pub releases: Vec<Release>,
}

impl Antibody {
    /// An empty antibody.
    pub fn new() -> Antibody {
        Antibody::default()
    }

    /// Record a release.
    pub fn push(&mut self, item: AntibodyItem, at_ms: f64) {
        self.releases.push(Release { item, at_ms });
    }

    /// Time of the first VSEF release (the worm-race-critical number).
    pub fn first_vsef_ms(&self) -> Option<f64> {
        self.releases
            .iter()
            .find(|r| matches!(r.item, AntibodyItem::Vsef(_)))
            .map(|r| r.at_ms)
    }

    /// All VSEF specs released so far.
    pub fn vsefs(&self) -> Vec<VsefSpec> {
        self.releases
            .iter()
            .filter_map(|r| match &r.item {
                AntibodyItem::Vsef(v) => Some(v.clone()),
                _ => None,
            })
            .collect()
    }

    /// All signatures released so far, as a deployable set.
    pub fn signatures(&self) -> SignatureSet {
        let mut set = SignatureSet::new();
        for r in &self.releases {
            if let AntibodyItem::Signature(s) = &r.item {
                set.add(s.clone());
            }
        }
        set
    }

    /// The exploit input, if released.
    pub fn exploit_input(&self) -> Option<&[u8]> {
        self.releases.iter().find_map(|r| match &r.item {
            AntibodyItem::ExploitInput(i) => Some(i.as_slice()),
            _ => None,
        })
    }

    /// Releases available at or before `at_ms` (what a consumer that
    /// received the piecemeal stream up to that time has).
    pub fn available_at(&self, at_ms: f64) -> Antibody {
        Antibody {
            releases: self
                .releases
                .iter()
                .filter(|r| r.at_ms <= at_ms)
                .cloned()
                .collect(),
        }
    }
}

/// Verdict of sandboxed antibody verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verification {
    /// The exploit input tripped a deployed VSEF (best case).
    VsefDetected {
        /// Which kind fired.
        kind: &'static str,
    },
    /// The exploit input crashed the sandbox without a VSEF firing
    /// (the antibody is incomplete but the input is genuinely hostile).
    CrashOnly,
    /// The exploit input was matched by a signature before delivery.
    SignatureMatched,
    /// Nothing happened: the antibody failed verification.
    Failed,
}

/// Verify an antibody against a program in a fresh randomized sandbox.
///
/// Paper: "in a sandbox, feed the input to the vulnerable program while
/// performing heavy-weight analysis" — here the deployed VSEFs *are* the
/// checks; a crash without detection still certifies hostility.
///
/// Antibody VSEF addresses are (by distribution convention) normalized to
/// the nominal layout; they are rebased onto the sandbox's layout here.
pub fn verify(program: &Program, antibody: &Antibody, seed: u64) -> Verification {
    let Some(input) = antibody.exploit_input() else {
        return Verification::Failed;
    };
    if antibody.signatures().matches(input) {
        return Verification::SignatureMatched;
    }
    let Ok(mut m) = Machine::boot(program, Aslr::on(seed)) else {
        return Verification::Failed;
    };
    let nominal = svm::loader::Layout::nominal();
    let specs = antibody
        .vsefs()
        .iter()
        .map(|v| v.rebase(&nominal, &m.layout))
        .collect::<Vec<_>>();
    m.net.push_connection(input.to_vec());
    let mut ins = dbi::Instrumenter::new();
    let id = ins.attach(Box::new(VsefRuntime::new(specs)));
    let status = m.run(&mut ins, 1_000_000_000);
    let Some(vr) = ins.get::<VsefRuntime>(id) else {
        return Verification::Failed;
    };
    if let Some(d) = vr.detections().first() {
        return Verification::VsefDetected { kind: d.vsef_kind };
    }
    if matches!(status, Status::Faulted(_)) {
        return Verification::CrashOnly;
    }
    Verification::Failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::exact_from;
    use svm::asm::assemble;

    fn smasher_prog() -> Program {
        assemble(
            "
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
",
        )
        .expect("asm")
    }

    fn exploit() -> Vec<u8> {
        0x6666_6666u32.to_le_bytes().to_vec()
    }

    #[test]
    fn piecemeal_releases_accumulate() {
        let mut ab = Antibody::new();
        ab.push(AntibodyItem::Vsef(VsefSpec::NullCheck { insn_pc: 4 }), 42.0);
        ab.push(AntibodyItem::Signature(exact_from(b"x")), 9000.0);
        ab.push(AntibodyItem::ExploitInput(b"x".to_vec()), 9500.0);
        assert_eq!(ab.first_vsef_ms(), Some(42.0));
        let early = ab.available_at(100.0);
        assert_eq!(early.releases.len(), 1);
        assert!(early.signatures().is_empty());
        assert!(early.exploit_input().is_none());
        let late = ab.available_at(10_000.0);
        assert_eq!(late.signatures().len(), 1);
        assert_eq!(late.exploit_input(), Some(b"x".as_slice()));
    }

    #[test]
    fn verification_detects_via_vsef() {
        let prog = smasher_prog();
        let img = svm::loader::load(&prog, svm::loader::Layout::nominal()).expect("load");
        let func = img.symbols.addr_of("victim").expect("victim");
        let mut ab = Antibody::new();
        ab.push(
            AntibodyItem::Vsef(VsefSpec::RetAddrGuard {
                func,
                func_name: "victim".into(),
            }),
            40.0,
        );
        ab.push(AntibodyItem::ExploitInput(exploit()), 50.0);
        // verify() rebases the nominal-layout VSEF addresses onto the
        // randomized sandbox's layout.
        for seed in [1u64, 7, 1234] {
            let v = verify(&prog, &ab, seed);
            assert_eq!(
                v,
                Verification::VsefDetected {
                    kind: "ret-addr-guard"
                },
                "seed {seed}"
            );
        }
    }

    #[test]
    fn verification_crash_only_without_vsefs() {
        let prog = smasher_prog();
        let mut ab = Antibody::new();
        ab.push(AntibodyItem::ExploitInput(exploit()), 50.0);
        assert_eq!(verify(&prog, &ab, 99), Verification::CrashOnly);
    }

    #[test]
    fn verification_fails_on_benign_input() {
        let prog = smasher_prog();
        let mut ab = Antibody::new();
        // A "benign" input that leaves the return address intact is not a
        // certifiable exploit... but any 4 bytes overwrite the slot here;
        // send EOF-only (empty input) so the read returns 0 bytes.
        ab.push(AntibodyItem::ExploitInput(Vec::new()), 1.0);
        // Empty input: victim writes stale buf (zeros) over the ret slot
        // and crashes at pc 0 -> still a crash. Use a signature-matched
        // path to exercise Failed vs SignatureMatched instead.
        ab.push(AntibodyItem::Signature(exact_from(b"")), 2.0);
        assert_eq!(verify(&prog, &ab, 1), Verification::SignatureMatched);
        let empty = Antibody::new();
        assert_eq!(
            verify(&prog, &empty, 1),
            Verification::Failed,
            "no input, no verdict"
        );
    }
}
