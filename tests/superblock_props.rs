//! Property test for the `Machine::run` loop against its two references.
//!
//! The file keeps the name it had while it covered the superblock tier;
//! that tier is gone, and `run` is now one loop of decode-cached steps
//! plus a deadline check that enters the machine (status and layout
//! check) once per call. A self-modifying guest is driven through a
//! random interleaving of cycle-bounded run bursts, host code patches,
//! hook attach/detach, checkpoint clones, and rollbacks — once per
//! execution path:
//!
//! - `Interp`: `run` on the word-at-a-time interpreter (cache off);
//! - `CachedRun`: `run` on the decode cache;
//! - `CachedStep`: the same cycle budget spent through `step_hooked`,
//!   which re-enters the machine and re-asks the hook's interest before
//!   every instruction.
//!
//! The three machines must stay bit-identical (pc, registers, retired
//! instructions, virtual cycles) after **every operation**, and a live
//! hook must see exactly the same instruction stream on every path. A
//! divergence means a stale cache line survived an invalidation path,
//! or a run skipped events a hook was owed because it entered once.

use proptest::collection::vec;
use proptest::prelude::*;
use sweeper_repro::checkpoint::{CheckpointManager, CkptId};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::isa::Op;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Hook, Interest, Machine, Status};

/// Same perpetual guest-store SMC guest as `tests/icache_props.rs`:
/// alternating templates are installed into an executable buffer and
/// called, so hot executable pages are rewritten continuously.
const SMC_LOOP_GUEST: &str = "
.text
main:
    movi r10, 0          ; template toggle
loop:
    cmpi r10, 0
    jz use_a
    movi r9, tmpl_b
    jmp inst
use_a:
    movi r9, tmpl_a
inst:
    call install
    call buf
    add r3, r3, r2       ; accumulate verdicts
    addi r4, r4, 1       ; iteration counter
    movi r11, 1
    sub r10, r11, r10    ; r10 = 1 - r10
    jmp loop
; copy 4 words from [r9] to buf
install:
    movi r5, buf
    movi r6, 4
icopy:
    ld r8, [r9, 0]
    st [r5, 0], r8
    addi r9, r9, 4
    addi r5, r5, 4
    subi r6, r6, 1
    cmpi r6, 0
    jnz icopy
    ret
tmpl_a:
    movi r2, 7
    ret
tmpl_b:
    movi r2, 9
    ret
.data
buf: .space 16
";

/// One host-side action in the interleaving.
#[derive(Debug, Clone)]
enum HostOp {
    /// Run the guest for this many virtual cycles.
    Run(u32),
    /// Host-patch the executable buffer with template 0 or 1.
    Patch(u8),
    /// Attach the counting hook (liveness flips mid-execution).
    Attach,
    /// Detach the hook.
    Detach,
    /// Take a checkpoint (COW clone of the whole machine).
    Checkpoint,
    /// Roll back to a retained checkpoint selected by this value.
    Rollback(u64),
}

fn arb_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        (1u32..800).prop_map(HostOp::Run),
        (0u8..2).prop_map(HostOp::Patch),
        Just(HostOp::Attach),
        Just(HostOp::Detach),
        Just(HostOp::Checkpoint),
        any::<u64>().prop_map(HostOp::Rollback),
    ]
}

/// Observable state that must stay identical across the paths.
fn obs(m: &Machine) -> (u32, [u32; 15], u64, u64) {
    (m.cpu.pc, m.cpu.regs, m.insns_retired, m.clock.cycles())
}

/// Read the 16 template bytes at `label` out of guest memory.
fn template_bytes(m: &Machine, label: &str) -> [u8; 16] {
    let addr = m.symbols.addr_of(label).expect("template label");
    let mut bytes = [0u8; 16];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(0, addr + i as u32).expect("template read");
    }
    bytes
}

/// A hook whose liveness the schedule toggles; counts every
/// instruction it is shown while live.
#[derive(Default)]
struct ToggleHook {
    live: bool,
    insns: u64,
}

impl Hook for ToggleHook {
    fn interest(&self, out: &mut Interest) {
        if self.live {
            out.add_everything();
        }
    }
    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {
        self.insns += 1;
    }
}

/// One execution path.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Interp,
    CachedRun,
    CachedStep,
}

struct Leg {
    path: Path,
    m: Machine,
    hook: ToggleHook,
    mgr: CheckpointManager,
    ckpts: Vec<CkptId>,
}

impl Leg {
    fn boot(path: Path) -> Leg {
        let prog = assemble(SMC_LOOP_GUEST).expect("asm");
        let m = Machine::boot(&prog, Aslr::off())
            .expect("boot")
            .with_decode_cache(path != Path::Interp);
        Leg {
            path,
            m,
            hook: ToggleHook::default(),
            mgr: CheckpointManager::new(u64::MAX, 8),
            ckpts: Vec::new(),
        }
    }

    /// Spend `cycles` of virtual time with `run`'s contract (stop when
    /// the status leaves `Running` or the deadline passes), one
    /// `step_hooked` call per instruction.
    fn step_for(&mut self, cycles: u64) {
        let deadline = self.m.clock.cycles().saturating_add(cycles);
        while matches!(self.m.step_hooked(&mut self.hook), Status::Running)
            && self.m.clock.cycles() < deadline
        {}
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
            HostOp::Run(cycles) => {
                if self.path == Path::CachedStep {
                    self.step_for(u64::from(*cycles));
                } else {
                    self.m.run(&mut self.hook, u64::from(*cycles));
                }
            }
            HostOp::Patch(which) => {
                let label = if *which == 0 { "tmpl_a" } else { "tmpl_b" };
                let bytes = template_bytes(&self.m, label);
                let buf = self.m.symbols.addr_of("buf").expect("buf");
                self.m.mem.write_bytes_host(buf, &bytes).expect("patch");
            }
            HostOp::Attach => self.hook.live = true,
            HostOp::Detach => self.hook.live = false,
            HostOp::Checkpoint => {
                let id = self.mgr.take(&mut self.m);
                self.ckpts.push(id);
            }
            HostOp::Rollback(sel) => {
                if self.ckpts.is_empty() {
                    return;
                }
                let id = self.ckpts[(*sel as usize) % self.ckpts.len()];
                if let Some(rolled) = self.mgr.rollback(id) {
                    self.m = rolled;
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random schedules of SMC, host patches, hook attach/detach,
    /// clones, and rollbacks keep all three paths bit-identical after
    /// every single operation, delivering identical hook streams.
    #[test]
    fn interleaved_schedules_keep_three_tier_parity(
        ops in vec(arb_op(), 1..32),
    ) {
        let mut run = Leg::boot(Path::CachedRun);
        let mut step = Leg::boot(Path::CachedStep);
        let mut interp = Leg::boot(Path::Interp);
        for (i, op) in ops.iter().enumerate() {
            run.apply(op);
            step.apply(op);
            interp.apply(op);
            prop_assert_eq!(
                obs(&run.m), obs(&interp.m),
                "cached run loop diverged from interpreter after op {} = {:?}", i, op
            );
            prop_assert_eq!(
                obs(&step.m), obs(&interp.m),
                "cached stepping diverged from interpreter after op {} = {:?}", i, op
            );
            prop_assert_eq!(
                run.hook.insns, interp.hook.insns,
                "run-loop hook stream diverged after op {} = {:?}", i, op
            );
            prop_assert_eq!(
                step.hook.insns, interp.hook.insns,
                "stepping hook stream diverged after op {} = {:?}", i, op
            );
        }
        // The interpreter leg's cache must stay inert throughout, and
        // entering once per run or once per step must decode and
        // invalidate the same lines.
        prop_assert_eq!(interp.m.icache_stats(), Default::default());
        prop_assert_eq!(run.m.icache_stats(), step.m.icache_stats());
    }
}

/// Deterministic companion: a fixed dense schedule that must engage and
/// invalidate the run loop's decode cache, and must deliver hook events
/// on it, so silent cache-disablement regressions fail loudly.
#[test]
fn dense_schedule_engages_and_invalidates_superblocks() {
    let mut run = Leg::boot(Path::CachedRun);
    let mut step = Leg::boot(Path::CachedStep);
    let mut interp = Leg::boot(Path::Interp);
    let script = [
        HostOp::Run(900),
        HostOp::Checkpoint,
        HostOp::Patch(1),
        HostOp::Run(400),
        HostOp::Attach,
        HostOp::Run(350),
        HostOp::Detach,
        HostOp::Run(600),
        HostOp::Rollback(0),
        HostOp::Patch(0),
        // Enough post-rollback work that the (cold, rollback-reset)
        // cache re-engages and the patch invalidates a rebuilt line.
        HostOp::Run(900),
    ];
    for op in &script {
        run.apply(op);
        step.apply(op);
        interp.apply(op);
        assert_eq!(obs(&run.m), obs(&interp.m), "run diverged after {op:?}");
        assert_eq!(obs(&step.m), obs(&interp.m), "step diverged after {op:?}");
        assert_eq!(run.hook.insns, interp.hook.insns, "run hooks after {op:?}");
        assert_eq!(
            step.hook.insns, interp.hook.insns,
            "step hooks after {op:?}"
        );
    }
    let st = run.m.icache_stats();
    assert!(st.hits > 0, "cache engaged: {st:?}");
    assert!(
        st.invalidations > 0,
        "guest SMC and host patches invalidated: {st:?}"
    );
    assert_eq!(st, step.m.icache_stats(), "run and step paths cache alike");
    assert!(run.hook.insns > 0, "the attached hook saw instructions");
}
