//! Property test for `svm::icache` invalidation (PR 4 satellite).
//!
//! Generalizes the hand-written self-modifying-code cases in
//! `tests/decode_cache.rs`: a guest that perpetually re-installs code
//! into an executable buffer (guest-store SMC) is driven through a
//! *random interleaving* of single steps, bounded `Machine::run`
//! bursts, host code patches, hook attach/detach, checkpoint clones,
//! and rollbacks — once with the predecoded instruction cache on and
//! once with it off. Every interleaving must leave the two machines
//! bit-identical (pc, registers, retired instructions, virtual cycles)
//! and must show a live hook the same instruction stream on both. Any
//! divergence means a stale cache line survived an invalidation path,
//! or a run skipped events a hook was owed.

use proptest::collection::vec;
use proptest::prelude::*;
use sweeper_repro::checkpoint::{CheckpointManager, CkptId};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::isa::Op;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Hook, Interest, Machine, NopHook, Status};

/// A guest that alternates between installing `tmpl_a` (verdict 7) and
/// `tmpl_b` (verdict 9) into an executable data buffer and calling it:
/// guest stores hit a hot executable page on every loop iteration.
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
    /// Step the guest this many instructions.
    Step(u32),
    /// Run the guest for this many virtual cycles (the `Machine::run`
    /// loop).
    Run(u32),
    /// Host-patch the executable buffer with template 0 or 1 (the same
    /// injection mechanism exploit payload installation uses).
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
        (1u32..300).prop_map(HostOp::Step),
        (1u32..800).prop_map(HostOp::Run),
        (0u8..2).prop_map(HostOp::Patch),
        Just(HostOp::Attach),
        Just(HostOp::Detach),
        Just(HostOp::Checkpoint),
        any::<u64>().prop_map(HostOp::Rollback),
    ]
}

/// Observable state that must stay identical across the cache knob.
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

struct Leg {
    m: Machine,
    hook: ToggleHook,
    mgr: CheckpointManager,
    ckpts: Vec<CkptId>,
}

impl Leg {
    fn boot(cache: bool) -> Leg {
        let prog = assemble(SMC_LOOP_GUEST).expect("asm");
        let m = Machine::boot(&prog, Aslr::off())
            .expect("boot")
            .with_decode_cache(cache);
        Leg {
            m,
            hook: ToggleHook::default(),
            // Manual cadence, generous retention: the interleaving
            // decides when clones happen.
            mgr: CheckpointManager::new(u64::MAX, 8),
            ckpts: Vec::new(),
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
            HostOp::Step(n) => {
                for _ in 0..*n {
                    if !matches!(self.m.step_hooked(&mut self.hook), Status::Running) {
                        break;
                    }
                }
            }
            HostOp::Run(cycles) => {
                self.m.run(&mut self.hook, u64::from(*cycles));
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

    /// Random interleavings of guest-store SMC, steps and run bursts,
    /// host patches, hook attach/detach, clones, and rollbacks keep
    /// cache-on and cache-off execution bit-identical after every single
    /// operation, delivering identical hook streams.
    #[test]
    fn interleaved_smc_patches_clones_rollbacks_keep_cache_parity(
        ops in vec(arb_op(), 1..32),
    ) {
        let mut on = Leg::boot(true);
        let mut off = Leg::boot(false);
        for (i, op) in ops.iter().enumerate() {
            on.apply(op);
            off.apply(op);
            prop_assert_eq!(
                obs(&on.m),
                obs(&off.m),
                "diverged after op {} = {:?}",
                i,
                op
            );
            prop_assert_eq!(
                on.hook.insns,
                off.hook.insns,
                "hook streams diverged after op {} = {:?}",
                i,
                op
            );
        }
        // The off-leg cache must stay inert through every interleaving.
        // (Rollback restores a machine with a fresh cache, so the on-leg
        // stats can legitimately be empty here; the dense companion test
        // below pins engagement and invalidation.)
        prop_assert_eq!(off.m.icache_stats(), Default::default());
    }
}

/// Deterministic companion: a fixed dense interleaving that exercises
/// every op kind and *must* produce invalidations, so a regression that
/// silently disables invalidation accounting fails loudly.
#[test]
fn dense_interleaving_invalidates_and_stays_in_parity() {
    let mut on = Leg::boot(true);
    let mut off = Leg::boot(false);
    let script = [
        HostOp::Step(200),
        HostOp::Checkpoint,
        HostOp::Step(150),
        HostOp::Patch(1),
        HostOp::Step(90),
        HostOp::Rollback(0),
        HostOp::Step(120),
        HostOp::Patch(0),
        HostOp::Checkpoint,
        HostOp::Step(300),
        HostOp::Rollback(1),
        // Enough post-rollback work that the (fresh, rollback-reset)
        // cache re-engages and guest SMC invalidates it again.
        HostOp::Step(300),
        // Run bursts with the hook attached, then detached again.
        HostOp::Run(900),
        HostOp::Attach,
        HostOp::Run(350),
        HostOp::Patch(1),
        HostOp::Step(40),
        HostOp::Detach,
        HostOp::Run(600),
    ];
    for op in &script {
        on.apply(op);
        off.apply(op);
        assert_eq!(obs(&on.m), obs(&off.m), "diverged after {op:?}");
        assert_eq!(on.hook.insns, off.hook.insns, "hooks after {op:?}");
    }
    assert!(on.hook.insns > 0, "the attached hook saw instructions");
    assert!(on.m.icache_stats().hits > 0, "cache engaged");
    assert!(
        on.m.icache_stats().invalidations > 0,
        "guest SMC + host patches must invalidate: {:?}",
        on.m.icache_stats()
    );
}

/// Regression: a passive-hook fast-path decision made before
/// `Machine::clone` must not leak into the clone. If the machine cached
/// "hook is passive" anywhere copyable, a hook attaching between the
/// clone and its first step could miss the clone's first
/// instruction(s). The hook's interest must be asked on the clone's
/// first run.
#[test]
fn clone_does_not_inherit_passive_fast_path_decision() {
    let prog = assemble(SMC_LOOP_GUEST).expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    // Decide the passive fast path on the live machine.
    assert!(m.run(&mut NopHook, 1_000).is_running());

    // Clone, then attach a live hook before the clone's first step.
    let mut c = m.clone();
    let mut h = ToggleHook {
        live: true,
        insns: 0,
    };
    let before = c.insns_retired;
    assert!(c.run(&mut h, 500).is_running());
    let retired = c.insns_retired - before;
    assert!(retired > 0, "the clone made progress");
    assert_eq!(
        h.insns, retired,
        "the hook must see the clone's very first instruction — \
         liveness is re-checked on the first dispatch, never inherited"
    );

    // Control: the pre-clone machine itself keeps fast-pathing, and the
    // two stay bit-identical when driven by equivalent passive work.
    let mut n = NopHook;
    assert!(m.run(&mut n, 500).is_running());
    assert_eq!(obs(&m), obs(&c), "hooked clone matches passive original");
}
