//! Property test for the superblock execution tier (PR 6 satellite).
//!
//! Generalizes `tests/icache_props.rs` to the full three-tier stack and
//! to hook liveness: a self-modifying guest is driven through a random
//! interleaving of bounded `Machine::run` bursts, host code patches,
//! hook attach/detach, checkpoint clones, and rollbacks — once per
//! execution tier (interpreter, icache only, icache + superblocks). The
//! three machines must stay bit-identical (pc, registers, retired
//! instructions, virtual cycles) after **every operation**, and a live
//! hook must see exactly the same instruction stream on every tier. Any
//! divergence means a stale superblock survived an invalidation path,
//! or a block dispatched while a hook was owed events.

use proptest::collection::vec;
use proptest::prelude::*;
use sweeper_repro::checkpoint::{CheckpointManager, CkptId};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::isa::Op;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Hook, Interest, Machine};

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
    /// Run the guest for this many virtual cycles (the `Machine::run`
    /// loop, where the superblock tier engages).
    Run(u32),
    /// Host-patch the executable buffer with template 0 or 1.
    Patch(u8),
    /// Attach the counting hook (liveness flips mid-execution).
    Attach,
    /// Detach the hook (the fast path may re-engage).
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

/// Observable state that must stay identical across the tier knobs.
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

/// One execution stack.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Interp,
    Icache,
    Full,
}

struct Leg {
    m: Machine,
    hook: ToggleHook,
    mgr: CheckpointManager,
    ckpts: Vec<CkptId>,
}

impl Leg {
    fn boot(tier: Tier) -> Leg {
        let prog = assemble(SMC_LOOP_GUEST).expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let m = match tier {
            Tier::Interp => m.with_decode_cache(false),
            Tier::Icache => m.with_decode_cache(true).with_superblocks(false),
            Tier::Full => m.with_decode_cache(true),
        };
        Leg {
            m,
            hook: ToggleHook::default(),
            mgr: CheckpointManager::new(u64::MAX, 8),
            ckpts: Vec::new(),
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
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

    /// Random schedules of SMC, host patches, hook attach/detach,
    /// clones, and rollbacks keep all three tiers bit-identical after
    /// every single operation, delivering identical hook streams.
    #[test]
    fn interleaved_schedules_keep_three_tier_parity(
        ops in vec(arb_op(), 1..32),
    ) {
        let mut full = Leg::boot(Tier::Full);
        let mut icache = Leg::boot(Tier::Icache);
        let mut interp = Leg::boot(Tier::Interp);
        for (i, op) in ops.iter().enumerate() {
            full.apply(op);
            icache.apply(op);
            interp.apply(op);
            prop_assert_eq!(
                obs(&full.m), obs(&interp.m),
                "full stack diverged from interpreter after op {} = {:?}", i, op
            );
            prop_assert_eq!(
                obs(&icache.m), obs(&interp.m),
                "icache tier diverged from interpreter after op {} = {:?}", i, op
            );
            prop_assert_eq!(
                full.hook.insns, interp.hook.insns,
                "hook streams diverged after op {} = {:?}", i, op
            );
        }
        // The interpreter leg's tiers must stay inert throughout.
        prop_assert_eq!(interp.m.icache_stats(), Default::default());
        prop_assert_eq!(interp.m.superblock_stats(), Default::default());
        prop_assert_eq!(icache.m.superblock_stats(), Default::default());
    }
}

/// Deterministic companion: a fixed dense schedule that must engage and
/// invalidate the superblock tier, and must deliver hook events on the
/// full stack, so silent tier-disablement regressions fail loudly.
#[test]
fn dense_schedule_engages_and_invalidates_superblocks() {
    let mut full = Leg::boot(Tier::Full);
    let mut interp = Leg::boot(Tier::Interp);
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
        // tier re-engages and the patch invalidates a rebuilt block.
        HostOp::Run(900),
    ];
    for op in &script {
        full.apply(op);
        interp.apply(op);
        assert_eq!(obs(&full.m), obs(&interp.m), "diverged after {op:?}");
        assert_eq!(full.hook.insns, interp.hook.insns, "hooks after {op:?}");
    }
    let sb = full.m.superblock_stats();
    assert!(sb.dispatches > 0, "tier engaged: {sb:?}");
    assert!(sb.invalidations > 0, "host patches invalidated: {sb:?}");
    assert!(full.hook.insns > 0, "the attached hook saw instructions");
}
