//! Delivery oracle for hook interest.
//!
//! The machine asks a hook once per run which events it wants
//! (`Hook::interest`) and skips the calls the hook would have ignored.
//! The oracle is the old contract: [`EveryEvent`] wraps an
//! `Instrumenter` and asks for every event, so every event reaches the
//! instrumenter and only its per-tool `Watch` filter decides what each
//! tool sees. One side runs the bare `Instrumenter`, the other a clone
//! of the same machine under `EveryEvent`, and both go through the same
//! random schedule of runs, steps, input, attaches (recording tools
//! with `Watch::All`, `Pcs` and `None`, and a VSEF runtime with random
//! specs), detaches, re-watches with `refresh`, armed `detach_after`
//! limits, clones and rollbacks. After every operation the two sides
//! must agree on every tool's recorded event stream, the VSEF
//! detections, `events_of`, each tool's overhead share and the machine
//! state.

use proptest::collection::vec;
use proptest::prelude::*;
use std::any::Any;
use sweeper_repro::antibody::vsef::{VsefRuntime, VsefSpec};
use sweeper_repro::checkpoint::{CheckpointManager, CkptId};
use sweeper_repro::dbi::{Instrumenter, Tool, ToolId, Watch};
use sweeper_repro::svm::alloc::FreeKind;
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::hook::Pair;
use sweeper_repro::svm::isa::{Op, Syscall, INSN_SIZE};
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Hook, Machine, NopHook};

/// The straight-line pieces a random guest's loop body is built from.
/// Every piece leaves the stack balanced; `r8` points at `buf`, `r12`
/// at `inbuf`, `r11` holds the accepted connection.
fn snippet(kind: u8, p: u16) -> String {
    let off = u32::from(p % 15) * 4;
    let f = p % 3;
    match kind {
        0 => format!(" ld r2, [r8, {off}]\n addi r2, r2, 3\n st [r8, {off}], r2\n"),
        1 => format!(" ldb r2, [r12, {}]\n stb [r8, {off}], r2\n", p % 8),
        2 => format!(" call f{f}\n"),
        3 => format!(" movi r9, f{f}\n callr r9\n"),
        4 => format!(
            " movi r0, {}\n sys alloc\n mov r5, r0\n st [r5, 0], r3\n ld r4, [r5, 0]\n mov r0, r5\n sys free\n",
            8 + u32::from(p % 56)
        ),
        5 => " mov r0, r11\n movi r1, inbuf\n movi r2, 8\n sys read\n".to_string(),
        // Self-modifying code: copy a two-instruction template into the
        // executable `code` buffer and call it.
        6 => {
            let t = if p.is_multiple_of(2) { "tmpl_a" } else { "tmpl_b" };
            let mut s = format!(" movi r6, {t}\n movi r7, code\n");
            for w in 0..4 {
                s.push_str(&format!(" ld r2, [r6, {}]\n st [r7, {}], r2\n", w * 4, w * 4));
            }
            s.push_str(" call code\n");
            s
        }
        _ => " push r3\n addi r3, r3, 1\n pop r4\n".to_string(),
    }
}

/// Assemble a guest whose endless loop runs `body`'s snippets in order.
fn guest(body: &[(u8, u16)]) -> String {
    let mut s = String::from(
        ".text\nmain:\n movi r8, buf\n movi r12, inbuf\n sys accept\n mov r11, r0\nloop:\n addi r3, r3, 1\n",
    );
    for &(k, p) in body {
        s.push_str(&snippet(k, p));
    }
    s.push_str(" jmp loop\n");
    for f in 0..3 {
        s.push_str(&format!(
            "f{f}:\n push r3\n ld r4, [r8, {}]\n add r4, r4, r3\n st [r8, {}], r4\n pop r3\n ret\n",
            f * 8,
            f * 8 + 4
        ));
    }
    s.push_str(
        "tmpl_a:\n movi r2, 7\n ret\ntmpl_b:\n movi r2, 9\n ret\n\
         .data\nbuf: .space 64\ninbuf: .space 8\ncode: .space 16\n",
    );
    s
}

/// One delivered event, with everything the machine passed along.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Ev {
    Insn(u32, Op),
    Read(u32, u32, u8, u32),
    Write(u32, u32, u8, u32),
    Call(u32, u32, u32, u32),
    Ret(u32, u32, u32),
    Alloc(u32, u32, u32),
    Free(u32, u32, FreeKind),
    Syscall(u32, Syscall, [u32; 4], u32),
    Input(u32, u32, u32, Vec<u8>),
}

/// Records every event the instrumenter hands it.
struct Rec {
    watch: Watch,
    evs: Vec<Ev>,
}

impl Tool for Rec {
    fn name(&self) -> &str {
        "rec"
    }
    fn watches(&self) -> Watch {
        self.watch.clone()
    }
    fn insn_cost(&self) -> u64 {
        3
    }
    fn on_insn(&mut self, _m: &Machine, pc: u32, op: &Op) {
        self.evs.push(Ev::Insn(pc, *op));
    }
    fn on_mem_read(&mut self, _m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.evs.push(Ev::Read(pc, addr, size, val));
    }
    fn on_mem_write(&mut self, _m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.evs.push(Ev::Write(pc, addr, size, val));
    }
    fn on_call(&mut self, _m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.evs.push(Ev::Call(pc, target, ret_addr, sp));
    }
    fn on_ret(&mut self, _m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.evs.push(Ev::Ret(pc, ret_target, sp));
    }
    fn on_alloc(&mut self, _m: &Machine, pc: u32, size: u32, ptr: u32) {
        self.evs.push(Ev::Alloc(pc, size, ptr));
    }
    fn on_free(&mut self, _m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        self.evs.push(Ev::Free(pc, ptr, kind));
    }
    fn on_syscall(&mut self, _m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.evs.push(Ev::Syscall(pc, sc, args, ret));
    }
    fn on_input(&mut self, _m: &Machine, conn: u32, off: u32, addr: u32, data: &[u8]) {
        self.evs.push(Ev::Input(conn, off, addr, data.to_vec()));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The oracle hook: asks for every event (the default interest) and
/// forwards each one to the instrumenter it wraps.
struct EveryEvent(Instrumenter);

impl Hook for EveryEvent {
    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        self.0.on_insn(m, pc, op);
    }
    fn on_mem_read(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_read(m, pc, addr, size, val);
    }
    fn on_mem_write(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_write(m, pc, addr, size, val);
    }
    fn on_call(&mut self, m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.0.on_call(m, pc, target, ret_addr, sp);
    }
    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.0.on_ret(m, pc, ret_target, sp);
    }
    fn on_alloc(&mut self, m: &Machine, pc: u32, size: u32, ptr: u32) {
        self.0.on_alloc(m, pc, size, ptr);
    }
    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        self.0.on_free(m, pc, ptr, kind);
    }
    fn on_syscall(&mut self, m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.0.on_syscall(m, pc, sc, args, ret);
    }
    fn on_input(&mut self, m: &Machine, conn: u32, off: u32, addr: u32, data: &[u8]) {
        self.0.on_input(m, conn, off, addr, data);
    }
}

/// One host-side action, applied identically to both sides. Selectors
/// and seeds are resolved against the guest's pcs and the tools
/// attached so far.
#[derive(Debug, Clone)]
enum HostOp {
    /// `Machine::run` for this many cycles.
    Run(u32),
    /// This many `step_hooked` calls.
    Step(u8),
    /// `Machine::run` under `Pair(hook, NopHook)`.
    PairRun(u32),
    /// Append this many input bytes to the connection and unblock.
    Feed(u8),
    /// Attach a recording tool (watch kind, pc seed).
    AttachRec(u8, u64),
    /// Attach a VSEF runtime with specs drawn from this seed.
    AttachVsef(u64),
    Detach(u8),
    /// Give a tool a new watch (or a VSEF runtime one more spec), then
    /// `refresh` it.
    Rewatch(u8, u8, u64),
    /// Arm a `detach_after` limit.
    Arm(u8, u16),
    /// Replace the machine by a clone of itself.
    Clone,
    Checkpoint,
    Rollback(u8),
}

fn arb_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        (1u32..20_000).prop_map(HostOp::Run),
        (1u32..20_000).prop_map(HostOp::Run),
        (1u8..40).prop_map(HostOp::Step),
        (1u32..8_000).prop_map(HostOp::PairRun),
        (1u8..160).prop_map(HostOp::Feed),
        (1u8..160).prop_map(HostOp::Feed),
        (0u8..3, any::<u64>()).prop_map(|(w, s)| HostOp::AttachRec(w, s)),
        any::<u64>().prop_map(HostOp::AttachVsef),
        any::<u8>().prop_map(HostOp::Detach),
        (any::<u8>(), 0u8..3, any::<u64>()).prop_map(|(t, w, s)| HostOp::Rewatch(t, w, s)),
        (any::<u8>(), 0u16..4).prop_map(|(t, n)| HostOp::Arm(t, n)),
        (any::<u8>(), 0u16..400).prop_map(|(t, n)| HostOp::Arm(t, n)),
        Just(HostOp::Clone),
        Just(HostOp::Checkpoint),
        any::<u8>().prop_map(HostOp::Rollback),
    ]
}

/// A tiny deterministic generator for the seeds in a schedule.
fn split(seed: &mut u64) -> u64 {
    *seed = seed
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        .wrapping_add(0x1405_7b7e_f767_814f);
    *seed >> 17
}

/// Up to five pcs of the guest's text, chosen by `seed`.
fn pcs(text: &[u32], mut seed: u64) -> Vec<u32> {
    let n = (split(&mut seed) % 6) as usize;
    (0..n)
        .map(|_| text[(split(&mut seed) % text.len() as u64) as usize])
        .collect()
}

fn watch(kind: u8, text: &[u32], seed: u64) -> Watch {
    match kind {
        0 => Watch::All,
        1 => Watch::pcs(pcs(text, seed)),
        _ => Watch::None,
    }
}

fn spec(text: &[u32], funcs: &[u32], mut seed: u64) -> VsefSpec {
    let mut pc = || text[(split(&mut seed) % text.len() as u64) as usize];
    let (a, b, c) = (pc(), pc(), pc());
    match split(&mut seed) % 7 {
        0 => VsefSpec::RetAddrGuard {
            func: funcs[(a as usize / INSN_SIZE as usize) % funcs.len()],
            func_name: "f".into(),
        },
        1 => VsefSpec::StoreSmashGuard { store_pc: a },
        2 => VsefSpec::HeapBoundsCheck {
            store_pc: a,
            caller: b.is_multiple_of(2).then_some(funcs[0]),
        },
        3 => VsefSpec::DoubleFreeGuard { free_pc: a },
        4 => VsefSpec::HeapIntegrityGuard { sites: vec![a, b] },
        5 => VsefSpec::NullCheck { insn_pc: a },
        _ => VsefSpec::TaintFilter {
            prop_pcs: vec![a, b],
            sink_pc: c,
        },
    }
}

/// What the comparison reads off one side.
type Observed = (
    String,
    Vec<(ToolId, u64, u64, Option<Vec<Ev>>, Option<String>)>,
    u64,
);

struct Side<H> {
    m: Machine,
    hook: H,
    mgr: CheckpointManager,
    ckpts: Vec<CkptId>,
}

/// Reach the instrumenter on either side.
trait AsIns {
    fn ins(&mut self) -> &mut Instrumenter;
}

impl AsIns for Instrumenter {
    fn ins(&mut self) -> &mut Instrumenter {
        self
    }
}

impl AsIns for EveryEvent {
    fn ins(&mut self) -> &mut Instrumenter {
        &mut self.0
    }
}

/// The guest's text pcs, function entries and input connection.
struct Guest {
    text: Vec<u32>,
    funcs: Vec<u32>,
    conn: u32,
}

impl<H: Hook + AsIns> Side<H> {
    fn ins(&mut self) -> &mut Instrumenter {
        self.hook.ins()
    }

    fn apply(&mut self, op: &HostOp, g: &Guest, ids: &mut Vec<ToolId>) {
        let pick = |sel: u8, ids: &[ToolId]| -> Option<ToolId> {
            (!ids.is_empty()).then(|| ids[sel as usize % ids.len()])
        };
        match op {
            HostOp::Run(c) => {
                self.m.run(&mut self.hook, u64::from(*c));
            }
            HostOp::Step(n) => {
                for _ in 0..*n {
                    self.m.step_hooked(&mut self.hook);
                }
            }
            HostOp::PairRun(c) => {
                self.m
                    .run(&mut Pair(&mut self.hook, &mut NopHook), u64::from(*c));
            }
            HostOp::Feed(n) => {
                let bytes: Vec<u8> = (0..*n).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
                self.m.net.append_input(g.conn, &bytes).expect("feed");
                self.m.unblock();
            }
            HostOp::AttachRec(w, seed) => {
                let id = self.ins().attach(Box::new(Rec {
                    watch: watch(*w, &g.text, *seed),
                    evs: Vec::new(),
                }));
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            HostOp::AttachVsef(seed) => {
                let mut seed = *seed;
                let n = 1 + split(&mut seed) % 3;
                let specs = (0..n)
                    .map(|_| spec(&g.text, &g.funcs, split(&mut seed)))
                    .collect();
                let id = self.ins().attach(Box::new(VsefRuntime::new(specs)));
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            HostOp::Detach(sel) => {
                if let Some(id) = pick(*sel, ids) {
                    self.ins().detach(id);
                }
            }
            HostOp::Rewatch(sel, w, seed) => {
                if let Some(id) = pick(*sel, ids) {
                    let ins = self.ins();
                    if let Some(r) = ins.get_mut::<Rec>(id) {
                        r.watch = watch(*w, &g.text, *seed);
                    } else if let Some(v) = ins.get_mut::<VsefRuntime>(id) {
                        v.add(spec(&g.text, &g.funcs, *seed));
                    }
                    ins.refresh(id);
                }
            }
            HostOp::Arm(sel, n) => {
                if let Some(id) = pick(*sel, ids) {
                    self.ins().set_detach_after(id, u64::from(*n));
                }
            }
            HostOp::Clone => self.m = self.m.clone(),
            HostOp::Checkpoint => {
                let id = self.mgr.take(&mut self.m);
                self.ckpts.push(id);
            }
            HostOp::Rollback(sel) => {
                if self.ckpts.is_empty() {
                    return;
                }
                let id = self.ckpts[*sel as usize % self.ckpts.len()];
                if let Some(rolled) = self.mgr.rollback(id) {
                    self.m = rolled;
                }
            }
        }
    }

    /// Machine state, then per tool: id, events delivered, overhead
    /// share and recorded stream (both taken, so each comparison sees
    /// only the latest op's) and VSEF detections; then the auto-detach
    /// count.
    fn observe(&mut self, ids: &[ToolId]) -> Observed {
        let m = &self.m;
        let machine = format!(
            "{:?} {:?} {} {} {} {} {} {}",
            m.cpu,
            m.status(),
            m.insns_retired,
            m.syscalls_retired,
            m.clock.cycles(),
            m.heap.allocs,
            m.heap.frees,
            m.mem.write_seq(),
        );
        let ins = self.hook.ins();
        let tools = ids
            .iter()
            .map(|&id| {
                let rec = ins.get_mut::<Rec>(id).map(|r| std::mem::take(&mut r.evs));
                let vsef = ins
                    .get::<VsefRuntime>(id)
                    .map(|v| format!("{:?}", v.detections()));
                (id, ins.events_of(id), ins.take_overhead_of(id), rec, vsef)
            })
            .collect();
        (machine, tools, ins.auto_detached_total())
    }
}

fn side<H>(m: Machine, hook: H) -> Side<H> {
    Side {
        m,
        hook,
        mgr: CheckpointManager::new(u64::MAX, 8),
        ckpts: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Delivering only what the instrumenter asks for gives every tool
    /// exactly the events it got when every event was delivered.
    #[test]
    fn interest_delivers_exactly_what_every_event_delivery_did(
        body in vec((0u8..8, any::<u16>()), 2..10),
        ops in vec(arb_op(), 1..48),
    ) {
        let prog = assemble(&guest(&body)).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        // Accept the connection before the schedule starts: the
        // accept's round trip would eat most runs' cycle budgets.
        let conn = m.net.push_streaming_connection(Vec::new());
        let looped = m.symbols.addr_of("loop").expect("loop");
        while m.cpu.pc != looped {
            m.step();
        }
        let base = m.layout.code_base;
        let g = Guest {
            text: (0..prog.text.len() as u32 / INSN_SIZE)
                .map(|i| base + i * INSN_SIZE)
                .collect(),
            funcs: (0..3)
                .map(|f| m.symbols.addr_of(&format!("f{f}")).expect("f"))
                .collect(),
            conn,
        };
        let mut bare = side(m.clone(), Instrumenter::new());
        let mut every = side(m, EveryEvent(Instrumenter::new()));
        let (mut ids_a, mut ids_b) = (Vec::new(), Vec::new());
        for (i, op) in ops.iter().enumerate() {
            bare.apply(op, &g, &mut ids_a);
            every.apply(op, &g, &mut ids_b);
            prop_assert_eq!(&ids_a, &ids_b);
            prop_assert_eq!(
                bare.observe(&ids_a),
                every.observe(&ids_b),
                "delivery diverged after op {} = {:?}",
                i,
                op
            );
        }
    }
}
