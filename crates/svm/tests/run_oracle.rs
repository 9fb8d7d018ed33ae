//! Differential test: `Machine::run` against a loop of single steps.
//!
//! `run` keeps the status in a local while it runs and keys the decode
//! cache once, on entry; `step_hooked` does both on every call. The
//! reference for a `run(hook, budget)` call is therefore a test-side
//! loop of `step_hooked` calls under the same cycle deadline. Random
//! guests (ALU ops with a divisor that may be zero, loads and stores to
//! mapped, read-only and unmapped pages, calls, returns and a recursion
//! that may overflow the stack, a blocking `read`, `halt`, and
//! self-modifying stores into an executable data buffer) go through a
//! random schedule of runs with random budgets, input, a re-randomized
//! layout and NX toggles, on four legs of one machine:
//!
//! * `run` on the decode-cache tier, a step loop on the same tier and
//!   `run` on the default machine (no tier chosen), which must agree on
//!   everything, decode-cache counters included;
//! * a step loop on the plain interpreter (no decode cache), which must
//!   agree with the other three on the architectural state: registers,
//!   pc, clock, retired instructions and syscalls, status and the
//!   returned status.
//!
//! The interpreter leg is what catches a cache that keeps serving a data
//! page after NX was switched on; the run-vs-step pair catches a run
//! that executes on a machine that is not running, or that reports
//! `Running` after it stopped.

use proptest::collection::vec;
use proptest::prelude::*;
use svm::asm::assemble;
use svm::cpu::Cpu;
use svm::isa::Op;
use svm::loader::{Aslr, Layout};
use svm::{CacheStats, Hook, Machine, NopHook, Status};

/// One straight-line piece of the guest's loop body. `r8` points at
/// `buf`, `r12` at `inbuf`, `r11` holds the accepted connection. The
/// pieces that can end the guest (a zero divisor, a store to the text,
/// an unmapped load, an unbounded recursion, `halt`) do so only for a
/// few values of `p`, so most guests run for a while first.
fn snippet(kind: u8, p: u16) -> String {
    let off = u32::from(p % 15) * 4;
    let rare = p.is_multiple_of(16);
    match kind {
        0 => format!(
            " movi r2, {p}\n movi r4, {}\n add r3, r3, r2\n mul r5, r3, r2\n xor r6, r5, r3\n \
             shri r6, r6, 3\n div r7, r5, r4\n rem r7, r6, r4\n",
            p % 16
        ),
        1 => format!(" ld r2, [r8, {off}]\n addi r2, r2, 3\n st [r8, {off}], r2\n"),
        2 => format!(" ldb r2, [r12, {}]\n stb [r8, {off}], r2\n", p % 8),
        // A store into the read-only text, or a load from it.
        3 if rare => " movi r9, main\n st [r9, 0], r3\n".to_string(),
        3 => format!(" movi r9, main\n ld r2, [r9, {off}]\n"),
        // A load from an unmapped page, or from `buf`.
        4 if rare => " movi r9, 0x600000\n ld r2, [r9, 0]\n".to_string(),
        4 => format!(" ld r2, [r8, {off}]\n"),
        5 => format!(" call f{}\n", p % 3),
        6 => format!(" movi r9, f{}\n callr r9\n", p % 3),
        // A recursion `p % 24` frames deep, or one deep enough to run
        // the 128 KiB stack out.
        7 => format!(
            " movi r1, {}\n call rec\n",
            if rare { 100_000 } else { u32::from(p % 24) }
        ),
        8 => " mov r0, r11\n movi r1, inbuf\n movi r2, 8\n sys read\n".to_string(),
        9 if rare => " movi r0, 5\n halt\n".to_string(),
        9 => " nop\n".to_string(),
        // Self-modifying code: copy a two-instruction template into the
        // `code` buffer in `.data` and call it.
        10 => {
            let t = if p.is_multiple_of(2) {
                "tmpl_a"
            } else {
                "tmpl_b"
            };
            let mut s = format!(" movi r6, {t}\n movi r7, code\n");
            for w in 0..4 {
                s.push_str(&format!(
                    " ld r2, [r6, {}]\n st [r7, {}], r2\n",
                    w * 4,
                    w * 4
                ));
            }
            s.push_str(" call code\n");
            s
        }
        _ => " push r3\n addi r3, r3, 1\n push r3\n pop r4\n pop r5\n".to_string(),
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
        "rec:\n cmpi r1, 0\n jz rec_done\n subi r1, r1, 1\n push r3\n call rec\n pop r3\nrec_done:\n ret\n\
         tmpl_a:\n movi r2, 7\n ret\ntmpl_b:\n movi r2, 9\n ret\n\
         .data\nbuf: .space 64\ninbuf: .space 8\ncode: .space 16\n",
    );
    s
}

/// A hook that asks for every event and counts what it is given.
#[derive(Default)]
struct Count {
    insns: u64,
    mem: u64,
    other: u64,
}

impl Hook for Count {
    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {
        self.insns += 1;
    }
    fn on_mem_read(&mut self, _m: &Machine, _pc: u32, _addr: u32, _len: u8, _val: u32) {
        self.mem += 1;
    }
    fn on_mem_write(&mut self, _m: &Machine, _pc: u32, _addr: u32, _len: u8, _val: u32) {
        self.mem += 1;
    }
    fn on_call(&mut self, _m: &Machine, _pc: u32, _target: u32, _ret: u32, _sp: u32) {
        self.other += 1;
    }
    fn on_ret(&mut self, _m: &Machine, _pc: u32, _ret: u32, _sp: u32) {
        self.other += 1;
    }
    fn on_syscall(
        &mut self,
        _m: &Machine,
        _pc: u32,
        _sc: svm::isa::Syscall,
        _args: [u32; 4],
        _ret: u32,
    ) {
        self.other += 1;
    }
}

/// One host-side action, applied to every leg.
#[derive(Debug, Clone)]
enum HostOp {
    /// `run` (or the step loop) with this cycle budget.
    Run(u16),
    /// Append this many input bytes; unblock the machine if set.
    Feed(u8, bool),
    /// Re-randomize the layout from this seed, the way a recovery that
    /// re-draws ASLR does; keep the stack where it is if set (a moved
    /// stack makes the next push overflow).
    Relayout(u64, bool),
    /// Switch NX enforcement.
    Nx(bool),
}

fn arb_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        (1u16..3000).prop_map(HostOp::Run),
        (1u16..3000).prop_map(HostOp::Run),
        (1u16..3000).prop_map(HostOp::Run),
        (0u8..12, any::<bool>()).prop_map(|(n, u)| HostOp::Feed(n, u)),
        (any::<u64>(), any::<u16>()).prop_map(|(s, k)| HostOp::Relayout(s, k % 4 != 0)),
        any::<bool>().prop_map(HostOp::Nx),
    ]
}

/// How a leg executes a [`HostOp::Run`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Exec {
    Run,
    Steps,
}

struct Leg {
    m: Machine,
    exec: Exec,
    hook: Option<Count>,
    conn: u32,
    /// The status the last run returned.
    ret: Status,
}

impl Leg {
    fn call(&mut self, budget: u64) -> Status {
        let mut nop = NopHook;
        let hook: &mut dyn Hook = match &mut self.hook {
            Some(h) => h,
            None => &mut nop,
        };
        match self.exec {
            Exec::Run => self.m.run(hook, budget),
            Exec::Steps => {
                let deadline = self.m.clock.cycles().saturating_add(budget);
                loop {
                    let s = self.m.step_hooked(hook);
                    if !s.is_running() || self.m.clock.cycles() >= deadline {
                        return s;
                    }
                }
            }
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match *op {
            HostOp::Run(budget) => self.ret = self.call(u64::from(budget)),
            HostOp::Feed(n, unblock) => {
                let bytes: Vec<u8> = (0..n).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
                self.m.net.append_input(self.conn, &bytes).expect("feed");
                if unblock {
                    self.m.unblock();
                }
            }
            HostOp::Relayout(seed, keep_stack) => {
                let mut l = Layout::randomized(Aslr {
                    enabled: true,
                    entropy_bits: 8,
                    seed,
                });
                if keep_stack {
                    l.stack_top = self.m.layout.stack_top;
                    l.stack_size = self.m.layout.stack_size;
                }
                self.m.layout = l;
            }
            HostOp::Nx(on) => self.m.mem.nx = on,
        }
    }

    /// Everything a run may not change differently from a step loop.
    fn arch(&self) -> (Cpu, u64, u64, u64, Status, Status) {
        (
            self.m.cpu.clone(),
            self.m.clock.cycles(),
            self.m.insns_retired,
            self.m.syscalls_retired,
            self.m.status(),
            self.ret,
        )
    }

    fn events(&self) -> Option<(u64, u64, u64)> {
        self.hook.as_ref().map(|h| (h.insns, h.mem, h.other))
    }

    fn icache(&self) -> CacheStats {
        self.m.icache_stats()
    }
}

/// The four legs of one guest: run and steps on the decode-cache tier,
/// run on the default machine, steps on the plain interpreter.
fn legs(body: &[(u8, u16)], hooked: bool) -> Vec<Leg> {
    let prog = assemble(&guest(body)).expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    let conn = m.net.push_streaming_connection(Vec::new());
    let icache = m.clone().with_decode_cache(true);
    let default = m.clone();
    let interp = m.with_decode_cache(false);
    [
        (icache.clone(), Exec::Run),
        (icache, Exec::Steps),
        (default, Exec::Run),
        (interp, Exec::Steps),
    ]
    .into_iter()
    .map(|(m, exec)| Leg {
        m,
        exec,
        hook: hooked.then(Count::default),
        conn,
        ret: Status::Running,
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every host op, `run` agrees with a loop of single steps on
    /// the same tier and with the default machine (decode-cache counters
    /// included), and all four legs agree on the architectural state and
    /// the hook's events.
    #[test]
    fn run_matches_a_loop_of_steps(
        body in vec((0u8..12, any::<u16>()), 1..8),
        hooked in any::<bool>(),
        ops in vec(arb_op(), 1..40),
    ) {
        let mut legs = legs(&body, hooked);
        for (i, op) in ops.iter().enumerate() {
            for leg in &mut legs {
                leg.apply(op);
            }
            let want = legs[1].arch();
            for (k, leg) in legs.iter().enumerate() {
                prop_assert_eq!(&leg.arch(), &want, "leg {} after op {} = {:?}", k, i, op);
                prop_assert_eq!(leg.events(), legs[1].events(), "leg {} events after op {}", k, i);
            }
            for k in [0, 2] {
                prop_assert_eq!(
                    legs[k].icache(),
                    legs[1].icache(),
                    "leg {} decode-cache counters after op {} = {:?}",
                    k,
                    i,
                    op
                );
            }
        }
    }
}

/// A halted, faulted or blocked machine returns from `run` at once:
/// nothing retires and the clock stands still.
#[test]
fn run_on_a_stopped_machine_executes_nothing() {
    let stops = [
        ".text\nmain:\n movi r0, 3\n halt\n",
        ".text\nmain:\n movi r1, 0\n div r0, r0, r1\n halt\n",
        ".text\nmain:\n sys accept\n halt\n",
    ];
    for src in stops {
        let prog = assemble(src).expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let first = m.run(&mut NopHook, 1_000);
        assert!(!first.is_running(), "{src}: {first:?}");
        let before = (
            m.cpu.clone(),
            m.clock.cycles(),
            m.insns_retired,
            m.syscalls_retired,
        );
        assert_eq!(m.run(&mut NopHook, 1_000), first, "{src}");
        assert_eq!(m.step(), first, "{src}");
        let after = (
            m.cpu.clone(),
            m.clock.cycles(),
            m.insns_retired,
            m.syscalls_retired,
        );
        assert_eq!(after, before, "{src}");
    }
}

/// Switching NX on between runs takes a cached data page out of
/// execution: the next call into it faults instead of being served from
/// the decode cache.
#[test]
fn nx_toggle_between_runs_reaches_the_decode_cache() {
    let src = ".text\nmain:\n movi r9, code\n movi r6, tmpl\n ld r2, [r6, 0]\n st [r9, 0], r2\n \
               ld r2, [r6, 4]\n st [r9, 4], r2\n ld r2, [r6, 8]\n st [r9, 8], r2\n \
               ld r2, [r6, 12]\n st [r9, 12], r2\nloop:\n callr r9\n jmp loop\n\
               tmpl:\n addi r3, r3, 1\n ret\n.data\ncode: .space 16\n";
    let prog = assemble(src).expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    assert_eq!(m.run(&mut NopHook, 2_000), Status::Running);
    assert!(m.cpu.get(svm::isa::Reg(3)) > 0, "the data page ran");
    m.mem.nx = true;
    match m.run(&mut NopHook, 2_000) {
        Status::Faulted(svm::Fault::Protection { .. }) => {}
        other => panic!("expected an exec protection fault, got {other:?}"),
    }
}
