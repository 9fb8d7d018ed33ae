//! `analysis::TaintTool` against a reference implementation.
//!
//! The production tool keeps its shadow in a register array, one flags
//! slot and 4 KiB memory pages. The oracle below is the tool it replaced,
//! kept verbatim: the same propagation over one `HashMap<Loc, TaintSet>`.
//! Both run side by side in one replay and must agree on the alerts (pc,
//! target and sources, in order), on the propagation pcs, on the taint of
//! every register, and on the taint of every memory byte the run read,
//! wrote or received as input. The inputs are random programs whose
//! loads, stores and input reads straddle a page boundary, that read on
//! two connections, and whose `callr` and `ret` sinks see tainted and
//! untainted targets; and each guest's crash exploit, replayed from its
//! reproducing checkpoint the way the analysis pipeline replays it.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use proptest::prelude::*;
use sweeper_repro::analysis::{TaintSource, TaintTool};
use sweeper_repro::apps::{all_crash_exploits, cvs, httpd1, httpd2, squid, BugType};
use sweeper_repro::checkpoint::{CheckpointManager, NoFault, Proxy, ReplaySession};
use sweeper_repro::dbi::effects::{effects, Loc};
use sweeper_repro::dbi::{Instrumenter, Tool, ToolId, Watch};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::isa::{Op, NUM_REGS};
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Machine, NopHook, Status};
use sweeper_repro::sweeper::pipeline::replay_reproduces;
use sweeper_repro::sweeper::Config;

type TaintSet = Arc<BTreeSet<TaintSource>>;

/// The reference tool: the taint analysis over a `HashMap` shadow.
#[derive(Default)]
struct MapTaint {
    shadow: HashMap<Loc, TaintSet>,
    alerts: Vec<(u32, u32, BTreeSet<TaintSource>)>,
    prop_pcs: BTreeSet<u32>,
}

impl MapTaint {
    fn taint_of_mem(&self, addr: u32, len: u32) -> BTreeSet<TaintSource> {
        let mut out = BTreeSet::new();
        for i in 0..len {
            out.extend(
                self.taint_of(&Loc::MemByte(addr.wrapping_add(i)))
                    .iter()
                    .copied(),
            );
        }
        out
    }

    fn taint_of(&self, loc: &Loc) -> BTreeSet<TaintSource> {
        self.shadow
            .get(loc)
            .map(|s| s.as_ref().clone())
            .unwrap_or_default()
    }

    fn union_of(&self, locs: &[Loc]) -> Option<TaintSet> {
        let mut hits = locs.iter().filter_map(|l| self.shadow.get(l));
        let first = hits.next()?;
        let Some(second) = hits.next() else {
            return Some(first.clone());
        };
        let mut u = BTreeSet::new();
        for s in [first, second].into_iter().chain(hits) {
            u.extend(s.iter().copied());
        }
        Some(Arc::new(u))
    }
}

impl Tool for MapTaint {
    fn name(&self) -> &str {
        "map-taint"
    }

    fn watches(&self) -> Watch {
        Watch::All
    }

    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        let e = effects(m, op);
        if let Some((loc, target)) = &e.indirect_target {
            let tainted = match loc {
                Loc::MemByte(a) => self.taint_of_mem(*a, 4),
                other => self.taint_of(other),
            };
            if !tainted.is_empty() {
                self.alerts.push((pc, *target, tainted));
            }
        }
        let mut propagated = false;
        for f in &e.flows {
            match self.union_of(&f.from) {
                Some(set) => {
                    propagated = true;
                    self.shadow.insert(f.to, set);
                }
                None => {
                    self.shadow.remove(&f.to);
                }
            }
        }
        if propagated {
            self.prop_pcs.insert(pc);
        }
        for w in &e.writes {
            if !e.flows.iter().any(|f| f.to == *w) {
                self.shadow.remove(w);
            }
        }
    }

    fn on_input(&mut self, _m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        for i in 0..data.len() as u32 {
            let src: BTreeSet<TaintSource> = [(conn, stream_off + i)].into_iter().collect();
            self.shadow.insert(Loc::MemByte(addr + i), Arc::new(src));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Every memory byte a run read, wrote or received as input.
#[derive(Default)]
struct Touched(BTreeSet<u32>);

impl Tool for Touched {
    fn name(&self) -> &str {
        "touched-bytes"
    }

    fn watches(&self) -> Watch {
        Watch::All
    }

    fn on_insn(&mut self, m: &Machine, _pc: u32, op: &Op) {
        let e = effects(m, op);
        for loc in e.reads.iter().chain(e.writes.iter()) {
            if let Loc::MemByte(a) = loc {
                self.0.insert(*a);
            }
        }
    }

    fn on_input(&mut self, _m: &Machine, _conn: u32, _off: u32, addr: u32, data: &[u8]) {
        self.0.extend((0..data.len() as u32).map(|i| addr + i));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// The production tool, the oracle and the byte recorder, attached to
/// one instrumenter so they see the same execution.
struct Side {
    new: ToolId,
    old: ToolId,
    touched: ToolId,
}

fn attach_all(ins: &mut Instrumenter) -> Side {
    Side {
        new: ins.attach(Box::new(TaintTool::new())),
        old: ins.attach(Box::new(MapTaint::default())),
        touched: ins.attach(Box::new(Touched::default())),
    }
}

/// Compare the two tools after a run; `Err` names the first difference.
/// Returns the number of alerts and of tainted touched bytes.
fn agree(ins: &Instrumenter, side: &Side) -> Result<(usize, usize), String> {
    let new = ins.get::<TaintTool>(side.new).expect("taint tool");
    let old = ins.get::<MapTaint>(side.old).expect("oracle");
    let touched = &ins.get::<Touched>(side.touched).expect("touched").0;
    let alerts: Vec<_> = new
        .alerts()
        .iter()
        .map(|a| (a.pc, a.target, a.sources.clone()))
        .collect();
    if alerts != old.alerts {
        return Err(format!("alerts {alerts:?} != oracle {:?}", old.alerts));
    }
    if *new.propagation_pcs() != old.prop_pcs {
        return Err(format!(
            "propagation pcs {:?} != oracle {:?}",
            new.propagation_pcs(),
            old.prop_pcs
        ));
    }
    for r in 0..NUM_REGS as u8 {
        let (got, want) = (new.taint_of_reg(r), old.taint_of(&Loc::Reg(r)));
        if got != want {
            return Err(format!("r{r}: {got:?} != oracle {want:?}"));
        }
    }
    let mut tainted = 0;
    for &a in touched {
        let (got, want) = (new.taint_of_mem(a, 1), old.taint_of_mem(a, 1));
        if got != want {
            return Err(format!("byte {a:#x}: {got:?} != oracle {want:?}"));
        }
        tainted += usize::from(!got.is_empty());
    }
    Ok((alerts.len(), tainted))
}

/// Bytes pushed on each of the two connections of a random program.
const CONN_BYTES: u32 = 16;

/// Build a random program over a straddle base r8, two bytes below a
/// 4 KiB page boundary inside `scratch`, and the input buffer at r9.
///
/// It reads 8 bytes of connection 0 up front, then runs random loads,
/// stores and arithmetic (words and bytes at `[r8, 0..8]` cross the
/// boundary), further reads on either connection into the straddling
/// window, and calls to a helper whose return slot is rewritten to the
/// same value, with the taint of a random register folded in, so a
/// `ret` can alert and carry on. A `callr` through a register that also
/// carries a random register's taint does the same for indirect calls.
/// The program ends in a `callr r7` through an accumulated value, which
/// usually faults.
fn random_program(choices: &[u16]) -> String {
    let mut body = String::new();
    let mut left = [CONN_BYTES - 8, CONN_BYTES];
    for (i, &c) in choices.iter().enumerate() {
        let r1 = 1 + (c % 5); // r1..r5
        let r2 = 1 + ((c / 5) % 5);
        let off = (c / 25) % 8;
        match (c / 200) % 10 {
            0 => body.push_str(&format!("    ldb r{r1}, [r9, {off}]\n")),
            1 => body.push_str(&format!("    st [r8, {off}], r{r1}\n")),
            2 => body.push_str(&format!("    ld r{r1}, [r8, {off}]\n")),
            3 => body.push_str(&format!("    stb [r8, {off}], r{r1}\n")),
            4 => body.push_str(&format!("    add r{r1}, r{r1}, r{r2}\n")),
            5 => body.push_str(&format!(
                "    cmp r{r1}, r{r2}\n    jz skip{i}\n    movi r{r2}, {off}\nskip{i}:\n"
            )),
            6 => body.push_str(&format!("    mov r6, r{r1}\n    call helper\n")),
            7 => body.push_str(&format!(
                "    movi r12, helper\n    andi r6, r{r1}, 0\n    add r12, r12, r6\n    callr r12\n"
            )),
            8 => {
                let conn = usize::from(c % 2);
                if left[conn] >= 4 {
                    left[conn] -= 4;
                    let fd = 10 + conn;
                    body.push_str(&format!(
                        "    mov r0, r{fd}\n    mov r1, r8\n    addi r1, r1, {}\n    movi r2, 4\n    sys read\n",
                        off % 4
                    ));
                } else {
                    body.push_str(&format!("    ld r{r1}, [r9, {}]\n", off % 5));
                }
            }
            9 => body.push_str(&format!(
                "    add r7, r7, r{r1}\n    push r{r2}\n    pop r{r1}\n"
            )),
            _ => unreachable!(),
        }
    }
    format!(
        "
.text
main:
    sys accept
    mov r10, r0
    sys accept
    mov r11, r0
    mov r0, r10
    movi r1, input
    movi r2, 8
    sys read
    movi r9, input
    movi r8, scratch
    addi r8, r8, 4096
    andi r8, r8, -4096
    subi r8, r8, 2     ; two bytes below a page boundary
    movi r7, 0x60000000
{body}
    callr r7           ; the final sink
    halt
helper:
    ld r12, [sp, 0]
    andi r6, r6, 0
    add r12, r12, r6
    st [sp, 0], r12    ; same return address, now with r6's taint
    ret
.data
input: .space 16
scratch: .space 8200
"
    )
}

/// Run `src` on two connections with all three tools attached.
fn run_program(src: &str, conns: [&[u8]; 2]) -> (Machine, Instrumenter, Side) {
    let prog = assemble(src).expect("random program assembles");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    for c in conns {
        m.net.push_connection(c.to_vec());
    }
    let mut ins = Instrumenter::new();
    let side = attach_all(&mut ins);
    m.run(&mut ins, 100_000_000);
    (m, ins, side)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn paged_shadow_equals_map_oracle_on_random_programs(
        choices in proptest::collection::vec(any::<u16>(), 4..48),
        conn0 in proptest::collection::vec(any::<u8>(), CONN_BYTES as usize),
        conn1 in proptest::collection::vec(any::<u8>(), CONN_BYTES as usize),
    ) {
        let (_m, ins, side) = run_program(&random_program(&choices), [&conn0, &conn1]);
        let verdict = agree(&ins, &side);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}

#[test]
fn generator_straddles_pages_and_alerts_at_both_sinks() {
    // Every op kind, twice, so the straddling accesses, both
    // connections' reads and both rewritten sinks all occur.
    let choices: Vec<u16> = (0..10u16)
        .flat_map(|k| [k * 200, k * 200 + 1, k * 200 + 26])
        .collect();
    let src = random_program(&choices);
    let (m, ins, side) = run_program(&src, [&[0x41; 16], &[0x42; 16]]);
    assert!(matches!(m.status(), Status::Faulted(_)), "{:?}", m.status());
    let (alerts, tainted) = agree(&ins, &side).unwrap_or_else(|e| panic!("{e}"));
    assert!(tainted > 0);
    let new = ins.get::<TaintTool>(side.new).expect("taint tool");
    // `helper` follows all of `main`'s code: an alert at or past it is
    // the `ret`, one before it a `callr`.
    let helper = m.symbols.addr_of("helper").expect("helper");
    let (rets, callrs): (Vec<_>, Vec<_>) = new.alerts().iter().partition(|a| a.pc >= helper);
    assert_eq!(alerts, rets.len() + callrs.len());
    assert!(!rets.is_empty(), "a tainted ret");
    assert!(!callrs.is_empty(), "a tainted callr");
    // Tainted bytes on both sides of the boundary.
    let touched = &ins.get::<Touched>(side.touched).expect("touched").0;
    let edge = touched
        .iter()
        .copied()
        .find(|a| a % 4096 == 0 && !new.taint_of_mem(a - 1, 2).is_empty());
    assert!(edge.is_some(), "taint next to a page boundary");
}

/// Benign warm-up requests for a guest, so the replay window holds more
/// than the exploit.
fn warm_up(bug: BugType) -> Vec<Vec<u8>> {
    match bug {
        BugType::StackSmash => (0..2)
            .map(|i| httpd1::benign_request(&format!("w{i}")))
            .collect(),
        BugType::NullDeref => (0..2)
            .map(|i| httpd2::benign_request(&format!("w{i}"), None))
            .collect(),
        BugType::DoubleFree => vec![cvs::benign_session(&["warm"])],
        BugType::HeapOverflow => (0..2)
            .map(|i| squid::benign_request(&format!("w{i}"), "h"))
            .collect(),
    }
}

#[test]
fn paged_shadow_equals_map_oracle_on_every_guest_exploit() {
    let budget = Config::producer(0).replay_budget;
    for (app, exploit) in all_crash_exploits().expect("exploits") {
        let mut m = app.boot(Aslr::on(0x5eed)).expect("boot");
        m.run(&mut NopHook, 100_000_000);
        let mut mgr = CheckpointManager::with_defaults();
        let mut proxy = Proxy::new();
        mgr.take(&mut m);
        for req in warm_up(app.bug).into_iter().chain([exploit.input]) {
            proxy.offer(&mut m, req, &[]);
            m.run(&mut NopHook, 400_000_000);
        }
        assert!(
            matches!(m.status(), Status::Faulted(_)),
            "{}: {:?}",
            app.name,
            m.status()
        );

        let ckpt = mgr.latest().expect("checkpoint").id;
        let session = ReplaySession::new(&mgr, &proxy, ckpt)
            .expect("session")
            .with_budget(budget);
        assert!(replay_reproduces(&session), "{}", app.name);
        let mut ins = Instrumenter::new();
        let side = attach_all(&mut ins);
        session.run(&mut ins, &mut NoFault);
        let (_, tainted) = agree(&ins, &side).unwrap_or_else(|e| panic!("{}: {e}", app.name));
        assert!(tainted > 0, "{}: the exploit's bytes are tainted", app.name);
    }
}
