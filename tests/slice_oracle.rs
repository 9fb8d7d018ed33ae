//! `analysis::backward_slice` against a reference implementation.
//!
//! The production slicer makes one backward pass with a demand set. The
//! oracle below is the textbook formulation it replaced: a forward pass
//! that resolves every dynamic instruction's reads against last-writer
//! maps (input bytes included), then a worklist walk back from the
//! criterion. Both must give the same `indices`, `pcs` and `input_deps`:
//! on random programs with branches, calls, several input reads on two
//! connections and an indirect-call sink, at every criterion, with and
//! without control dependencies; and on each guest's crash exploit,
//! replayed from its checkpoint the way the analysis pipeline replays
//! it.

use std::collections::{BTreeSet, HashMap, VecDeque};

use proptest::prelude::*;
use sweeper_repro::analysis::{backward_slice, Slice};
use sweeper_repro::apps::{all_crash_exploits, cvs, httpd1, httpd2, squid, BugType};
use sweeper_repro::checkpoint::{CheckpointManager, NoFault, Proxy, ReplaySession};
use sweeper_repro::dbi::{Instrumenter, Loc, TraceEvent, TraceRecorder};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::isa::Op;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Machine, NopHook, Status};
use sweeper_repro::sweeper::pipeline::replay_reproduces;
use sweeper_repro::sweeper::Config;

/// What last wrote a location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Writer {
    /// A dynamic instruction.
    Insn(usize),
    /// An input byte delivered by a `read` syscall.
    Input(u32, u32),
}

/// The reference slicer: forward last-writer pass, then a worklist.
fn oracle_slice(trace: &TraceRecorder, criterion: usize, include_control: bool) -> Slice {
    // Forward pass: resolve each entry's data deps against last-writer
    // maps, and record each entry's control dep.
    let n = trace.entries.len();
    let mut last_writer: HashMap<Loc, Writer> = HashMap::new();
    let mut deps: Vec<Vec<Writer>> = Vec::with_capacity(n);
    let mut ctrl_dep: Vec<Option<usize>> = Vec::with_capacity(n);
    let mut last_branch: Option<usize> = None;

    // Input events indexed by the instruction they follow.
    let mut inputs_at: HashMap<usize, Vec<(u32, u32, u32, u32)>> = HashMap::new();
    for ev in &trace.events {
        if let TraceEvent::Input {
            at_idx,
            conn,
            stream_off,
            addr,
            len,
        } = ev
        {
            inputs_at
                .entry(*at_idx)
                .or_default()
                .push((*conn, *stream_off, *addr, *len));
        }
    }

    for (idx, entry) in trace.entries.iter().enumerate() {
        let mut d = Vec::new();
        for r in &trace.reads(idx) {
            if let Some(w) = last_writer.get(r) {
                d.push(*w);
            }
        }
        deps.push(d);
        ctrl_dep.push(last_branch);
        for w in &trace.writes(idx) {
            last_writer.insert(*w, Writer::Insn(idx));
        }
        // Input delivered by this instruction (a read syscall) marks the
        // buffer bytes as input-written.
        if let Some(ins) = inputs_at.get(&idx) {
            for (conn, off, addr, len) in ins {
                for i in 0..*len {
                    last_writer.insert(
                        Loc::MemByte(addr.wrapping_add(i)),
                        Writer::Input(*conn, off + i),
                    );
                }
            }
        }
        if matches!(
            entry.op,
            Op::JCond { .. } | Op::JmpR { .. } | Op::CallR { .. } | Op::Ret
        ) {
            last_branch = Some(idx);
        }
    }

    // Backward pass: worklist from the criterion.
    let mut slice = Slice::default();
    if criterion >= n {
        return slice;
    }
    let mut work: VecDeque<usize> = VecDeque::new();
    work.push_back(criterion);
    while let Some(idx) = work.pop_front() {
        if !slice.indices.insert(idx) {
            continue;
        }
        slice.pcs.insert(trace.entries[idx].pc);
        for w in &deps[idx] {
            match w {
                Writer::Insn(i) => work.push_back(*i),
                Writer::Input(conn, off) => {
                    slice.input_deps.insert((*conn, *off));
                }
            }
        }
        if include_control {
            if let Some(b) = ctrl_dep[idx] {
                work.push_back(b);
            }
        }
    }
    slice
}

/// Compare the production slice with the oracle's; `Err` names the
/// first field that differs.
fn check_against_oracle(
    trace: &TraceRecorder,
    criterion: usize,
    include_control: bool,
) -> Result<(), String> {
    let got = backward_slice(trace, criterion, include_control);
    let want = oracle_slice(trace, criterion, include_control);
    let at = format!("criterion {criterion}, control {include_control}");
    if got.indices != want.indices {
        let extra: BTreeSet<_> = got.indices.difference(&want.indices).collect();
        let missing: BTreeSet<_> = want.indices.difference(&got.indices).collect();
        return Err(format!(
            "{at}: indices differ: extra {extra:?}, missing {missing:?}"
        ));
    }
    if got.pcs != want.pcs {
        return Err(format!("{at}: pcs {:?} != {:?}", got.pcs, want.pcs));
    }
    if got.input_deps != want.input_deps {
        return Err(format!(
            "{at}: input deps {:?} != {:?}",
            got.input_deps, want.input_deps
        ));
    }
    Ok(())
}

/// Bytes pushed on each of the two connections of a random program.
const CONN_BYTES: u32 = 16;

/// Build a random program in the style of `tests/cross_tool.rs`'s
/// generator, extended with forward conditional branches (`cmpi`/`jz`),
/// calls to a helper that ends in `ret`, and further `sys read`s on
/// either of two connections into overlapping parts of the input buffer.
/// It reads 8 input bytes of connection 0 up front and ends in an
/// indirect call through r7 (the sink), which starts in an unmapped
/// region so that the call faults.
fn random_program(choices: &[u16]) -> String {
    let mut body = String::new();
    // Unread bytes per connection (connection 0's first 8 go up front).
    let mut left = [CONN_BYTES - 8, CONN_BYTES];
    for (i, &c) in choices.iter().enumerate() {
        let r1 = 1 + (c % 5); // r1..r5
        let r2 = 1 + ((c / 5) % 5);
        let off = (c / 25) % 8;
        let imm = (c / 200) % 4;
        match (c / 1600) % 9 {
            0 => body.push_str(&format!("    ldb r{r1}, [r9, {off}]\n")),
            1 => body.push_str(&format!("    stb [r8, {off}], r{r1}\n")),
            2 => body.push_str(&format!("    add r{r1}, r{r1}, r{r2}\n")),
            3 => body.push_str(&format!("    mov r{r1}, r{r2}\n")),
            4 => body.push_str(&format!("    ldb r{r1}, [r8, {off}]\n")),
            5 => body.push_str(&format!(
                "    cmpi r{r1}, {imm}\n    jz skip{i}\n    mov r{r2}, r{r1}\nskip{i}:\n"
            )),
            6 => body.push_str(&format!("    mov r6, r{r1}\n    call helper\n")),
            7 => {
                let conn = usize::from(c % 2);
                if left[conn] >= 4 {
                    left[conn] -= 4;
                    let fd = 10 + conn;
                    let at = off % 5;
                    body.push_str(&format!(
                        "    mov r0, r{fd}\n    movi r1, input\n    addi r1, r1, {at}\n    movi r2, 4\n    sys read\n"
                    ));
                } else {
                    body.push_str(&format!("    ldb r{r1}, [r9, {off}]\n"));
                }
            }
            8 => body.push_str(&format!("    add r7, r7, r{r1}\n")),
            _ => unreachable!(),
        }
        if i == choices.len() / 2 {
            // Mid-program: fold some state into the future sink value.
            body.push_str("    add r7, r7, r1\n");
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
    movi r9, input     ; input base
    movi r8, scratch   ; scratch base
    movi r7, 0x60000000
{body}
    callr r7           ; the sink (unmapped, barring huge sums)
    halt
helper:
    add r7, r7, r6
    stb [r8, 3], r6
    ret
.data
input: .space 16
scratch: .space 8
"
    )
}

/// Record the full trace of `src` run on two connections.
fn trace_program(src: &str, conns: [&[u8]; 2]) -> TraceRecorder {
    let prog = assemble(src).expect("random program assembles");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    for c in conns {
        m.net.push_connection(c.to_vec());
    }
    let mut ins = Instrumenter::new();
    let id = ins.attach(Box::new(TraceRecorder::new()));
    m.run(&mut ins, 100_000_000);
    take_trace(&mut ins, id)
}

/// Move the recorder out of the instrumenter.
fn take_trace(ins: &mut Instrumenter, id: sweeper_repro::dbi::ToolId) -> TraceRecorder {
    let mut tool = ins.detach(id).expect("tool");
    let trace = tool
        .as_any_mut()
        .downcast_mut::<TraceRecorder>()
        .expect("trace recorder");
    std::mem::take(trace)
}

/// Criteria to check on a trace of `len` entries: every one, or an even
/// spread of about 200 plus the last when a sum lands the sink in mapped
/// code and the trace runs long.
fn criteria(len: usize) -> impl Iterator<Item = usize> {
    let step = len.div_ceil(200).max(1);
    (0..len).step_by(step).chain([len.saturating_sub(1)])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn one_pass_slice_equals_oracle_on_random_programs(
        choices in proptest::collection::vec(any::<u16>(), 4..40),
        conn0 in proptest::collection::vec(any::<u8>(), CONN_BYTES as usize),
        conn1 in proptest::collection::vec(any::<u8>(), CONN_BYTES as usize),
    ) {
        let trace = trace_program(&random_program(&choices), [&conn0, &conn1]);
        prop_assume!(!trace.is_empty());
        for criterion in criteria(trace.len()) {
            for include_control in [true, false] {
                let verdict = check_against_oracle(&trace, criterion, include_control);
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }
}

#[test]
fn generator_exercises_branches_calls_and_rereads() {
    // Every op kind with both connections' rereads, so the proptest's
    // programs can reach each feature the slicer distinguishes.
    let choices: Vec<u16> = (0..9u16).flat_map(|k| [k * 1600, k * 1600 + 1]).collect();
    let src = random_program(&choices);
    let trace = trace_program(&src, [&[7; 16], &[9; 16]]);
    let ops: Vec<Op> = trace.entries.iter().map(|e| e.op).collect();
    assert!(ops.iter().any(|o| matches!(o, Op::JCond { .. })));
    assert!(ops.iter().any(|o| matches!(o, Op::Ret)));
    assert!(matches!(ops.last(), Some(Op::CallR { .. })), "{ops:?}");
    assert!(trace.len() < 100, "the sink faults");
    let conns: BTreeSet<u32> = trace
        .events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Input { conn, .. } => Some(*conn),
            _ => None,
        })
        .collect();
    assert_eq!(conns, [0, 1].into_iter().collect());
    for criterion in criteria(trace.len()) {
        for include_control in [true, false] {
            check_against_oracle(&trace, criterion, include_control).unwrap();
        }
    }
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
fn one_pass_slice_equals_oracle_on_every_guest_exploit() {
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

        // Replay the attack window under the trace recorder, as the
        // pipeline's shared replay does for its slicing step.
        let ckpt = mgr.latest().expect("checkpoint").id;
        let session = ReplaySession::new(&mgr, &proxy, ckpt)
            .expect("session")
            .with_budget(budget);
        assert!(replay_reproduces(&session), "{}", app.name);
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(TraceRecorder::new()));
        session.run(&mut ins, &mut NoFault);
        let trace = take_trace(&mut ins, id);
        assert!(!trace.is_empty(), "{}", app.name);

        // The pipeline's criterion (the faulting instruction), plus a
        // spread of earlier ones.
        let last = trace.len() - 1;
        let slice = backward_slice(&trace, last, true);
        assert!(!slice.input_deps.is_empty(), "{}: exploit bytes", app.name);
        for criterion in [last, last * 3 / 4, last / 2, last / 4] {
            for include_control in [true, false] {
                if let Err(e) = check_against_oracle(&trace, criterion, include_control) {
                    panic!("{}: {e}", app.name);
                }
            }
        }
    }
}
