//! `analyze_attack` against the sequential pipeline it replaced.
//!
//! Production replays the attack window once, with the memory-bug,
//! taint and trace tools attached together, and charges each analysis
//! step its own tool's overhead on the virtual clock. The oracle below
//! is the sequence the paper describes: a bare probe picks the
//! checkpoint, then one replay per tool, each under its own
//! `Instrumenter`. Both must agree on the memory-bug findings, the input
//! finding, the slice verdict, the checkpoint, the Table 3 timings,
//! every antibody item with its release stamp, and every timeline event
//! after detection: on each guest's crash exploit and on both planted
//! bugs, with slicing on and off.

use sweeper_repro::analysis::{
    self, backward_slice, CoreDumpReport, InitialRecommendation, MemBugDetector, MemBugFinding,
    MemBugKind, Slice, TaintTool,
};
use sweeper_repro::antibody::{exact_from, substring_from_taint, Antibody, AntibodyItem, VsefSpec};
use sweeper_repro::apps::{all_crash_exploits, cvs, httpd1, httpd2, squid, App, BugType};
use sweeper_repro::checkpoint::{
    CheckpointManager, CkptId, NoFault, Proxy, ReplayEnd, ReplayOutcome, ReplaySession,
};
use sweeper_repro::dbi::{Instrumenter, Tool, ToolId, TraceRecorder};
use sweeper_repro::obs::MetricsRegistry;
use sweeper_repro::svm::clock::cycles_to_secs;
use sweeper_repro::svm::loader::Layout;
use sweeper_repro::svm::{Machine, NopHook, Status};
use sweeper_repro::sweeper::pipeline::{ATTACH_COST_CYCLES, CORE_DUMP_CYCLES};
use sweeper_repro::sweeper::{
    analyze_attack, Config, Event, InputFinding, NoFaultHooks, RequestOutcome, SliceVerdict,
    StepTimings, Sweeper, Timeline,
};

/// What the sequential pipeline concludes.
struct Sequential {
    membug: Vec<MemBugFinding>,
    input: InputFinding,
    slice: Option<SliceVerdict>,
    antibody: Antibody,
    timings: StepTimings,
    ckpt: CkptId,
}

/// The bare probe: the latest checkpoint whose fault-free,
/// uninstrumented replay faults, stepping back from the newest.
fn probe(mgr: &CheckpointManager, proxy: &Proxy, budget: u64) -> Option<CkptId> {
    let mut candidate = mgr.latest()?.id;
    loop {
        let out = ReplaySession::new(mgr, proxy, candidate)?
            .with_budget(budget)
            .run(&mut NopHook, &mut NoFault);
        if matches!(out.end, ReplayEnd::Faulted(_)) {
            return Some(candidate);
        }
        candidate = CkptId(candidate.0.checked_sub(1)?);
    }
}

/// One replay from `ckpt` with `tool` alone attached: the outcome, the
/// instrumenter holding the tool, and the step's charge.
fn replay_with(
    mgr: &CheckpointManager,
    proxy: &Proxy,
    ckpt: CkptId,
    budget: u64,
    tool: Box<dyn Tool>,
) -> (ReplayOutcome, Instrumenter, ToolId, u64) {
    let mut ins = Instrumenter::new();
    let id = ins.attach(tool);
    let out = ReplaySession::new(mgr, proxy, ckpt)
        .expect("session")
        .with_budget(budget)
        .run(&mut ins, &mut NoFault);
    let cycles = ATTACH_COST_CYCLES + out.cycles + ins.take_overhead_of(id);
    (out, ins, id, cycles)
}

fn initial_vsefs(core: &CoreDumpReport) -> Vec<VsefSpec> {
    match &core.recommendation {
        InitialRecommendation::RetAddrGuard { func, func_name } => vec![VsefSpec::RetAddrGuard {
            func: *func,
            func_name: func_name.clone(),
        }],
        InitialRecommendation::NullCheck { insn } => vec![VsefSpec::NullCheck { insn_pc: *insn }],
        InitialRecommendation::HeapIntegrityGuard { insn, .. } => vec![
            VsefSpec::HeapIntegrityGuard { sites: vec![*insn] },
            VsefSpec::DoubleFreeGuard { free_pc: *insn },
        ],
        InitialRecommendation::Generic => Vec::new(),
    }
}

fn refined_vsefs(findings: &[MemBugFinding]) -> Vec<VsefSpec> {
    let mut out = Vec::new();
    for f in findings {
        let spec = match f.kind {
            MemBugKind::StackSmash => VsefSpec::StoreSmashGuard { store_pc: f.pc },
            MemBugKind::HeapOverflow => VsefSpec::HeapBoundsCheck {
                store_pc: f.pc,
                caller: None,
            },
            MemBugKind::DoubleFree => VsefSpec::DoubleFreeGuard { free_pc: f.pc },
            MemBugKind::DanglingWrite => continue,
        };
        if !out.contains(&spec) {
            out.push(spec);
        }
    }
    out
}

fn taint_verified(input: &InputFinding, slice: &Slice) -> Option<bool> {
    (input.via_taint && !input.offsets.is_empty()).then(|| {
        input
            .offsets
            .iter()
            .any(|&o| slice.input_deps.contains(&(input.primary_conn, o)))
    })
}

/// The sequential pipeline: memory-state analysis, the probe, then a
/// replay per tool, charging each step as it goes.
fn sequential(
    live: &Machine,
    mgr: &CheckpointManager,
    proxy: &Proxy,
    timeline: &mut Timeline,
    config: &Config,
) -> Option<Sequential> {
    let budget = config.replay_budget;
    let detection_at = timeline.now();
    let (host, nominal) = (live.layout, Layout::nominal());
    let norm = |spec: VsefSpec| spec.rebase(&host, &nominal);
    let ms = |cycles: u64| cycles_to_secs(cycles) * 1e3;
    let since = |tl: &Timeline| ms(tl.now() - detection_at);
    let mut antibody = Antibody::new();
    let mut timings = StepTimings::default();

    // Step 1: memory-state analysis.
    let core = analysis::analyze(live)?;
    timeline.advance_by(CORE_DUMP_CYCLES);
    timings.memory_state_ms = ms(CORE_DUMP_CYCLES);
    timeline.record(Event::AnalysisStep {
        step: "memory-state",
        duration_ms: timings.memory_state_ms,
    });
    for v in initial_vsefs(&core) {
        antibody.push(AntibodyItem::Vsef(norm(v.clone())), since(timeline));
        timeline.record(Event::AntibodyReleased {
            what: format!("initial VSEF: {}", v.kind()),
        });
    }
    timings.first_vsef_ms = since(timeline);
    timings.best_vsef_ms = timings.first_vsef_ms;

    let ckpt = probe(mgr, proxy, budget)?;

    // Step 2: memory-bug detection on its own replay.
    let det = MemBugDetector::attach_to(&mgr.materialize(ckpt)?);
    let (_, ins, id, cycles) = replay_with(mgr, proxy, ckpt, budget, Box::new(det));
    timeline.advance_by(cycles);
    timings.memory_bug_ms = ms(cycles);
    timeline.record(Event::AnalysisStep {
        step: "memory-bug",
        duration_ms: timings.memory_bug_ms,
    });
    let membug = ins
        .get::<MemBugDetector>(id)
        .expect("detector")
        .findings()
        .to_vec();
    for v in refined_vsefs(&membug) {
        antibody.push(AntibodyItem::Vsef(norm(v.clone())), since(timeline));
        timeline.record(Event::AntibodyReleased {
            what: format!("refined VSEF: {}", v.kind()),
        });
        timings.best_vsef_ms = since(timeline);
    }

    // Step 3: taint on its own replay, then isolation when needed.
    let conns_at = mgr.get(ckpt)?.conns_at;
    let (out, ins, id, mut step3) =
        replay_with(mgr, proxy, ckpt, budget, Box::new(TaintTool::new()));
    let taint = ins.get::<TaintTool>(id).expect("taint");
    let mut input = InputFinding::default();
    let alert = taint.alerts().first();
    let mut sources = alert.map(|a| a.sources.clone()).unwrap_or_default();
    if let (true, Status::Faulted(f)) = (sources.is_empty(), out.machine.status()) {
        if let Some(addr) = f.fault_addr() {
            sources = taint.taint_of_mem(addr, 8);
            if sources.is_empty() {
                sources = taint.taint_of_mem(addr.wrapping_sub(8), 16);
            }
        }
    }
    if let Some(&(primary, _)) = sources.iter().next() {
        let map = proxy.guest_to_log(conns_at, &[]);
        let mut ids: Vec<usize> = sources
            .iter()
            .filter_map(|(c, _)| map.get(*c as usize).copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        input = InputFinding {
            attack_log_ids: ids,
            offsets: sources
                .iter()
                .filter(|(c, _)| *c == primary)
                .map(|(_, o)| *o)
                .collect(),
            primary_conn: primary,
            via_taint: true,
        };
        if let Some(alert) = alert {
            let mut prop: Vec<u32> = taint.propagation_pcs().iter().copied().collect();
            prop.truncate(64);
            let spec = VsefSpec::TaintFilter {
                prop_pcs: prop,
                sink_pc: alert.pc,
            };
            timeline.advance_by(1_000_000);
            antibody.push(AntibodyItem::Vsef(norm(spec)), since(timeline));
            timeline.record(Event::AntibodyReleased {
                what: "taint-filter VSEF".into(),
            });
        }
    }
    if input.attack_log_ids.is_empty() {
        let candidates: Vec<usize> = proxy
            .replay_set(conns_at, &[])
            .iter()
            .map(|c| c.log_id)
            .collect();
        for &cand in &candidates {
            let others: Vec<usize> = candidates.iter().copied().filter(|&x| x != cand).collect();
            let solo = ReplaySession::new(mgr, proxy, ckpt)?
                .dropping(&others)
                .with_budget(budget)
                .run(&mut NopHook, &mut NoFault);
            step3 += ATTACH_COST_CYCLES / 4 + solo.cycles;
            if matches!(solo.end, ReplayEnd::Faulted(_)) {
                input.attack_log_ids = vec![cand];
                break;
            }
        }
    }
    timeline.advance_by(step3);
    timings.taint_ms = ms(step3);
    timeline.record(Event::AnalysisStep {
        step: "taint",
        duration_ms: timings.taint_ms,
    });
    if let Some(lc) = input.attack_log_ids.first().and_then(|&id| proxy.get(id)) {
        antibody.push(
            AntibodyItem::Signature(exact_from(&lc.input)),
            since(timeline),
        );
        timeline.record(Event::AntibodyReleased {
            what: "exact input signature".into(),
        });
        if let Some(sig) = substring_from_taint(&lc.input, &input.offsets, 6) {
            antibody.push(AntibodyItem::Signature(sig), since(timeline));
            timeline.record(Event::AntibodyReleased {
                what: "substring signature".into(),
            });
        }
        antibody.push(
            AntibodyItem::ExploitInput(lc.input.clone()),
            since(timeline),
        );
        timeline.record(Event::AntibodyReleased {
            what: "exploit input".into(),
        });
    }
    timings.initial_ms = since(timeline);

    // Step 4: slicing on its own traced replay.
    let mut slice = None;
    if config.run_slicing {
        let (_, ins, id, cycles) =
            replay_with(mgr, proxy, ckpt, budget, Box::new(TraceRecorder::new()));
        timeline.advance_by(cycles);
        timings.slicing_ms = ms(cycles);
        timeline.record(Event::AnalysisStep {
            step: "slicing",
            duration_ms: timings.slicing_ms,
        });
        let trace = ins.get::<TraceRecorder>(id).expect("trace");
        let s = backward_slice(trace, trace.len().saturating_sub(1), true);
        slice = Some(SliceVerdict {
            slice_len: s.len(),
            membug_verified: membug
                .iter()
                .find(|f| f.kind != MemBugKind::DoubleFree)
                .map(|f| s.contains_pc(f.pc)),
            taint_verified: taint_verified(&input, &s),
        });
    }
    timings.total_ms = since(timeline);
    Some(Sequential {
        membug,
        input,
        slice,
        antibody,
        timings,
        ckpt,
    })
}

/// A producer host that served `warm` through the protected path, then
/// ran `exploit` up to its fault, with the detection on the timeline.
fn attacked(app: &App, seed: u64, warm: Vec<Vec<u8>>, exploit: Vec<u8>) -> Sweeper {
    let mut s = Sweeper::protect(app, Config::producer(seed)).expect("protect");
    for req in warm {
        let out = s.offer_request(req);
        assert!(matches!(out, RequestOutcome::Served { .. }), "{out:?}");
    }
    s.proxy.offer(&mut s.machine, exploit, &[]);
    while s.machine.run(&mut NopHook, 2_000_000).is_running() {}
    assert!(
        matches!(s.machine.status(), Status::Faulted(_)),
        "{}: {:?}",
        app.name,
        s.machine.status()
    );
    s.timeline.advance_to(s.machine.clock.cycles());
    s.timeline.record(Event::AttackDetected {
        cause: "oracle".into(),
    });
    s
}

/// Run both pipelines on `s`, with slicing on and off, and require them
/// to agree. Returns the production report with slicing on.
fn assert_agree(name: &str, s: &Sweeper) -> sweeper_repro::sweeper::AnalysisReport {
    let mut with_slicing = None;
    for run_slicing in [true, false] {
        let config = Config {
            run_slicing,
            ..s.config.clone()
        };
        let at = format!("{name} (slicing {run_slicing})");

        let mut seq_tl = s.timeline.clone();
        let want = sequential(&s.machine, &s.mgr, &s.proxy, &mut seq_tl, &config)
            .unwrap_or_else(|| panic!("{at}: sequential analysis"));
        let mut tl = s.timeline.clone();
        let mut reg = MetricsRegistry::new();
        let got = analyze_attack(
            &s.machine,
            &s.mgr,
            &s.proxy,
            &mut tl,
            &mut reg,
            &config,
            &mut NoFaultHooks,
        )
        .unwrap_or_else(|| panic!("{at}: analysis"));

        assert_eq!(
            format!("{:?}", got.membug),
            format!("{:?}", want.membug),
            "{at}: membug"
        );
        assert_eq!(
            format!("{:?}", got.input),
            format!("{:?}", want.input),
            "{at}: input"
        );
        assert_eq!(
            format!("{:?}", got.slice),
            format!("{:?}", want.slice),
            "{at}: slice"
        );
        assert_eq!(got.ckpt, want.ckpt, "{at}: checkpoint");
        assert_eq!(got.timings, want.timings, "{at}: timings");
        assert_eq!(
            got.antibody.releases, want.antibody.releases,
            "{at}: antibody"
        );
        assert_eq!(tl.events(), seq_tl.events(), "{at}: timeline");
        // The shared replay's wall time is a span with no virtual extent.
        let replay = reg.last_span("pipeline.replay").expect("replay span");
        assert_eq!(replay.start_cycles, replay.end_cycles, "{at}");
        if run_slicing {
            with_slicing = Some(got);
        }
    }
    with_slicing.expect("ran with slicing")
}

/// Benign requests for a guest, served before the attack.
fn warm_up(bug: BugType) -> Vec<Vec<u8>> {
    match bug {
        BugType::StackSmash => vec![httpd1::benign_request("w0"), httpd1::benign_request("w1")],
        BugType::NullDeref => vec![httpd2::benign_request("w0", None)],
        BugType::DoubleFree => vec![cvs::benign_session(&["warm"])],
        BugType::HeapOverflow => vec![squid::benign_request("w0", "h")],
    }
}

#[test]
fn fused_replay_matches_the_sequential_pipeline_on_every_guest_exploit() {
    let mut refined = 0;
    let mut via_taint = 0;
    for (app, exploit) in all_crash_exploits().expect("exploits") {
        let s = attacked(&app, 0x5eed, warm_up(app.bug), exploit.input);
        let report = assert_agree(app.name, &s);
        refined += usize::from(!report.membug.is_empty());
        via_taint += usize::from(report.input.via_taint);
        assert!(report.slice.is_some(), "{}", app.name);
    }
    // The comparison covers every tool's contribution: three guests
    // have a memory bug, two attacks are found by taint and the other
    // two by isolation.
    assert_eq!((refined, via_taint), (3, 2));
}

#[test]
fn fused_replay_matches_the_sequential_pipeline_on_the_planted_bugs() {
    let app = cvs::app().expect("cvs");
    let double_free =
        b"Root /repo\nDirectory a\nDirectory /bad\nDirectory b\nEntry e\ndone\n".to_vec();
    let s = attacked(&app, 0x5eed, warm_up(app.bug), double_free);
    let report = assert_agree("cvs stale cur_dir", &s);
    assert!(report
        .membug
        .iter()
        .any(|f| f.kind == MemBugKind::DoubleFree));

    let app = httpd2::app().expect("httpd2");
    let null_host = b"GET /p HTTP/1.0\nReferer: gopher://evil/\n".to_vec();
    let s = attacked(&app, 0xb00, warm_up(app.bug), null_host);
    let report = assert_agree("httpd2 NULL host", &s);
    assert!(report.membug.is_empty(), "a NULL deref is not a memory bug");
}
