//! The post-attack analysis pipeline (paper §2.2 / §3.2).
//!
//! After the lightweight monitor trips, Sweeper analyses the faulted
//! image, then rolls back and re-executes the attack window with the
//! heavyweight tools attached:
//!
//! 1. **Memory-state analysis** of the faulted image (milliseconds) →
//!    the *initial* VSEF, released immediately.
//! 2. **Memory-bug detection** on the replay → the *refined* VSEF.
//! 3. **Taint analysis** on the replay → the responsible input (falling
//!    back to one-request-at-a-time isolation, as §5.1 measures) → the
//!    input signature and the recovery drop set.
//! 4. **Backward slicing** on the replay's trace → cross-verification
//!    of steps 2–3 ("if they identify an issue which is not in the
//!    slice, then they are incorrect").
//!
//! The paper re-executes once per tool. The tools only observe, so here
//! steps 2–4 share one instrumented replay with every available tool
//! attached (as DoubleTake does). The sequence survives on the virtual
//! clock: each step is charged the attach cost, the replay's cycles and
//! its own tool's overhead, in the order memory-bug → taint → slicing,
//! so every antibody item is timestamped for piecemeal distribution at
//! the stamp a replay per tool would give it.

use analysis::{backward_slice, CoreDumpReport, MemBugDetector, MemBugKind, Slice, TaintTool};
use antibody::{exact_from, substring_from_taint, Antibody, AntibodyItem, VsefSpec};
use checkpoint::{
    CheckpointManager, CkptId, NoFault, Proxy, ReplayEnd, ReplayOutcome, ReplaySession,
};
use dbi::{Instrumenter, Tool, ToolId, TraceRecorder};
use svm::clock::cycles_to_secs;
use svm::loader::Layout;
use svm::Machine;

use crate::config::Config;
use crate::error::SweeperError;
use crate::fault::FaultHooks;
use crate::timeline::{Event, Timeline};

/// Fixed cost of dynamically attaching an instrumentation tool to a
/// process (the PIN-attach analogue); dominates the first-VSEF latency.
pub const ATTACH_COST_CYCLES: u64 = 60_000_000; // 25 ms at 2.4 GHz.

/// Cost of the static memory-state walk (stack scan + heap walk).
pub const CORE_DUMP_CYCLES: u64 = 96_000_000; // 40 ms (paper: first VSEF at 40-60 ms).

/// Per-step timing for Table 3.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StepTimings {
    /// Memory-state analysis duration (ms).
    pub memory_state_ms: f64,
    /// Memory-bug detection duration (ms).
    pub memory_bug_ms: f64,
    /// Taint / input-isolation duration (ms).
    pub taint_ms: f64,
    /// Slicing duration (ms).
    pub slicing_ms: f64,
    /// Detection -> first VSEF (ms).
    pub first_vsef_ms: f64,
    /// Detection -> best VSEF (ms).
    pub best_vsef_ms: f64,
    /// Detection -> VSEFs + input isolated (ms) ("initial analysis").
    pub initial_ms: f64,
    /// Detection -> everything including slicing (ms).
    pub total_ms: f64,
}

impl StepTimings {
    /// Read the Table 3 timings off the `pipeline.*` spans recorded by
    /// [`analyze_attack`] in an [`obs::MetricsRegistry`].
    ///
    /// Reads the most recent *completed* analysis run: the spans after
    /// the previous `pipeline.total` up to the last one. Runs that
    /// aborted in between record only spans that the completed run
    /// records again later (a run that records `pipeline.slicing` always
    /// reaches `pipeline.total`), so the last span of each name in that
    /// window is the completed run's. Returns `None` when no pipeline has
    /// completed. `pipeline.slicing` is optional (slicing disabled or its
    /// tool failed → 0 ms, matching the inline accounting).
    pub fn from_spans(reg: &obs::MetricsRegistry) -> Option<StepTimings> {
        let spans = reg.spans();
        let is_total = |s: &obs::Span| s.name == "pipeline.total";
        let end = spans.iter().rposition(is_total)?;
        let start = spans[..end].iter().rposition(is_total).map_or(0, |i| i + 1);
        let run = &spans[start..=end];
        let ms = |name: &str| run.iter().rev().find(|s| s.name == name).map(obs::Span::ms);
        Some(StepTimings {
            memory_state_ms: ms("pipeline.memory_state")?,
            memory_bug_ms: ms("pipeline.memory_bug")?,
            taint_ms: ms("pipeline.taint")?,
            slicing_ms: ms("pipeline.slicing").unwrap_or(0.0),
            first_vsef_ms: ms("pipeline.first_vsef")?,
            best_vsef_ms: ms("pipeline.best_vsef")?,
            initial_ms: ms("pipeline.initial")?,
            total_ms: ms("pipeline.total")?,
        })
    }
}

/// What taint/isolation concluded about the attack input.
#[derive(Debug, Clone, Default)]
pub struct InputFinding {
    /// Proxy log ids of the connections implicated.
    pub attack_log_ids: Vec<usize>,
    /// Byte offsets implicated within the primary attack connection.
    pub offsets: Vec<u32>,
    /// The primary attack connection's id in the analysis replays (the
    /// guest connection `offsets` index into; not a proxy log id).
    pub primary_conn: u32,
    /// Whether taint found it (vs. one-at-a-time isolation).
    pub via_taint: bool,
}

/// Cross-verification results from slicing.
#[derive(Debug, Clone, Default)]
pub struct SliceVerdict {
    /// Dynamic slice size (instructions).
    pub slice_len: usize,
    /// Whether the memory-bug finding's pc is inside the slice.
    pub membug_verified: Option<bool>,
    /// Whether the taint source bytes appear among the slice's inputs.
    pub taint_verified: Option<bool>,
}

/// The complete pipeline output.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Step 1 output.
    pub core: CoreDumpReport,
    /// Step 2 findings.
    pub membug: Vec<analysis::MemBugFinding>,
    /// Step 3 conclusion.
    pub input: InputFinding,
    /// Step 4 verdict (absent when slicing is disabled).
    pub slice: Option<SliceVerdict>,
    /// The assembled antibody (releases timestamped from detection).
    pub antibody: Antibody,
    /// Timings for Table 3.
    pub timings: StepTimings,
    /// The checkpoint the analysis replayed from.
    pub ckpt: CkptId,
    /// Symbol map of the attacked process (captured at analysis time; the
    /// live machine may later restart under a different layout).
    pub symbols: svm::loader::SymbolMap,
}

/// Whether a fault-free, uninstrumented replay of `session` reproduces
/// the fault. This is the rule that picks the analysis checkpoint. It
/// runs outside the fault seam, so a replay whose inputs were dropped or
/// corrupted cannot make a window that holds the attack look too short.
pub fn replay_reproduces(session: &ReplaySession) -> bool {
    matches!(
        session.run(&mut svm::NopHook, &mut NoFault).end,
        ReplayEnd::Faulted(_)
    )
}

/// The one instrumented replay the analysis steps share.
struct SharedReplay {
    /// The checkpoint it replayed from.
    ckpt: CkptId,
    out: ReplayOutcome,
    ins: Instrumenter,
    /// Each step's tool; `None` when the tool failed to attach.
    membug: Option<ToolId>,
    taint: Option<ToolId>,
    trace: Option<ToolId>,
}

/// Attach `tool` for pipeline step `step`, arming the detach the fault
/// seam asks for.
fn attach_armed(
    ins: &mut Instrumenter,
    faults: &mut dyn FaultHooks,
    step: &'static str,
    tool: Box<dyn Tool>,
) -> ToolId {
    let id = ins.attach(tool);
    if let Some(n) = faults.tool_detach_after(step) {
        ins.set_detach_after(id, n);
    }
    id
}

/// Replay the attack window once, under `faults`, with the memory-bug,
/// taint and trace tools attached as the flags ask. Starts at the latest
/// checkpoint and steps back while the window does not reproduce the
/// fault: a candidate is kept when the instrumented replay faults, or
/// else when [`replay_reproduces`] says the window holds the attack (the
/// instrumented results then degrade the analysis). `None` when no
/// retained checkpoint reproduces it.
fn shared_replay(
    mgr: &CheckpointManager,
    proxy: &Proxy,
    budget: u64,
    faults: &mut dyn FaultHooks,
    [membug, taint, trace]: [bool; 3],
) -> Option<SharedReplay> {
    let mut ckpt = mgr.latest()?.id;
    loop {
        let session = ReplaySession::new(mgr, proxy, ckpt)?.with_budget(budget);
        let mut ins = Instrumenter::new();
        let membug = membug.then(|| {
            let det = MemBugDetector::attach_to(session.image());
            attach_armed(&mut ins, faults, "memory-bug", Box::new(det))
        });
        let taint =
            taint.then(|| attach_armed(&mut ins, faults, "taint", Box::new(TaintTool::new())));
        let trace = trace
            .then(|| attach_armed(&mut ins, faults, "slicing", Box::new(TraceRecorder::new())));
        let out = session.run(&mut ins, &mut *faults);
        if matches!(out.end, ReplayEnd::Faulted(_)) || replay_reproduces(&session) {
            return Some(SharedReplay {
                ckpt,
                out,
                ins,
                membug,
                taint,
                trace,
            });
        }
        ckpt = CkptId(ckpt.0.checked_sub(1)?);
    }
}

/// Record an injected tool failure explicitly: a `pipeline.tool_failures`
/// counter bump plus a timeline event carrying the [`SweeperError`] text,
/// so a degraded analysis is always distinguishable from a silent one.
fn record_tool_failure(
    metrics: &mut obs::MetricsRegistry,
    timeline: &mut Timeline,
    step: &'static str,
) {
    metrics.inc("pipeline.tool_failures", 1);
    metrics.inc(&format!("pipeline.tool_failures.{step}"), 1);
    timeline.record(Event::AntibodyReleased {
        what: format!("degraded: {}", SweeperError::ToolUnavailable { tool: step }),
    });
}

/// Run the full pipeline on a detected attack.
///
/// `live` is the faulted (or VSEF-stopped) machine; `timeline` must have
/// an `AttackDetected` event already recorded at the current time. VSEF
/// addresses in the produced antibody are normalized to the nominal
/// layout for distribution. `config` supplies the slicing toggle and the
/// replay budget.
///
/// Steps 2–4 share one instrumented replay per candidate checkpoint (see
/// the module doc). Each step is still charged to the timeline on its
/// own, in order: the attach cost, the replay's cycles and its own
/// tool's overhead.
///
/// Each phase additionally records a `pipeline.*` span (virtual stamps
/// from the timeline, with wall-clock mirrors) into `metrics` — Table 3
/// reads off those spans via [`StepTimings::from_spans`], and the
/// differential suite checks them against a re-derivation from the raw
/// event log (`crates/bench/tests/obs_differential.rs`).
/// The shared replay's wall time is the `pipeline.replay` span, whose
/// virtual extent is empty because the steps carry its charge.
///
/// `faults` mediates every seam (see [`FaultHooks`]): analysis-tool
/// failures are drawn before the shared replay and leave that tool out
/// of it, degrading the step's contribution; armed DBI detaches are
/// installed per tool; the shared replay and the isolation fallback's
/// replays inject their inputs through it.
/// [`NoFaultHooks`](crate::NoFaultHooks) is exactly production
/// behaviour.
pub fn analyze_attack(
    live: &Machine,
    mgr: &CheckpointManager,
    proxy: &Proxy,
    timeline: &mut Timeline,
    metrics: &mut obs::MetricsRegistry,
    config: &Config,
    faults: &mut dyn FaultHooks,
) -> Option<AnalysisReport> {
    let replay_budget = config.replay_budget;
    let detection_at = timeline.now();
    let nominal = Layout::nominal();
    let host = live.layout;
    let norm = |spec: VsefSpec| spec.rebase(&host, &nominal);
    let mut antibody = Antibody::new();
    let mut timings = StepTimings::default();
    let ms_since_detect = |tl: &Timeline| cycles_to_secs(tl.now() - detection_at) * 1e3;

    // ---- Step 1: memory-state analysis of the faulted image. ----------
    let sp1 = metrics.start_span("pipeline.memory_state", detection_at);
    if faults.fail_tool("memory-state") {
        // The very first analyzer died: no antibody can be derived at
        // all. Surface the failure explicitly and abort the analysis;
        // the runtime falls back to drop-last recovery.
        record_tool_failure(metrics, timeline, "memory-state");
        metrics.end_span(sp1, timeline.now());
        return None;
    }
    let core = analysis::analyze(live)?;
    timeline.advance_by(CORE_DUMP_CYCLES);
    metrics.end_span(sp1, timeline.now());
    timings.memory_state_ms = cycles_to_secs(CORE_DUMP_CYCLES) * 1e3;
    timeline.record(Event::AnalysisStep {
        step: "memory-state",
        duration_ms: timings.memory_state_ms,
    });
    let initial_vsefs = initial_vsefs(&core);
    for v in &initial_vsefs {
        antibody.push(
            AntibodyItem::Vsef(norm(v.clone())),
            ms_since_detect(timeline),
        );
        timeline.record(Event::AntibodyReleased {
            what: format!("initial VSEF: {}", v.kind()),
        });
    }
    timings.first_vsef_ms = ms_since_detect(timeline);
    timings.best_vsef_ms = timings.first_vsef_ms;
    metrics.record_span("pipeline.first_vsef", detection_at, timeline.now());
    let mut best_vsef_at = timeline.now();

    // A tool that fails to attach is left out of the shared replay.
    let membug_failed = faults.fail_tool("memory-bug");
    let taint_failed = faults.fail_tool("taint");
    let slicing_failed = config.run_slicing && faults.fail_tool("slicing");

    // ---- The shared replay (its charge is split among steps 2–4). -----
    let sp_replay = metrics.start_span("pipeline.replay", timeline.now());
    let tools = [
        !membug_failed,
        !taint_failed,
        config.run_slicing && !slicing_failed,
    ];
    let mut rep = shared_replay(mgr, proxy, replay_budget, faults, tools)?;
    metrics.end_span(sp_replay, timeline.now());
    let ckpt = rep.ckpt;

    // ---- Step 2: memory-bug detection. ---------------------------------
    let sp2 = metrics.start_span("pipeline.memory_bug", timeline.now());
    let mut step2_cycles = ATTACH_COST_CYCLES;
    let membug: Vec<analysis::MemBugFinding> = match rep.membug {
        // The detector failed to attach: the refined VSEF is lost, but
        // the initial one already shipped — degrade, don't abort.
        None => {
            record_tool_failure(metrics, timeline, "memory-bug");
            Vec::new()
        }
        Some(id) => {
            step2_cycles += rep.out.cycles + rep.ins.take_overhead_of(id);
            // A `None` here covers both "no findings" and "tool detached
            // mid-replay" — either way the refined VSEF is simply absent.
            rep.ins
                .get::<MemBugDetector>(id)
                .map(|d| d.findings().to_vec())
                .unwrap_or_default()
        }
    };
    timeline.advance_by(step2_cycles);
    metrics.end_span(sp2, timeline.now());
    timings.memory_bug_ms = cycles_to_secs(step2_cycles) * 1e3;
    timeline.record(Event::AnalysisStep {
        step: "memory-bug",
        duration_ms: timings.memory_bug_ms,
    });
    let refined = refined_vsefs(&membug);
    for v in &refined {
        antibody.push(
            AntibodyItem::Vsef(norm(v.clone())),
            ms_since_detect(timeline),
        );
        timeline.record(Event::AntibodyReleased {
            what: format!("refined VSEF: {}", v.kind()),
        });
        timings.best_vsef_ms = ms_since_detect(timeline);
        best_vsef_at = timeline.now();
    }
    metrics.record_span("pipeline.best_vsef", detection_at, best_vsef_at);

    // ---- Step 3: taint analysis (with isolation fallback). -------------
    let sp3 = metrics.start_span("pipeline.taint", timeline.now());
    let conns_at = mgr.get(ckpt)?.conns_at;
    let mut input = InputFinding::default();
    let mut step3_cycles = ATTACH_COST_CYCLES;
    match rep.taint {
        // Taint never ran: the paper's own isolation fallback below is
        // the degradation path — the attack input is still identified,
        // just slower and without byte offsets.
        None => record_tool_failure(metrics, timeline, "taint"),
        Some(id) => {
            step3_cycles += rep.out.cycles + rep.ins.take_overhead_of(id);
            let replay_map = proxy.guest_to_log(conns_at, &[]);
            let found = rep
                .ins
                .get::<TaintTool>(id)
                .and_then(|taint| taint_finding(taint, &rep.out.machine, &replay_map));
            if let Some((finding, filter)) = found {
                input = finding;
                if let Some(spec) = filter {
                    timeline.advance_by(1_000_000);
                    antibody.push(AntibodyItem::Vsef(norm(spec)), ms_since_detect(timeline));
                    timeline.record(Event::AntibodyReleased {
                        what: "taint-filter VSEF".into(),
                    });
                }
            }
        }
    }
    if input.attack_log_ids.is_empty() {
        // Isolation fallback: replay each post-checkpoint connection
        // alone; the one that reproduces the fault is the attack. (§5.1:
        // "we measure the time to isolate the exploit input by sending
        // the potentially suspicious requests one at a time".)
        let candidates: Vec<usize> = proxy
            .replay_set(conns_at, &[])
            .iter()
            .map(|c| c.log_id)
            .collect();
        for &cand in &candidates {
            let others: Vec<usize> = candidates.iter().copied().filter(|&x| x != cand).collect();
            let Some(sess) = ReplaySession::new(mgr, proxy, ckpt) else {
                break;
            };
            let solo = sess
                .dropping(&others)
                .with_budget(replay_budget)
                .run(&mut svm::NopHook, &mut *faults);
            step3_cycles += ATTACH_COST_CYCLES / 4 + solo.cycles;
            if matches!(solo.end, ReplayEnd::Faulted(_)) {
                input.attack_log_ids = vec![cand];
                break;
            }
        }
    }
    timeline.advance_by(step3_cycles);
    // The taint phase's *charged* extent excludes the 1M-cycle
    // taint-filter release advance interleaved above; pin the span to
    // exactly `step3_cycles` so it matches the inline accounting, while
    // the wall mirror still covers the whole timed region.
    metrics.end_span_at(sp3, timeline.now() - step3_cycles, timeline.now());
    timings.taint_ms = cycles_to_secs(step3_cycles) * 1e3;
    timeline.record(Event::AnalysisStep {
        step: "taint",
        duration_ms: timings.taint_ms,
    });

    // Release the signature + exploit input.
    if let Some(&primary) = input.attack_log_ids.first() {
        if let Some(lc) = proxy.get(primary) {
            antibody.push(
                AntibodyItem::Signature(exact_from(&lc.input)),
                ms_since_detect(timeline),
            );
            timeline.record(Event::AntibodyReleased {
                what: "exact input signature".into(),
            });
            if let Some(sig) = substring_from_taint(&lc.input, &input.offsets, 6) {
                antibody.push(AntibodyItem::Signature(sig), ms_since_detect(timeline));
                timeline.record(Event::AntibodyReleased {
                    what: "substring signature".into(),
                });
            }
            antibody.push(
                AntibodyItem::ExploitInput(lc.input.clone()),
                ms_since_detect(timeline),
            );
            timeline.record(Event::AntibodyReleased {
                what: "exploit input".into(),
            });
        }
    }
    timings.initial_ms = ms_since_detect(timeline);
    metrics.record_span("pipeline.initial", detection_at, timeline.now());

    // ---- Step 4: backward slicing (verification). -----------------------
    if slicing_failed {
        // Cross-verification is lost, but the antibody is complete:
        // report it explicitly and ship without the slice verdict.
        record_tool_failure(metrics, timeline, "slicing");
    }
    let slice = match rep.trace {
        None => None,
        Some(tr_id) => {
            let sp4 = metrics.start_span("pipeline.slicing", timeline.now());
            let step4_cycles =
                ATTACH_COST_CYCLES + rep.out.cycles + rep.ins.take_overhead_of(tr_id);
            timeline.advance_by(step4_cycles);
            let sp4_end = timeline.now();
            timings.slicing_ms = cycles_to_secs(step4_cycles) * 1e3;
            timeline.record(Event::AnalysisStep {
                step: "slicing",
                duration_ms: timings.slicing_ms,
            });
            let verdict = rep.ins.get::<TraceRecorder>(tr_id).map(|trace| {
                let crit = trace.len().saturating_sub(1);
                let slice = backward_slice(trace, crit, true);
                // Double-free findings flow through allocator-internal
                // metadata the instruction trace cannot see; they are not
                // slice-verifiable (the paper's tools share this blind spot
                // for libc-internal dataflow).
                let membug_verified = membug
                    .iter()
                    .find(|f| f.kind != MemBugKind::DoubleFree)
                    .map(|f| slice.contains_pc(f.pc));
                SliceVerdict {
                    slice_len: slice.len(),
                    membug_verified,
                    taint_verified: taint_verified(&input, &slice),
                }
            });
            // The wall mirror covers the slice and the replay's drop; the
            // virtual extent ends where the step's charge does.
            drop(rep);
            metrics.end_span(sp4, sp4_end);
            verdict
        }
    };
    timings.total_ms = ms_since_detect(timeline);
    metrics.record_span("pipeline.total", detection_at, timeline.now());

    Some(AnalysisReport {
        core,
        membug,
        input,
        slice,
        antibody,
        timings,
        ckpt,
        symbols: live.symbols.clone(),
    })
}

/// What the taint tool says about the attack input, read after the
/// replay that left `replayed` behind: the finding, plus the
/// taint-filter VSEF when a control-transfer alert names the sink.
/// `replay_map` maps replay guest connection ids to proxy log ids.
/// `None` when taint implicated no input bytes.
fn taint_finding(
    taint: &TaintTool,
    replayed: &Machine,
    replay_map: &[usize],
) -> Option<(InputFinding, Option<VsefSpec>)> {
    // Prefer a control-transfer alert; otherwise query taint at the
    // corrupt location the fault names (heap attacks).
    let alert = taint.alerts().first();
    let mut sources = alert.map(|a| a.sources.clone()).unwrap_or_default();
    if sources.is_empty() {
        if let svm::Status::Faulted(f) = replayed.status() {
            if let Some(addr) = f.fault_addr() {
                // The corrupt chunk header (HeapAbort) or the slot the
                // allocator was about to dereference.
                sources = taint.taint_of_mem(addr, 8);
                if sources.is_empty() {
                    sources = taint.taint_of_mem(addr.wrapping_sub(8), 16);
                }
            }
        }
    }
    let &(primary_conn, _) = sources.iter().next()?;
    let mut attack_log_ids: Vec<usize> = sources
        .iter()
        .filter_map(|(c, _)| replay_map.get(*c as usize).copied())
        .collect();
    attack_log_ids.sort_unstable();
    attack_log_ids.dedup();
    let finding = InputFinding {
        attack_log_ids,
        offsets: sources
            .iter()
            .filter(|(c, _)| *c == primary_conn)
            .map(|(_, o)| *o)
            .collect(),
        primary_conn,
        via_taint: true,
    };
    let filter = alert.map(|alert| {
        let mut prop: Vec<u32> = taint.propagation_pcs().iter().copied().collect();
        prop.truncate(64);
        VsefSpec::TaintFilter {
            prop_pcs: prop,
            sink_pc: alert.pc,
        }
    });
    Some((finding, filter))
}

/// Whether the slice confirms taint's finding: some implicated byte of
/// the primary attack connection is among the slice's input
/// dependencies. `None` when taint implicated no bytes.
fn taint_verified(input: &InputFinding, slice: &Slice) -> Option<bool> {
    (input.via_taint && !input.offsets.is_empty()).then(|| {
        input
            .offsets
            .iter()
            .any(|&o| slice.input_deps.contains(&(input.primary_conn, o)))
    })
}

/// Initial VSEFs from the memory-state recommendation.
fn initial_vsefs(core: &CoreDumpReport) -> Vec<VsefSpec> {
    use analysis::InitialRecommendation as R;
    match &core.recommendation {
        R::RetAddrGuard { func, func_name } => {
            vec![VsefSpec::RetAddrGuard {
                func: *func,
                func_name: func_name.clone(),
            }]
        }
        R::NullCheck { insn } => vec![VsefSpec::NullCheck { insn_pc: *insn }],
        R::HeapIntegrityGuard { insn, .. } => {
            vec![
                VsefSpec::HeapIntegrityGuard { sites: vec![*insn] },
                VsefSpec::DoubleFreeGuard { free_pc: *insn },
            ]
        }
        R::Generic => Vec::new(),
    }
}

/// Refined VSEFs from memory-bug findings.
fn refined_vsefs(findings: &[analysis::MemBugFinding]) -> Vec<VsefSpec> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sweeper;

    /// Fails one named analysis tool.
    struct FailTool(&'static str);
    impl checkpoint::ReplayFault for FailTool {}
    impl FaultHooks for FailTool {
        fn fail_tool(&mut self, step: &'static str) -> bool {
            step == self.0
        }
    }

    fn analyze(
        s: &mut Sweeper,
        reg: &mut obs::MetricsRegistry,
        faults: &mut dyn FaultHooks,
    ) -> Option<AnalysisReport> {
        s.timeline.record(Event::AttackDetected {
            cause: "test".into(),
        });
        analyze_attack(
            &s.machine,
            &s.mgr,
            &s.proxy,
            &mut s.timeline,
            reg,
            &s.config,
            faults,
        )
    }

    #[test]
    fn span_timings_read_only_the_last_completed_run() {
        // Regression: `from_spans` took the last span of each name over
        // the whole registry, so a run whose slicing tool failed
        // reported the previous run's slicing time, and a run aborted at
        // memory-state lent its span to the previous run's timings.
        let app = apps::httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(1)).expect("protect");
        s.proxy
            .offer(&mut s.machine, apps::httpd1::exploit_crash(&app).input, &[]);
        while s.machine.run(&mut svm::NopHook, 2_000_000).is_running() {}
        assert!(matches!(s.machine.status(), svm::Status::Faulted(_)));
        s.timeline.advance_to(s.machine.clock.cycles());

        let mut reg = obs::MetricsRegistry::new();
        let first = analyze(&mut s, &mut reg, &mut crate::NoFaultHooks).expect("analysis");
        assert!(first.timings.slicing_ms > 0.0);
        let second = analyze(&mut s, &mut reg, &mut FailTool("slicing")).expect("analysis");
        assert_eq!(second.timings.slicing_ms, 0.0);
        assert_eq!(StepTimings::from_spans(&reg), Some(second.timings.clone()));

        assert!(analyze(&mut s, &mut reg, &mut FailTool("memory-state")).is_none());
        assert_eq!(StepTimings::from_spans(&reg), Some(second.timings));
    }

    /// Drops every input of a replay that re-injects more than one
    /// connection: the shared replay loses the whole attack window,
    /// while the isolation fallback's one-connection replays go through.
    #[derive(Default)]
    struct DropWindow {
        window: usize,
    }
    impl checkpoint::ReplayFault for DropWindow {
        fn reorder(&mut self, inputs: &mut Vec<(usize, Vec<u8>)>) {
            self.window = inputs.len();
        }
        fn on_replay_input(&mut self, _log_id: usize, _input: &mut Vec<u8>) -> bool {
            self.window < 2
        }
    }
    impl FaultHooks for DropWindow {}

    #[test]
    fn a_replay_that_lost_its_inputs_does_not_move_the_checkpoint() {
        // The instrumented replay sees no input and cannot fault. The
        // fault-free replay of the same window still reproduces, so the
        // analysis keeps the latest checkpoint and degrades to isolation
        // instead of stepping back past the only checkpoint (`None`).
        let app = apps::httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(1)).expect("protect");
        let latest = s.mgr.latest().expect("checkpoint").id;
        for req in [
            apps::httpd1::benign_request("warm"),
            apps::httpd1::exploit_crash(&app).input,
        ] {
            s.proxy.offer(&mut s.machine, req, &[]);
            while s.machine.run(&mut svm::NopHook, 2_000_000).is_running() {}
        }
        assert!(matches!(s.machine.status(), svm::Status::Faulted(_)));
        s.timeline.advance_to(s.machine.clock.cycles());

        let mut reg = obs::MetricsRegistry::new();
        let report = analyze(&mut s, &mut reg, &mut DropWindow::default())
            .expect("the window still reproduces the fault");
        assert_eq!(report.ckpt, latest);
        assert!(report.membug.is_empty(), "{:?}", report.membug);
        assert!(!report.input.via_taint);
        assert_eq!(
            report.input.attack_log_ids,
            vec![1],
            "the exploit, isolated"
        );
    }

    fn finding(conn: u32, offsets: &[u32]) -> InputFinding {
        InputFinding {
            attack_log_ids: vec![0],
            offsets: offsets.to_vec(),
            primary_conn: conn,
            via_taint: true,
        }
    }

    fn slice_with_inputs(deps: &[(u32, u32)]) -> Slice {
        Slice {
            input_deps: deps.iter().copied().collect(),
            ..Slice::default()
        }
    }

    #[test]
    fn taint_verdict_matches_connection_and_offset() {
        let input = finding(2, &[5, 6]);
        assert_eq!(
            taint_verified(&input, &slice_with_inputs(&[(2, 6)])),
            Some(true)
        );
        // Only another connection has the offset: a benign connection
        // must not verify the taint finding.
        assert_eq!(
            taint_verified(&input, &slice_with_inputs(&[(0, 5), (1, 6)])),
            Some(false)
        );
        assert_eq!(taint_verified(&input, &slice_with_inputs(&[])), Some(false));
    }

    #[test]
    fn taint_verdict_is_absent_without_taint_bytes() {
        let deps = slice_with_inputs(&[(0, 0)]);
        assert_eq!(taint_verified(&finding(0, &[]), &deps), None);
        let isolated = InputFinding {
            via_taint: false,
            ..finding(0, &[0])
        };
        assert_eq!(taint_verified(&isolated, &deps), None);
    }
}
