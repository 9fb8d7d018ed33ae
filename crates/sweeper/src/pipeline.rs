//! The post-attack analysis pipeline (paper §2.2 / §3.2).
//!
//! After the lightweight monitor trips, Sweeper repeatedly rolls back and
//! re-executes, each time attaching a heavier tool:
//!
//! 1. **Memory-state analysis** of the faulted image (milliseconds) →
//!    the *initial* VSEF, released immediately.
//! 2. **Memory-bug detection** on a replay → the *refined* VSEF.
//! 3. **Taint analysis** on a replay → the responsible input (falling
//!    back to one-request-at-a-time isolation, as §5.1 measures) → the
//!    input signature and the recovery drop set.
//! 4. **Backward slicing** on a traced replay → cross-verification of
//!    steps 2–3 ("if they identify an issue which is not in the slice,
//!    then they are incorrect").
//!
//! Every step's (virtual) latency is charged to the timeline, and every
//! produced antibody item is timestamped for piecemeal distribution.

use analysis::{backward_slice, CoreDumpReport, MemBugDetector, MemBugKind, TaintTool};
use antibody::{exact_from, substring_from_taint, Antibody, AntibodyItem, VsefSpec};
use checkpoint::{CheckpointManager, CkptId, NoFault, Proxy, ReplayEnd, ReplaySession};
use dbi::{Instrumenter, TraceRecorder};
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
    /// Uses the **last** span of each name, i.e. the most recent
    /// analysis run. Returns `None` when no pipeline has run (no
    /// `pipeline.total` span). `pipeline.slicing` is optional (slicing
    /// disabled → 0 ms, matching the inline accounting).
    pub fn from_spans(reg: &obs::MetricsRegistry) -> Option<StepTimings> {
        let ms = |name: &str| reg.last_span(name).map(|s| s.ms());
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

/// Re-derive the Table 3 timings of the most recent analysis from the
/// raw event log — the pre-`obs` computation, kept as an independent
/// witness for the span accounting (the differential suite asserts
/// [`StepTimings::from_spans`] agrees with this on every guest).
pub fn timings_from_timeline(tl: &Timeline) -> Option<StepTimings> {
    let (det_idx, det_at) = tl.last_detection()?;
    let after = &tl.events()[det_idx + 1..];
    let ms_to = |at: u64| cycles_to_secs(at - det_at) * 1e3;
    let step_of = |name: &str| {
        after.iter().find_map(|s| match &s.event {
            Event::AnalysisStep { step, duration_ms } if *step == name => {
                Some((s.at_cycles, *duration_ms))
            }
            _ => None,
        })
    };
    let (mem_state_at, memory_state_ms) = step_of("memory-state")?;
    let (_, memory_bug_ms) = step_of("memory-bug")?;
    let (taint_at, taint_ms) = step_of("taint")?;
    let slicing = step_of("slicing");
    // First VSEF: released at the memory-state event's stamp (antibody
    // pushes are zero-cost); best VSEF: the last refined release, else
    // the first.
    let first_vsef_ms = ms_to(mem_state_at);
    let best_vsef_ms = after
        .iter()
        .rev()
        .find_map(|s| match &s.event {
            Event::AntibodyReleased { what } if what.starts_with("refined VSEF") => {
                Some(ms_to(s.at_cycles))
            }
            _ => None,
        })
        .unwrap_or(first_vsef_ms);
    // Initial analysis completes with the signature releases, stamped
    // with the taint step; slicing (when run) sets the total.
    let initial_ms = ms_to(taint_at);
    let total_ms = slicing.map(|(at, _)| ms_to(at)).unwrap_or(initial_ms);
    Some(StepTimings {
        memory_state_ms,
        memory_bug_ms,
        taint_ms,
        slicing_ms: slicing.map(|(_, d)| d).unwrap_or(0.0),
        first_vsef_ms,
        best_vsef_ms,
        initial_ms,
        total_ms,
    })
}

/// What taint/isolation concluded about the attack input.
#[derive(Debug, Clone, Default)]
pub struct InputFinding {
    /// Proxy log ids of the connections implicated.
    pub attack_log_ids: Vec<usize>,
    /// Byte offsets implicated within the primary attack connection.
    pub offsets: Vec<u32>,
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

/// Find the most recent retained checkpoint whose replay reproduces the
/// fault (stepping further back if the window is too short). These probe
/// replays run outside the fault seam.
pub fn find_reproducing_checkpoint(
    mgr: &CheckpointManager,
    proxy: &Proxy,
    budget: u64,
) -> Option<CkptId> {
    let mut candidate = mgr.latest().map(|c| c.id)?;
    loop {
        let out = ReplaySession::new(mgr, proxy, candidate)?
            .with_budget(budget)
            .run(&mut svm::NopHook, &mut NoFault);
        if matches!(out.end, ReplayEnd::Faulted(_)) {
            return Some(candidate);
        }
        // Step back one checkpoint.
        let prev = CkptId(candidate.0.checked_sub(1)?);
        mgr.get(prev)?;
        candidate = prev;
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
/// Each phase additionally records a `pipeline.*` span (virtual stamps
/// from the timeline, with wall-clock mirrors) into `metrics` — Table 3
/// reads off those spans via [`StepTimings::from_spans`], and the
/// differential suite checks them against [`timings_from_timeline`].
///
/// `faults` mediates every seam (see [`FaultHooks`]): analysis-tool
/// failures degrade the corresponding step's contribution, armed DBI
/// detaches are installed before each replay, and every analysis replay
/// injects its inputs through it. [`NoFaultHooks`](crate::NoFaultHooks)
/// is exactly production behaviour.
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

    // Locate a checkpoint that reproduces the attack.
    let ckpt = find_reproducing_checkpoint(mgr, proxy, replay_budget)?;

    // ---- Step 2: memory-bug detection on a replay. ---------------------
    let sp2 = metrics.start_span("pipeline.memory_bug", timeline.now());
    let membug: Vec<analysis::MemBugFinding> = if faults.fail_tool("memory-bug") {
        // The detector failed to attach: the refined VSEF is lost, but
        // the initial one already shipped — degrade, don't abort.
        record_tool_failure(metrics, timeline, "memory-bug");
        timeline.advance_by(ATTACH_COST_CYCLES);
        metrics.end_span(sp2, timeline.now());
        timings.memory_bug_ms = cycles_to_secs(ATTACH_COST_CYCLES) * 1e3;
        timeline.record(Event::AnalysisStep {
            step: "memory-bug",
            duration_ms: timings.memory_bug_ms,
        });
        Vec::new()
    } else {
        let ckpt_machine = mgr.materialize(ckpt)?;
        let det = MemBugDetector::attach_to(&ckpt_machine);
        let mut ins = Instrumenter::new();
        let det_id = ins.attach(Box::new(det));
        if let Some(n) = faults.tool_detach_after("memory-bug") {
            ins.set_detach_after(det_id, n);
        }
        let out = ReplaySession::new(mgr, proxy, ckpt)?
            .with_budget(replay_budget)
            .run(&mut ins, &mut *faults);
        let step2_cycles = ATTACH_COST_CYCLES + out.cycles + ins.take_overhead();
        timeline.advance_by(step2_cycles);
        metrics.end_span(sp2, timeline.now());
        timings.memory_bug_ms = cycles_to_secs(step2_cycles) * 1e3;
        timeline.record(Event::AnalysisStep {
            step: "memory-bug",
            duration_ms: timings.memory_bug_ms,
        });
        // A `None` here covers both "no findings" and "tool detached
        // mid-replay" — either way the refined VSEF is simply absent.
        ins.get::<MemBugDetector>(det_id)
            .map(|d| d.findings().to_vec())
            .unwrap_or_default()
    };
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
    let mut step3_cycles;
    if faults.fail_tool("taint") {
        // Taint never ran: the paper's own isolation fallback below is
        // the degradation path — the attack input is still identified,
        // just slower and without byte offsets.
        record_tool_failure(metrics, timeline, "taint");
        step3_cycles = ATTACH_COST_CYCLES;
    } else {
        let mut ins3 = Instrumenter::new();
        let taint_id = ins3.attach(Box::new(TaintTool::new()));
        if let Some(n) = faults.tool_detach_after("taint") {
            ins3.set_detach_after(taint_id, n);
        }
        let out3 = ReplaySession::new(mgr, proxy, ckpt)?
            .with_budget(replay_budget)
            .run(&mut ins3, &mut *faults);
        step3_cycles = ATTACH_COST_CYCLES + out3.cycles + ins3.take_overhead();
        let replayed_machine = &out3.machine;
        if let Some(taint) = ins3.get::<TaintTool>(taint_id) {
            // Prefer a control-transfer alert; otherwise query taint at the
            // corrupt location the fault names (heap attacks).
            let mut sources = taint
                .alerts()
                .first()
                .map(|a| a.sources.clone())
                .unwrap_or_default();
            if sources.is_empty() {
                if let svm::Status::Faulted(f) = replayed_machine.status() {
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
            if !sources.is_empty() {
                input.via_taint = true;
                // Map replay guest conn ids back to proxy log ids.
                let replay_map: Vec<usize> = guest_to_log_map(proxy, conns_at, &[]);
                let mut ids: Vec<usize> = sources
                    .iter()
                    .filter_map(|(c, _)| replay_map.get(*c as usize).copied())
                    .collect();
                ids.sort_unstable();
                ids.dedup();
                let primary_guest = sources.iter().next().map(|(c, _)| *c).unwrap_or_default();
                input.offsets = sources
                    .iter()
                    .filter(|(c, _)| *c == primary_guest)
                    .map(|(_, o)| *o)
                    .collect();
                input.attack_log_ids = ids;
            }
        }
        // Also add taint-filter VSEF material when taint implicated input.
        if input.via_taint {
            if let Some(taint) = ins3.get::<TaintTool>(taint_id) {
                if let Some(alert) = taint.alerts().first() {
                    let mut prop: Vec<u32> = taint.propagation_pcs().iter().copied().collect();
                    prop.truncate(64);
                    let spec = VsefSpec::TaintFilter {
                        prop_pcs: prop,
                        sink_pc: alert.pc,
                    };
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
    let slicing_failed = config.run_slicing && faults.fail_tool("slicing");
    if slicing_failed {
        // Cross-verification is lost, but the antibody is complete:
        // report it explicitly and ship without the slice verdict.
        record_tool_failure(metrics, timeline, "slicing");
    }
    let slice = if config.run_slicing && !slicing_failed {
        let sp4 = metrics.start_span("pipeline.slicing", timeline.now());
        let mut ins4 = Instrumenter::new();
        let tr_id = ins4.attach(Box::new(TraceRecorder::new()));
        if let Some(n) = faults.tool_detach_after("slicing") {
            ins4.set_detach_after(tr_id, n);
        }
        let out4 = ReplaySession::new(mgr, proxy, ckpt)?
            .with_budget(replay_budget)
            .run(&mut ins4, &mut *faults);
        let step4_cycles = ATTACH_COST_CYCLES + out4.cycles + ins4.take_overhead();
        timeline.advance_by(step4_cycles);
        metrics.end_span(sp4, timeline.now());
        timings.slicing_ms = cycles_to_secs(step4_cycles) * 1e3;
        timeline.record(Event::AnalysisStep {
            step: "slicing",
            duration_ms: timings.slicing_ms,
        });
        let verdict = ins4.get::<TraceRecorder>(tr_id).map(|trace| {
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
            let taint_verified = if input.via_taint && !input.offsets.is_empty() {
                Some(
                    input
                        .offsets
                        .iter()
                        .any(|o| slice.input_deps.iter().any(|(_, so)| so == o)),
                )
            } else {
                None
            };
            SliceVerdict {
                slice_len: slice.len(),
                membug_verified,
                taint_verified,
            }
        });
        verdict
    } else {
        None
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

/// Map replay guest connection ids to proxy log ids.
fn guest_to_log_map(proxy: &Proxy, conns_at: usize, drop: &[usize]) -> Vec<usize> {
    let mut map: Vec<usize> = proxy
        .log()
        .iter()
        .filter(|c| !c.filtered)
        .take(conns_at)
        .map(|c| c.log_id)
        .collect();
    map.extend(proxy.replay_set(conns_at, drop).iter().map(|c| c.log_id));
    map
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
