//! Differential suite for the observability layer: the Table 3 analysis
//! latencies must be derivable three independent ways — the inline
//! accounting in `analyze_attack` (what `report.timings` carries), the
//! `pipeline.*` spans recorded in the metrics registry, and the raw
//! event log — and all three must agree *exactly* (same f64 bits; every
//! path runs the same `cycles_to_secs` arithmetic over the same virtual
//! stamps) on every guest.

use bench::experiments::attack_run;
use svm::clock::cycles_to_secs;
use sweeper::{Event, StepTimings, Timeline};

/// Re-derive the Table 3 timings of the most recent analysis from the
/// raw event log: the pre-`obs` computation, kept as an independent
/// witness for the span accounting.
fn timings_from_timeline(tl: &Timeline) -> Option<StepTimings> {
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

#[test]
fn table3_from_spans_matches_inline_and_timeline_on_all_guests() {
    for (app, exploit) in apps::all_crash_exploits().expect("exploits") {
        let (s, report) = attack_run(&app, exploit.input, 0xd1ff);
        let analysis = report.analysis.as_ref().expect("producer analyzed");
        let inline = &analysis.timings;

        let from_spans = StepTimings::from_spans(&s.obs).expect("pipeline spans recorded");
        assert_eq!(&from_spans, inline, "{}: spans vs inline", app.name);

        let from_log = timings_from_timeline(&s.timeline).expect("event log re-derivation");
        assert_eq!(&from_log, inline, "{}: event log vs inline", app.name);

        // Sanity: span-derived values obey the paper's cumulative order.
        assert!(from_spans.first_vsef_ms <= from_spans.best_vsef_ms + 1e-12);
        assert!(from_spans.best_vsef_ms <= from_spans.initial_ms + 1e-12);
        assert!(from_spans.initial_ms <= from_spans.total_ms + 1e-12);
    }
}

#[test]
fn export_metrics_snapshot_is_idempotent_and_carries_spans() {
    let app = apps::squid::app().expect("app");
    let (s, _report) = attack_run(&app, apps::squid::exploit_crash(&app).input, 0x1de);
    let a = s.export_metrics();
    let b = s.export_metrics();
    assert_eq!(a, b, "snapshotting twice must not change any counter");
    assert!(a.counter("svm.insns_retired") > 0);
    assert!(a.counter("checkpoint.taken_total") >= 1);
    assert_eq!(a.counter("sweeper.attacks_detected"), 1);
    assert!(
        a.last_span("pipeline.total").is_some(),
        "spans survive export"
    );
}
