//! `obs` — the workspace-wide metrics and tracing layer.
//!
//! Sweeper's headline claims are *measurements*: Table 3 analysis
//! latencies, Figure 4 checkpoint overhead, §5.3 VSEF overhead. This
//! crate gives every layer of the repro one uniform, deterministic way
//! to expose those numbers instead of ad-hoc counters scattered across
//! crates:
//!
//! * **Counters** — monotone `u64` event counts (`svm.insns_retired`,
//!   `checkpoint.pages_copied`, `epidemic.antibodies_applied`, ...).
//! * **Gauges** — point-in-time `f64` readings (`checkpoint.ring_occupancy`,
//!   per-shard wall-clock phase times, ...).
//! * **Spans** — named `[start, end)` intervals stamped on the
//!   **virtual clock** (model cycles), with an optional wall-clock
//!   mirror in nanoseconds. The sweeper analysis pipeline records one
//!   span per phase, and Table 3 is now *read off those spans* rather
//!   than re-derived from the event log.
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** All keys live in `BTreeMap`s, spans are recorded
//!    in program order, and nothing here ever reads the wall clock into
//!    a value that feeds back into simulation state. Merging per-shard
//!    registries in shard order yields identical counters at any
//!    parallelism level.
//! 2. **Allocation-light hot paths.** The VM interpreter loop and the
//!    community tick loop never touch a registry; they keep their
//!    existing plain `u64` fields and *export* into a registry at
//!    report points (`export_metrics`). No atomics anywhere.
//! 3. **Zero model-visible overhead.** Recording metrics never ticks
//!    the virtual clock, so the decode-cache and serial/parallel
//!    community parity suites remain bit-identical with metrics on.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One named `[start, end)` interval on the virtual clock, with a
/// wall-clock mirror.
///
/// `start_cycles`/`end_cycles` are model cycles (2.4 GHz virtual
/// clock); `wall_nanos` is the measured host-side duration of the same
/// region, or 0 when no wall mirror was taken (e.g. spans reconstructed
/// from the event log).
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Dotted span name, e.g. `pipeline.memory_bug`.
    pub name: String,
    /// Virtual-clock stamp at span open (model cycles).
    pub start_cycles: u64,
    /// Virtual-clock stamp at span close (model cycles).
    pub end_cycles: u64,
    /// Wall-clock mirror of the span body in nanoseconds (0 = not measured).
    pub wall_nanos: u64,
}

impl Span {
    /// Span length on the virtual clock, in model cycles.
    pub fn cycles(&self) -> u64 {
        self.end_cycles.saturating_sub(self.start_cycles)
    }

    /// Span length in virtual milliseconds at the 2.4 GHz clock model.
    ///
    /// Computed as `(cycles / 2.4e9) * 1e3` — the *same operation
    /// order* as `svm::clock::cycles_to_secs(c) * 1e3` — so span-derived
    /// latencies are bit-identical to the inline Table 3 accounting
    /// (`obs` sits below `svm` and cannot call it directly; a fused
    /// single division differs in the last ulp).
    pub fn ms(&self) -> f64 {
        (self.cycles() as f64 / 2_400_000_000.0) * 1e3
    }
}

/// An open span: holds the virtual start stamp and a wall-clock anchor.
///
/// Obtain one from [`MetricsRegistry::start_span`], finish it with
/// [`MetricsRegistry::end_span`]. The timer itself is inert — dropping
/// it records nothing, so abandoned spans cost nothing.
#[derive(Debug)]
pub struct SpanTimer {
    name: String,
    start_cycles: u64,
    wall_start: Instant,
}

/// Deterministic container for counters, gauges and spans.
///
/// Cheap to create, `Clone` + `PartialEq` so tests can diff two
/// registries structurally, and mergeable so sharded engines can
/// combine per-shard registries into one deterministic whole.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: Vec<Span>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `by` to the named counter (creating it at 0).
    pub fn inc(&mut self, name: &str, by: u64) {
        if let Some(v) = self.counters.get_mut(name) {
            *v += by;
        } else {
            self.counters.insert(name.to_string(), by);
        }
    }

    /// Overwrite the named counter with an absolute value.
    ///
    /// Use for counters mirrored from an external monotone source
    /// (e.g. `Machine::insns_retired`), where repeated exports must not
    /// double-count.
    pub fn set_counter(&mut self, name: &str, value: u64) {
        self.counters.insert(name.to_string(), value);
    }

    /// Read a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Set the named gauge to a point-in-time reading.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Read a gauge (`None` when absent).
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Open a span at the given virtual-clock stamp.
    pub fn start_span(&self, name: &str, now_cycles: u64) -> SpanTimer {
        SpanTimer {
            name: name.to_string(),
            start_cycles: now_cycles,
            wall_start: Instant::now(),
        }
    }

    /// Close a span at the given virtual-clock stamp and record it.
    pub fn end_span(&mut self, timer: SpanTimer, now_cycles: u64) {
        let wall = timer.wall_start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: timer.name,
            start_cycles: timer.start_cycles,
            end_cycles: now_cycles,
            wall_nanos: wall,
        });
    }

    /// Close a span with an explicit virtual start stamp, keeping the
    /// timer's wall mirror.
    ///
    /// Used when a phase's *virtual* extent is only known at close time
    /// — e.g. the taint phase of the analysis pipeline, whose charged
    /// cycles exclude an interleaved antibody-release advance — while
    /// the wall mirror should still cover the whole timed region.
    pub fn end_span_at(&mut self, timer: SpanTimer, start_cycles: u64, end_cycles: u64) {
        let wall = timer.wall_start.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name: timer.name,
            start_cycles,
            end_cycles,
            wall_nanos: wall,
        });
    }

    /// Record a closed span directly from two virtual stamps (no wall
    /// mirror). Used when the region's endpoints are known after the
    /// fact, e.g. when reconstructing phases from an event log.
    pub fn record_span(&mut self, name: &str, start_cycles: u64, end_cycles: u64) {
        self.spans.push(Span {
            name: name.to_string(),
            start_cycles,
            end_cycles,
            wall_nanos: 0,
        });
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All spans with the given name, in recording order.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// The most recently recorded span with the given name.
    pub fn last_span(&self, name: &str) -> Option<&Span> {
        self.spans.iter().rev().find(|s| s.name == name)
    }

    /// Iterate counters in sorted (deterministic) key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterate gauges in sorted (deterministic) key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }

    /// Merge `other` into `self`: counters add, gauges overwrite (last
    /// writer wins), spans append in `other`'s order.
    ///
    /// Algebraically (and property-tested in `tests/obs_props.rs`):
    ///
    /// * **Counters** form a commutative monoid — merge is associative
    ///   *and* order-insensitive, so any shard fold order yields the
    ///   same counter map.
    /// * **Gauges** are *intentionally* order-sensitive: a gauge is a
    ///   point-in-time reading, so when several shards report the same
    ///   gauge, the fold keeps the **last shard's** value rather than
    ///   inventing a sum or mean. Merge is still associative — only the
    ///   fold *order* matters. Callers that fold shards must therefore
    ///   do so in a fixed order (as the sharded community engine does,
    ///   shard 0..K) for deterministic gauge output.
    /// * **Spans** append, preserving each input's recording order.
    ///
    /// Merging a fixed sequence of registries in a fixed order is fully
    /// deterministic, which is how the sharded community engine folds
    /// per-shard registries into one.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            self.inc(k, *v);
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        self.spans.extend(other.spans.iter().cloned());
    }

    /// Fold many registries into one, **in the order given** — the
    /// fleet aggregation primitive.
    ///
    /// Counters are a commutative monoid, so any order would yield the
    /// same sums; gauges are last-writer-wins and spans append, so the
    /// fold order *is* part of the result. Callers aggregating per-host
    /// registries must pass them in host-index order (as the fleet
    /// front-end and the sharded community engine do) for the merged
    /// registry to be bit-identical at any parallelism level.
    pub fn merge_all<'a, I>(regs: I) -> MetricsRegistry
    where
        I: IntoIterator<Item = &'a MetricsRegistry>,
    {
        let mut out = MetricsRegistry::new();
        for r in regs {
            out.merge(r);
        }
        out
    }

    /// Human-readable dump: counters, gauges, then spans, each section
    /// sorted or in recording order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                let _ = writeln!(out, "  {k:<44} {v:>16}");
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("gauges:\n");
            for (k, v) in &self.gauges {
                let _ = writeln!(out, "  {k:<44} {v:>16.4}");
            }
        }
        if !self.spans.is_empty() {
            out.push_str("spans (virtual ms; wall ms mirror):\n");
            for s in &self.spans {
                let _ = writeln!(
                    out,
                    "  {:<44} {:>12.3} ms  (wall {:>10.3} ms)",
                    s.name,
                    s.ms(),
                    s.wall_nanos as f64 / 1.0e6
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Compact JSON object (hand-rolled; the workspace is offline and
    /// carries no serde). Shape:
    ///
    /// ```json
    /// {"counters":{...},"gauges":{...},
    ///  "spans":[{"name":..,"start_cycles":..,"end_cycles":..,"wall_nanos":..},..]}
    /// ```
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(k));
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_str(k), json_f64(*v));
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":{},\"start_cycles\":{},\"end_cycles\":{},\"wall_nanos\":{}}}",
                json_str(&s.name),
                s.start_cycles,
                s.end_cycles,
                s.wall_nanos
            );
        }
        out.push_str("]}");
        out
    }
}

/// Escape a string for embedding in JSON (quotes included).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Format an `f64` as a JSON number (finite values only; non-finite
/// readings degrade to 0 rather than emitting invalid JSON).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_read_back() {
        let mut r = MetricsRegistry::new();
        r.inc("a.b", 2);
        r.inc("a.b", 3);
        r.set_counter("a.c", 10);
        r.set_counter("a.c", 7); // absolute: overwrite, not add
        assert_eq!(r.counter("a.b"), 5);
        assert_eq!(r.counter("a.c"), 7);
        assert_eq!(r.counter("missing"), 0);
    }

    #[test]
    fn spans_record_virtual_durations() {
        let mut r = MetricsRegistry::new();
        let t = r.start_span("phase.x", 1_000);
        r.end_span(t, 2_400_001_000);
        let s = r.last_span("phase.x").unwrap();
        assert_eq!(s.cycles(), 2_400_000_000);
        assert!((s.ms() - 1_000.0).abs() < 1e-9);
        // record_span has no wall mirror
        r.record_span("phase.y", 0, 2_400_000);
        assert_eq!(r.last_span("phase.y").unwrap().wall_nanos, 0);
        assert!((r.last_span("phase.y").unwrap().ms() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn merge_is_deterministic_and_additive() {
        let mut a = MetricsRegistry::new();
        a.inc("n", 1);
        a.gauge("g", 1.0);
        a.record_span("s", 0, 10);
        let mut b = MetricsRegistry::new();
        b.inc("n", 2);
        b.inc("m", 5);
        b.gauge("g", 2.0);
        b.record_span("s", 10, 30);

        let mut m1 = MetricsRegistry::new();
        m1.merge(&a);
        m1.merge(&b);
        assert_eq!(m1.counter("n"), 3);
        assert_eq!(m1.counter("m"), 5);
        assert_eq!(m1.gauge_value("g"), Some(2.0));
        assert_eq!(m1.spans().len(), 2);

        // Same inputs, same order => structurally identical result.
        let mut m2 = MetricsRegistry::new();
        m2.merge(&a);
        m2.merge(&b);
        assert_eq!(m1, m2);
    }

    #[test]
    fn merge_all_folds_in_the_given_order() {
        let mut per_host = Vec::new();
        for host in 0..4u64 {
            let mut r = MetricsRegistry::new();
            r.inc("served", host + 1);
            r.gauge("occupancy", host as f64);
            per_host.push(r);
        }
        let fleet = MetricsRegistry::merge_all(per_host.iter());
        // Counters sum across hosts...
        assert_eq!(fleet.counter("served"), 1 + 2 + 3 + 4);
        // ...and the last host in index order owns the gauges.
        assert_eq!(fleet.gauge_value("occupancy"), Some(3.0));
        // Same inputs, same order => structurally identical fold.
        assert_eq!(fleet, MetricsRegistry::merge_all(per_host.iter()));
    }

    #[test]
    fn render_and_json_are_stable() {
        let mut r = MetricsRegistry::new();
        r.inc("z.last", 1);
        r.inc("a.first", 2);
        r.gauge("mid", 0.5);
        r.record_span("sp", 5, 15);
        let text = r.render();
        // BTreeMap ordering: a.first before z.last.
        let a = text.find("a.first").unwrap();
        let z = text.find("z.last").unwrap();
        assert!(a < z);
        let js = r.to_json();
        assert!(js.starts_with("{\"counters\":{"));
        assert!(js.contains("\"a.first\":2"));
        assert!(js.contains("\"spans\":[{\"name\":\"sp\",\"start_cycles\":5,\"end_cycles\":15"));
        assert!(js.ends_with("]}"));
        // Balanced braces/brackets (cheap well-formedness check).
        let opens = js.matches('{').count();
        let closes = js.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn json_escapes_control_characters() {
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn empty_registry_renders_placeholder() {
        let r = MetricsRegistry::new();
        assert!(r.is_empty());
        assert!(r.render().contains("no metrics recorded"));
        assert_eq!(r.to_json(), "{\"counters\":{},\"gauges\":{},\"spans\":[]}");
    }
}
