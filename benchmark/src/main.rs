//! `benchmark` — the end-to-end benchmark of the Sweeper reproduction.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run [--workload=<name|all>] [--seed=7] [--reps=5] [--out=F]
//! benchmark compare A.json B.json
//! benchmark smoke
//! ```
//!
//! The first form measures one workload for about `--seconds` and
//! prints one JSON line: the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics (`--trace 1`). `run` measures whole result sets,
//! `compare` judges two of them metric by metric, and `smoke` runs every
//! workload at a tiny size through the same code and checks.
//!
//! Every repetition runs in a fresh child process (`benchmark rep ...`),
//! one after another, so peak RSS is per repetition and no two
//! measurements share a core. See `README.md` for the workloads, the
//! metrics and what each layer metric should move.

mod json;
mod probe;
mod stats;
mod tiers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use json::Json;
use stats::Summary;
use workload::{outcome_metrics, run_rep, spec, Mode, Rep, Scale, WORKLOADS};

/// Fewest repetitions behind an end-to-end median, however short the
/// time budget.
const MIN_REPS: usize = 3;
/// Fewest traced and untraced repetitions behind the trace overhead.
const MIN_TRACE_REPS: usize = 2;
/// Requests each guest replays in the svm-tier leg.
const TIER_REQUESTS: usize = 2000;
/// `BENCHMARK.json`, next to this package in the repository.
const BOUNDS_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit, better)` of every end-to-end metric. The first three
/// are wall-clock measurements of every workload; the rest are modelled
/// outcomes, deterministic per seed, reported where they apply.
const END_TO_END: [(&str, &str, &str); 10] = [
    ("run_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("virt_p50_ms", "ms", "lower"),
    ("virt_p99_ms", "ms", "lower"),
    ("virt_p999_ms", "ms", "lower"),
    ("virt_antibody_ms", "ms", "lower"),
    ("fail_frac", "ratio", "lower"),
    ("protected_frac", "ratio", "higher"),
    ("infected_frac", "ratio", "lower"),
];

/// The wall-clock end-to-end metrics the one-line output reports.
const WALL: [&str; 3] = ["run_s", "setup_s", "peak_rss_mb"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&Args::parse(&args[1..])),
        Some("compare") => cmd_compare(&Args::parse(&args[1..])),
        Some("smoke") => cmd_smoke(),
        Some("rep") => cmd_rep(&Args::parse(&args[1..])),
        Some("tiers") => cmd_tiers(&Args::parse(&args[1..])),
        Some(a) if a.starts_with("--") => cmd_measure(&Args::parse(&args)),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage:
  benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  benchmark run [--workload=<name|all>] [--seed=7] [--reps=5] [--out=FILE]
  benchmark compare A.json B.json
  benchmark smoke";

/// `--key value` / `--key=value` options plus positional arguments.
struct Args {
    opts: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Args {
        let mut opts = BTreeMap::new();
        let mut positional = Vec::new();
        let mut it = args.iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if let Some((k, v)) = key.split_once('=') {
                    opts.insert(k.to_string(), v.to_string());
                } else {
                    let v = it.next_if(|n| !n.starts_with("--")).cloned();
                    opts.insert(key.to_string(), v.unwrap_or_default());
                }
            } else {
                positional.push(a.clone());
            }
        }
        Args { opts, positional }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.opts.get(key).map(String::as_str)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: not a number: {v:?}")),
        }
    }

    fn workload(&self) -> Result<String, String> {
        let w = self.get("workload").ok_or("--workload is required")?;
        if WORKLOADS.contains(&w) {
            Ok(w.to_string())
        } else {
            Err(format!(
                "unknown workload {w:?} (one of {})",
                WORKLOADS.join(", ")
            ))
        }
    }
}

// ---------------------------------------------------------------------
// Child processes
// ---------------------------------------------------------------------

/// `benchmark rep`: one repetition in this process; prints its result
/// as the last line of standard output.
fn cmd_rep(a: &Args) -> Result<bool, String> {
    let w = a.workload()?;
    let seed = a.num("seed", 7u64)?;
    let mode = Mode::parse(a.get("mode").unwrap_or("run")).ok_or("--mode: run|setup|trace")?;
    let s = spec(&w, seed, Scale::Full).ok_or("unknown workload")?;
    let ((mut rep, spans), probes) = probe::bracket(|| run_rep(&s, mode));
    rep.peak_rss_mb = workload::peak_rss_mb();
    rep.probe_s = Summary::of(&probes).map_or(0.0, |p| p.median);
    if let Some(tr) = spans {
        tr.save(&w, seed);
    }
    println!("{}", rep.to_json(&w, seed, mode).render());
    Ok(rep.failures.is_empty())
}

/// `benchmark tiers`: the svm-tier leg in this process.
fn cmd_tiers(a: &Args) -> Result<bool, String> {
    let (rates, failures) = tiers::leg(TIER_REQUESTS, a.num("seed", 7u64)?);
    let rep = Rep {
        layers: rates,
        failures,
        peak_rss_mb: workload::peak_rss_mb(),
        ..Rep::default()
    };
    println!("{}", rep.to_json("tiers", 0, Mode::Trace).render());
    Ok(rep.failures.is_empty())
}

/// Run `benchmark <args>` as a child and read back its result line. A
/// child that crashes or prints no result comes back as a failed rep.
fn child(args: &[String]) -> Rep {
    let failed = |why: String| Rep {
        wall_s: f64::NAN,
        failures: vec![why],
        ..Rep::default()
    };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return failed(format!("cannot locate own executable: {e}")),
    };
    let out = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
    {
        Ok(o) => o,
        Err(e) => return failed(format!("cannot start child: {e}")),
    };
    let stdout = String::from_utf8_lossy(&out.stdout);
    match stdout.lines().last().map(Json::parse) {
        Some(Ok(j)) => {
            let mut rep = Rep::from_json(&j);
            if !out.status.success() && rep.failures.is_empty() {
                rep.failures.push(format!("child exited {}", out.status));
            }
            rep
        }
        _ => failed(format!(
            "child {:?} exited {} without a result",
            args.join(" "),
            out.status
        )),
    }
}

fn rep_child(w: &str, seed: u64, mode: Mode) -> Rep {
    child(&[
        "rep".to_string(),
        format!("--workload={w}"),
        format!("--seed={seed}"),
        format!("--mode={}", mode.name()),
    ])
}

fn tier_child(seed: u64) -> Rep {
    child(&["tiers".to_string(), format!("--seed={seed}")])
}

// ---------------------------------------------------------------------
// Metric tables
// ---------------------------------------------------------------------

/// `(name, unit, better)` of every per-layer metric, in the order
/// `BENCHMARK.json` lists them. See `README.md` for which end-to-end
/// metric each should move.
fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut v: Vec<(String, &'static str, &'static str)> = Vec::new();
    let mut add = |name: &str, unit, better| v.push((name.to_string(), unit, better));
    for (name, unit, better) in [
        ("fleet.boot.calls", "count", "lower"),
        ("fleet.boot.wall_ms", "ms", "lower"),
        ("fleet.boot.p50_us", "us", "lower"),
        ("fleet.boot.p99_us", "us", "lower"),
        ("apps.build.wall_ms", "ms", "lower"),
        ("sweeper.serve.calls", "count", "higher"),
        ("sweeper.serve.wall_ms", "ms", "lower"),
        ("sweeper.serve.p50_us", "us", "lower"),
        ("sweeper.serve.p99_us", "us", "lower"),
        ("sweeper.serve.virt_per_wall", "ratio", "higher"),
        ("svm.insns", "count", "lower"),
        ("svm.insns_per_request", "count", "lower"),
        ("svm.serve_insns_per_s", "1/s", "higher"),
        ("svm.icache.hit_ratio", "ratio", "higher"),
        ("svm.superblock.insn_share", "ratio", "higher"),
        ("svm.syscalls", "count", "lower"),
        ("checkpoint.drain.calls", "count", "lower"),
        ("checkpoint.drain.wall_ms", "ms", "lower"),
        ("checkpoint.drain.pages", "count", "lower"),
        ("sweeper.attack.calls", "count", "lower"),
        ("sweeper.attack.analyzed", "count", "lower"),
        ("sweeper.attack.wall_ms", "ms", "lower"),
        ("sweeper.attack.self_ms", "ms", "lower"),
        ("sweeper.attack.p50_us", "us", "lower"),
        ("sweeper.attack.p99_us", "us", "lower"),
        ("sweeper.attack.compromised", "count", "lower"),
    ] {
        add(name, unit, better);
    }
    for phase in ["memory_state", "memory_bug", "taint", "slicing"] {
        add(&format!("analysis.{phase}.wall_ms"), "ms", "lower");
        add(&format!("analysis.{phase}.virt_ms"), "ms", "lower");
        add(
            &format!("analysis.{phase}.virt_per_wall"),
            "ratio",
            "higher",
        );
    }
    for (name, unit, better) in [
        ("dbi.vsef_events", "count", "lower"),
        ("dbi.virt_charged_ms", "ms", "lower"),
        ("checkpoint.taken", "count", "lower"),
        ("checkpoint.pages_copied", "count", "lower"),
        ("checkpoint.dedupe_ratio", "ratio", "higher"),
        ("checkpoint.virt_overhead_ms", "ms", "lower"),
        ("checkpoint.domain_rollbacks", "count", "higher"),
        ("sweeper.recovery.domain_fallbacks", "count", "lower"),
        ("antibody.certify.calls", "count", "lower"),
        ("antibody.certify.wall_ms", "ms", "lower"),
        ("antibody.verify.calls", "count", "lower"),
        ("antibody.verify.wall_ms", "ms", "lower"),
        ("antibody.verify.p99_us", "us", "lower"),
        ("antibody.verify.rejected", "count", "lower"),
        ("fleet.reactor.ops", "count", "lower"),
        ("fleet.reactor.wall_ms", "ms", "lower"),
        ("fleet.finish.wall_ms", "ms", "lower"),
        ("obs.export.wall_ms", "ms", "lower"),
        ("apps.workload.wall_ms", "ms", "lower"),
    ] {
        add(name, unit, better);
    }
    for arm in ["none", "failest", "antibody-lossy"] {
        add(&format!("epidemic.{arm}.wall_ms"), "ms", "lower");
        add(&format!("epidemic.{arm}.ticks"), "count", "lower");
        add(&format!("epidemic.{arm}.host_ticks_per_s"), "1/s", "higher");
    }
    for (name, unit, better) in [
        ("epidemic.generate.wall_ms", "ms", "lower"),
        ("epidemic.apply.wall_ms", "ms", "lower"),
        ("epidemic.tick.p50_us", "us", "lower"),
        ("epidemic.tick.p99_us", "us", "lower"),
        ("epidemic.distnet.verified", "count", "higher"),
        ("epidemic.distnet.rejected", "count", "lower"),
        ("epidemic.failcont.suppressed", "count", "higher"),
        ("trace.wall_s", "s", "lower"),
        ("trace.attributed_share", "ratio", "higher"),
        ("trace.residual_ms", "ms", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ] {
        add(name, unit, better);
    }
    for guest in ["httpd1", "httpd2", "cvs", "squid"] {
        for tier in ["interp", "icache", "default"] {
            add(
                &format!("svm.tier.{guest}.{tier}.minsns_per_s"),
                "Minsn/s",
                "higher",
            );
        }
    }
    v
}

fn e2e_meta(name: &str) -> (&'static str, &'static str) {
    END_TO_END
        .iter()
        .find(|(n, _, _)| *n == name)
        .map_or(("", "lower"), |&(_, unit, better)| (unit, better))
}

// ---------------------------------------------------------------------
// Aggregating repetitions
// ---------------------------------------------------------------------

/// Every repetition of one workload at one seed.
#[derive(Default)]
struct RepSet {
    runs: Vec<Rep>,
    setups: Vec<Rep>,
    traces: Vec<Rep>,
    tiers: Option<Rep>,
}

impl RepSet {
    /// The measured values of an end-to-end metric, one per repetition.
    /// Times are rescaled by the machine-speed probe (see `probe`).
    fn values(&self, metric: &str) -> Vec<f64> {
        match metric {
            "run_s" => self.runs.iter().map(Rep::scaled_wall_s).collect(),
            "setup_s" => self.setups.iter().map(Rep::scaled_wall_s).collect(),
            "peak_rss_mb" => self.runs.iter().map(|r| r.peak_rss_mb).collect(),
            other => self
                .runs
                .iter()
                .filter_map(|r| r.outcome.get(other).copied())
                .collect(),
        }
    }

    /// The metrics that apply to workload `w`, with their values.
    fn metrics(&self, w: &str) -> Vec<(&'static str, Vec<f64>)> {
        WALL.iter()
            .chain(outcome_metrics(w))
            .map(|&m| (m, self.values(m)))
            .collect()
    }

    /// Every failed check across the set, including determinism (all
    /// repetitions of one seed agree) and the traced mirror reproducing
    /// the untraced run's digest.
    fn failures(&self) -> Vec<String> {
        let mut f = Vec::new();
        for (kind, reps) in [
            ("run", &self.runs),
            ("setup", &self.setups),
            ("trace", &self.traces),
        ] {
            for (i, r) in reps.iter().enumerate() {
                f.extend(r.failures.iter().map(|m| format!("{kind} #{i}: {m}")));
            }
        }
        if let Some(t) = &self.tiers {
            f.extend(t.failures.iter().map(|m| format!("svm tiers: {m}")));
        }
        if let Some(first) = self.runs.first() {
            for (i, r) in self.runs.iter().enumerate().skip(1) {
                if r.digest != first.digest || r.outcome != first.outcome {
                    f.push(format!(
                        "run #{i}: digest {:#x} differs from run #0's {:#x} at the same seed",
                        r.digest, first.digest
                    ));
                }
            }
            for (i, t) in self.traces.iter().enumerate() {
                if t.digest != first.digest {
                    f.push(format!(
                        "trace #{i}: mirror digest {:#x} != untraced digest {:#x}",
                        t.digest, first.digest
                    ));
                }
            }
        }
        f
    }

    fn attempted(&self) -> u64 {
        self.runs
            .iter()
            .chain(&self.traces)
            .map(|r| r.attempted)
            .sum()
    }

    fn failed(&self) -> u64 {
        let broken = self
            .runs
            .iter()
            .chain(&self.setups)
            .chain(&self.traces)
            .filter(|r| !r.failures.is_empty())
            .count() as u64;
        self.runs
            .iter()
            .chain(&self.traces)
            .map(|r| r.failed)
            .sum::<u64>()
            + broken
    }

    /// Per-layer metrics: the median over traced repetitions, the tier
    /// leg, and the trace overhead against the untraced median.
    fn layers(&self) -> BTreeMap<String, f64> {
        let mut names: Vec<&String> = self.traces.iter().flat_map(|t| t.layers.keys()).collect();
        names.sort();
        names.dedup();
        let mut out: BTreeMap<String, f64> = names
            .into_iter()
            .filter_map(|n| {
                let v: Vec<f64> = self
                    .traces
                    .iter()
                    .filter_map(|t| t.layers.get(n).copied())
                    .collect();
                Summary::of(&v).map(|s| (n.clone(), s.median))
            })
            .collect();
        if let Some(t) = &self.tiers {
            out.extend(t.layers.iter().map(|(k, v)| (k.clone(), *v)));
        }
        let traced = Summary::of(
            &self
                .traces
                .iter()
                .map(Rep::scaled_wall_s)
                .collect::<Vec<_>>(),
        );
        let untraced = Summary::of(&self.values("run_s"));
        if let (Some(t), Some(u)) = (traced, untraced) {
            out.insert("trace.overhead".into(), t.median / u.median - 1.0);
        }
        out
    }
}

// ---------------------------------------------------------------------
// The one-line measurement
// ---------------------------------------------------------------------

/// Measure one workload for about `--seconds` and print one JSON line.
/// Set-up and run repetitions alternate (traced and untraced ones with
/// `--trace 1`) until the time is spent and each kind has its minimum.
fn cmd_measure(a: &Args) -> Result<bool, String> {
    let w = a.workload()?;
    let seed = a.num("seed", 7u64)?;
    let seconds: f64 = a.num("seconds", 10.0)?;
    let trace: u8 = a.num("trace", 0)?;
    if trace > 1 || !(seconds.is_finite() && seconds >= 0.0) {
        return Err(USAGE.to_string());
    }
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut set = RepSet::default();
    let mut metrics = Json::obj();
    if trace == 0 {
        while set.runs.len() < MIN_REPS || start.elapsed() < budget {
            set.setups.push(rep_child(&w, seed, Mode::Setup));
            set.runs.push(rep_child(&w, seed, Mode::Run));
        }
        for name in WALL {
            let s = Summary::of(&set.values(name)).ok_or("no repetitions")?;
            let mut m = Json::obj();
            m.set("value", s.median);
            m.set("unit", e2e_meta(name).0);
            metrics.set(name, m);
        }
    } else {
        set.tiers = Some(tier_child(seed));
        while set.traces.len() < MIN_TRACE_REPS || start.elapsed() < budget {
            set.traces.push(rep_child(&w, seed, Mode::Trace));
            set.runs.push(rep_child(&w, seed, Mode::Run));
        }
        let layers = set.layers();
        for (name, unit, _) in per_layer() {
            let mut m = Json::obj();
            // A layer the workload never enters reads 0.
            m.set("value", layers.get(&name).copied().unwrap_or(0.0));
            m.set("unit", unit);
            metrics.set(&name, m);
        }
    }
    let failures = set.failures();
    for f in &failures {
        eprintln!("benchmark: check failed: {f}");
    }
    let mut line = Json::obj();
    line.set("correct", failures.is_empty());
    line.set("attempted", set.attempted());
    line.set("failed", set.failed());
    line.set("metrics", metrics);
    println!("{}", line.render());
    Ok(true)
}

// ---------------------------------------------------------------------
// Result sets: run and compare
// ---------------------------------------------------------------------

/// `benchmark run`: `--reps` set-up and run repetitions per workload,
/// then one traced repetition per workload and one svm-tier leg.
fn cmd_run(a: &Args) -> Result<bool, String> {
    let seed = a.num("seed", 7u64)?;
    let reps = a.num("reps", 5usize)?.max(1);
    let names: Vec<String> = match a.get("workload").unwrap_or("all") {
        "all" => WORKLOADS.iter().map(|w| w.to_string()).collect(),
        _ => vec![a.workload()?],
    };
    eprintln!("benchmark: svm-tier leg ({TIER_REQUESTS} requests per guest)");
    let tiers = tier_child(seed);
    let mut doc = Json::obj();
    doc.set("schema", "sweeper-benchmark-v1");
    doc.set("seed", seed);
    doc.set("reps", reps as u64);
    doc.set(
        "nproc",
        std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
    );
    let mut all = Json::obj();
    let mut ok = true;
    for w in &names {
        let mut set = RepSet {
            tiers: Some(tiers.clone()),
            ..RepSet::default()
        };
        for i in 0..reps {
            eprintln!("benchmark: {w} rep {}/{reps}", i + 1);
            set.setups.push(rep_child(w, seed, Mode::Setup));
            set.runs.push(rep_child(w, seed, Mode::Run));
            // Mid-set, so the untraced median it is compared with
            // brackets it in time.
            if i == reps / 2 {
                eprintln!("benchmark: {w} traced rep");
                set.traces.push(rep_child(w, seed, Mode::Trace));
            }
        }
        let failures = set.failures();
        ok &= failures.is_empty();
        let result = workload_json(w, &set, &failures);
        print!("{}", render_workload(w, seed, &result));
        all.set(w, result);
    }
    doc.set("workloads", all);
    if let Some(path) = a.get("out") {
        std::fs::write(path, doc.pretty()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("benchmark: wrote {path}");
    }
    Ok(ok)
}

fn workload_json(w: &str, set: &RepSet, failures: &[String]) -> Json {
    let mut metrics = Json::obj();
    for (name, values) in set.metrics(w) {
        let Some(s) = Summary::of(&values) else {
            continue;
        };
        let (unit, better) = e2e_meta(name);
        let mut m = Json::obj();
        m.set("unit", unit);
        m.set("better", better);
        m.set("median", s.median);
        m.set("q1", s.q1);
        m.set("q3", s.q3);
        m.set("n", s.n as u64);
        m.set(
            "values",
            values.iter().map(|&v| Json::from(v)).collect::<Vec<_>>(),
        );
        metrics.set(name, m);
    }
    let mut samples = Json::obj();
    if let Some(r) = set.runs.first() {
        for (k, v) in &r.samples {
            samples.set(k, *v);
        }
    }
    let mut layers = Json::obj();
    for (k, v) in set.layers() {
        layers.set(&k, v);
    }
    let mut o = Json::obj();
    o.set(
        "digest",
        set.runs
            .first()
            .map_or("-".to_string(), |r| format!("{:#018x}", r.digest)),
    );
    o.set(
        "failures",
        failures
            .iter()
            .map(|f| Json::from(f.as_str()))
            .collect::<Vec<_>>(),
    );
    o.set("attempted", set.attempted());
    o.set("failed", set.failed());
    // The raw material of the rescaled times, for auditing them.
    let list = |v: Vec<f64>| Json::from(v.into_iter().map(Json::from).collect::<Vec<_>>());
    o.set(
        "run_wall_s",
        list(set.runs.iter().map(|r| r.wall_s).collect()),
    );
    o.set(
        "run_probe_s",
        list(set.runs.iter().map(|r| r.probe_s).collect()),
    );
    o.set("metrics", metrics);
    o.set("samples", samples);
    o.set("layers", layers);
    o
}

fn render_workload(w: &str, seed: u64, r: &Json) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "\n== {w} (seed {seed})");
    let _ = writeln!(
        s,
        "  {:<18} {:<6} {:>14} {:>14} {:>14} {:>3}",
        "metric", "unit", "median", "q1", "q3", "n"
    );
    let samples = r.get("samples");
    for (name, m) in r
        .get("metrics")
        .and_then(Json::as_obj)
        .into_iter()
        .flatten()
    {
        let n = samples
            .and_then(|s| s.num(name))
            .map_or(String::new(), |n| format!("  ({n} samples)"));
        let _ = writeln!(
            s,
            "  {:<18} {:<6} {:>14.6} {:>14.6} {:>14.6} {:>3}{n}",
            name,
            m.get("unit").and_then(Json::as_str).unwrap_or(""),
            m.num("median").unwrap_or(f64::NAN),
            m.num("q1").unwrap_or(f64::NAN),
            m.num("q3").unwrap_or(f64::NAN),
            m.num("n").unwrap_or(0.0),
        );
    }
    let failures = r.get("failures").map_or(&[][..], Json::as_arr);
    let _ = writeln!(
        s,
        "  digest {}  checks: {}",
        r.get("digest").and_then(Json::as_str).unwrap_or("-"),
        if failures.is_empty() { "pass" } else { "FAIL" }
    );
    for f in failures {
        let _ = writeln!(s, "    {}", f.as_str().unwrap_or(""));
    }
    let _ = writeln!(s, "  per-layer (traced repetition):");
    let layers = r.get("layers");
    for (name, unit, _) in per_layer() {
        if let Some(v) = layers.and_then(|l| l.num(&name)) {
            let _ = writeln!(s, "    {name:<44} {v:>16.4} {unit}");
        }
    }
    s
}

/// Verdict for one metric of one workload across two result sets.
fn verdict(a: &[f64], b: &[f64], better: &str, bound: Option<f64>) -> &'static str {
    let (Some(sa), Some(sb)) = (Summary::of(a), Summary::of(b)) else {
        return "unresolved";
    };
    let Some(bound) = bound else {
        // Modelled outcomes are deterministic per seed: equal or not.
        let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        return if same { "agree" } else { "worse" };
    };
    let sign = if better == "higher" { -1.0 } else { 1.0 };
    let worse_by = sign * (sb.median - sa.median) / sa.median.abs();
    let b_beats_every_a = b.iter().all(|&y| a.iter().all(|&x| sign * (y - x) < 0.0));
    if sa.spread().max(sb.spread()) > bound && !b_beats_every_a {
        "unresolved"
    } else if worse_by > bound {
        "worse"
    } else {
        "agree"
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Bounds of the wall-clock metrics from `BENCHMARK.json`.
fn read_bounds(path: &str) -> Result<BTreeMap<String, f64>, String> {
    Ok(read_json(path)?
        .get("end_to_end")
        .map_or(&[][..], Json::as_arr)
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// `benchmark compare A.json B.json`: per workload × metric, both
/// sides' median and quartiles, the delta and a verdict. Exits 0 only
/// when every verdict is `agree`.
fn cmd_compare(a: &Args) -> Result<bool, String> {
    let [pa, pb] = a.positional.as_slice() else {
        return Err(USAGE.to_string());
    };
    let (ja, jb) = (read_json(pa)?, read_json(pb)?);
    let bounds = read_bounds(BOUNDS_FILE)?;
    let empty = BTreeMap::new();
    let wa = ja.get("workloads").and_then(Json::as_obj).unwrap_or(&empty);
    let wb = jb.get("workloads").and_then(Json::as_obj).unwrap_or(&empty);
    println!(
        "{:<19} {:<17} {:<5} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {:>9}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "A q1",
        "A q3",
        "B median",
        "B q1",
        "B q3",
        "delta"
    );
    let mut all_agree = true;
    for (w, ra) in wa {
        let Some(rb) = wb.get(w) else {
            println!("{w:<19} missing from {pb}: unresolved");
            all_agree = false;
            continue;
        };
        let ma = ra.get("metrics").and_then(Json::as_obj).unwrap_or(&empty);
        let mb = rb.get("metrics").and_then(Json::as_obj).unwrap_or(&empty);
        for (name, xa) in ma {
            let values = |m: &Json| -> Vec<f64> {
                m.get("values")
                    .map_or(&[][..], Json::as_arr)
                    .iter()
                    .filter_map(Json::as_f64)
                    .collect()
            };
            let va = values(xa);
            let vb = mb.get(name).map(values).unwrap_or_default();
            let (unit, better) = e2e_meta(name);
            let bound = if WALL.contains(&name.as_str()) {
                Some(
                    *bounds
                        .get(name)
                        .ok_or_else(|| format!("no bound for {name}"))?,
                )
            } else {
                None
            };
            let v = verdict(&va, &vb, better, bound);
            all_agree &= v == "agree";
            let (sa, sb) = (Summary::of(&va), Summary::of(&vb));
            let f = |s: Option<Summary>, g: fn(&Summary) -> f64| {
                s.map_or("-".to_string(), |s| format!("{:.6}", g(&s)))
            };
            let delta = match (sa, sb) {
                (Some(x), Some(y)) if x.median != 0.0 && x.median.is_finite() => {
                    format!("{:+.2}%", 100.0 * (y.median - x.median) / x.median)
                }
                (Some(x), Some(y)) if x.median == y.median => "+0.00%".to_string(),
                _ => "-".to_string(),
            };
            let bound_note = bound.map_or("exact".to_string(), |b| format!("±{:.0}%", b * 100.0));
            println!(
                "{w:<19} {name:<17} {unit:<5} {:>12} {:>12} {:>12} | {:>12} {:>12} {:>12} | {delta:>9}  {v} ({bound_note})",
                f(sa, |s| s.median),
                f(sa, |s| s.q1),
                f(sa, |s| s.q3),
                f(sb, |s| s.median),
                f(sb, |s| s.q1),
                f(sb, |s| s.q3),
            );
        }
    }
    Ok(all_agree)
}

// ---------------------------------------------------------------------
// Smoke
// ---------------------------------------------------------------------

/// Every workload at a tiny size, in process, through the same
/// repetition code and checks as the real runs (two runs for the
/// determinism check, a set-up, a traced mirror), plus a short tier leg.
/// Returns the failed checks.
fn smoke() -> Vec<String> {
    let layer_names = per_layer();
    let mut failures = Vec::new();
    for w in WORKLOADS {
        let Some(s) = spec(w, 7, Scale::Tiny) else {
            failures.push(format!("{w}: no spec"));
            continue;
        };
        let rep = |mode| run_rep(&s, mode).0;
        let set = RepSet {
            runs: vec![rep(Mode::Run), rep(Mode::Run)],
            setups: vec![rep(Mode::Setup)],
            traces: vec![rep(Mode::Trace)],
            tiers: None,
        };
        let mut f = set.failures();
        // The traced repetition must produce every layer metric of its
        // side of the table, so the names here and in `trace` agree.
        let community = matches!(s, workload::Spec::Community(_));
        let layers = set.layers();
        for (name, _, _) in &layer_names {
            let epidemic = name.starts_with("epidemic.");
            let own = !name.starts_with("svm.tier.")
                && (epidemic == community || name.starts_with("trace."));
            if own && !layers.contains_key(name) {
                f.push(format!("traced repetition reports no {name}"));
            }
        }
        for (name, values) in set.metrics(w) {
            let reps = if name == "setup_s" {
                &set.setups
            } else {
                &set.runs
            };
            if values.len() != reps.len() {
                f.push(format!(
                    "{name}: {} values from {} reps",
                    values.len(),
                    reps.len()
                ));
            }
        }
        println!(
            "smoke {w:<19} digest {:#018x}  {}",
            set.runs[0].digest,
            if f.is_empty() { "ok" } else { "FAIL" }
        );
        failures.extend(f.into_iter().map(|m| format!("{w}: {m}")));
    }
    let (rates, tier_failures) = tiers::leg(20, 7);
    println!("smoke svm tiers           {} rates", rates.len());
    failures.extend(tier_failures.into_iter().map(|m| format!("svm tiers: {m}")));
    failures
}

fn cmd_smoke() -> Result<bool, String> {
    let failures = smoke();
    for f in &failures {
        eprintln!("benchmark: smoke check failed: {f}");
    }
    Ok(failures.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_passes_on_every_workload() {
        let failures = smoke();
        assert!(failures.is_empty(), "{failures:#?}");
    }

    #[test]
    fn benchmark_json_lists_the_workloads_and_metrics_this_binary_reports() {
        let j = read_json(BOUNDS_FILE).expect("BENCHMARK.json");
        let names = |key: &str| -> Vec<(String, String, String)> {
            j.get(key)
                .map_or(&[][..], Json::as_arr)
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        assert_eq!(workloads, WORKLOADS);
        let e2e: Vec<(String, String, String)> = WALL
            .iter()
            .map(|&n| {
                let (unit, better) = e2e_meta(n);
                (n.to_string(), unit.to_string(), better.to_string())
            })
            .collect();
        assert_eq!(names("end_to_end"), e2e);
        let layers: Vec<(String, String, String)> = per_layer()
            .into_iter()
            .map(|(n, u, b)| (n, u.to_string(), b.to_string()))
            .collect();
        assert_eq!(names("per_layer"), layers);
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [10.0, 10.1, 10.2, 9.9, 10.0];
        assert_eq!(verdict(&a, &a, "lower", Some(0.1)), "agree");
        let slower: Vec<f64> = a.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(&a, &slower, "lower", Some(0.1)), "worse");
        assert_eq!(verdict(&slower, &a, "lower", Some(0.1)), "agree");
        assert_eq!(verdict(&a, &slower, "higher", Some(0.1)), "agree");
        let noisy = [5.0, 10.0, 15.0, 20.0, 8.0];
        assert_eq!(verdict(&a, &noisy, "lower", Some(0.1)), "unresolved");
        assert_eq!(verdict(&[1.5; 3], &[1.5; 3], "lower", None), "agree");
        assert_eq!(verdict(&[1.5; 3], &[1.25; 3], "lower", None), "worse");
    }

    #[test]
    fn options_take_both_spellings() {
        let args: Vec<String> = ["--workload", "serve-squid", "--seed=11", "A.json"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let a = Args::parse(&args);
        assert_eq!(a.workload().as_deref(), Ok("serve-squid"));
        assert_eq!(a.num("seed", 7u64), Ok(11));
        assert_eq!(a.positional, vec!["A.json".to_string()]);
        assert!(Args::parse(&["--workload=nope".to_string()])
            .workload()
            .is_err());
    }
}
