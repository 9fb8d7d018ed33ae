//! The four workloads, one untraced repetition of each, and the
//! correctness checks every repetition must pass.
//!
//! Why these four: `serve-squid` puts the time in the service path
//! (svm, proxy, checkpoint drains) and never analyses; `outbreak-1k` is
//! boot-bound and the only 1,000-way antibody distribution;
//! `outbreak-producers` puts the time in post-attack analysis and
//! recovery; `community-1m` runs no svm, sweeper or fleet code at all,
//! so every fleet-side optimisation predicts "no change" there.

use std::collections::BTreeMap;
use std::time::Instant;

use apps::workload::Target;
use epidemic::community::{CommunityEngine, CommunityOutcome, CommunityParams, Parallelism};
use epidemic::rng::draw;
use epidemic::{DistNetParams, FailContParams};
use fleet::sim::DOMAIN_FLEET;
use fleet::{FleetConfig, FleetOutcome, LoadGen};
use svm::clock::secs_to_cycles;

use crate::json::Json;
use crate::stats::{percentile, Summary};
use crate::trace::Tracer;

/// Workload names, in the order `--workload=all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "serve-squid",
    "outbreak-1k",
    "outbreak-producers",
    "community-1m",
];

/// Full size is the benchmark; tiny runs the identical code in the
/// unit tests and `benchmark smoke`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

/// One arm of the community workload.
#[derive(Debug, Clone, Copy)]
pub struct Arm {
    pub name: &'static str,
    pub params: CommunityParams,
}

/// What a workload runs.
#[derive(Debug, Clone)]
pub enum Spec {
    Fleet { cfg: FleetConfig, outbreak: bool },
    Community(Vec<Arm>),
}

/// The inputs of workload `name` at `seed`; `None` for an unknown name.
pub fn spec(name: &str, seed: u64, scale: Scale) -> Option<Spec> {
    let tiny = scale == Scale::Tiny;
    let fleet = |cfg: FleetConfig, outbreak: bool| Some(Spec::Fleet { cfg, outbreak });
    match name {
        // Open loop: 200 req/s per host on the virtual clock, no worm.
        // A 3 s horizon keeps one repetition near 3 s of wall time, so a
        // run fits enough repetitions for a steady median.
        "serve-squid" => {
            let hosts = if tiny { 4 } else { 64 };
            fleet(
                FleetConfig {
                    target: Target::Squid,
                    arrival_rate_hz: 200.0,
                    horizon_ms: if tiny { 300.0 } else { 3000.0 },
                    outbreak_at_ms: None,
                    ..FleetConfig::new(hosts, seed)
                },
                false,
            )
        }
        // Exactly the configuration behind the committed fleet digest.
        "outbreak-1k" => fleet(
            if tiny {
                FleetConfig::smoke(8, seed)
            } else {
                FleetConfig::new(1000, seed)
            },
            true,
        ),
        // Every host a producer, so every detected attack is analysed.
        "outbreak-producers" => {
            let hosts = if tiny { 8 } else { 200 };
            let base = if tiny {
                FleetConfig::smoke(hosts, seed)
            } else {
                FleetConfig::new(hosts, seed)
            };
            fleet(
                FleetConfig {
                    producer_every: 1,
                    arrival_rate_hz: 40.0,
                    worm_rate_hz: 400.0,
                    fanout: 6,
                    contact_cap: 8 * hosts,
                    ..base
                },
                true,
            )
        }
        // A 100-host hit list and a 200-tick cap on the unprotected arm
        // keep the simulated work steady across seeds: from one initial
        // infection the take-off time wanders by tens of ticks, and the
        // last few susceptible hosts of a saturated run fall at random
        // times while every infected host keeps scanning.
        "community-1m" => {
            let hosts = if tiny { 20_000 } else { 1_000_000 };
            let arm = |name, max_ticks, alpha, gamma_ticks, distnet, failcont| Arm {
                name,
                params: CommunityParams {
                    hosts,
                    alpha,
                    rho: 0.1,
                    gamma_ticks,
                    attempts_per_tick: 1,
                    attempt_prob: 1.0,
                    i0: 100,
                    max_ticks,
                    seed,
                    parallelism: Parallelism::Fixed(1),
                    engine: CommunityEngine::Soa,
                    distnet,
                    failcont,
                },
            };
            Some(Spec::Community(vec![
                arm(
                    "none",
                    200,
                    0.0,
                    0,
                    DistNetParams::disabled(),
                    FailContParams::disabled(),
                ),
                arm(
                    "failest",
                    400,
                    0.0,
                    0,
                    DistNetParams::disabled(),
                    FailContParams::standard(),
                ),
                arm(
                    "antibody-lossy",
                    400,
                    1e-3,
                    40,
                    DistNetParams::lossy(0.4, 0.2),
                    FailContParams::disabled(),
                ),
            ]))
        }
        _ => None,
    }
}

/// The modelled-outcome metrics that apply to a workload, besides the
/// wall-clock ones every workload reports.
pub fn outcome_metrics(name: &str) -> &'static [&'static str] {
    match name {
        "serve-squid" => &["virt_p50_ms", "virt_p99_ms", "virt_p999_ms", "fail_frac"],
        // 2,291 benign samples at seed 7: fewer than ten beyond p999.
        "outbreak-1k" => &[
            "virt_p50_ms",
            "virt_p99_ms",
            "virt_antibody_ms",
            "fail_frac",
            "protected_frac",
        ],
        "outbreak-producers" => &[
            "virt_p50_ms",
            "virt_p99_ms",
            "virt_p999_ms",
            "virt_antibody_ms",
            "fail_frac",
            "protected_frac",
        ],
        "community-1m" => &["infected_frac"],
        _ => &[],
    }
}

/// Which part of a workload one repetition runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The whole run, untraced: the end-to-end numbers.
    Run,
    /// Set-up only: boot everything, serve nothing.
    Setup,
    /// The whole run through the traced mirror: the per-layer numbers.
    Trace,
}

impl Mode {
    pub fn parse(s: &str) -> Option<Mode> {
        match s {
            "run" => Some(Mode::Run),
            "setup" => Some(Mode::Setup),
            "trace" => Some(Mode::Trace),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Mode::Run => "run",
            Mode::Setup => "setup",
            Mode::Trace => "trace",
        }
    }
}

/// Result of one repetition.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Wall seconds of the measured call.
    pub wall_s: f64,
    /// Determinism digest of the run's observable outcome.
    pub digest: u64,
    /// Operations offered: requests (benign + worm) or community arms.
    pub attempted: u64,
    /// Operations that failed: benign requests not served, arms whose
    /// checks failed.
    pub failed: u64,
    /// Every failed correctness check, one line each.
    pub failures: Vec<String>,
    /// Modelled-outcome metrics, deterministic per seed.
    pub outcome: BTreeMap<String, f64>,
    /// Sample counts behind the outcome percentiles.
    pub samples: BTreeMap<String, f64>,
    /// Per-layer metrics (traced repetitions only).
    pub layers: BTreeMap<String, f64>,
    /// Peak resident set of the process that ran the repetition, MiB.
    pub peak_rss_mb: f64,
    /// Median wall seconds of the machine-speed probe timed around the
    /// repetition (see `probe`); 0 when none ran.
    pub probe_s: f64,
}

impl Rep {
    /// Wall seconds rescaled to the probe's reference speed; the raw
    /// wall time when no probe ran.
    pub fn scaled_wall_s(&self) -> f64 {
        if self.probe_s > 0.0 {
            self.wall_s * crate::probe::REFERENCE_S / self.probe_s
        } else {
            self.wall_s
        }
    }
}

impl Rep {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn to_json(&self, workload: &str, seed: u64, mode: Mode) -> Json {
        let map = |m: &BTreeMap<String, f64>| {
            let mut o = Json::obj();
            for (k, v) in m {
                o.set(k, *v);
            }
            o
        };
        let mut o = Json::obj();
        o.set("workload", workload);
        o.set("seed", seed);
        o.set("mode", mode.name());
        o.set("wall_s", self.wall_s);
        o.set("peak_rss_mb", self.peak_rss_mb);
        o.set("probe_s", self.probe_s);
        o.set("digest", format!("{:#018x}", self.digest));
        o.set("attempted", self.attempted);
        o.set("failed", self.failed);
        o.set(
            "failures",
            self.failures
                .iter()
                .map(|f| Json::from(f.as_str()))
                .collect::<Vec<_>>(),
        );
        o.set("outcome", map(&self.outcome));
        o.set("samples", map(&self.samples));
        o.set("layers", map(&self.layers));
        o
    }

    pub fn from_json(j: &Json) -> Rep {
        let map = |key: &str| {
            j.get(key)
                .and_then(Json::as_obj)
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| v.as_f64().map(|x| (k.clone(), x)))
                        .collect()
                })
                .unwrap_or_default()
        };
        Rep {
            wall_s: j.num("wall_s").unwrap_or(f64::NAN),
            peak_rss_mb: j.num("peak_rss_mb").unwrap_or(f64::NAN),
            probe_s: j.num("probe_s").unwrap_or(0.0),
            digest: j
                .get("digest")
                .and_then(Json::as_str)
                .and_then(|s| u64::from_str_radix(s.trim_start_matches("0x"), 16).ok())
                .unwrap_or(0),
            attempted: j.num("attempted").unwrap_or(0.0) as u64,
            failed: j.num("failed").unwrap_or(0.0) as u64,
            failures: j
                .get("failures")
                .map(|f| {
                    f.as_arr()
                        .iter()
                        .filter_map(|s| s.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            outcome: map("outcome"),
            samples: map("samples"),
            layers: map("layers"),
        }
    }
}

/// A set-up shorter than this is repeated within one repetition and
/// the median reported, so that a sub-millisecond set-up (the community
/// engine allocates lazily) still measures steadily.
const SETUP_MIN_S: f64 = 0.25;

/// Run one repetition of `spec` in this process. A traced repetition
/// also hands back its spans.
pub fn run_rep(spec: &Spec, mode: Mode) -> (Rep, Option<Tracer>) {
    match (spec, mode) {
        (_, Mode::Setup) => {
            let mut walls = Vec::new();
            loop {
                let mut rep = setup_once(spec);
                walls.push(rep.wall_s);
                if !rep.failures.is_empty() || walls.iter().sum::<f64>() >= SETUP_MIN_S {
                    rep.wall_s = Summary::of(&walls).map_or(f64::NAN, |s| s.median);
                    return (rep, None);
                }
            }
        }
        (Spec::Fleet { cfg, outbreak }, Mode::Run) => {
            let start = Instant::now();
            let out = fleet::run(cfg);
            let wall_s = start.elapsed().as_secs_f64();
            (fleet_rep(cfg, *outbreak, out, wall_s), None)
        }
        (Spec::Fleet { cfg, outbreak }, Mode::Trace) => crate::trace::fleet(cfg, *outbreak),
        (Spec::Community(arms), Mode::Run) => {
            let start = Instant::now();
            let outs: Vec<CommunityOutcome> = arms
                .iter()
                .map(|a| epidemic::community::run(&a.params))
                .collect();
            let wall_s = start.elapsed().as_secs_f64();
            (community_rep(arms, &outs, wall_s), None)
        }
        (Spec::Community(arms), Mode::Trace) => crate::trace::community(arms),
    }
}

/// One set-up: everything the run does before its first event or tick.
fn setup_once(spec: &Spec) -> Rep {
    match spec {
        Spec::Fleet { cfg, .. } => {
            let cfg = FleetConfig {
                horizon_ms: 0.0,
                ..*cfg
            };
            let start = Instant::now();
            let out = fleet::run(&cfg);
            let wall_s = start.elapsed().as_secs_f64();
            let mut rep = Rep {
                wall_s,
                ..Rep::default()
            };
            match out {
                Ok(o) => {
                    rep.digest = o.digest;
                    rep.check(o.served == 0, || {
                        format!("zero-horizon run served {} requests", o.served)
                    });
                }
                Err(e) => rep.failures.push(e),
            }
            rep
        }
        Spec::Community(arms) => {
            let start = Instant::now();
            let outs: Vec<CommunityOutcome> = arms
                .iter()
                .map(|a| {
                    epidemic::community::run(&CommunityParams {
                        max_ticks: 0,
                        ..a.params
                    })
                })
                .collect();
            let wall_s = start.elapsed().as_secs_f64();
            let mut rep = Rep {
                wall_s,
                ..Rep::default()
            };
            for (a, o) in arms.iter().zip(&outs) {
                rep.check(o.ticks == 0 && o.curve.is_empty(), || {
                    format!("{}: zero-tick run simulated {} ticks", a.name, o.ticks)
                });
            }
            rep
        }
    }
}

/// Benign requests the open-loop generator offers over the horizon:
/// arrival `k` of host `h` lands `gap(h, 0) + ... + gap(h, k)` after
/// time zero, and only arrivals at or before the horizon are offered.
/// Computed from the generator alone, independently of the run.
pub fn benign_offered(cfg: &FleetConfig) -> u64 {
    let lg = LoadGen {
        seed: draw(cfg.seed, DOMAIN_FLEET, 1),
        rate_per_sec: cfg.arrival_rate_hz,
    };
    let horizon = secs_to_cycles(cfg.horizon_ms / 1e3);
    let mut offered = 0;
    for h in 0..cfg.hosts {
        let mut t = secs_to_cycles(lg.gap_secs(h, 0));
        let mut k = 0;
        while t <= horizon {
            offered += 1;
            k += 1;
            t += secs_to_cycles(lg.gap_secs(h, k));
        }
    }
    offered
}

/// Checks and outcome metrics of one fleet run (traced or not).
pub fn fleet_rep(
    cfg: &FleetConfig,
    outbreak: bool,
    out: Result<FleetOutcome, String>,
    wall_s: f64,
) -> Rep {
    let mut rep = Rep {
        wall_s,
        ..Rep::default()
    };
    let o = match out {
        Ok(o) => o,
        Err(e) => {
            rep.failures.push(e);
            return rep;
        }
    };
    rep.digest = o.digest;
    let offered = benign_offered(cfg);
    rep.attempted = offered + o.contacts;
    // Worm deliveries are filtered or detected, never served, so every
    // served request is a benign one.
    let failed = offered.saturating_sub(o.served);
    rep.failed = failed;

    rep.check(
        o.served + o.filtered + o.attacks == offered + o.contacts,
        || {
            format!(
                "served {} + filtered {} + attacks {} != offered {} + contacts {}",
                o.served, o.filtered, o.attacks, offered, o.contacts
            )
        },
    );
    rep.check(o.bundles_rejected == 0, || {
        format!("{} bundles rejected", o.bundles_rejected)
    });
    for counter in [
        "recovery.i12_violations",
        "recovery.domain_parity_mismatches",
        "checkpoint.parity_mismatches",
        "checkpoint.materialize_failures",
    ] {
        let n = o.metrics.counter(counter);
        rep.check(n == 0, || format!("{counter} = {n}"));
    }
    if outbreak {
        rep.check(o.attacks > 0, || "outbreak never landed: 0 attacks".into());
        rep.check(o.bundles_deployed > 0, || {
            "no antibody bundle deployed".into()
        });
    }

    // Benign latency on the virtual clock, from the scheduled arrival.
    // The books hold one sample per benign request; a failed request
    // counts as infinitely late. The books do not say which samples
    // failed, so the slowest `failed` samples stand in for them.
    let mut lat: Vec<f64> = o
        .quiescent
        .samples()
        .iter()
        .chain(o.outbreak.samples())
        .map(|&(_, ms)| ms)
        .collect();
    lat.sort_by(f64::total_cmp);
    let n = lat.len();
    for v in lat.iter_mut().skip(n.saturating_sub(failed as usize)) {
        *v = f64::INFINITY;
    }
    rep.check(n as u64 == offered, || {
        format!("{n} latency samples for {offered} benign requests")
    });
    for (key, q) in [
        ("virt_p50_ms", 0.5),
        ("virt_p99_ms", 0.99),
        ("virt_p999_ms", 0.999),
    ] {
        if let Some(v) = percentile(&mut lat, q) {
            rep.outcome.insert(key.into(), v);
            rep.samples.insert(key.into(), n as f64);
        }
    }
    if offered > 0 {
        rep.outcome
            .insert("fail_frac".into(), failed as f64 / offered as f64);
    }
    let initial: Vec<f64> = o
        .metrics
        .spans_named("pipeline.initial")
        .map(|s| s.ms())
        .collect();
    if let Some(s) = Summary::of(&initial) {
        rep.outcome.insert("virt_antibody_ms".into(), s.median);
        rep.samples
            .insert("virt_antibody_ms".into(), initial.len() as f64);
    }
    rep.outcome.insert(
        "protected_frac".into(),
        f64::from(o.protected_hosts) / f64::from(o.hosts.max(1)),
    );
    rep
}

/// Checks and outcome metrics of one community run (traced or not).
pub fn community_rep(arms: &[Arm], outs: &[CommunityOutcome], wall_s: f64) -> Rep {
    let mut rep = Rep {
        wall_s,
        attempted: arms.len() as u64,
        ..Rep::default()
    };
    let mut digest = FNV_OFFSET;
    for (a, o) in arms.iter().zip(outs) {
        let before = rep.failures.len();
        let hosts = a.params.hosts;
        let monotone = o.curve.windows(2).all(|w| w[0] <= w[1]);
        let bounded = o.curve.iter().all(|&c| c <= hosts);
        rep.check(monotone && bounded, || {
            format!("{}: infection curve not monotone or above {hosts}", a.name)
        });
        if let Some(d) = &o.dist {
            rep.check(d.deployed_unverified == 0, || {
                format!(
                    "{}: {} unverified deployments (I8)",
                    a.name, d.deployed_unverified
                )
            });
        }
        if rep.failures.len() > before {
            rep.failed += 1;
        }
        for v in [o.infected, o.ticks, o.t0_tick.unwrap_or(u64::MAX)]
            .into_iter()
            .chain(o.curve.iter().copied())
        {
            digest = fnv_fold(digest, v);
        }
        if o.dist.is_some() {
            rep.outcome
                .insert("infected_frac".into(), o.infection_ratio);
        }
    }
    rep.digest = digest;
    rep
}

/// FNV-1a offset basis, as in the fleet digest.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of one u64: the fleet digest's construction, restated
/// because the fleet crate keeps it private.
pub fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Peak resident set of this process in MiB (VmHWM).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
