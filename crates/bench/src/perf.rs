//! The measurement blocks behind `tables`' evaluation subcommands.
//!
//! Each `*_block` function runs one experiment and returns a typed
//! summary; its `render_*` partner formats the text table the matching
//! `tables` subcommand prints, and the subcommand asserts the block's
//! gates (so its exit status is the CI gate). The `*_smoke` functions
//! are the parity gates themselves: they panic on divergence.
//!
//! Wall-clock performance is not recorded here: the `benchmark/`
//! package is the repository's one perf record (`benchmark run`,
//! `benchmark compare`).

use epidemic::community::CommunityParams;
use epidemic::{CommunityEngine, DistNetParams, FailContParams, Parallelism};

use crate::driver::{cadence_sweep, CadenceCell};

/// One cell of the `fig9dist` containment-vs-loss/Byzantine sweep: a
/// contained outbreak run with the antibody distribution network over a
/// wire with the given loss probability and Byzantine producer fraction.
#[derive(Debug, Clone)]
pub struct DistNetCell {
    /// Per-transmission loss probability.
    pub loss: f64,
    /// Byzantine producer fraction.
    pub byzantine: f64,
    /// Hosts infected when the run ended (containment axis).
    pub infected: u64,
    /// Consumers protected by a verified bundle when the run ended.
    pub protected: u64,
    /// Emergent γ: ticks from first producer contact to full community
    /// protection (`None` if protection never completed).
    pub gamma_effective: Option<u64>,
    /// Ticks simulated.
    pub ticks: u64,
    /// Bundles that passed verify-before-deploy.
    pub verified: u64,
    /// Bundles rejected by verification (Byzantine forgeries).
    pub rejected: u64,
    /// `(consumer, producer)` quarantine events.
    pub quarantines: u64,
    /// Consumers that exhausted their retry budget.
    pub gave_up: u64,
    /// I8 counter: unverified deployments (must be 0 in every cell).
    pub deployed_unverified: u64,
}

/// The community parameters for one `fig9dist` cell: a contained
/// outbreak (high producer density, ρ = 0.5, short γ_production) so the
/// antibody race is winnable and the wire knobs — not saturation — are
/// what moves the containment numbers.
pub fn distnet_params(hosts: u64, seed: u64, distnet: DistNetParams) -> CommunityParams {
    CommunityParams {
        hosts,
        alpha: 0.05,
        rho: 0.5,
        gamma_ticks: 6,
        attempts_per_tick: 1,
        attempt_prob: 1.0,
        i0: 1,
        max_ticks: 4000,
        seed,
        parallelism: Parallelism::Fixed(1),
        engine: CommunityEngine::default(),
        distnet,
        failcont: FailContParams::disabled(),
    }
}

/// Run the `fig9dist` sweep: loss ∈ {0, 0.2, 0.4, 0.6} × Byzantine
/// fraction ∈ {0, 0.2}, each cell a deterministic contained outbreak
/// with the distribution network enabled.
///
/// A community too small to hold a producer (α·hosts rounds to 0)
/// never completes antibody production, so its network never
/// activates: such a cell reports zero deliveries, nothing protected
/// and no emergent γ.
pub fn distnet_sweep(hosts: u64, seed: u64) -> Vec<DistNetCell> {
    let mut cells = Vec::new();
    for &byzantine in &[0.0, 0.2] {
        for &loss in &[0.0, 0.2, 0.4, 0.6] {
            let dn = DistNetParams::lossy(loss, byzantine);
            let out = epidemic::community::run(&distnet_params(hosts, seed, dn));
            let d = out.dist.as_ref();
            let stats = || d.into_iter().flat_map(|d| &d.shard_stats);
            cells.push(DistNetCell {
                loss,
                byzantine,
                infected: out.infected,
                protected: d.map_or(0, |d| d.protected),
                gamma_effective: d.zip(out.t0_tick).and_then(|(d, t0)| d.gamma_effective(t0)),
                ticks: out.ticks,
                verified: stats().map(|s| s.verified).sum(),
                rejected: stats().map(|s| s.rejected).sum(),
                quarantines: stats().map(|s| s.quarantines).sum(),
                gave_up: stats().map(|s| s.gave_up).sum(),
                deployed_unverified: d.map_or(0, |d| d.deployed_unverified),
            });
        }
    }
    cells
}

/// Render the `fig9dist` sweep as the figure's text table.
pub fn render_distnet_sweep(hosts: u64, seed: u64, cells: &[DistNetCell]) -> String {
    let mut s = format!(
        "Figure 9 (distnet): containment vs wire loss and Byzantine fraction \
         (hosts={hosts}, seed={seed})\n\
         {:>5} {:>5} {:>9} {:>10} {:>10} {:>9} {:>9} {:>6} {:>8} {:>11}\n",
        "loss",
        "byz",
        "infected",
        "protected",
        "gamma_eff",
        "verified",
        "rejected",
        "quar",
        "gave_up",
        "unverified"
    );
    for c in cells {
        s.push_str(&format!(
            "{:>5.2} {:>5.2} {:>9} {:>10} {:>10} {:>9} {:>9} {:>6} {:>8} {:>11}\n",
            c.loss,
            c.byzantine,
            c.infected,
            c.protected,
            c.gamma_effective
                .map_or("never".to_string(), |g| g.to_string()),
            c.verified,
            c.rejected,
            c.quarantines,
            c.gave_up,
            c.deployed_unverified,
        ));
    }
    s
}

/// The `ckptcadence` sweep on the Figure 4 guest (Squid): full-copy vs
/// incremental engine overhead across production cadences, plus the
/// headline 200 ms cells. Virtual time, so it is deterministic.
#[derive(Debug, Clone, Default)]
pub struct CheckpointBlock {
    /// Benign requests per measured run.
    pub requests: usize,
    /// The sweep cells: engine × interval.
    pub cells: Vec<CadenceCell>,
    /// Incremental-engine overhead at the paper's 200 ms default
    /// cadence — the PR-7 acceptance gate (< 0.01).
    pub incremental_200ms: f64,
    /// Full-copy overhead at 200 ms, for the same-row comparison.
    pub full_200ms: f64,
}

impl CheckpointBlock {
    /// Extract the overhead of `engine` at `interval_ms`, NaN if absent.
    fn cell_overhead(cells: &[CadenceCell], engine: &str, interval_ms: f64) -> f64 {
        cells
            .iter()
            .find(|c| c.engine == engine && c.interval_ms == interval_ms)
            .map_or(f64::NAN, |c| c.overhead)
    }
}

/// Percentile summary of one latency window of the fleet run
/// (quiescent or outbreak). All values in virtual milliseconds; NaN
/// when the window collected no samples.
#[derive(Debug, Clone, Copy)]
pub struct FleetLatency {
    /// Benign requests completed in this window.
    pub samples: u64,
    /// Median service latency.
    pub p50_ms: f64,
    /// 99th-percentile service latency.
    pub p99_ms: f64,
    /// 99.9th-percentile service latency.
    pub p999_ms: f64,
    /// Worst observed service latency.
    pub max_ms: f64,
    /// Mean service latency.
    pub mean_ms: f64,
}

impl FleetLatency {
    fn from_book(book: &sweeper::LatencyBook) -> FleetLatency {
        FleetLatency {
            samples: book.len() as u64,
            p50_ms: book.percentile(0.5).unwrap_or(f64::NAN),
            p99_ms: book.percentile(0.99).unwrap_or(f64::NAN),
            p999_ms: book.percentile(0.999).unwrap_or(f64::NAN),
            max_ms: book.max_ms().unwrap_or(f64::NAN),
            mean_ms: book.mean_ms().unwrap_or(f64::NAN),
        }
    }
}

/// The virtual-clock reactor run behind `tables fleet`: fleet-wide
/// benign service latency during an outbreak versus the quiescent
/// baseline, plus the determinism evidence.
///
/// Deliberately carries **no wall-clock time and no shard count**:
/// every field is a pure function of `(hosts, seed, …)`, so the
/// printed table is reproducible bit-for-bit. Shard invariance is
/// reported *inside* the block (`shard_invariant`, computed by running
/// the same seed at 1 and N reactor shards and comparing digests)
/// rather than by leaking the shard knob into it.
#[derive(Debug, Clone)]
pub struct FleetBlock {
    /// Guest Sweeper hosts simulated.
    pub hosts: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Guest application (`Apache1` etc.).
    pub target: String,
    /// Virtual-time horizon of the run, ms.
    pub horizon_ms: f64,
    /// Patient-zero instant, ms (NaN for quiescent-only runs).
    pub outbreak_at_ms: f64,
    /// Requests served normally.
    pub served: u64,
    /// Requests dropped by deployed signatures.
    pub filtered: u64,
    /// Attacks detected.
    pub attacks: u64,
    /// Worm contacts scheduled.
    pub contacts: u64,
    /// Certified bundles verified and deployed.
    pub bundles_deployed: u64,
    /// Certified bundles rejected at verification (must stay 0).
    pub bundles_rejected: u64,
    /// Hosts holding at least one antibody at the end.
    pub protected_hosts: u32,
    /// Latency of benign requests arriving before the outbreak.
    pub quiescent: FleetLatency,
    /// Latency of benign requests arriving during the outbreak.
    pub outbreak: FleetLatency,
    /// The run's determinism digest, hex-printed.
    pub digest: String,
    /// Whether 1-shard and N-shard runs produced bit-equal digests
    /// (chaos invariant I10; must be `true`).
    pub shard_invariant: bool,
}

/// Run the fleet reactor at 1 shard and at `check_shards` shards and
/// fold the (1-shard) outcome plus the shard-invariance verdict into a
/// [`FleetBlock`].
pub fn fleet_block(cfg: &fleet::FleetConfig, check_shards: usize) -> Result<FleetBlock, String> {
    let serial = fleet::run(&cfg.with_shards(1))?;
    let sharded = fleet::run(&cfg.with_shards(check_shards.max(2)))?;
    Ok(FleetBlock {
        hosts: serial.hosts,
        seed: serial.seed,
        target: format!("{:?}", cfg.target),
        horizon_ms: cfg.horizon_ms,
        outbreak_at_ms: cfg.outbreak_at_ms.unwrap_or(f64::NAN),
        served: serial.served,
        filtered: serial.filtered,
        attacks: serial.attacks,
        contacts: serial.contacts,
        bundles_deployed: serial.bundles_deployed,
        bundles_rejected: serial.bundles_rejected,
        protected_hosts: serial.protected_hosts,
        quiescent: FleetLatency::from_book(&serial.quiescent),
        outbreak: FleetLatency::from_book(&serial.outbreak),
        digest: format!("{:#018x}", serial.digest),
        shard_invariant: serial.digest == sharded.digest,
    })
}

/// Render the fleet block as a text table (what `tables fleet` prints).
pub fn render_fleet_block(b: &FleetBlock) -> String {
    let row = |name: &str, l: &FleetLatency| {
        format!(
            "{name:>10} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            l.samples, l.p50_ms, l.p99_ms, l.p999_ms, l.max_ms, l.mean_ms
        )
    };
    let mut s = format!(
        "fleet: {} hosts ({}), seed {}, horizon {} ms, outbreak @ {} ms\n\
         {:>10} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        b.hosts,
        b.target,
        b.seed,
        b.horizon_ms,
        if b.outbreak_at_ms.is_finite() {
            format!("{}", b.outbreak_at_ms)
        } else {
            "never".to_string()
        },
        "window",
        "samples",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms",
        "mean_ms"
    );
    s.push_str(&row("quiescent", &b.quiescent));
    s.push_str(&row("outbreak", &b.outbreak));
    s.push_str(&format!(
        "served {} | filtered {} | attacks {} | contacts {} | bundles +{}/-{} | \
         protected {}/{} | digest {} | shard_invariant {}",
        b.served,
        b.filtered,
        b.attacks,
        b.contacts,
        b.bundles_deployed,
        b.bundles_rejected,
        b.protected_hosts,
        b.hosts,
        b.digest,
        b.shard_invariant,
    ));
    s
}

/// The `tables fleetrecover` run: the same fleet outbreak measured
/// under Full recovery (whole-machine rollback + drop-the-attack
/// replay) and under Domain recovery (partial rollback of only the
/// attacked connection's domain), plus a Differential leg in
/// which every attacked host runs both modes for the same fault and
/// asserts bit-equal post-recovery digests.
///
/// Follows the [`FleetBlock`] conventions: no wall-clock time, no shard
/// count — every field is a pure function of `(hosts, seed, …)`, with
/// shard invariance reported *inside* the block.
#[derive(Debug, Clone)]
pub struct RecoveryBlock {
    /// Guest Sweeper hosts simulated (per leg).
    pub hosts: u32,
    /// Master seed of the run (identical across legs).
    pub seed: u64,
    /// Guest application (`Apache1` etc.).
    pub target: String,
    /// Outbreak-window benign latency under Full recovery.
    pub full_outbreak: FleetLatency,
    /// Quiescent benign latency under Full recovery.
    pub full_quiescent: FleetLatency,
    /// Outbreak-window benign latency under Domain recovery.
    pub domain_outbreak: FleetLatency,
    /// Quiescent benign latency under Domain recovery.
    pub domain_quiescent: FleetLatency,
    /// Partial rollbacks completed on the Domain leg.
    pub domain_rollbacks: u64,
    /// Fail-closed fallbacks from Domain to Full on the Domain leg.
    pub domain_fallbacks: u64,
    /// Cross-domain spills the page→domain ledger counted on the Domain
    /// leg (each one forces a fallback).
    pub domain_spills: u64,
    /// `recovery.i12_violations` summed over every leg: partial
    /// rollbacks that disturbed a benign domain. Must be 0.
    pub i12_violations: u64,
    /// Whether the Differential leg proved Domain ≡ Full: at least one
    /// in-lockstep parity check ran and none mismatched.
    pub domain_parity: bool,
    /// Hosts protected at the end of the Full leg.
    pub protected_full: u32,
    /// Hosts protected at the end of the Domain leg.
    pub protected_domain: u32,
    /// Domain outbreak p999 over Full outbreak p999 — the headline
    /// number: partial recovery keeps the analysis pause off the benign
    /// service path, so this must stay well below 1.
    pub p999_ratio: f64,
    /// Domain-leg determinism digest, hex-printed.
    pub digest_domain: String,
    /// Whether the Domain leg's digest is shard-count-invariant
    /// (invariant I10; must be `true`).
    pub shard_invariant: bool,
}

/// Run the fleet under Full, Domain (at 1 and `check_shards` shards),
/// and Differential recovery, and fold the comparison into a
/// [`RecoveryBlock`].
pub fn recovery_block(
    cfg: &fleet::FleetConfig,
    check_shards: usize,
) -> Result<RecoveryBlock, String> {
    use sweeper::RecoveryMode;
    let full = fleet::run(&cfg.with_recovery(RecoveryMode::Full).with_shards(1))?;
    let domain = fleet::run(&cfg.with_recovery(RecoveryMode::Domain).with_shards(1))?;
    let sharded = fleet::run(
        &cfg.with_recovery(RecoveryMode::Domain)
            .with_shards(check_shards.max(2)),
    )?;
    let diff = fleet::run(&cfg.with_recovery(RecoveryMode::Differential).with_shards(1))?;
    let parity_checks = diff.metrics.counter("recovery.domain_parity_checks");
    let parity_mismatches = diff.metrics.counter("recovery.domain_parity_mismatches");
    let i12_violations = [&full, &domain, &sharded, &diff]
        .iter()
        .map(|o| o.metrics.counter("recovery.i12_violations"))
        .sum();
    Ok(RecoveryBlock {
        hosts: domain.hosts,
        seed: domain.seed,
        target: format!("{:?}", cfg.target),
        full_outbreak: FleetLatency::from_book(&full.outbreak),
        full_quiescent: FleetLatency::from_book(&full.quiescent),
        domain_outbreak: FleetLatency::from_book(&domain.outbreak),
        domain_quiescent: FleetLatency::from_book(&domain.quiescent),
        domain_rollbacks: domain.metrics.counter("recovery.domain_rollbacks"),
        domain_fallbacks: domain.metrics.counter("recovery.domain_fallbacks"),
        domain_spills: domain.metrics.counter("checkpoint.domain_spills"),
        i12_violations,
        domain_parity: parity_checks > 0 && parity_mismatches == 0,
        protected_full: full.protected_hosts,
        protected_domain: domain.protected_hosts,
        p999_ratio: domain.outbreak.percentile(0.999).unwrap_or(f64::NAN)
            / full.outbreak.percentile(0.999).unwrap_or(f64::NAN),
        digest_domain: format!("{:#018x}", domain.digest),
        shard_invariant: domain.digest == sharded.digest,
    })
}

/// Render the recovery block as a text table (what `tables fleetrecover`
/// prints).
pub fn render_recovery_block(b: &RecoveryBlock) -> String {
    let row = |name: &str, l: &FleetLatency| {
        format!(
            "{name:>16} {:>8} {:>9.3} {:>9.3} {:>9.3} {:>9.3} {:>9.3}\n",
            l.samples, l.p50_ms, l.p99_ms, l.p999_ms, l.max_ms, l.mean_ms
        )
    };
    let mut s = format!(
        "fleetrecover: {} hosts ({}), seed {} — Full vs Domain recovery\n\
         {:>16} {:>8} {:>9} {:>9} {:>9} {:>9} {:>9}\n",
        b.hosts,
        b.target,
        b.seed,
        "window",
        "samples",
        "p50_ms",
        "p99_ms",
        "p999_ms",
        "max_ms",
        "mean_ms"
    );
    s.push_str(&row("full quiescent", &b.full_quiescent));
    s.push_str(&row("full outbreak", &b.full_outbreak));
    s.push_str(&row("domain quiescent", &b.domain_quiescent));
    s.push_str(&row("domain outbreak", &b.domain_outbreak));
    s.push_str(&format!(
        "outbreak p999 ratio (domain/full) {:.4} | domain rollbacks {} | fallbacks {} | \
         spills {} | i12_violations {} | domain_parity {} | protected {}/{} (full) {}/{} (domain) | \
         digest {} | shard_invariant {}",
        b.p999_ratio,
        b.domain_rollbacks,
        b.domain_fallbacks,
        b.domain_spills,
        b.i12_violations,
        b.domain_parity,
        b.protected_full,
        b.hosts,
        b.protected_domain,
        b.hosts,
        b.digest_domain,
        b.shard_invariant,
    ));
    s
}

/// One arm of the `fig9fail` containment-mechanism sweep: the same
/// scanning-worm outbreak with one combination of defenses switched on.
#[derive(Debug, Clone)]
pub struct FailArm {
    /// `"none"`, `"failest"`, `"antibody"`, or `"both"`.
    pub name: String,
    /// Consumers infected when the run ended.
    pub infected: u64,
    /// `infected / hosts`.
    pub infection_ratio: f64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Wall-clock seconds for the run.
    pub wall_secs: f64,
    /// `hosts × ticks / wall_secs`: the event-driven engine's headline
    /// unit. A dense engine pays O(hosts) per tick no matter how sparse
    /// the outbreak; the SoA engine pays O(infected), so this number is
    /// what grows with sparsity.
    pub host_ticks_per_sec: f64,
    /// Sources flagged by the failure estimator (failest arms only).
    pub flagged_sources: u64,
    /// Attempt slots suppressed at flagged sources (failest arms only).
    pub suppressed_attempts: u64,
    /// Hosts holding the antibody at the end (antibody arms only).
    pub protected: u64,
}

/// The `tables fig9fail` sweep: connection-failure containment
/// (Zhou-style hyper-compact failure estimators) versus the paper's
/// antibody distribution on the same million-host outbreak, run on the
/// struct-of-arrays engine, plus the parity evidence that the SoA
/// engine computes the legacy engine's outcome.
#[derive(Debug, Clone)]
pub struct Epidemic1mBlock {
    /// Community size of the sweep arms.
    pub hosts: u64,
    /// Run seed (shared by every arm and the parity gate).
    pub seed: u64,
    /// Whether the SoA and legacy outcomes at `parity_hosts` were equal
    /// outside their wall-clock fields at both K = 1 and K = 4
    /// (invariant I11; must be `true`).
    pub soa_parity: bool,
    /// Whether the K = 1 and K = 4 SoA outcomes were bit-identical to
    /// each other (must be `true`).
    pub k_invariant: bool,
    /// Hosts used for the parity gate (20k, or `hosts` when smaller).
    pub parity_hosts: u64,
    /// Headline per-host tick rate: the antibody arm (the contained,
    /// sparse regime the SoA active-queue engine is built for).
    pub host_ticks_per_sec: f64,
    /// The four sweep arms, in none/failest/antibody/both order.
    pub arms: Vec<FailArm>,
}

/// Run the `fig9fail` sweep and fold it into an [`Epidemic1mBlock`].
///
/// The shared environment is a fast scanning worm (1 attempt per tick,
/// ρ = 0.1 proactive protection, one initial infection) over `hosts`
/// hosts on the SoA engine. The four arms switch defenses on one at a
/// time: `none` (die-out guard only), `failest` (the failure
/// estimator), `antibody` (α = 0.1 % producers, γ = 10 ticks), `both`.
/// The parity gate re-runs the failest shape at 20k hosts on both
/// backends at K ∈ {1, 4}.
pub fn epidemic1m_block(hosts: u64, seed: u64) -> Epidemic1mBlock {
    use epidemic::community::run;
    use std::time::Instant;

    let arm_params = |alpha: f64, gamma_ticks: u64, failcont: FailContParams| CommunityParams {
        hosts,
        alpha,
        rho: 0.1,
        gamma_ticks,
        attempts_per_tick: 1,
        attempt_prob: 1.0,
        i0: 1,
        max_ticks: 400,
        seed,
        parallelism: Parallelism::Fixed(1),
        engine: CommunityEngine::Soa,
        distnet: DistNetParams::disabled(),
        failcont,
    };
    let specs: [(&str, f64, u64, FailContParams); 4] = [
        ("none", 0.0, 0, FailContParams::disabled()),
        ("failest", 0.0, 0, FailContParams::standard()),
        ("antibody", 0.001, 10, FailContParams::disabled()),
        ("both", 0.001, 10, FailContParams::standard()),
    ];
    let mut arms = Vec::new();
    for (name, alpha, gamma, fc) in specs {
        let p = arm_params(alpha, gamma, fc);
        let start = Instant::now();
        let o = run(&p);
        let wall = start.elapsed().as_secs_f64();
        arms.push(FailArm {
            name: name.to_string(),
            infected: o.infected,
            infection_ratio: o.infection_ratio,
            ticks: o.ticks,
            wall_secs: wall,
            host_ticks_per_sec: if wall > 0.0 {
                hosts as f64 * o.ticks as f64 / wall
            } else {
                0.0
            },
            flagged_sources: o.failcont.as_ref().map_or(0, |f| f.flagged_sources),
            suppressed_attempts: o.failcont.as_ref().map_or(0, |f| f.suppressed_attempts),
            protected: o.shard_stats.iter().map(|s| s.antibodies_applied).sum(),
        });
    }

    // The parity gate: the failest arm's shape (the richest code path —
    // estimator folds plus the epidemic core) at up to 20k hosts, both
    // backends, at two shard counts.
    let parity_hosts = hosts.min(20_000);
    let parity = |engine, k: usize| {
        run(&CommunityParams {
            hosts: parity_hosts,
            parallelism: Parallelism::Fixed(k),
            engine,
            ..arm_params(0.0, 0, FailContParams::standard())
        })
        .without_wall_clock()
    };
    let s1 = parity(CommunityEngine::Soa, 1);
    let s4 = parity(CommunityEngine::Soa, 4);
    let soa_parity =
        parity(CommunityEngine::Legacy, 1) == s1 && parity(CommunityEngine::Legacy, 4) == s4;
    let k_invariant = (s1.t0_tick, s1.infected, &s1.curve, s1.ticks)
        == (s4.t0_tick, s4.infected, &s4.curve, s4.ticks);

    let headline = arms
        .iter()
        .find(|a| a.name == "antibody")
        .map_or(0.0, |a| a.host_ticks_per_sec);
    Epidemic1mBlock {
        hosts,
        seed,
        soa_parity,
        k_invariant,
        parity_hosts,
        host_ticks_per_sec: headline,
        arms,
    }
}

/// Render the epidemic1m block as a text table (what `tables fig9fail`
/// prints).
pub fn render_epidemic_block(b: &Epidemic1mBlock) -> String {
    let mut s = format!(
        "fig9fail: {} hosts, seed {}, engine soa (scanning worm, rho = 0.1)\n\
         {:>10} {:>10} {:>7} {:>9} {:>15} {:>9} {:>11} {:>10}\n",
        b.hosts,
        b.seed,
        "arm",
        "infected",
        "ticks",
        "wall_s",
        "host_ticks/s",
        "flagged",
        "suppressed",
        "protected"
    );
    for a in &b.arms {
        s.push_str(&format!(
            "{:>10} {:>10} {:>7} {:>9.3} {:>15.0} {:>9} {:>11} {:>10}\n",
            a.name,
            a.infected,
            a.ticks,
            a.wall_secs,
            a.host_ticks_per_sec,
            a.flagged_sources,
            a.suppressed_attempts,
            a.protected
        ));
    }
    s.push_str(&format!(
        "headline (antibody arm): {:.3e} host·ticks/s\n\
         parity @ {} hosts: soa_parity {} | k_invariant {}",
        b.host_ticks_per_sec, b.parity_hosts, b.soa_parity, b.k_invariant,
    ));
    s
}

/// Run the `ckptcadence` sweep on the Figure 4 guest (Squid) and fold
/// it into a [`CheckpointBlock`].
pub fn checkpoint_block(requests: usize) -> CheckpointBlock {
    use apps::{squid, workload::Target};
    let app = squid::app().expect("squid assembles");
    let cells = cadence_sweep(&app, Target::Squid, requests);
    let incremental_200ms = CheckpointBlock::cell_overhead(&cells, "incremental", 200.0);
    let full_200ms = CheckpointBlock::cell_overhead(&cells, "full", 200.0);
    CheckpointBlock {
        requests,
        cells,
        incremental_200ms,
        full_200ms,
    }
}

/// Render the `ckptcadence` sweep as a text table.
pub fn render_checkpoint_block(b: &CheckpointBlock) -> String {
    let mut s = format!(
        "ckptcadence: checkpoint overhead vs cadence and engine (squid, {} requests)\n\
         {:>12} {:>10} {:>11} {:>12}\n",
        b.requests, "engine", "interval", "overhead", "checkpoints"
    );
    for c in &b.cells {
        s.push_str(&format!(
            "{:>12} {:>7} ms {:>10.4}% {:>12}\n",
            c.engine,
            c.interval_ms,
            c.overhead * 100.0,
            c.checkpoints
        ));
    }
    s.push_str(&format!(
        "incremental @ 200 ms: {:.4}% (gate: < 1%) | full @ 200 ms: {:.4}%",
        b.incremental_200ms * 100.0,
        b.full_200ms * 100.0
    ));
    s
}

/// The checkpoint parity smoke behind `tables ckptparity`: drive a
/// benign workload (with the canonical exploit injected mid-stream) on
/// all four Table 1 guests under the incremental snapshot engine at a
/// 0.2 ms cadence, so every guest retains a real base+delta chain, then
/// round-trip every retained checkpoint through materialize/rollback.
/// Each rebuild is verified against the image digest recorded at take
/// time. Returns one summary line per guest; panics on a short chain, a
/// failed rebuild or a divergent round trip (CI treats the panic as the
/// gate failing).
pub fn ckptparity_smoke() -> Vec<String> {
    use apps::workload::{Target, Workload};
    use apps::{cvs, httpd1, httpd2, squid, App};
    use checkpoint::mem_digest;
    use sweeper::{Config, Sweeper};

    let guests: Vec<(&str, Target, App, Vec<u8>)> = vec![
        (
            "httpd1",
            Target::Apache1,
            httpd1::app().expect("app"),
            httpd1::app()
                .map(|a| httpd1::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "httpd2",
            Target::Apache2,
            httpd2::app().expect("app"),
            httpd2::app()
                .map(|a| httpd2::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "cvs",
            Target::Cvs,
            cvs::app().expect("app"),
            cvs::app()
                .map(|a| cvs::exploit_crash(&a).input)
                .expect("exploit"),
        ),
        (
            "squid",
            Target::Squid,
            squid::app().expect("app"),
            squid::app()
                .map(|a| squid::exploit_crash(&a).input)
                .expect("exploit"),
        ),
    ];
    let mut lines = Vec::new();
    for (name, target, app, exploit) in guests {
        let cfg = Config::producer(7).with_interval_ms(0.2);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        let mut w = Workload::new(target, 13);
        for i in 0..24 {
            if i == 12 {
                s.offer_request(exploit.clone());
            } else {
                s.offer_request(w.next_request());
            }
        }
        assert!(s.status().healthy, "{name}: service not restored");
        // Round-trip every retained checkpoint: each rebuild is
        // digest-verified, and the rollback must be bit-identical to
        // the materialized image.
        let ids: Vec<_> = s.mgr.ids().collect();
        assert!(
            ids.len() >= 10,
            "{name}: only {} retained checkpoints, not a delta chain",
            ids.len()
        );
        for id in &ids {
            let a = s.mgr.materialize(*id).expect("materialize");
            let b = s.mgr.rollback(*id).expect("rollback");
            assert_eq!(
                (mem_digest(&a.mem), a.cpu.pc, a.insns_retired),
                (mem_digest(&b.mem), b.cpu.pc, b.insns_retired),
                "{name}: rollback round-trip diverged at {id:?}"
            );
        }
        assert_eq!(
            s.mgr.materialize_failures(),
            0,
            "{name}: undamaged chain failed to materialize"
        );
        lines.push(format!(
            "{name:>7}: {} checkpoints round-tripped, {} store pages, 0 materialize failures",
            ids.len(),
            s.mgr.store_pages(),
        ));
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_block_keeps_the_incremental_engine_cheap() {
        // A short run: the 200 ms cells take only the base checkpoint
        // here (both engines read 0), so the engine comparison gates on
        // the 20 ms cells, which take several checkpoints even so.
        let b = checkpoint_block(250);
        assert_eq!(b.cells.len(), 8, "2 engines x 4 intervals");
        assert!(
            b.incremental_200ms < 0.01,
            "PR-7 gate: incremental engine must stay under 1% at 200 ms, got {:.4}",
            b.incremental_200ms
        );
        let inc_20 = CheckpointBlock::cell_overhead(&b.cells, "incremental", 20.0);
        let full_20 = CheckpointBlock::cell_overhead(&b.cells, "full", 20.0);
        assert!(
            inc_20 < full_20,
            "incremental must beat the full copy at the same cadence: {inc_20:.4} vs {full_20:.4}"
        );
        assert!(
            b.incremental_200ms <= b.full_200ms,
            "incremental never costs more than full at 200 ms"
        );
    }

    #[test]
    fn epidemic_block_reports_parity_and_the_containment_ordering() {
        let b = epidemic1m_block(4_000, 21);
        assert!(b.soa_parity, "I11 must hold");
        assert!(b.k_invariant, "K must not change the parity-gate outcome");
        assert_eq!(b.parity_hosts, 4_000, "gate runs at min(hosts, 20k)");
        let arm = |name: &str| {
            b.arms
                .iter()
                .find(|a| a.name == name)
                .unwrap_or_else(|| panic!("missing arm {name}"))
        };
        // No defense saturates; the estimator flags and suppresses; the
        // antibody arms actually distribute protection.
        assert_eq!(arm("none").infected, 4_000, "undefended worm saturates");
        assert!(arm("failest").flagged_sources > 0, "estimator engaged");
        assert!(arm("failest").suppressed_attempts > 0);
        assert!(arm("antibody").protected > 0, "antibody arm protects");
        assert!(
            arm("antibody").infected < arm("none").infected,
            "antibody distribution must beat no defense"
        );
        assert!(
            arm("both").infected < arm("none").infected,
            "combined defenses must beat no defense"
        );
        // The headline is wired to the antibody arm.
        assert_eq!(b.host_ticks_per_sec, arm("antibody").host_ticks_per_sec);
    }

    #[test]
    fn fleet_block_reports_latency_and_shard_invariance() {
        let cfg = fleet::FleetConfig::smoke(5, 9);
        let b = fleet_block(&cfg, 3).expect("fleet runs");
        assert!(b.shard_invariant, "1 vs 3 shards must digest-match");
        assert!(b.quiescent.samples > 0);
        assert!(b.quiescent.p99_ms.is_finite() && b.quiescent.p99_ms > 0.0);
        assert!(b.attacks > 0, "smoke outbreak lands: {b:?}");
        // A populated window has every percentile finite.
        let q = b.quiescent;
        assert!([q.p50_ms, q.p999_ms, q.max_ms, q.mean_ms]
            .iter()
            .all(|v| v.is_finite()));
        // Same seed, same printed table.
        let again = fleet_block(&cfg, 3).expect("fleet runs");
        assert_eq!(
            render_fleet_block(&b),
            render_fleet_block(&again),
            "fleet block is bit-stable"
        );
    }

    #[test]
    fn recovery_block_holds_i12_and_parity_at_smoke_scale() {
        let cfg = fleet::FleetConfig::smoke(5, 9);
        let b = recovery_block(&cfg, 3).expect("fleet runs");
        assert!(b.shard_invariant, "Domain digest must be shard-invariant");
        assert_eq!(b.i12_violations, 0, "benign domains stay undisturbed");
        assert!(
            b.domain_parity,
            "differential legs must check and match: {b:?}"
        );
        assert_eq!(b.protected_full, b.protected_domain, "same protection");
        assert!(b.domain_rollbacks > 0, "Domain mode actually ran: {b:?}");
        // Same seed, same printed table.
        let again = recovery_block(&cfg, 3).expect("fleet runs");
        assert_eq!(
            render_recovery_block(&b),
            render_recovery_block(&again),
            "recovery block is bit-stable"
        );
    }

    #[test]
    fn distnet_sweep_contains_and_never_deploys_unverified() {
        let cells = distnet_sweep(600, 11);
        assert_eq!(cells.len(), 8);
        for c in &cells {
            // I8 holds in every cell of the committed figure.
            assert_eq!(
                c.deployed_unverified, 0,
                "loss={} byz={}: unverified deployment",
                c.loss, c.byzantine
            );
            assert!(c.infected <= 600);
        }
        // The zero-fault cell completes protection; lossier wires never
        // contain *better* than the perfect wire.
        let ideal = &cells[0];
        assert_eq!(ideal.loss, 0.0);
        assert_eq!(ideal.byzantine, 0.0);
        assert!(ideal.gamma_effective.is_some(), "ideal wire protects all");
        for c in &cells[1..4] {
            assert!(
                c.infected >= ideal.infected,
                "loss={} contained better than the perfect wire",
                c.loss
            );
        }
        // Byzantine cells actually exercise verify-before-deploy.
        let byz_rejected: u64 = cells
            .iter()
            .filter(|c| c.byzantine > 0.0)
            .map(|c| c.rejected)
            .sum();
        assert!(byz_rejected > 0, "no Byzantine bundle was ever rejected");
    }

    #[test]
    fn distnet_sweep_without_producers_reports_empty_cells() {
        // α·5 rounds to zero producers: antibody production never
        // completes, so the network never activates in any cell.
        let cells = distnet_sweep(5, 7);
        assert_eq!(cells.len(), 8);
        for c in &cells {
            assert_eq!(c.deployed_unverified, 0);
            assert_eq!((c.protected, c.gamma_effective), (0, None));
            assert_eq!((c.verified, c.rejected, c.gave_up), (0, 0, 0));
        }
    }
}
