//! The case runner: differential legs, the faulted run, aggregation.
//!
//! One fuzz case (= one seed) is:
//!
//! 1. **Differential legs** — the scenario's workload runs unfaulted
//!    on all three execution tiers (icache + superblocks, icache only,
//!    pure interpreter), and the scenario's community outbreak runs
//!    with K = 1 and K = 4 shards. The six combined outcome digests
//!    (tier × K, metrics always on) must be bit-equal: all the knobs
//!    are pure performance knobs, and any divergence is a determinism
//!    bug. Every community leg runs on both contact-state backends: the
//!    SoA bitset backend's outcome must equal the legacy dense
//!    backend's outside the wall-clock fields (invariant I11, checked on
//!    every community leg, never relaxed by fired faults). A third of the
//!    seeds also arm the connection-failure estimator so containment
//!    draws are fuzzed across both backends.
//! 2. **Distribution-network legs (PR 5)** — the same outbreak runs
//!    with the antibody distribution network on a *perfect* wire at
//!    K ∈ {1, 4}: its epidemic core must be bit-identical to the legacy
//!    legs (the zero-fault anchor) and its full digests shard-invariant.
//!    When the seed's wire families are enabled, a contained outbreak
//!    runs again over a lossy/Byzantine wire (K ∈ {1, 4}, digests must
//!    still be shard-invariant) and, for forge seeds, a certified
//!    bundle is forged in the producer→consumer hand-off. Invariant I8
//!    — no consumer ever deploys an unverified bundle — is checked on
//!    every distnet leg.
//! 3. **Fleet reactor leg (PR 8)** — a miniature fleet (3 hosts, the
//!    case's guest, outbreak on even seeds) runs at 1 and 3 reactor
//!    shards; the fleet outcome digests must be bit-equal
//!    (invariant I10).
//! 4. **Faulted run** — the same workload runs again with the seeded
//!    [`FaultPlan`] installed, inside `catch_unwind`. The
//!    [invariant catalog](crate::invariants) is checked over the result.
//!
//! Every decision in all three phases derives from the case seed, so a
//! failing case replays exactly with `chaos --seed 0x<seed>`.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use apps::App;
use epidemic::community::{CommunityEngine, CommunityOutcome, CommunityParams};
use epidemic::rng::draw;
use epidemic::DistNetParams;
use sweeper::{BundleOutcome, Config, RequestOutcome, Role, Sweeper};

use crate::digest::{digest_community, digest_community_epidemic, digest_sweeper, Hasher};
use crate::invariants::{check_faulted_run, check_i10, check_i11, check_i8, FaultedRun, Violation};
use crate::plan::{FaultPlan, FaultStats, WirePlan};
use crate::scenario::CaseScenario;

/// Domain separators for the bundle hand-off leg's draws.
const DOM_FORGE_KEY: u64 = 0xc4a0_0060;
const DOM_FORGE_MODE: u64 = 0xc4a0_0061;

/// Everything about one executed fuzz case.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// The case seed (replay handle).
    pub seed: u64,
    /// Guest server name.
    pub guest: String,
    /// Baseline (unfaulted, cache-on, K=1) combined digest.
    pub digest: u64,
    /// What the fault plan fired.
    pub stats: FaultStats,
    /// Violations found (empty = case passed).
    pub violations: Vec<Violation>,
    /// Pipeline executions this case cost (sweeper drives + community
    /// runs), for throughput reporting.
    pub execs: u64,
}

impl CaseReport {
    /// Whether the case passed every check.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Aggregate over a batch of cases.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Cases executed.
    pub cases: u64,
    /// Total pipeline executions.
    pub execs: u64,
    /// Wall-clock seconds for the batch.
    pub wall_secs: f64,
    /// Faults fired, aggregated across all cases.
    pub agg: FaultStats,
    /// Every violation, tagged with its case seed.
    pub violations: Vec<(u64, Violation)>,
    /// Cases per guest server.
    pub guests: BTreeMap<String, u64>,
}

impl Summary {
    /// Pipeline executions per wall-clock second.
    pub fn execs_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.execs as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Distinct fault families exercised across the batch.
    pub fn families_fired(&self) -> usize {
        self.agg.families_fired()
    }

    /// The batch as a metrics registry (`chaos.*` counters): the
    /// evidence that fault families were genuinely exercised.
    pub fn metrics(&self) -> obs::MetricsRegistry {
        let mut reg = obs::MetricsRegistry::new();
        self.agg.export(&mut reg);
        reg.set_counter("chaos.cases", self.cases);
        reg.set_counter("chaos.execs", self.execs);
        reg.set_counter("chaos.violations", self.violations.len() as u64);
        reg
    }
}

/// Drive one host through the scenario's workload. Returns the
/// flattened observation, or the panic message if the pipeline panicked
/// (which is itself an I1 violation).
fn drive(
    scenario: &CaseScenario,
    app: &App,
    cache: bool,
    superblocks: bool,
    plan: Option<FaultPlan>,
) -> Result<FaultedRun, String> {
    let producer = scenario.role == Role::Producer;
    let requests: Vec<Vec<u8>> = scenario
        .requests
        .iter()
        .map(|r| r.bytes().to_vec())
        .collect();
    let config = scenario.config();
    let outcome = catch_unwind(AssertUnwindSafe(move || -> Result<FaultedRun, String> {
        let mut s = Sweeper::protect(app, config).map_err(|e| format!("protect: {e}"))?;
        s.machine.set_decode_cache(cache);
        s.machine.set_superblocks(cache && superblocks);
        if let Some(p) = plan {
            s.set_fault_hooks(Box::new(p));
        }
        let (mut served, mut filtered, mut attacks) = (0u64, 0u64, 0u64);
        for input in requests {
            match s.offer_request(input) {
                RequestOutcome::Served { .. } => served += 1,
                RequestOutcome::Filtered { .. } => filtered += 1,
                RequestOutcome::Attack(_) => attacks += 1,
            }
        }
        let reg = s.export_metrics();
        Ok(FaultedRun {
            offered: scenario.requests.len() as u64,
            served,
            filtered,
            attacks,
            restarts: reg.counter("recovery.restarts"),
            rollback_replays: reg.counter("recovery.rollback_replays"),
            conns_logged: reg.counter("proxy.conns_logged"),
            proxy_filtered: reg.counter("proxy.filtered_total"),
            tool_failures: reg.counter("pipeline.tool_failures"),
            antibody_corrupt: reg.counter("sweeper.antibody_corrupt_total"),
            materialize_failures: reg.counter("checkpoint.materialize_failures"),
            i12_violations: reg.counter("recovery.i12_violations"),
            domain_parity_mismatches: reg.counter("recovery.domain_parity_mismatches"),
            deployed_vsefs: s.deployed_vsefs() as u64,
            deployed_signatures: s.signatures.len() as u64,
            healthy: s.status().healthy,
            producer,
            digest: digest_sweeper(&s),
        })
    }));
    match outcome {
        Ok(r) => r,
        Err(payload) => Err(panic_message(payload)),
    }
}

/// Extract a printable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// The certified-bundle hand-off leg: a producer analyzes the
/// scenario's canonical exploit and seals its antibody into a certified
/// bundle; a seed-chosen *forgery* of that bundle is then offered to a
/// consumer. Returns the consumer's deployed-VSEF count afterwards —
/// anything nonzero (or any deployment at all) is an I8 violation — or
/// a setup/panic message, surfaced by the caller as I1.
fn run_forge_leg(scenario: &CaseScenario, app: &App) -> Result<u64, String> {
    let seed = scenario.seed;
    let outcome = catch_unwind(AssertUnwindSafe(|| -> Result<u64, String> {
        let key = draw(seed, DOM_FORGE_KEY, 0);
        let mut producer = Sweeper::protect(app, Config::producer(seed ^ 0xfeed))
            .map_err(|e| format!("protect producer: {e}"))?;
        let RequestOutcome::Attack(report) = producer.offer_request(scenario.canonical_exploit())
        else {
            return Err("canonical exploit not detected by the producer".into());
        };
        let Some(analysis) = report.analysis.as_ref() else {
            return Err("producer emitted no analysis".into());
        };
        let Some(bundle) = producer.certify_antibody(1, 0, key, &analysis.antibody) else {
            return Err("analysis antibody carried no exploit input".into());
        };
        let forged = match draw(seed, DOM_FORGE_MODE, 0) % 3 {
            0 => bundle.forged_bad_tag(),
            1 => bundle.forged_corrupt_payload(key, 0),
            _ => bundle.forged_mismatched_evidence(key, b"GET / HTTP/1.0\n".to_vec()),
        };
        let mut consumer = Sweeper::protect(app, Config::consumer(seed ^ 0xc0de))
            .map_err(|e| format!("protect consumer: {e}"))?;
        match consumer.receive_certified(&forged, key) {
            // A deployment of a forged bundle is the I8 violation the
            // caller checks for; report at least 1.
            BundleOutcome::Deployed { vsefs, .. } => Ok((vsefs as u64).max(1)),
            BundleOutcome::Rejected(_) | BundleOutcome::SenderQuarantined => {
                Ok(consumer.deployed_vsefs() as u64)
            }
        }
    }));
    match outcome {
        Ok(r) => r,
        Err(p) => Err(panic_message(p)),
    }
}

/// Run one community leg on the SoA backend and, as its I11 reference,
/// on the legacy dense backend. Returns the SoA outcome; a divergence
/// is pushed onto `violations`.
fn community_leg(
    p: CommunityParams,
    ctx: &str,
    violations: &mut Vec<Violation>,
) -> CommunityOutcome {
    let run = |engine| epidemic::community::run(&CommunityParams { engine, ..p });
    let soa = run(CommunityEngine::Soa);
    violations.extend(check_i11(&run(CommunityEngine::Legacy), &soa, ctx));
    soa
}

/// Execute one fuzz case (see module docs).
pub fn run_case(seed: u64) -> CaseReport {
    let scenario = CaseScenario::from_seed(seed);
    let guest = format!("{:?}", scenario.target);
    let mut violations = Vec::new();
    let mut execs = 0u64;

    let app = match scenario.app() {
        Ok(a) => a,
        Err(e) => {
            return CaseReport {
                seed,
                guest,
                digest: 0,
                stats: FaultStats::default(),
                violations: vec![Violation {
                    invariant: "setup",
                    detail: format!("guest failed to assemble: {e}"),
                }],
                execs: 0,
            }
        }
    };

    // Everything the wire legs and the faulted run need derives from
    // the one seeded plan, so compute it up front.
    let (plan, stats) = FaultPlan::from_seed(seed);
    let wire: WirePlan = plan.wire();

    // ---- Differential legs (unfaulted). ------------------------------
    // Three execution tiers (PR 6): full stack (icache + superblocks),
    // icache only, and the pure interpreter. All must be bit-identical.
    let sweeper_legs: Vec<((bool, bool), Result<FaultedRun, String>)> =
        [(true, true), (true, false), (false, false)]
            .into_iter()
            .map(|(cache, sb)| {
                execs += 1;
                ((cache, sb), drive(&scenario, &app, cache, sb, None))
            })
            .collect();
    let community_legs: Vec<(usize, CommunityOutcome)> = [1usize, 4]
        .into_iter()
        .map(|k| {
            execs += 1;
            let ctx = format!("community K={k}");
            (
                k,
                community_leg(scenario.community_with(k), &ctx, &mut violations),
            )
        })
        .collect();

    let mut baseline: Option<FaultedRun> = None;
    let mut leg_digests: Vec<(String, u64)> = Vec::new();
    for ((cache, sb), leg) in &sweeper_legs {
        match leg {
            Ok(run) => {
                // Unfaulted legs must satisfy the catalog too (with the
                // run itself as its own I7 baseline).
                for v in check_faulted_run(run, &FaultStats::default(), run.digest) {
                    violations.push(Violation {
                        invariant: v.invariant,
                        detail: format!("unfaulted leg cache={cache},sb={sb}: {}", v.detail),
                    });
                }
                for (k, epi) in &community_legs {
                    let combined = Hasher::new()
                        .u64(run.digest)
                        .u64(digest_community(epi))
                        .finish();
                    leg_digests.push((format!("cache={cache},sb={sb},K={k}"), combined));
                }
                if *cache && baseline.is_none() {
                    baseline = Some(run.clone());
                }
            }
            Err(msg) => violations.push(Violation {
                invariant: "I1",
                detail: format!("unfaulted leg cache={cache},sb={sb}: {msg}"),
            }),
        }
    }
    if let Some((_, first)) = leg_digests.first() {
        for (name, d) in &leg_digests {
            if d != first {
                violations.push(Violation {
                    invariant: "differential",
                    detail: format!(
                        "leg {name} digest {d:#018x} != leg {} digest {first:#018x}",
                        leg_digests[0].0
                    ),
                });
            }
        }
    }

    // ---- Distribution-network legs (PR 5). ---------------------------
    // (a) Zero-fault anchor: a perfect wire must reproduce the legacy
    // clock's epidemic core bit-identically, at K = 1 and K = 4.
    let legacy_epi = community_legs
        .first()
        .map(|(_, o)| digest_community_epidemic(o));
    let ideal_legs: Vec<(usize, CommunityOutcome)> = [1usize, 4]
        .into_iter()
        .map(|k| {
            execs += 1;
            let p = scenario.community_distnet(k, DistNetParams::ideal());
            let ctx = format!("ideal distnet K={k}");
            (k, community_leg(p, &ctx, &mut violations))
        })
        .collect();
    for (k, out) in &ideal_legs {
        if let Some(d) = out.dist.as_ref() {
            if let Some(v) = check_i8(d.deployed_unverified, &format!("ideal distnet K={k}")) {
                violations.push(v);
            }
        }
        if let Some(legacy) = legacy_epi {
            let epi = digest_community_epidemic(out);
            if epi != legacy {
                violations.push(Violation {
                    invariant: "differential",
                    detail: format!(
                        "ideal distnet K={k} epidemic digest {epi:#018x} != legacy {legacy:#018x}"
                    ),
                });
            }
        }
    }
    if let [(_, a), (_, b)] = &ideal_legs[..] {
        let (da, db) = (digest_community(a), digest_community(b));
        if da != db {
            violations.push(Violation {
                invariant: "differential",
                detail: format!("ideal distnet K=1 digest {da:#018x} != K=4 digest {db:#018x}"),
            });
        }
    }

    // (b) Faulted wire: when the seed's wire families are enabled, a
    // *contained* outbreak (so the network reliably activates) runs over
    // the lossy/Byzantine wire at K ∈ {1, 4}. Digests must still be
    // shard-invariant and I8 must hold; the K = 1 leg's shard counters
    // feed the wire columns of the fault-coverage report.
    let (mut wire_fired, mut byz_rejections, mut forged_bundles) = (0u64, 0u64, 0u64);
    if wire.any_wire_fault() {
        let dn = DistNetParams {
            loss: wire.loss,
            dup: wire.dup,
            max_delay_ticks: wire.max_delay_ticks,
            byzantine: wire.byzantine,
            ..DistNetParams::ideal()
        };
        let faulted_legs: Vec<(usize, CommunityOutcome)> = [1usize, 4]
            .into_iter()
            .map(|k| {
                execs += 1;
                let p = scenario.community_contained_distnet(k, dn);
                // I11 is never relaxed by fired wire faults: both
                // backends see the identical faulted wire.
                let ctx = format!("faulted distnet K={k}");
                (k, community_leg(p, &ctx, &mut violations))
            })
            .collect();
        for (k, out) in &faulted_legs {
            if let Some(d) = out.dist.as_ref() {
                if let Some(v) = check_i8(d.deployed_unverified, &format!("faulted distnet K={k}"))
                {
                    violations.push(v);
                }
            }
        }
        if let [(_, a), (_, b)] = &faulted_legs[..] {
            let (da, db) = (digest_community(a), digest_community(b));
            if da != db {
                violations.push(Violation {
                    invariant: "differential",
                    detail: format!(
                        "faulted distnet K=1 digest {da:#018x} != K=4 digest {db:#018x}"
                    ),
                });
            }
        }
        if let Some(d) = faulted_legs.first().and_then(|(_, o)| o.dist.as_ref()) {
            for s in &d.shard_stats {
                wire_fired += s.drops + s.dups + s.delayed;
                byz_rejections += s.rejected;
            }
        }
    }

    // (c) Bundle forgery: for forge seeds, a certified bundle is forged
    // in the producer → consumer hand-off; the consumer must reject it.
    if wire.forge_bundles {
        execs += 2; // producer analysis run + consumer verification
        match run_forge_leg(&scenario, &app) {
            Ok(deployed) => {
                forged_bundles += 1;
                if let Some(v) = check_i8(deployed, "forged bundle hand-off") {
                    violations.push(v);
                }
            }
            Err(msg) => violations.push(Violation {
                invariant: "I1",
                detail: format!("forge leg: {msg}"),
            }),
        }
    }

    // ---- Fleet reactor leg (PR 8). -----------------------------------
    // A miniature fleet runs the case's guest at 1 and 3 reactor
    // shards; the outcome digests must be bit-equal (invariant I10).
    // Even seeds include a mid-run outbreak so the contact process and
    // antibody broadcast paths are exercised under the comparison too.
    {
        let fcfg = fleet::FleetConfig {
            hosts: 3,
            shards: 1,
            seed,
            target: scenario.target,
            arrival_rate_hz: 2.0,
            horizon_ms: 400.0,
            outbreak_at_ms: seed.is_multiple_of(2).then_some(150.0),
            producer_every: 3,
            worm_rate_hz: 40.0,
            fanout: 2,
            wire_delay_ms: (5.0, 25.0),
            interval_ms: 200,
            contact_cap: 6,
            // The fleet leg fuzzes the recovery knob too: whatever mode
            // the scenario drew runs identically on both shard counts,
            // so I10 still compares like with like.
            recovery: scenario.recovery,
        };
        execs += 2;
        match (fleet::run(&fcfg), fleet::run(&fcfg.with_shards(3))) {
            (Ok(serial), Ok(sharded)) => {
                if let Some(v) = check_i10(serial.digest, sharded.digest, "fleet leg") {
                    violations.push(v);
                }
            }
            (Err(msg), _) | (_, Err(msg)) => violations.push(Violation {
                invariant: "I1",
                detail: format!("fleet leg: {msg}"),
            }),
        }
    }

    // ---- Faulted run. ------------------------------------------------
    execs += 1;
    let faulted = drive(&scenario, &app, true, true, Some(plan));
    let fired_hooks = *stats.lock().unwrap();
    let mut fired = fired_hooks;
    fired.wire_faults = wire_fired;
    fired.byzantine_rejections = byz_rejections;
    fired.bundles_forged = forged_bundles;
    match (&faulted, &baseline) {
        (Ok(run), Some(base)) => {
            violations.extend(check_faulted_run(run, &fired, base.digest));
        }
        (Ok(run), None) => {
            // Baseline itself failed; still check the standalone
            // invariants (I7 degenerates to self-comparison).
            violations.extend(check_faulted_run(run, &fired, run.digest));
        }
        (Err(msg), _) => violations.push(Violation {
            invariant: "I1",
            detail: format!("faulted run ({fired:?}): {msg}"),
        }),
    }

    CaseReport {
        seed,
        guest,
        digest: leg_digests.first().map(|(_, d)| *d).unwrap_or(0),
        stats: fired,
        violations,
        execs,
    }
}

/// Run a batch of seeds with panics silenced (they are *reported*, as
/// I1 violations — just not splattered over stderr mid-batch).
pub fn run_many(seeds: impl IntoIterator<Item = u64>) -> Summary {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let start = Instant::now();
    let mut summary = Summary::default();
    for seed in seeds {
        let report = run_case(seed);
        summary.cases += 1;
        summary.execs += report.execs;
        summary.agg.absorb(&report.stats);
        *summary.guests.entry(report.guest.clone()).or_insert(0) += 1;
        for v in report.violations {
            summary.violations.push((seed, v));
        }
    }
    summary.wall_secs = start.elapsed().as_secs_f64();
    std::panic::set_hook(prev);
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_case_replays_bit_identically_from_its_seed() {
        let a = run_case(3);
        let b = run_case(3);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.execs, b.execs);
    }

    #[test]
    fn first_seeds_pass_and_cover_every_guest() {
        let summary = run_many(0..8);
        assert!(
            summary.violations.is_empty(),
            "violations: {:?}",
            summary.violations
        );
        assert_eq!(summary.guests.len(), 4, "guests: {:?}", summary.guests);
        assert_eq!(summary.cases, 8);
        assert!(summary.execs >= 8 * 5);
    }
}
