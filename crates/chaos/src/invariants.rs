//! The invariant catalog checked after every faulted run.
//!
//! The contract: under *any* injected fault the pipeline **degrades**
//! — weaker antibody, explicit [`sweeper::SweeperError`] surfaced on the
//! timeline, a restart instead of a rollback — and never breaks. Each
//! invariant below is a machine-checkable fragment of that sentence;
//! `TESTING.md` carries the operator-facing catalog.
//!
//! | id | invariant |
//! |----|-----------|
//! | I1 | no panic escapes the runtime (enforced by the runner's `catch_unwind`) |
//! | I2 | request accounting: offered = served + filtered + attacks |
//! | I3 | recovery accounting: attacks = restarts + rollback-replays |
//! | I4 | detection ⇒ antibody, or an explicit degradation on the record |
//! | I5 | the host is serviceable after the last request (recovery always restores service) |
//! | I6 | proxy log grows exactly once per offered request |
//! | I7 | a plan that fired nothing is bit-identical to the unfaulted run |
//! | I8 | no consumer ever deploys an unverified antibody bundle |
//! | I9 | an undamaged delta chain always materializes (`checkpoint.materialize_failures` = 0 whenever no `deltas_truncated` or `store_evictions` fault fired — a rebuild that fails its take-time image digest is a capture bug, not a degradation) |
//! | I10 | the fleet reactor's outcome digest is shard-count-invariant (sharding is a layout knob, never a semantics knob) |
//! | I11 | the SoA community engine is bit-identical to the legacy dense engine (every community leg runs both; their outcomes are equal outside the wall-clock fields, unconditionally — no fired fault relaxes it) |
//! | I12 | a partial (domain) rollback never disturbs benign domains: benign connections in untouched domains are neither dropped nor replayed (`recovery.i12_violations` = 0, unconditionally — fired faults force the fail-closed path to Full, they never license a benign disturbance) |

use epidemic::community::CommunityOutcome;

use crate::plan::FaultStats;

/// One violated invariant, with enough detail to triage from the seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant id (`I1`..`I12`, `differential` for a leg-digest
    /// mismatch, `setup` for a guest that failed to assemble).
    pub invariant: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl Violation {
    fn new(invariant: &'static str, detail: String) -> Violation {
        Violation { invariant, detail }
    }
}

/// Everything the runner observed about one faulted run, flattened so
/// the checker needs no live borrows of the (possibly poisoned) host.
#[derive(Debug, Clone)]
pub struct FaultedRun {
    /// Requests offered to the host.
    pub offered: u64,
    /// `RequestOutcome::Served` count.
    pub served: u64,
    /// `RequestOutcome::Filtered` count.
    pub filtered: u64,
    /// `RequestOutcome::Attack` count.
    pub attacks: u64,
    /// `recovery.restarts` counter.
    pub restarts: u64,
    /// `recovery.rollback_replays` counter.
    pub rollback_replays: u64,
    /// `proxy.conns_logged` counter.
    pub conns_logged: u64,
    /// `proxy.filtered_total` counter.
    pub proxy_filtered: u64,
    /// `pipeline.tool_failures` counter.
    pub tool_failures: u64,
    /// `sweeper.antibody_corrupt_total` counter.
    pub antibody_corrupt: u64,
    /// `checkpoint.materialize_failures` counter: snapshot rebuilds that
    /// failed their take-time digest verification (I9; must be 0 unless
    /// a delta truncation or store eviction fired).
    pub materialize_failures: u64,
    /// `recovery.i12_violations` counter: partial rollbacks that dropped
    /// or replayed a connection in an untouched benign domain (I12; must
    /// be 0 unconditionally).
    pub i12_violations: u64,
    /// `recovery.domain_parity_mismatches` counter: differential
    /// recoveries where the Domain shadow and the Full live machine
    /// disagreed on the post-recovery digest. Must be 0 unless a
    /// replay-family fault perturbed the Full leg's replay (the partial
    /// rollback replays nothing, so only those faults can legitimately
    /// split the pair).
    pub domain_parity_mismatches: u64,
    /// Deployed VSEF count at the end of the run.
    pub deployed_vsefs: u64,
    /// Deployed signature count at the end of the run.
    pub deployed_signatures: u64,
    /// Whether the host reported itself serviceable at the end.
    pub healthy: bool,
    /// Whether the host is a producer (consumers never build antibodies,
    /// so I4 does not apply to them).
    pub producer: bool,
    /// Outcome digest of the faulted run.
    pub digest: u64,
}

/// Check the invariant catalog over one faulted run.
///
/// `baseline_digest` is the unfaulted run's digest (for I7);
/// `stats` is what the fault plan actually fired.
pub fn check_faulted_run(
    run: &FaultedRun,
    stats: &FaultStats,
    baseline_digest: u64,
) -> Vec<Violation> {
    let mut v = Vec::new();

    // I2: every offered request has exactly one outcome.
    if run.offered != run.served + run.filtered + run.attacks {
        v.push(Violation::new(
            "I2",
            format!(
                "offered {} != served {} + filtered {} + attacks {}",
                run.offered, run.served, run.filtered, run.attacks
            ),
        ));
    }

    // I3: every detected attack ends in exactly one recovery.
    if run.attacks != run.restarts + run.rollback_replays {
        v.push(Violation::new(
            "I3",
            format!(
                "attacks {} != restarts {} + rollback_replays {}",
                run.attacks, run.restarts, run.rollback_replays
            ),
        ));
    }

    // I4: detection ⇒ an antibody was deployed, or the degradation is
    // explicit (an injected tool failure or a rejected corrupt bundle —
    // both surfaced as counters + timeline events by the runtime).
    if run.producer
        && run.attacks > 0
        && run.deployed_vsefs == 0
        && run.deployed_signatures == 0
        && run.tool_failures == 0
        && run.antibody_corrupt == 0
    {
        v.push(Violation::new(
            "I4",
            format!(
                "{} attacks but no antibody and no recorded degradation",
                run.attacks
            ),
        ));
    }

    // I5: service is always restored (rollback-replay or restart).
    if !run.healthy {
        v.push(Violation::new(
            "I5",
            "host not serviceable after the final request".to_string(),
        ));
    }

    // I6: the proxy logs exactly one connection per offered request
    // (replays re-inject into the guest, never into the log), and its
    // filter counter agrees with the filtered outcomes.
    if run.conns_logged != run.offered {
        v.push(Violation::new(
            "I6",
            format!(
                "proxy logged {} of {} offered",
                run.conns_logged, run.offered
            ),
        ));
    }
    if run.proxy_filtered != run.filtered {
        v.push(Violation::new(
            "I6",
            format!(
                "proxy filtered_total {} != filtered outcomes {}",
                run.proxy_filtered, run.filtered
            ),
        ));
    }

    // I9: every rebuild is verified against the image digest taken
    // from the live machine, so a failed rebuild means the chain lost or
    // staled a page. Only injected damage (truncated deltas, evicted
    // store slots) may make one fail, closed, degrading to a restart.
    if stats.deltas_truncated + stats.store_evictions == 0 && run.materialize_failures > 0 {
        v.push(Violation::new(
            "I9",
            format!(
                "{} snapshot(s) failed to materialize with no chain damage injected",
                run.materialize_failures
            ),
        ));
    }

    // I12: a partial rollback never disturbs benign domains.
    // Unconditional: every fired fault (corrupt tag, forced spill,
    // evicted checkpoint, truncated delta) forces the fail-closed path
    // to full recovery — none of them licenses a benign disturbance.
    if let Some(viol) = check_i12(run.i12_violations, "faulted sweeper run") {
        v.push(viol);
    }

    // The differential recovery oracle: when Domain (shadow) and Full
    // (live) both complete for the same fault, their post-recovery
    // digests must be bit-equal. Only the replay families can
    // legitimately split the pair — they perturb the Full leg's replay,
    // which the partial rollback does not have.
    if stats.replay_total() == 0 && run.domain_parity_mismatches > 0 {
        v.push(Violation::new(
            "differential",
            format!(
                "{} Domain/Full recovery parity mismatch(es) with no replay fault fired",
                run.domain_parity_mismatches
            ),
        ));
    }

    // I7: an installed plan whose *hook* families fired nothing must not
    // perturb the run. (Wire families touch only the distnet legs, never
    // this sweeper run, so they do not relax the bit-identity.)
    if stats.hook_total() == 0 && run.digest != baseline_digest {
        v.push(Violation::new(
            "I7",
            format!(
                "no fault fired but digest {:#018x} != baseline {:#018x}",
                run.digest, baseline_digest
            ),
        ));
    }

    v
}

/// I8: no consumer ever deploys an unverified antibody bundle.
///
/// `deployed_unverified` is the distribution network's structural
/// counter (it increments only when a Byzantine producer's forged
/// bundle *passes* verification) or, for the bundle hand-off leg, the
/// consumer's deployed-VSEF count after a forged bundle. Both must be
/// zero under every fault plan — this is the verify-before-deploy
/// contract the whole PR-5 wire rests on.
pub fn check_i8(deployed_unverified: u64, ctx: &str) -> Option<Violation> {
    (deployed_unverified > 0).then(|| {
        Violation::new(
            "I8",
            format!("{ctx}: {deployed_unverified} unverified deployment(s)"),
        )
    })
}

/// I10: the fleet reactor's outcome digest is shard-count-invariant.
///
/// The reactor orders events by `(stamp, tie, host, seq)` where the tie
/// is a pure function of event identity; re-partitioning hosts across
/// shards can therefore never change the pop sequence, so the whole
/// fleet outcome — every service completion, every contact, every
/// per-host counter — must hash identically at 1 and N shards.
pub fn check_i10(serial: u64, sharded: u64, ctx: &str) -> Option<Violation> {
    (serial != sharded).then(|| {
        Violation::new(
            "I10",
            format!("{ctx}: shards=1 digest {serial:#018x} != sharded digest {sharded:#018x}"),
        )
    })
}

/// I11: the SoA community engine is bit-identical to the legacy dense
/// engine.
///
/// Every community leg runs both backends — the legacy `Vec<bool>` scan
/// and the bitset/active-queue backend over the same draws — and
/// compares their outcomes outside the wall-clock fields
/// ([`CommunityOutcome::without_wall_clock`]). They must be equal under
/// every fault plan and every knob combination; no fired fault ever
/// relaxes it, because the two backends consume the identical RNG
/// stream by construction.
pub fn check_i11(
    legacy: &CommunityOutcome,
    soa: &CommunityOutcome,
    ctx: &str,
) -> Option<Violation> {
    (legacy.clone().without_wall_clock() != soa.clone().without_wall_clock()).then(|| {
        Violation::new(
            "I11",
            format!("{ctx}: SoA/legacy engine outcomes differ outside the wall-clock fields"),
        )
    })
}

/// I12: a partial (domain) rollback never disturbs benign domains.
///
/// `violations` is the runtime's structural counter
/// (`recovery.i12_violations`): it increments whenever a Domain recovery
/// resume dropped or replayed a connection belonging to a domain outside
/// the attacked set, per-domain accounting straight from the resume
/// report. It must be zero under every fault plan and every recovery
/// mode — fired faults make the runtime *refuse* partial rollback
/// (fail-closed to Full), they never relax this check.
pub fn check_i12(violations: u64, ctx: &str) -> Option<Violation> {
    (violations > 0).then(|| {
        Violation::new(
            "I12",
            format!("{ctx}: {violations} benign-domain disturbance(s) by partial rollback"),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_run() -> FaultedRun {
        FaultedRun {
            offered: 10,
            served: 7,
            filtered: 1,
            attacks: 2,
            restarts: 1,
            rollback_replays: 1,
            conns_logged: 10,
            proxy_filtered: 1,
            tool_failures: 0,
            antibody_corrupt: 0,
            materialize_failures: 0,
            i12_violations: 0,
            domain_parity_mismatches: 0,
            deployed_vsefs: 2,
            deployed_signatures: 1,
            healthy: true,
            producer: true,
            digest: 0x1234,
        }
    }

    #[test]
    fn clean_run_passes() {
        let v = check_faulted_run(&clean_run(), &FaultStats::default(), 0x1234);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn each_identity_is_enforced() {
        let stats = FaultStats::default();
        let mut r = clean_run();
        r.served = 6;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I2");
        let mut r = clean_run();
        r.restarts = 0;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I3");
        let mut r = clean_run();
        r.deployed_vsefs = 0;
        r.deployed_signatures = 0;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I4");
        let mut r = clean_run();
        r.healthy = false;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I5");
        let mut r = clean_run();
        r.conns_logged = 9;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I6");
        let r = clean_run();
        assert_eq!(check_faulted_run(&r, &stats, 0x9999)[0].invariant, "I7");
        let mut r = clean_run();
        r.materialize_failures = 1;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I9");
        let mut r = clean_run();
        r.i12_violations = 1;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I12");
        let mut r = clean_run();
        r.domain_parity_mismatches = 1;
        assert_eq!(
            check_faulted_run(&r, &stats, 0x1234)[0].invariant,
            "differential"
        );
    }

    #[test]
    fn i12_is_not_relaxed_by_fired_faults() {
        // Even a plan that corrupted domain tags and forced spills must
        // see zero benign-domain disturbances: the runtime fails closed
        // to full recovery, it never runs a partial rollback that
        // touches benign domains.
        let stats = FaultStats {
            domain_tags_corrupted: 2,
            domain_spills_forced: 1,
            ..FaultStats::default()
        };
        let mut r = clean_run();
        r.digest = 0xdead; // I7 relaxed by the fired hooks…
        r.i12_violations = 1; // …but I12 still fires.
        let v = check_faulted_run(&r, &stats, 0x1234);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "I12");
    }

    #[test]
    fn replay_faults_relax_domain_parity_but_not_i12() {
        // A corrupted replay legitimately splits the Domain/Full digest
        // pair (only the Full leg replays), so the parity comparison is
        // relaxed — but a benign-domain disturbance is still I12.
        let stats = FaultStats {
            replay_corrupted: 1,
            ..FaultStats::default()
        };
        let mut r = clean_run();
        r.digest = 0xdead;
        r.domain_parity_mismatches = 1;
        assert!(check_faulted_run(&r, &stats, 0x1234).is_empty());
        r.i12_violations = 1;
        let v = check_faulted_run(&r, &stats, 0x1234);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "I12");
    }

    #[test]
    fn i9_fires_on_a_materialize_failure_without_chain_damage() {
        // Other hook faults (here a tool failure and an evicted
        // checkpoint) do not excuse a failed rebuild.
        let stats = FaultStats {
            tools_failed: 1,
            ckpts_evicted: 1,
            ..FaultStats::default()
        };
        let mut r = clean_run();
        r.digest = 0xdead; // I7 relaxed by the fired hooks…
        r.materialize_failures = 1; // …but I9 still fires.
        let v = check_faulted_run(&r, &stats, 0x1234);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].invariant, "I9");
        assert!(v[0].detail.contains("1 snapshot(s)"), "{}", v[0].detail);
    }

    #[test]
    fn i9_is_relaxed_by_chain_damage_only() {
        let mut r = clean_run();
        r.digest = 0xdead;
        r.materialize_failures = 2;
        for stats in [
            FaultStats {
                deltas_truncated: 1,
                ..FaultStats::default()
            },
            FaultStats {
                store_evictions: 1,
                ..FaultStats::default()
            },
        ] {
            let v = check_faulted_run(&r, &stats, 0x1234);
            assert!(v.is_empty(), "{stats:?}: {v:?}");
        }
    }

    #[test]
    fn explicit_degradation_satisfies_i4() {
        let mut r = clean_run();
        r.deployed_vsefs = 0;
        r.deployed_signatures = 0;
        r.tool_failures = 2;
        assert!(check_faulted_run(&r, &FaultStats::default(), 0x1234).is_empty());
        r.tool_failures = 0;
        r.antibody_corrupt = 1;
        assert!(check_faulted_run(&r, &FaultStats::default(), 0x1234).is_empty());
    }

    #[test]
    fn consumers_are_exempt_from_i4() {
        let mut r = clean_run();
        r.producer = false;
        r.deployed_vsefs = 0;
        r.deployed_signatures = 0;
        assert!(check_faulted_run(&r, &FaultStats::default(), 0x1234).is_empty());
    }

    #[test]
    fn fired_faults_relax_i7_only() {
        let stats = FaultStats {
            tools_failed: 1,
            ..FaultStats::default()
        };
        let mut r = clean_run();
        r.tool_failures = 1;
        r.digest = 0xdead;
        assert!(check_faulted_run(&r, &stats, 0x1234).is_empty());
    }

    #[test]
    fn wire_faults_do_not_relax_i7() {
        // Wire families perturb only the distnet legs; if the sweeper
        // digest moved while only wire faults fired, that is still I7.
        let stats = FaultStats {
            wire_faults: 12,
            byzantine_rejections: 3,
            bundles_forged: 1,
            ..FaultStats::default()
        };
        let mut r = clean_run();
        r.digest = 0xdead;
        assert_eq!(check_faulted_run(&r, &stats, 0x1234)[0].invariant, "I7");
    }

    #[test]
    fn i8_fires_only_on_unverified_deployment() {
        assert!(check_i8(0, "leg").is_none());
        let v = check_i8(2, "faulted distnet K=4").expect("violation");
        assert_eq!(v.invariant, "I8");
        assert!(v.detail.contains("faulted distnet K=4"), "{}", v.detail);
    }

    #[test]
    fn i10_fires_only_on_digest_divergence() {
        assert!(check_i10(7, 7, "fleet").is_none());
        let v = check_i10(7, 8, "fleet").expect("violation");
        assert_eq!(v.invariant, "I10");
        assert!(v.detail.contains("shards=1"), "{}", v.detail);
    }

    #[test]
    fn i12_fires_only_on_benign_domain_disturbance() {
        assert!(check_i12(0, "fleet leg").is_none());
        let v = check_i12(2, "fleet leg").expect("violation");
        assert_eq!(v.invariant, "I12");
        assert!(v.detail.contains("2 benign-domain"), "{}", v.detail);
        assert!(v.detail.contains("fleet leg"), "{}", v.detail);
    }

    #[test]
    fn i11_fires_only_on_engine_parity_mismatch() {
        let p = crate::scenario::CaseScenario::from_seed(3).community;
        let a = epidemic::community::run(&p);
        let mut b = a.clone();
        for s in &mut b.shard_stats {
            s.generate_nanos += 1;
        }
        assert!(
            check_i11(&a, &b, "community K=1").is_none(),
            "wall time only"
        );
        b.shard_stats[0].producer_contacts += 1;
        let v = check_i11(&a, &b, "faulted distnet K=4").expect("violation");
        assert_eq!(v.invariant, "I11");
        assert!(v.detail.contains("SoA/legacy"), "{}", v.detail);
        assert!(v.detail.contains("faulted distnet K=4"), "{}", v.detail);
    }
}
