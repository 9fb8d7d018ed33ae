//! Property tests for rollback domains (PR 10 tentpole).
//!
//! The partial-recovery contract, quantified over random workloads:
//!
//! * **Full-oracle equivalence** — for any interleaving of benign and
//!   exploit connections, running the same workload under `Domain`,
//!   `Full`, and `Differential` recovery produces the *bit-identical*
//!   post-run guest state (`checkpoint::recovery_digest`), the same
//!   per-request outcome sequence, and the same attack count. Partial
//!   rollback is a latency optimization, never a semantic fork.
//! * **I12** — under `Domain` recovery no benign connection is ever
//!   replayed or dropped: `recovery.domain.replayed_conns` stays 0 and
//!   only attack connections are dropped, for every workload. This is
//!   the unconditional invariant the chaos harness also enforces under
//!   fired faults.
//! * **Fail-closed under forced spills** — a seed-chosen cross-domain
//!   spill (or corrupted domain tag) injected right before recovery
//!   must divert that recovery to the Full path (`rollback-replay`),
//!   and the diverted run must still land on the Full oracle's digest.

use proptest::prelude::*;
use sweeper_repro::apps::{httpd1, squid, App};
use sweeper_repro::checkpoint::{recovery_digest, CheckpointManager, Proxy, ReplayFault};
use sweeper_repro::sweeper::{Config, FaultHooks, RecoveryMode, RequestOutcome, Sweeper};

/// One workload step: a benign request or the app's canonical exploit.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Step {
    Benign,
    Exploit,
}

/// Compact outcome tag for cross-mode comparison.
fn tag(outcome: &RequestOutcome) -> &'static str {
    match outcome {
        RequestOutcome::Served { .. } => "served",
        RequestOutcome::Filtered { .. } => "filtered",
        RequestOutcome::Attack(_) => "attack",
    }
}

/// Run `steps` against `app` under `mode`; return the post-run guest
/// digest, the outcome-tag sequence, and the final metrics.
fn run_mode(
    app: &App,
    steps: &[Step],
    seed: u64,
    mode: RecoveryMode,
) -> (u64, Vec<&'static str>, sweeper_repro::obs::MetricsRegistry) {
    let cfg = Config::producer(seed).with_recovery(mode);
    let mut s = Sweeper::protect(app, cfg).expect("protect");
    let exploit = match app.name {
        "Squid" => squid::exploit_crash(app).input,
        _ => httpd1::exploit_crash(app).input,
    };
    let mut tags = Vec::with_capacity(steps.len());
    for (i, step) in steps.iter().enumerate() {
        let input = match step {
            Step::Benign => match app.name {
                "Squid" => squid::benign_request(&format!("u{i}"), "h"),
                _ => httpd1::benign_request(&format!("u{i}.html")),
            },
            Step::Exploit => exploit.clone(),
        };
        tags.push(tag(&s.offer_request(input)));
    }
    (recovery_digest(&s.machine), tags, s.export_metrics())
}

/// A random interleaving: 3–9 steps, each independently an exploit
/// with ~1/3 probability — covers attack-first, attack-last, repeated
/// attacks (antibody filtering), and all-benign schedules.
fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![Just(Step::Benign), Just(Step::Benign), Just(Step::Exploit),],
        3..9,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Domain and Differential recovery land on the Full oracle's
    /// bit-identical guest state for any workload, and I12 holds:
    /// benign connections in untouched domains never replay.
    #[test]
    fn every_mode_lands_on_the_full_oracle_state(
        steps in arb_steps(),
        seed in 1u64..500,
        use_squid in any::<bool>(),
    ) {
        let app = if use_squid {
            squid::app().expect("app")
        } else {
            httpd1::app().expect("app")
        };
        let (full_digest, full_tags, full_m) =
            run_mode(&app, &steps, seed, RecoveryMode::Full);
        let (dom_digest, dom_tags, dom_m) =
            run_mode(&app, &steps, seed, RecoveryMode::Domain);
        let (diff_digest, diff_tags, diff_m) =
            run_mode(&app, &steps, seed, RecoveryMode::Differential);

        // Same guest state, same request outcomes, same attack count.
        prop_assert_eq!(dom_digest, full_digest, "Domain vs Full oracle");
        prop_assert_eq!(diff_digest, full_digest, "Differential vs Full");
        prop_assert_eq!(&dom_tags, &full_tags);
        prop_assert_eq!(&diff_tags, &full_tags);

        // I12, unconditionally, in every mode.
        for m in [&full_m, &dom_m, &diff_m] {
            prop_assert_eq!(m.counter("recovery.i12_violations"), 0);
        }
        // The differential oracle actually checked when an attack ran.
        let attacks = full_tags.iter().filter(|t| **t == "attack").count() as u64;
        if attacks > 0 {
            prop_assert!(diff_m.counter("recovery.domain_parity_checks") > 0);
        }
        prop_assert_eq!(diff_m.counter("recovery.domain_parity_mismatches"), 0);
        // Under Domain recovery no benign connection ever replays, and
        // nothing fell back: every recovery stayed partial.
        prop_assert_eq!(dom_m.counter("recovery.domain.replayed_conns"), 0);
        prop_assert_eq!(dom_m.counter("recovery.domain_fallbacks"), 0);
        prop_assert_eq!(dom_m.counter("recovery.domain_rollbacks"), attacks);
        // Full replays exactly the benign connections Domain left alone
        // (none when the attack was the first logged connection).
        prop_assert_eq!(
            full_m.counter("recovery.full.replayed_conns")
                + full_m.counter("recovery.full.dropped_conns"),
            full_m.counter("recovery.replayed_conns")
                + full_m.counter("recovery.dropped_conns")
        );
    }

    /// A seed-forced cross-domain spill (or corrupted domain tag) right
    /// before recovery diverts Domain mode to the Full path — and the
    /// diverted run still reaches the Full oracle's exact state.
    #[test]
    fn forced_spills_fail_closed_onto_the_full_path(
        seed in 1u64..500,
        warm in 1usize..5,
        corrupt_tag in any::<bool>(),
    ) {
        struct Sabotage {
            corrupt_tag: bool,
            seed: u64,
        }
        impl ReplayFault for Sabotage {}
        impl FaultHooks for Sabotage {
            fn before_recovery(&mut self, mgr: &mut CheckpointManager, _proxy: &mut Proxy) {
                let landed = if self.corrupt_tag {
                    mgr.chaos_corrupt_domain_tag(self.seed)
                } else {
                    mgr.chaos_force_domain_spill()
                };
                assert!(landed, "ledger populated before recovery");
            }
        }

        let app = httpd1::app().expect("app");
        let steps: Vec<Step> = (0..warm)
            .map(|_| Step::Benign)
            .chain([Step::Exploit])
            .collect();
        let (oracle_digest, _, _) = run_mode(&app, &steps, seed, RecoveryMode::Full);

        let mut s =
            Sweeper::protect(&app, Config::producer(seed)).expect("protect");
        for i in 0..warm {
            prop_assert!(matches!(
                s.offer_request(httpd1::benign_request(&format!("u{i}.html"))),
                RequestOutcome::Served { .. }
            ));
        }
        s.set_fault_hooks(Box::new(Sabotage { corrupt_tag, seed }));
        let RequestOutcome::Attack(report) =
            s.offer_request(httpd1::exploit_crash(&app).input)
        else {
            panic!("exploit not detected")
        };
        // Fail-closed: the refusal is visible, the Full pipeline ran,
        // and the answer is still the oracle's answer.
        prop_assert_eq!(report.recovery_method, "rollback-replay");
        let m = s.export_metrics();
        prop_assert_eq!(m.counter("recovery.domain_fallbacks"), 1);
        prop_assert_eq!(m.counter("recovery.domain_rollbacks"), 0);
        prop_assert_eq!(m.counter("recovery.i12_violations"), 0);
        if corrupt_tag {
            prop_assert_eq!(m.counter("recovery.domain_fallback.corrupt-ledger"), 1);
        } else {
            prop_assert_eq!(m.counter("recovery.domain_spill_fallbacks"), 1);
        }
        prop_assert_eq!(recovery_digest(&s.machine), oracle_digest);
    }
}

/// A served request's own dirty-page walk is the only one it needs: it
/// credits the request's pages to its rollback domain and pre-copies
/// them into the pending delta in the same pass, so a drain right after
/// finds nothing left to fold.
#[test]
fn served_request_is_attributed_and_precopied_in_one_walk() {
    let app = squid::app().expect("app");
    let mut s = Sweeper::protect(&app, Config::producer(11)).expect("protect");
    let before = s.mgr.pages_drained_total;
    let outcome = s.offer_request(squid::benign_request("u0", "h"));
    assert!(
        matches!(outcome, RequestOutcome::Served { .. }),
        "{outcome:?}"
    );
    let tracked = s.mgr.ledger().pages_tracked();
    assert!(
        tracked > 0,
        "the request dirtied pages and they were credited"
    );
    assert_eq!(
        s.mgr.pages_drained_total - before,
        tracked as u64,
        "every credited page was already pre-copied"
    );
    assert_eq!(s.drain_precopy(), 0, "nothing left for a drain");
}
