//! Property tests for the fleet reactor (PR 8 satellite).
//!
//! Laws the whole `tables fleet` measurement rests on:
//!
//! * **Aggregation consistency** — the fleet's merged metrics are
//!   exactly the host-order fold of the per-host exports: summing
//!   `sweeper.requests_served` across hosts equals the fleet `served`
//!   counter, and the latency books partition the served requests
//!   (quiescent + outbreak sample counts = served).

use proptest::prelude::*;
use sweeper_repro::fleet::{run, FleetConfig};
use sweeper_repro::sweeper::RecoveryMode;

/// A small-but-varied fleet configuration: host counts, seeds, and an
/// optional outbreak, sized so one case stays well under a second.
fn arb_cfg() -> impl Strategy<Value = FleetConfig> {
    (3u32..9, 0u64..1_000, any::<bool>()).prop_map(|(hosts, seed, outbreak)| FleetConfig {
        outbreak_at_ms: outbreak.then_some(200.0),
        horizon_ms: 450.0,
        contact_cap: hosts,
        ..FleetConfig::smoke(hosts, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The fleet aggregates are exactly the sum of the per-host truth:
    /// merged counters equal the fleet counters, and the two latency
    /// windows partition the served benign requests.
    #[test]
    fn fleet_aggregates_sum_the_per_host_metrics(cfg in arb_cfg()) {
        let out = run(&cfg).expect("fleet runs");
        // Per-host exports are merged in host order into out.metrics;
        // counters are a commutative monoid, so the merged counter must
        // equal the scalar the simulation counted independently.
        prop_assert_eq!(out.metrics.counter("sweeper.requests_served"), out.served);
        prop_assert_eq!(out.metrics.counter("sweeper.attacks_detected"), out.attacks);
        // Every benign service completion landed in exactly one book.
        // Worm deliveries never produce latency samples, so the books
        // cover served + filtered benign requests minus the worm
        // filtered ones; with no outbreak it is exact.
        let sampled = (out.quiescent.len() + out.outbreak.len()) as u64;
        prop_assert!(sampled >= out.served, "served requests all sampled");
        prop_assert!(
            sampled <= out.served + out.filtered,
            "samples never exceed benign completions"
        );
        if cfg.outbreak_at_ms.is_none() {
            prop_assert_eq!(sampled, out.served);
            prop_assert!(out.outbreak.is_empty());
        }
    }

    /// Recovery mode is a latency knob, never a safety knob: for any
    /// fleet configuration, the default Domain mode protects exactly
    /// the hosts Full protects, holds I12 (no benign-domain
    /// disturbance), and never materially worsens the outbreak tail —
    /// the pause split can only move analysis *off* the benign queue.
    /// (A 10 µs tolerance absorbs per-sample scheduling jitter: under
    /// sparse load both tails sit at the quiescent baseline and either
    /// run can draw the epsilon-later completion.)
    #[test]
    fn domain_recovery_never_worsens_the_outbreak_tail(cfg in arb_cfg()) {
        let cfg = FleetConfig { outbreak_at_ms: Some(200.0), ..cfg };
        let dom = run(&cfg).expect("domain run");
        let full = run(&cfg.with_recovery(RecoveryMode::Full)).expect("full run");
        prop_assert_eq!(dom.metrics.counter("recovery.i12_violations"), 0);
        prop_assert_eq!(full.metrics.counter("recovery.domain_rollbacks"), 0);
        // Recovery pauses shift worm-delivery timing, so attack counts
        // (and how far the antibody spreads before the horizon) can
        // differ between the runs — but Domain mode must convert every
        // attack into a partial rollback that replays no benign
        // connection (per-connection domains hold exactly the attack).
        prop_assert_eq!(
            dom.metrics.counter("recovery.domain_rollbacks"),
            dom.attacks
        );
        prop_assert_eq!(dom.metrics.counter("recovery.domain.replayed_conns"), 0);
        if let (Some(d), Some(f)) = (
            dom.outbreak.percentile(0.999),
            full.outbreak.percentile(0.999),
        ) {
            prop_assert!(
                d <= f + 0.01,
                "domain tail never materially worse: {d:.4} vs {f:.4} ms"
            );
        }
    }
}

/// The pause-split regression under real queueing pressure: once Domain
/// recovery restores the benign connections, the analysis overlaps the
/// queued arrivals instead of stalling them, so the attacked hosts'
/// analysis pause stops being visible in benign outbreak-window latency
/// at all — the Domain tail stays at the quiescent baseline while the
/// Full tail absorbs whole analysis pauses.
#[test]
fn analysis_overlaps_queued_service_under_domain_recovery() {
    let cfg = FleetConfig {
        arrival_rate_hz: 25.0,
        producer_every: 1,
        ..FleetConfig::smoke(8, 5)
    };
    let dom = run(&cfg).expect("domain run");
    let full = run(&cfg.with_recovery(RecoveryMode::Full)).expect("full run");
    assert!(dom.attacks > 0, "outbreak landed: {dom:?}");
    assert!(dom.metrics.counter("recovery.domain_rollbacks") > 0);
    let quiescent_p99 = dom.quiescent.percentile(0.99).expect("baseline");
    let d999 = dom.outbreak.percentile(0.999).expect("domain outbreak");
    let f999 = full.outbreak.percentile(0.999).expect("full outbreak");
    assert!(
        d999 < f999,
        "domain tail must beat full: {d999:.3} vs {f999:.3} ms"
    );
    assert!(
        d999 < 2.0 * quiescent_p99,
        "the analysis pause must stay off the benign queue: outbreak \
         p999 {d999:.3} ms vs quiescent p99 {quiescent_p99:.3} ms"
    );
}
