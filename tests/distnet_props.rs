//! Property tests for the antibody distribution network (PR 5).
//!
//! The retry/backoff schedule is the load-bearing piece of graceful
//! degradation: it must never hammer the network (monotone growth to a
//! cap), it must stay deterministic (the sharded engine re-derives it
//! from pure draws), and its jitter must stay inside one base interval
//! so that retries spread without reordering. On top of the schedule,
//! the end-to-end property: under any finite loss rate, an honest-wire
//! community eventually protects every consumer. Last, a bound on the
//! network's own memory: a few bytes per consumer, however many
//! quarantines, retries and in-flight bundles it holds.

use proptest::prelude::*;
use sweeper_repro::epidemic::community::{run, CommunityEngine, CommunityParams};
use sweeper_repro::epidemic::{backoff_ticks, DistNetParams, FailContParams, Parallelism};

/// A distnet parameter set with the given backoff shape.
fn params_with_backoff(base: u64, cap: u64) -> DistNetParams {
    DistNetParams {
        retry_base_ticks: base,
        retry_cap_ticks: cap,
        ..DistNetParams::ideal()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The deterministic part of the schedule is monotone non-decreasing
    /// in the attempt number and saturates at the cap: attempt k+1 never
    /// waits less than attempt k, and no attempt ever waits more than
    /// cap + one jitter span.
    #[test]
    fn backoff_is_monotone_and_capped(
        base in 1u64..8,
        cap in 1u64..64,
        seed in any::<u64>(),
        host in 0u64..10_000,
    ) {
        let p = params_with_backoff(base, cap);
        let cap_eff = cap.max(base);
        let mut prev_det = 0u64;
        for attempt in 1u32..=24 {
            let total = backoff_ticks(&p, seed, host, attempt);
            // Reconstruct the deterministic part: exponential, capped.
            let det = base
                .saturating_mul(1u64 << u32::min(attempt - 1, 62))
                .min(cap_eff);
            prop_assert!(det >= prev_det, "deterministic part is monotone");
            prop_assert!(total >= det, "jitter only ever adds delay");
            prop_assert!(
                total < det + base.max(1),
                "jitter bounded by one base interval: attempt {attempt} \
                 waited {total}, det {det}, base {base}"
            );
            prop_assert!(
                total < cap_eff + base.max(1),
                "schedule saturates at the cap"
            );
            prev_det = det;
        }
    }

    /// The full schedule (jitter included) is a pure function of
    /// (params, seed, host, attempt): recomputing it gives the same
    /// ticks, and distinct hosts de-synchronize via jitter rather than
    /// retrying in lock-step (when the base leaves jitter room).
    #[test]
    fn backoff_is_deterministic_per_host_and_attempt(
        base in 2u64..8,
        cap in 8u64..64,
        seed in any::<u64>(),
        host in 0u64..10_000,
        attempt in 1u32..32,
    ) {
        let p = params_with_backoff(base, cap);
        let a = backoff_ticks(&p, seed, host, attempt);
        let b = backoff_ticks(&p, seed, host, attempt);
        prop_assert_eq!(a, b, "same inputs, same schedule");
        // Jitter varies across the host axis: over a window of hosts at
        // a fixed attempt, at least two distinct delays appear.
        let delays: Vec<u64> = (host..host + 64)
            .map(|h| backoff_ticks(&p, seed, h, attempt))
            .collect();
        let distinct = {
            let mut d = delays.clone();
            d.sort_unstable();
            d.dedup();
            d.len()
        };
        prop_assert!(
            distinct >= 2,
            "64 hosts retrying attempt {attempt} must not be in lock-step \
             (base {base}): {delays:?}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Delivery-eventually under finite loss: with an honest wire (no
    /// Byzantine producers) and any loss rate up to 70%, retries with
    /// capped backoff eventually protect every consumer the worm has
    /// not already claimed — nobody gives up, and the run terminates
    /// with every consumer resolved (protected or infected).
    #[test]
    fn finite_loss_is_eventually_overcome(
        loss_pct in 0u32..70,
        seed in 1u64..1_000,
    ) {
        let p = CommunityParams {
            hosts: 800,
            alpha: 0.05,
            rho: 0.5,
            gamma_ticks: 4,
            attempts_per_tick: 1,
            attempt_prob: 1.0,
            i0: 1,
            max_ticks: 4_000,
            seed,
            parallelism: Parallelism::Fixed(1),
            engine: CommunityEngine::default(),
            distnet: DistNetParams {
                max_delay_ticks: 1,
                dup: 0.02,
                ..DistNetParams::lossy(f64::from(loss_pct) / 100.0, 0.0)
            },
            failcont: FailContParams::disabled(),
        };
        let out = run(&p);
        prop_assert!(out.ticks < p.max_ticks, "the run must terminate");
        let Some(d) = &out.dist else {
            // The worm saturated before T0 + γ: nothing to distribute.
            return Ok(());
        };
        let gave_up: u64 = d.shard_stats.iter().map(|s| s.gave_up).sum();
        prop_assert_eq!(gave_up, 0, "finite loss must never exhaust retries");
        let rejected: u64 = d.shard_stats.iter().map(|s| s.rejected).sum();
        prop_assert_eq!(rejected, 0, "honest wire: nothing to reject");
        prop_assert_eq!(d.deployed_unverified, 0, "I8");
        let verified: u64 = d.shard_stats.iter().map(|s| s.verified).sum();
        prop_assert!(verified > 0, "someone must have been protected");
        // Every consumer resolved: protected plus infected covers the
        // whole consumer population (producers are never infected).
        let producers = ((p.alpha * p.hosts as f64).round() as u64).min(p.hosts);
        let consumers = p.hosts - producers;
        prop_assert!(
            d.protected + out.infected >= consumers,
            "all consumers resolved: protected {} + infected {} < {}",
            d.protected,
            out.infected,
            consumers
        );
    }
}

/// The network's whole heap stays a few bytes per consumer: a
/// 20,000-host lossy, partly Byzantine wire stepped directly for 1,000
/// ticks never holds more than 32 bytes per consumer, counting every
/// structure at its capacity (the quarantine arena, the arrival
/// buckets at their high-water marks, the send links and attempts).
#[test]
fn distnet_heap_stays_within_32_bytes_per_consumer() {
    use sweeper_repro::epidemic::DistNet;
    let (hosts, producers) = (20_000u64, 20u64);
    let consumers = hosts - producers;
    let p = DistNetParams::lossy(0.4, 0.2);
    let mut net = DistNet::new(&p, 7, hosts, producers, &[(0, hosts)], 0);
    for tick in 0..1_000 {
        net.step(tick, &|_| false);
        assert!(
            net.heap_bytes() as u64 <= 32 * consumers,
            "tick {tick}: {} heap bytes for {consumers} consumers",
            net.heap_bytes()
        );
    }
    // The run must exercise what the bound covers: quarantines fill the
    // arena and losses keep retries in the send schedule.
    let s = net.shard_stats()[0];
    assert!(s.quarantines > 0 && s.retries > 0 && s.dups > 0 && s.delayed > 0);
}
