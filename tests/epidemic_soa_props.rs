//! Property tests for the struct-of-arrays community engine (PR 9).
//!
//! The SoA backend (`epidemic::soa`) replaces the legacy dense per-tick
//! scan with a bitset plus an active-host queue, and the contract is
//! absolute: over *any* configuration — shard count, wire faults,
//! Byzantine producers, degraded-host throttling, the failure
//! estimator — both engines must produce **bit-equal** outcomes, every
//! field but the wall-clock timers
//! (`CommunityOutcome::without_wall_clock`), because they consume the
//! identical counter-based RNG stream and the coordinator's canonical
//! inbox sort erases enumeration order.
//!
//! A pinned regression at the bottom nails the zero-fault anchor under
//! the SoA engine to values captured on the pre-PR-9 dense engine, so a
//! silent engine-wide drift cannot hide behind self-consistent parity.

use proptest::prelude::*;
use sweeper_repro::epidemic::community::{run, CommunityEngine, CommunityParams};
use sweeper_repro::epidemic::{DistNetParams, FailContParams, Parallelism};

/// FNV-1a over a curve, for compact pinning of long outcomes.
fn curve_fnv(curve: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &v in curve {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Over random configurations (hosts ≤ 20k, K ∈ {1, 4}, wire loss /
    /// Byzantine / throttle knobs, the failure estimator on half the
    /// cases), the SoA and legacy engines are bit-identical: every
    /// outcome field but the wall-clock timers is equal.
    #[test]
    fn soa_and_legacy_engines_are_bit_identical(
        hosts in 500u64..=20_000,
        alpha_pm in 0u32..=80,
        rho_pct in 20u32..=100,
        gamma in 0u64..=12,
        seed in 1u64..5_000,
        wire in any::<bool>(),
        loss_pct in 0u32..50,
        byz_sel in 0u32..3,
        throttle_pct in 0u32..=50,
        failcont in any::<bool>(),
    ) {
        let distnet = if wire {
            DistNetParams {
                throttle: f64::from(throttle_pct) / 100.0,
                ..DistNetParams::lossy(
                    f64::from(loss_pct) / 100.0,
                    f64::from(byz_sel * 20) / 100.0,
                )
            }
        } else {
            DistNetParams::disabled()
        };
        let base = CommunityParams {
            hosts,
            alpha: f64::from(alpha_pm) / 1_000.0,
            rho: f64::from(rho_pct) / 100.0,
            gamma_ticks: gamma,
            attempts_per_tick: 1,
            attempt_prob: 1.0,
            i0: 1,
            max_ticks: 400,
            seed,
            parallelism: Parallelism::Fixed(1),
            engine: CommunityEngine::Legacy,
            distnet,
            failcont: if failcont {
                FailContParams::standard()
            } else {
                FailContParams::disabled()
            },
        };
        for k in [1usize, 4] {
            let at = |engine| {
                run(&CommunityParams {
                    parallelism: Parallelism::Fixed(k),
                    engine,
                    ..base
                })
                .without_wall_clock()
            };
            prop_assert_eq!(
                at(CommunityEngine::Legacy),
                at(CommunityEngine::Soa),
                "outcomes diverged at K={}",
                k
            );
        }
    }
}

/// The zero-fault anchor, pinned under the SoA engine: exact values
/// captured on the pre-PR-9 dense engine. Parity alone cannot catch a
/// drift that moves *both* backends; this does.
#[test]
fn zero_fault_anchor_is_pinned_under_the_soa_engine() {
    let base = CommunityParams {
        hosts: 2_000,
        alpha: 0.05,
        rho: 0.5,
        gamma_ticks: 4,
        attempts_per_tick: 1,
        attempt_prob: 1.0,
        i0: 1,
        max_ticks: 5_000,
        seed: 42,
        parallelism: Parallelism::Fixed(2),
        engine: CommunityEngine::Soa,
        distnet: DistNetParams::ideal(),
        failcont: FailContParams::disabled(),
    };
    let ideal = run(&base);
    let d = ideal.dist.as_ref().expect("ideal wire activates");
    assert_eq!(
        (ideal.t0_tick, ideal.infected, ideal.ticks, d.protected),
        (Some(4), 35, 8, 1_900),
        "pinned ideal-wire outcome moved"
    );
    assert_eq!(curve_fnv(&ideal.curve), 0x7445_d04f_2455_a20a);

    // The anchor itself: the legacy instantaneous-γ clock (distnet
    // off) reproduces the same epidemic core bit-identically.
    let clock = run(&CommunityParams {
        distnet: DistNetParams::disabled(),
        ..base
    });
    assert_eq!(
        (clock.t0_tick, clock.infected, clock.ticks),
        (ideal.t0_tick, ideal.infected, ideal.ticks)
    );
    assert_eq!(clock.curve, ideal.curve);
}
