//! Committed modelled outputs that a pure host-side speed-up must leave
//! bit-equal.
//!
//! Every constant below was recorded while every mapped guest page was
//! still allocated and zeroed eagerly, and hashed byte by byte.
//! Never-written pages now hold no bytes and hash to a constant, and
//! written pages are hashed a word at a time; these tests check, rather
//! than assert in prose, that neither change moved a modelled number:
//!
//! * the fleet outcome digest of a small outbreak fleet and of the
//!   committed 1,000-host one (every service completion plus the final
//!   per-host state, invariant I10's digest);
//! * the Full engine's charged checkpoint cost, which counts the pages
//!   *not* shared with the last snapshot (`Arc` strong counts — the
//!   Figure 4 calibration), and the Incremental engine's, over a fixed
//!   Squid request sequence, together with the virtual clock and the
//!   COW-aware retained-page count.

use sweeper_repro::apps::squid;
use sweeper_repro::apps::workload::{Target, Workload};
use sweeper_repro::checkpoint::Engine;
use sweeper_repro::fleet::{run, FleetConfig};
use sweeper_repro::sweeper::{Config, Sweeper};

#[test]
fn smoke_fleet_digest_is_pinned() {
    let out = run(&FleetConfig::smoke(8, 7)).expect("fleet runs");
    assert!(out.attacks > 0, "the smoke outbreak lands");
    assert_eq!(
        (out.digest, out.served, out.attacks, out.bundles_deployed),
        (0xa99d_d788_1960_f97b, 4, 9, 7),
        "fleet outcome moved"
    );
}

/// The committed 1,000-host outbreak fleet (`tables fleet --hosts=1000
/// --seed=7`): the digest every README and EXPERIMENTS figure of the
/// fleet cites.
#[test]
fn thousand_host_fleet_digest_is_pinned() {
    let out = run(&FleetConfig::new(1000, 7)).expect("fleet runs");
    assert_eq!(
        (out.digest, out.served, out.attacks, out.bundles_deployed),
        (0x16e3_bc33_932f_ded8, 2291, 103, 999),
        "fleet outcome moved"
    );
}

/// `(overhead_cycles, pages_copied_total, taken_total, virtual clock,
/// retained_unique_pages)` after 2,000 Squid requests at a 20 ms cadence.
fn squid_checkpoint_costs(engine: Engine) -> (u64, u64, u64, u64, usize) {
    let app = squid::app().expect("app");
    let cfg = Config::producer(11)
        .with_interval_ms(20.0)
        .with_engine(engine);
    let mut s = Sweeper::protect(&app, cfg).expect("protect");
    let mut w = Workload::new(Target::Squid, 99);
    for _ in 0..2000 {
        s.offer_request(w.next_request());
    }
    (
        s.mgr.overhead_cycles,
        s.mgr.pages_copied_total,
        s.mgr.taken_total,
        s.timeline.now(),
        s.mgr.retained_unique_pages(&s.machine),
    )
}

#[test]
fn full_engine_checkpoint_cost_is_pinned() {
    assert_eq!(
        squid_checkpoint_costs(Engine::Full),
        (27_369_000, 323, 11, 518_000_599, 33)
    );
}

#[test]
fn incremental_engine_checkpoint_cost_is_pinned() {
    assert_eq!(
        squid_checkpoint_costs(Engine::Incremental),
        (5_679_000, 293, 11, 496_310_599, 20)
    );
}

/// A small Squid fleet: the heap-heavy guest, whose pages the page
/// table and the checkpoint drains touch most. Recorded before the
/// page table became span-indexed.
#[test]
fn squid_fleet_digest_is_pinned() {
    let out = run(&FleetConfig {
        target: Target::Squid,
        ..FleetConfig::smoke(8, 7)
    })
    .expect("fleet runs");
    assert_eq!(
        (
            out.digest,
            out.served,
            out.attacks,
            out.bundles_deployed,
            out.metrics.counter("recovery.domain_rollbacks"),
        ),
        (0x7071_7d59_4817_4241, 4, 9, 7, 9),
        "fleet outcome moved"
    );
}
