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
//!   COW-aware retained-page count;
//! * the retained-page census and dedupe-store size: the smoke fleets'
//!   merged `checkpoint.retained_unique_pages` / `checkpoint.store_pages`
//!   gauges, and their trajectories on one Squid host and one attacked
//!   Apache host under both engines. These were recorded while the
//!   census still counted with hash sets and snapshot tables were
//!   ordered maps.

use sweeper_repro::apps::workload::{Target, Workload};
use sweeper_repro::apps::{httpd1, squid};
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

/// The smoke fleets' merged census gauges (the last host's, as
/// `merge_all` folds gauges).
#[test]
fn smoke_fleet_census_gauges_are_pinned() {
    for target in [Target::Apache1, Target::Squid] {
        let out = run(&FleetConfig {
            target,
            ..FleetConfig::smoke(8, 7)
        })
        .expect("fleet runs");
        let gauge = |name| out.metrics.gauge_value(name);
        assert_eq!(
            (
                gauge("checkpoint.retained_unique_pages"),
                gauge("checkpoint.store_pages"),
            ),
            (Some(0.0), Some(4.0)),
            "{target:?}"
        );
    }
}

/// `retained_unique_pages` and `store_pages`, sampled every `every`
/// requests of a host fed `requests` requests from `w`, with `attack`
/// (if any) offered in place of request 50 of every hundred.
fn census_trajectory(
    app: &sweeper_repro::apps::App,
    cfg: Config,
    mut w: Workload,
    (requests, every): (usize, usize),
    attack: Option<&[u8]>,
) -> (Vec<usize>, Vec<usize>) {
    let mut s = Sweeper::protect(app, cfg).expect("protect");
    let (mut census, mut store) = (Vec::new(), Vec::new());
    for i in 0..requests {
        match attack {
            Some(input) if i % 100 == 50 => s.offer_request(input.to_vec()),
            _ => s.offer_request(w.next_request()),
        };
        if i % every == every - 1 {
            census.push(s.mgr.retained_unique_pages(&s.machine));
            store.push(s.mgr.store_pages());
        }
    }
    (census, store)
}

#[test]
fn census_trajectories_are_pinned() {
    let squid = squid::app().expect("app");
    let run_squid = |engine| {
        let cfg = Config::producer(11).with_interval_ms(20.0);
        let w = Workload::new(Target::Squid, 99);
        census_trajectory(&squid, cfg.with_engine(engine), w, (2000, 250), None)
    };
    assert_eq!(
        run_squid(Engine::Full),
        (vec![6, 9, 12, 18, 21, 24, 27, 33], vec![0; 8])
    );
    assert_eq!(
        run_squid(Engine::Incremental),
        (
            vec![4, 6, 8, 11, 13, 15, 17, 20],
            vec![9, 11, 13, 15, 18, 19, 21, 25]
        )
    );
    let apache = httpd1::app().expect("app");
    let exploit = httpd1::exploit_crash(&apache).input;
    let run_apache = |engine| {
        let cfg = Config::producer(5).with_interval_ms(5.0);
        let w = Workload::new(Target::Apache1, 3);
        census_trajectory(
            &apache,
            cfg.with_engine(engine),
            w,
            (300, 25),
            Some(&exploit),
        )
    };
    assert_eq!(
        run_apache(Engine::Full),
        (vec![2, 2, 4, 4, 6, 6, 8, 8, 10, 10, 12, 12], vec![0; 12])
    );
    assert_eq!(
        run_apache(Engine::Incremental),
        (
            vec![1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11],
            vec![6, 6, 8, 8, 10, 10, 12, 12, 14, 14, 16, 16]
        )
    );
}
