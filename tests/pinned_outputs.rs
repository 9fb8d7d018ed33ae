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
//!   ordered maps;
//! * the three community-engine arms the benchmark's `community-1m`
//!   workload runs, at its tiny scale, at one and four shards: every
//!   field of the outcome but the wall-clock timers.

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
    // `store_pages` is sampled right after a served request. Its walk
    // pre-copies its pages into the pending delta, which holds the
    // pages themselves; only a take interns them into the store, so the
    // count is the retained ring's distinct pages alone (it read
    // `[9, 11, 12, 16, 17, 20, 22, 25]` while every walk interned).
    assert_eq!(
        run_squid(Engine::Incremental),
        (
            vec![4, 6, 8, 11, 13, 15, 17, 20],
            vec![7, 9, 11, 14, 16, 18, 20, 23]
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
    // As for Squid, pending pages are not in the store (it read
    // `[6, 6, 8, 8, ..., 16, 16]` while every walk interned).
    assert_eq!(
        run_apache(Engine::Incremental),
        (
            vec![1, 1, 3, 3, 5, 5, 7, 7, 9, 9, 11, 11],
            vec![4, 4, 6, 6, 8, 8, 10, 10, 12, 12, 14, 14]
        )
    );
}

/// An FNV-1a-style fold over `words`, continuing from `h`. Its
/// multiplier is `0x1000_0000_01b3`, not the FNV prime
/// `0x100_0000_01b3`, so it is not FNV-1a; the pinned constants were
/// recorded with it.
fn fnv_words(mut h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    }
    h
}

/// FNV-1a over every field of a community outcome's
/// `without_wall_clock()` view: the curve, every shard, tick, distnet
/// and failcont counter, and `events_exchanged`. The outcome and its
/// distnet and failcont blocks are destructured without `..`, so a field
/// added to them cannot be left out silently.
fn community_fnv(o: sweeper_repro::epidemic::CommunityOutcome) -> u64 {
    use sweeper_repro::epidemic::{CommunityOutcome, DistOutcome, FailContOutcome};
    let CommunityOutcome {
        t0_tick,
        infected,
        infection_ratio,
        curve,
        ticks,
        shards_used,
        shard_stats,
        tick_stats,
        dist,
        failcont,
    } = o.without_wall_clock();
    let opt = |v: Option<u64>| [u64::from(v.is_some()), v.unwrap_or(0)];
    let mut h = fnv_words(0xcbf2_9ce4_8422_2325, opt(t0_tick));
    h = fnv_words(h, [infected, infection_ratio.to_bits(), ticks]);
    h = fnv_words(h, [shards_used as u64, curve.len() as u64]);
    h = fnv_words(h, curve);
    for s in shard_stats {
        h = fnv_words(
            h,
            [
                s.shard as u64,
                s.hosts,
                s.infected,
                s.producer_contacts,
                s.antibodies_applied,
                s.events_sent_cross,
                s.events_received_cross,
                s.protected_blocks,
                s.throttled_blocks,
                s.failcont_suppressed,
                s.failcont_failures,
                s.generate_nanos as u64,
                s.apply_nanos as u64,
            ],
        );
    }
    for t in tick_stats {
        h = fnv_words(
            h,
            [
                t.tick,
                t.new_infections,
                t.events_exchanged,
                t.wall_nanos as u64,
            ],
        );
    }
    h = fnv_words(h, [u64::from(dist.is_some())]);
    if let Some(DistOutcome {
        activated_tick,
        protection_complete_tick,
        protected,
        byzantine_producers,
        deployed_unverified,
        shard_stats,
    }) = dist
    {
        h = fnv_words(h, [activated_tick]);
        h = fnv_words(h, opt(protection_complete_tick));
        h = fnv_words(h, [protected, byzantine_producers, deployed_unverified]);
        for s in shard_stats {
            h = fnv_words(
                h,
                [
                    s.sends,
                    s.retries,
                    s.drops,
                    s.dups,
                    s.delayed,
                    s.verified,
                    s.rejected,
                    s.quarantines,
                    s.skipped_quarantined,
                    s.late,
                    s.gave_up,
                ],
            );
        }
    }
    h = fnv_words(h, [u64::from(failcont.is_some())]);
    if let Some(FailContOutcome {
        flagged_sources,
        failures_recorded,
        suppressed_attempts,
        bits_set,
    }) = failcont
    {
        h = fnv_words(
            h,
            [
                flagged_sources,
                failures_recorded,
                suppressed_attempts,
                bits_set,
            ],
        );
    }
    h
}

/// The three `community-1m` benchmark arms at the benchmark's tiny
/// scale (20,000 hosts, seed 7), at one and four shards: `(arm,
/// infected, ticks, community_fnv)`. Recorded while the coordinator
/// still sorted a copied inbox per shard every tick and `DistNet`
/// verified every delivered bundle.
#[test]
fn community_arms_are_pinned() {
    use sweeper_repro::epidemic::community::{run, CommunityEngine, CommunityParams};
    use sweeper_repro::epidemic::{DistNetParams, FailContParams, Parallelism};
    let arms = [
        (
            "none",
            200,
            0.0,
            0,
            DistNetParams::disabled(),
            FailContParams::disabled(),
        ),
        (
            "failest",
            400,
            0.0,
            0,
            DistNetParams::disabled(),
            FailContParams::standard(),
        ),
        (
            "antibody-lossy",
            400,
            1e-3,
            40,
            DistNetParams::lossy(0.4, 0.2),
            FailContParams::disabled(),
        ),
    ];
    let mut got = Vec::new();
    for k in [1usize, 4] {
        for &(name, max_ticks, alpha, gamma_ticks, distnet, failcont) in &arms {
            let o = run(&CommunityParams {
                hosts: 20_000,
                alpha,
                rho: 0.1,
                gamma_ticks,
                attempts_per_tick: 1,
                attempt_prob: 1.0,
                i0: 100,
                max_ticks,
                seed: 7,
                parallelism: Parallelism::Fixed(k),
                engine: CommunityEngine::Soa,
                distnet,
                failcont,
            });
            got.push((k, name, o.infected, o.ticks, community_fnv(o)));
        }
    }
    assert_eq!(
        got,
        vec![
            (1, "none", 20_000, 165, 0x503f_0227_feb3_8851),
            (1, "failest", 19_550, 400, 0x3325_e425_1d71_e477),
            (1, "antibody-lossy", 4_981, 120, 0xeced_f223_0c69_01f8),
            (4, "none", 20_000, 165, 0x61bc_14eb_0a32_7c67),
            (4, "failest", 19_550, 400, 0x7d44_6667_9560_1741),
            (4, "antibody-lossy", 4_981, 120, 0xbafe_e2c9_6831_0452),
        ],
        "community outcome moved"
    );
}

/// The distribution network's parameter corners, each a one-field
/// change to `DistNetParams::lossy(0.4, 0.2)` on a 5,000-host community
/// with 5 producers, at one and three shards: `(corner, k, infected,
/// ticks, gave_up, skipped_quarantined, community_fnv)`. A jitter span
/// above one tick, a three-tick delay, heavy duplication, half the
/// producers Byzantine, and an attempt budget small enough that
/// consumers give up. Seed 11 makes two of the five producers
/// Byzantine even at the 0.2 fraction, and with so few producers a
/// consumer's retries come back to one it quarantined, so every corner
/// but the four-attempt one also takes the send path that skips it. Recorded before `DistNet`'s
/// state moved to an arena and intrusive lists.
#[test]
fn distnet_corners_are_pinned() {
    use sweeper_repro::epidemic::community::{run, CommunityEngine, CommunityParams};
    use sweeper_repro::epidemic::{DistNetParams, FailContParams, Parallelism};
    let lossy = DistNetParams::lossy(0.4, 0.2);
    let corners = [
        (
            "jitter",
            DistNetParams {
                retry_base_ticks: 3,
                retry_cap_ticks: 8,
                ..lossy
            },
        ),
        (
            "delay",
            DistNetParams {
                max_delay_ticks: 3,
                ..lossy
            },
        ),
        ("dup", DistNetParams { dup: 0.3, ..lossy }),
        (
            "byzantine",
            DistNetParams {
                byzantine: 0.5,
                ..lossy
            },
        ),
        (
            "give-up",
            DistNetParams {
                max_attempts: 4,
                ..lossy
            },
        ),
    ];
    let mut got = Vec::new();
    for k in [1usize, 3] {
        for &(name, distnet) in &corners {
            let o = run(&CommunityParams {
                hosts: 5_000,
                alpha: 0.001,
                rho: 0.1,
                gamma_ticks: 20,
                attempts_per_tick: 1,
                attempt_prob: 1.0,
                i0: 20,
                max_ticks: 400,
                seed: 11,
                parallelism: Parallelism::Fixed(k),
                engine: CommunityEngine::Soa,
                distnet,
                failcont: FailContParams::disabled(),
            });
            let stats = &o
                .dist
                .as_ref()
                .expect("the network activates in every corner")
                .shard_stats;
            let gave_up = stats.iter().map(|s| s.gave_up).sum::<u64>();
            let skipped = stats.iter().map(|s| s.skipped_quarantined).sum::<u64>();
            got.push((
                name,
                k,
                o.infected,
                o.ticks,
                gave_up,
                skipped,
                community_fnv(o),
            ));
        }
    }
    assert_eq!(
        got,
        vec![
            ("jitter", 1, 878, 180, 0, 172, 0xe942_9f3a_1fc7_d686),
            ("delay", 1, 725, 211, 0, 169, 0x3612_2f46_0240_5dad),
            ("dup", 1, 696, 210, 0, 169, 0x4f34_534e_56fe_93a3),
            ("byzantine", 1, 1_733, 307, 0, 6_010, 0x6622_6dff_dd7f_2c8b),
            ("give-up", 1, 1_077, 400, 1_117, 0, 0x037d_e7fe_f6a9_3666),
            ("jitter", 3, 878, 180, 0, 172, 0xc0d4_5131_dafa_d006),
            ("delay", 3, 725, 211, 0, 169, 0x6926_ef4a_0572_324f),
            ("dup", 3, 696, 210, 0, 169, 0xb5aa_a383_5121_24ab),
            ("byzantine", 3, 1_733, 307, 0, 6_010, 0xaae8_0160_9942_500d),
            ("give-up", 3, 1_077, 400, 1_117, 0, 0xb8e9_3639_05de_ab94),
        ],
        "distribution-network corner moved"
    );
}
