//! The sharded community simulation (paper §6) with deterministic merge.
//!
//! A discrete-tick agent engine over `hosts` hosts: producers (ratio
//! `alpha`, hosts `[0, P)`) detect the first contact against them and
//! immunize the whole community `gamma_ticks` later; consumers rely on
//! per-attempt proactive protection (success probability `rho`). Each
//! infected consumer emits `attempts_per_tick` contact attempts per
//! tick against uniformly random hosts.
//!
//! ## Why results are bit-identical at any shard count
//!
//! Every random draw is *counter-based*: the target and success roll of
//! attempt `a` by host `h` at tick `t` are pure functions of
//! `(seed, h, t, a)` ([`crate::rng::draw`]) — no evolving generator
//! state. Hosts are partitioned into `K` contiguous shards; each tick
//! runs two barrier-separated phases:
//!
//! 1. **generate** — every shard visits its own infected hosts and
//!    emits events, routed by target shard. The visit order is
//!    backend-defined (see below); the coordinator's stable sort of
//!    each inbox by `(src, attempt)` canonicalizes it, so only the
//!    event *multiset* matters — and that is a pure function of the
//!    draws.
//! 2. **apply** — every shard applies the events targeting its own
//!    hosts. Infections are idempotent marks, the antibody clock is a
//!    `min` over producer-contact ticks, and infection counts are sums
//!    — all order-independent reductions.
//!
//! New infections become active the *next* tick (the generate phase of
//! tick `t` reads only state produced through tick `t-1`), so no shard
//! can observe another shard's same-tick writes. The serial engine is
//! the identical code run with one shard and no threads; the parity
//! test in `tests/` checks bit-identical curves for K ∈ {1, 2, 4, 8}.
//!
//! ## Two contact-state backends, one engine (PR 9)
//!
//! The engine body is generic over [`crate::soa::HostSet`]:
//!
//! * [`CommunityEngine::Legacy`] — the original dense backend, one
//!   `Vec<bool>` per shard scanned in host order every tick:
//!   O(shard size) per tick. Kept in-tree as the reference the SoA
//!   backend is compared against.
//! * [`CommunityEngine::Soa`] (the default) — struct-of-arrays state
//!   ([`crate::soa::SoaHosts`]): bitset membership plus an active
//!   queue of exactly the hosts with pending scan activity, so a tick
//!   costs O(infected). This is what makes 1M–10M hosts tractable in
//!   the sparse (contained) regime.
//!
//! Both backends consume the identical draw stream, so legacy↔SoA
//! parity holds bit-identically, as does shard-count K-invariance:
//! callers run both and compare
//! [`CommunityOutcome::without_wall_clock`] (chaos invariant I11,
//! `tables fig9fail`).
//!
//! ## The antibody distribution network (PR 5)
//!
//! With [`DistNetParams::enabled`], the instantaneous immunity break at
//! `T0 + γ` is replaced by [`crate::distnet`]: at that tick producers
//! *broadcast* certified antibody bundles over a lossy/Byzantine wire,
//! and a consumer only becomes immune once it has received **and
//! verified** a bundle. The distribution step runs in the coordinator
//! between the barrier phases (its draws are keyed on
//! `(seed, host, attempt)`, never on shard structure), so shard parity
//! is preserved; with a perfect wire the run is bit-identical to the
//! legacy clock because every consumer verifies its bundle in the
//! broadcast tick itself.
//!
//! ## Connection-failure containment (PR 9)
//!
//! With [`FailContParams::enabled`], every *failed* contact against a
//! consumer is recorded into a hyper-compact failure estimator
//! ([`crate::failest`]): the generate phase records attempts blocked
//! by proactive protection (the ρ draw — from the source's side, a
//! failed exploit connection), the apply phase records contacts on
//! already-infected, antibody-protected, or throttle-blocked targets.
//! Sources whose
//! distinct-failure estimate crosses the threshold are flagged and
//! their attempt slots suppressed at the source with probability
//! `suppress`. All containment draws live in their own domains on the
//! same event keys, so enabling the knob never perturbs the existing
//! streams, and flag decisions are made only at the post-apply barrier
//! — shard- and engine-invariant by construction.

use std::time::Instant;

use crate::distnet::{DistNet, DistNetParams, DistOutcome, DOMAIN_THROTTLE};
use crate::failest::{FailCont, FailContOutcome, FailContParams, DOMAIN_FAILSUP};
use crate::model::Scenario;
use crate::rng::{draw, to_unit};
use crate::soa::{HostBits, HostSet, SoaHosts};

/// Domain separator for attempt-existence draws.
const DOMAIN_ATTEMPT: u64 = 0x6174_7470;
/// Domain separator for target-choice draws.
const DOMAIN_TARGET: u64 = 0x7461_7267;
/// Domain separator for success-roll draws.
const DOMAIN_SUCCESS: u64 = 0x7375_6363;

/// Below this many attempt draws per tick, run the phases inline even
/// when `K > 1`: thread spawn overhead would dominate. The outcome is
/// unaffected — the same shard functions run either way.
const PARALLEL_THRESHOLD: u64 = 4096;

/// How many worker shards the community engine uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One shard per available core (capped at 16).
    #[default]
    Auto,
    /// Exactly this many shards; `Fixed(1)` is the serial legacy path
    /// (no threads are spawned at all).
    Fixed(usize),
}

impl Parallelism {
    /// Resolve to a concrete shard count for `hosts` hosts.
    pub fn shards(self, hosts: u64) -> usize {
        let k = match self {
            Parallelism::Fixed(k) => k.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
                .min(16),
        };
        // Never more shards than hosts.
        k.min(hosts.max(1) as usize)
    }
}

/// Which contact-state backend executes the run (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommunityEngine {
    /// Dense per-tick scan over `Vec<bool>` — the parity reference.
    Legacy,
    /// Struct-of-arrays bitset + active queue — O(infected) ticks.
    #[default]
    Soa,
}

/// Parameters of one community run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommunityParams {
    /// Total community size.
    pub hosts: u64,
    /// Producer ratio α (producers are hosts `[0, α·hosts)`).
    pub alpha: f64,
    /// Per-attempt success probability against a consumer (ρ).
    pub rho: f64,
    /// Ticks between first producer contact and community immunity (γ).
    pub gamma_ticks: u64,
    /// Contact-attempt slots each infected host has per tick (⌈β·Δt⌉).
    pub attempts_per_tick: u32,
    /// Probability each slot actually fires, so that
    /// `attempts_per_tick · attempt_prob = β·Δt` holds exactly even for
    /// slow worms (β·Δt < 1). `1.0` for fully saturated slots.
    pub attempt_prob: f64,
    /// Initially infected consumers.
    pub i0: u64,
    /// Hard tick cap (die-out guard).
    pub max_ticks: u64,
    /// Run seed: same seed ⇒ same result at any shard count.
    pub seed: u64,
    /// Shard/thread configuration.
    pub parallelism: Parallelism,
    /// Contact-state backend selection.
    pub engine: CommunityEngine,
    /// Antibody distribution network configuration
    /// ([`DistNetParams::disabled`] = the legacy instantaneous clock).
    pub distnet: DistNetParams,
    /// Connection-failure containment configuration
    /// ([`FailContParams::disabled`] = off).
    pub failcont: FailContParams,
}

impl CommunityParams {
    /// Map a continuous-time [`Scenario`] onto the tick engine using
    /// tick length `dt` (attempts per tick ≈ β·Δt, γ in ticks).
    pub fn from_scenario(
        s: &Scenario,
        dt: f64,
        seed: u64,
        parallelism: Parallelism,
    ) -> CommunityParams {
        let rate = s.beta * dt;
        let attempts = rate.ceil().max(1.0);
        CommunityParams {
            hosts: s.n.round().max(1.0) as u64,
            alpha: s.alpha,
            rho: s.rho,
            gamma_ticks: (s.gamma / dt).ceil().max(1.0) as u64,
            attempts_per_tick: attempts as u32,
            attempt_prob: (rate / attempts).min(1.0),
            i0: s.i0.round().max(1.0) as u64,
            max_ticks: 1_000_000,
            seed,
            parallelism,
            engine: CommunityEngine::default(),
            distnet: DistNetParams::disabled(),
            failcont: FailContParams::disabled(),
        }
    }

    fn producers(&self) -> u64 {
        ((self.alpha * self.hosts as f64).round() as u64).min(self.hosts)
    }
}

/// Per-shard counters surfaced in the run report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Hosts owned by this shard.
    pub hosts: u64,
    /// Consumers in this shard infected when the run ended.
    pub infected: u64,
    /// Producer contacts observed by this shard's producers.
    pub producer_contacts: u64,
    /// Antibodies applied at the immunity instant (hosts in this shard
    /// still susceptible when immunity landed; 0 if never detected).
    pub antibodies_applied: u64,
    /// Events this shard emitted to *other* shards.
    pub events_sent_cross: u64,
    /// Events this shard received from *other* shards.
    pub events_received_cross: u64,
    /// Infection contacts blocked because the target had deployed a
    /// verified antibody (distribution-network runs only).
    pub protected_blocks: u64,
    /// Infection contacts blocked by a degraded consumer's contact
    /// throttling (distribution-network runs only).
    pub throttled_blocks: u64,
    /// Attempt slots suppressed at flagged sources (failcont runs only).
    pub failcont_suppressed: u64,
    /// Failed contacts recorded into the failure estimator by this
    /// shard (ρ-blocked attempts at generate, blocked contacts at
    /// apply; failcont runs only).
    pub failcont_failures: u64,
    /// Nanoseconds spent in this shard's generate phases.
    pub generate_nanos: u128,
    /// Nanoseconds spent in this shard's apply phases.
    pub apply_nanos: u128,
}

/// Per-tick aggregate counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TickStats {
    /// Tick index.
    pub tick: u64,
    /// Consumers newly infected this tick.
    pub new_infections: u64,
    /// Events crossing a shard boundary this tick.
    pub events_exchanged: u64,
    /// Wall-clock nanoseconds for the whole tick (both phases).
    pub wall_nanos: u128,
}

/// Result of one community run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityOutcome {
    /// Tick of the first producer contact, if any.
    pub t0_tick: Option<u64>,
    /// Total consumers infected when the run ended (incl. `i0`).
    pub infected: u64,
    /// `infected / hosts`.
    pub infection_ratio: f64,
    /// Cumulative infected count after each simulated tick.
    pub curve: Vec<u64>,
    /// Ticks actually simulated.
    pub ticks: u64,
    /// Shard count used.
    pub shards_used: usize,
    /// Per-shard counters.
    pub shard_stats: Vec<ShardStats>,
    /// Per-tick counters.
    pub tick_stats: Vec<TickStats>,
    /// Distribution-network outcome: `None` for legacy-clock runs, and
    /// also for distnet runs whose antibody production never completed
    /// (no producer was contacted, or the run ended before `T0 + γ`),
    /// so the network never activated.
    pub dist: Option<DistOutcome>,
    /// Failure-containment outcome (`None` when the knob is off).
    pub failcont: Option<FailContOutcome>,
}

impl CommunityOutcome {
    /// This outcome with every wall-clock field zeroed
    /// ([`ShardStats::generate_nanos`], [`ShardStats::apply_nanos`],
    /// [`TickStats::wall_nanos`]): what is left is a pure function of
    /// the run parameters, so `==` on two of these compares everything
    /// the engine computed — the legacy↔SoA parity check (I11).
    pub fn without_wall_clock(mut self) -> CommunityOutcome {
        for s in &mut self.shard_stats {
            s.generate_nanos = 0;
            s.apply_nanos = 0;
        }
        for t in &mut self.tick_stats {
            t.wall_nanos = 0;
        }
        self
    }

    /// A metrics snapshot of this run, built the same way the engine
    /// itself merges state: one registry per shard, merged in shard
    /// order (counters add, which is order-independent anyway).
    ///
    /// The *simulation* counters (`epidemic.infected`,
    /// `epidemic.producer_contacts`, `epidemic.antibodies_applied`,
    /// `epidemic.new_infections`, `epidemic.ticks`) are pure functions
    /// of the run parameters and therefore identical at any shard
    /// count; the *topology* counters (`epidemic.events_cross_shard`)
    /// and the wall-clock gauges legitimately depend on `K` and are
    /// kept out of the parity-checked set.
    pub fn metrics(&self) -> obs::MetricsRegistry {
        let mut reg = obs::MetricsRegistry::new();
        for (i, s) in self.shard_stats.iter().enumerate() {
            let mut shard_reg = obs::MetricsRegistry::new();
            shard_reg.inc("epidemic.infected", s.infected);
            shard_reg.inc("epidemic.producer_contacts", s.producer_contacts);
            shard_reg.inc("epidemic.antibodies_applied", s.antibodies_applied);
            shard_reg.inc("epidemic.events_cross_shard", s.events_sent_cross);
            if self.failcont.is_some() {
                // Containment counters fold shard-order-independently
                // (sums), like the simulation counters: K-invariant.
                shard_reg.inc("failcont.suppressed_attempts", s.failcont_suppressed);
                shard_reg.inc("failcont.failures_recorded", s.failcont_failures);
            }
            if let Some(d) = &self.dist {
                // The distribution-network counters are attributed to
                // the *receiving* host's shard and folded here in shard
                // order, exactly like the simulation counters above —
                // so they are shard-count-invariant (pinned by
                // `metrics_simulation_counters_are_shard_count_invariant`).
                shard_reg.inc("distnet.protected_blocks", s.protected_blocks);
                shard_reg.inc("distnet.throttled_blocks", s.throttled_blocks);
                if let Some(ds) = d.shard_stats.get(i) {
                    ds.export(&mut shard_reg);
                }
            }
            reg.merge(&shard_reg);
        }
        if let Some(d) = &self.dist {
            reg.set_counter("distnet.deployed_unverified", d.deployed_unverified);
            reg.set_counter("distnet.byzantine_producers", d.byzantine_producers);
            reg.set_counter("distnet.protected_hosts", d.protected);
            reg.gauge("distnet.activated_tick", d.activated_tick as f64);
            reg.gauge(
                "distnet.gamma_effective_ticks",
                self.t0_tick
                    .and_then(|t0| d.gamma_effective(t0))
                    .map_or(-1.0, |g| g as f64),
            );
        }
        if let Some(f) = &self.failcont {
            reg.set_counter("failcont.flagged_sources", f.flagged_sources);
            reg.set_counter("failcont.pool_bits_set", f.bits_set);
        }
        reg.set_counter("epidemic.ticks", self.ticks);
        reg.set_counter(
            "epidemic.new_infections",
            self.tick_stats.iter().map(|t| t.new_infections).sum(),
        );
        reg.gauge("epidemic.infection_ratio", self.infection_ratio);
        reg.gauge("epidemic.shards_used", self.shards_used as f64);
        reg.gauge("epidemic.t0_tick", self.t0_tick.map_or(-1.0, |t| t as f64));
        let gen_ms: f64 = self
            .shard_stats
            .iter()
            .map(|s| s.generate_nanos as f64 / 1e6)
            .sum();
        let apply_ms: f64 = self
            .shard_stats
            .iter()
            .map(|s| s.apply_nanos as f64 / 1e6)
            .sum();
        reg.gauge("epidemic.generate_wall_ms", gen_ms);
        reg.gauge("epidemic.apply_wall_ms", apply_ms);
        reg
    }

    /// Render the per-shard counter table for the run report.
    pub fn shard_report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "shards={} ticks={} t0={} infected={} ({:.4})\n",
            self.shards_used,
            self.ticks,
            self.t0_tick.map_or("-".to_string(), |t| t.to_string()),
            self.infected,
            self.infection_ratio,
        ));
        out.push_str("shard    hosts  infected  prod-contacts  antibodies  evt-out  evt-in   gen-ms  apply-ms\n");
        for s in &self.shard_stats {
            out.push_str(&format!(
                "{:>5} {:>8} {:>9} {:>14} {:>11} {:>8} {:>7} {:>8.2} {:>9.2}\n",
                s.shard,
                s.hosts,
                s.infected,
                s.producer_contacts,
                s.antibodies_applied,
                s.events_sent_cross,
                s.events_received_cross,
                s.generate_nanos as f64 / 1e6,
                s.apply_nanos as f64 / 1e6,
            ));
        }
        if let Some(d) = &self.dist {
            let sends: u64 = d.shard_stats.iter().map(|s| s.sends).sum();
            let verified: u64 = d.shard_stats.iter().map(|s| s.verified).sum();
            let rejected: u64 = d.shard_stats.iter().map(|s| s.rejected).sum();
            let quarantines: u64 = d.shard_stats.iter().map(|s| s.quarantines).sum();
            out.push_str(&format!(
                "distnet: activated={} complete={} gamma_eff={} protected={} byz={} \
                 sends={} verified={} rejected={} quarantines={} unverified_deploys={}\n",
                d.activated_tick,
                d.protection_complete_tick
                    .map_or("-".to_string(), |t| t.to_string()),
                self.t0_tick
                    .and_then(|t0| d.gamma_effective(t0))
                    .map_or("-".to_string(), |g| g.to_string()),
                d.protected,
                d.byzantine_producers,
                sends,
                verified,
                rejected,
                quarantines,
                d.deployed_unverified,
            ));
        }
        if let Some(f) = &self.failcont {
            out.push_str(&format!(
                "failcont: flagged={} failures={} suppressed={} pool_bits={}\n",
                f.flagged_sources, f.failures_recorded, f.suppressed_attempts, f.bits_set,
            ));
        }
        out
    }
}

/// One contact event, in canonical `(src, attempt)` order per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    /// Emitting (infected) host.
    src: u64,
    /// Attempt index within the emitting host's tick.
    attempt: u32,
    /// Contacted host.
    target: u64,
}

/// The legacy dense backend: one bool per owned host, visited in host
/// order by a full scan every tick — O(shard size) per tick regardless
/// of prevalence. Kept as the reference the SoA backend is compared
/// against (chaos invariant I11).
struct DenseHosts(Vec<bool>);

impl HostSet for DenseHosts {
    fn with_capacity(len: u64) -> DenseHosts {
        DenseHosts(vec![false; len as usize])
    }

    fn contains(&self, off: u64) -> bool {
        self.0[off as usize]
    }

    fn insert(&mut self, off: u64) -> bool {
        let slot = &mut self.0[off as usize];
        let fresh = !*slot;
        *slot = true;
        fresh
    }

    fn count(&self) -> u64 {
        self.0.iter().filter(|f| **f).count() as u64
    }

    fn for_each_member(&self, mut f: impl FnMut(u64)) {
        for (off, flag) in self.0.iter().enumerate() {
            if *flag {
                f(off as u64);
            }
        }
    }
}

/// Host state owned by one shard: `[lo, hi)` plus infection membership.
struct Shard<S> {
    idx: usize,
    lo: u64,
    hi: u64,
    /// Infection membership per owned host (offset `host - lo`).
    hosts: S,
    stats: ShardStats,
}

impl<S: HostSet> Shard<S> {
    fn new(idx: usize, lo: u64, hi: u64) -> Shard<S> {
        Shard {
            idx,
            lo,
            hi,
            hosts: S::with_capacity(hi - lo),
            stats: ShardStats {
                shard: idx,
                hosts: hi - lo,
                ..ShardStats::default()
            },
        }
    }

    /// Generate this tick's events from this shard's infected hosts
    /// into the shard's reused outbox row (one `Vec` per target shard,
    /// cleared here — the coordinator hoists the allocations across
    /// ticks).
    ///
    /// With failure containment on, an attempt blocked by proactive
    /// protection (the ρ draw) is recorded into `failures` — from the
    /// scanning source's side, that exploit connection failed.
    ///
    /// Backend visit order is free: the coordinator's canonical inbox
    /// sort re-establishes `(src, attempt)` order downstream.
    fn generate(
        &mut self,
        p: &CommunityParams,
        bounds: &[(u64, u64)],
        tick: u64,
        flagged: Option<&HostBits>,
        out: &mut [Vec<Event>],
        failures: &mut Vec<(u64, u64)>,
    ) {
        let t_start = Instant::now();
        for ob in out.iter_mut() {
            ob.clear();
        }
        let attempts = u64::from(p.attempts_per_tick);
        let producers = p.producers();
        let record = p.failcont.enabled;
        let Shard {
            idx,
            lo,
            hosts,
            stats,
            ..
        } = self;
        hosts.for_each_member(|off| {
            let src = *lo + off;
            for a in 0..attempts {
                let key = (tick * p.hosts + src) * attempts + a;
                if let Some(fl) = flagged {
                    // A flagged source loses this slot with probability
                    // `suppress`; the draw lives in its own domain on
                    // the same event key, so the attempt/target/success
                    // streams below are untouched.
                    if fl.contains(src)
                        && to_unit(draw(p.seed, DOMAIN_FAILSUP, key)) < p.failcont.suppress
                    {
                        stats.failcont_suppressed += 1;
                        continue;
                    }
                }
                if p.attempt_prob < 1.0
                    && to_unit(draw(p.seed, DOMAIN_ATTEMPT, key)) >= p.attempt_prob
                {
                    continue; // This slot doesn't fire (β·Δt < slots).
                }
                let target = draw(p.seed, DOMAIN_TARGET, key) % p.hosts;
                if target >= producers {
                    // Consumer target: roll proactive protection now;
                    // only successful attempts are shipped. A blocked
                    // exploit is a *failed connection* as seen from the
                    // source — the primary signal the failure estimator
                    // keys on (Zhou et al.).
                    let u = to_unit(draw(p.seed, DOMAIN_SUCCESS, key));
                    if u >= p.rho {
                        if record {
                            stats.failcont_failures += 1;
                            failures.push((src, key));
                        }
                        continue;
                    }
                }
                let dest = shard_of(target, bounds);
                if dest != *idx {
                    stats.events_sent_cross += 1;
                }
                out[dest].push(Event {
                    src,
                    attempt: a as u32,
                    target,
                });
            }
        });
        self.stats.generate_nanos += t_start.elapsed().as_nanos();
    }

    /// Apply the canonically merged inbox for this tick.
    ///
    /// Returns `(new_infections, producer_contact_this_tick)`. All
    /// updates are order-independent (idempotent marks, counts, min),
    /// but the inbox is nonetheless sorted canonically upstream so the
    /// merge order itself is deterministic and auditable.
    ///
    /// When the distribution network is active (`dist`), a consumer
    /// that has deployed a verified antibody blocks the contact
    /// outright, and a *degraded* consumer (forged-bundle-bitten,
    /// still unprotected) blocks it with probability
    /// `distnet.throttle` via a counter-based draw keyed on the same
    /// event key the generate phase used — deterministic and
    /// shard-order-independent. `dist` is read-only here; all its
    /// mutation happens in the coordinator between phases.
    ///
    /// With failure containment on, every contact against a consumer
    /// that does *not* newly infect it — already infected, antibody-
    /// protected, or throttle-blocked — is pushed into `failures` as a
    /// `(src, key)` record; the coordinator folds them into the
    /// estimator after the barrier. Producer contacts are detections,
    /// not failures.
    fn apply(
        &mut self,
        p: &CommunityParams,
        inbox: &[Event],
        tick: u64,
        dist: Option<&DistNet>,
        failures: &mut Vec<(u64, u64)>,
    ) -> (u64, bool) {
        let t_start = Instant::now();
        let producers = p.producers();
        let attempts = u64::from(p.attempts_per_tick);
        let record = p.failcont.enabled;
        let mut fresh = 0u64;
        let mut producer_contact = false;
        for ev in inbox {
            if shard_of_range(ev.src, self.lo, self.hi).is_none() {
                self.stats.events_received_cross += 1;
            }
            if ev.target < producers {
                // A producer was contacted: the antibody clock starts.
                self.stats.producer_contacts += 1;
                producer_contact = true;
                continue;
            }
            let off = ev.target - self.lo;
            let key = (tick * p.hosts + ev.src) * attempts + u64::from(ev.attempt);
            if self.hosts.contains(off) {
                if record {
                    self.stats.failcont_failures += 1;
                    failures.push((ev.src, key));
                }
                continue;
            }
            if let Some(d) = dist {
                if d.protected(ev.target) {
                    self.stats.protected_blocks += 1;
                    if record {
                        self.stats.failcont_failures += 1;
                        failures.push((ev.src, key));
                    }
                    continue;
                }
                if p.distnet.throttle > 0.0
                    && d.throttled(ev.target)
                    && to_unit(draw(p.seed, DOMAIN_THROTTLE, key)) < p.distnet.throttle
                {
                    self.stats.throttled_blocks += 1;
                    if record {
                        self.stats.failcont_failures += 1;
                        failures.push((ev.src, key));
                    }
                    continue;
                }
            }
            self.hosts.insert(off);
            fresh += 1;
        }
        self.stats.infected += fresh;
        self.stats.apply_nanos += t_start.elapsed().as_nanos();
        (fresh, producer_contact)
    }
}

/// Which shard owns `host`, given per-shard `(lo, hi)` bounds.
fn shard_of(host: u64, bounds: &[(u64, u64)]) -> usize {
    // Bounds are contiguous and sorted; binary search the partition.
    match bounds.binary_search_by(|&(lo, hi)| {
        if host < lo {
            core::cmp::Ordering::Greater
        } else if host >= hi {
            core::cmp::Ordering::Less
        } else {
            core::cmp::Ordering::Equal
        }
    }) {
        Ok(i) => i,
        Err(_) => bounds.len() - 1, // Unreachable for valid partitions.
    }
}

/// `Some(())` when `host` lies in `[lo, hi)`.
fn shard_of_range(host: u64, lo: u64, hi: u64) -> Option<()> {
    (host >= lo && host < hi).then_some(())
}

/// Contiguous partition of `[0, hosts)` into `k` near-equal ranges.
fn partition(hosts: u64, k: usize) -> Vec<(u64, u64)> {
    let k64 = k as u64;
    let base = hosts / k64;
    let extra = hosts % k64;
    let mut bounds = Vec::with_capacity(k);
    let mut lo = 0;
    for i in 0..k64 {
        let len = base + u64::from(i < extra);
        bounds.push((lo, lo + len));
        lo += len;
    }
    bounds
}

/// Run the community simulation described by `p`.
///
/// The result is a pure function of `p` minus `parallelism`: any shard
/// count — and either contact-state backend — produces the identical
/// outcome (up to the timing counters in [`ShardStats`] /
/// [`TickStats`], which [`CommunityOutcome::without_wall_clock`]
/// zeroes).
pub fn run(p: &CommunityParams) -> CommunityOutcome {
    match p.engine {
        CommunityEngine::Legacy => run_engine::<DenseHosts>(p),
        CommunityEngine::Soa => run_engine::<SoaHosts>(p),
    }
}

/// The engine body, generic over the contact-state backend.
fn run_engine<S: HostSet>(p: &CommunityParams) -> CommunityOutcome {
    assert!(p.hosts >= 2, "community needs at least two hosts");
    let k = p.parallelism.shards(p.hosts);
    let bounds = partition(p.hosts, k);
    let mut shards: Vec<Shard<S>> = bounds
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| Shard::new(i, lo, hi))
        .collect();

    // Seed infections among consumers (the worm starts outside).
    let producers = p.producers();
    let consumer_count = p.hosts - producers;
    let i0 = p.i0.min(consumer_count).max(1);
    for s in 0..i0 {
        let host = (producers + s).min(p.hosts - 1);
        let dest = shard_of(host, &bounds);
        let off = host - shards[dest].lo;
        if shards[dest].hosts.insert(off) {
            shards[dest].stats.infected += 1;
        }
    }

    let mut infected: u64 = shards.iter().map(|s| s.stats.infected).sum();
    let mut t0_tick: Option<u64> = None;
    let mut curve = Vec::new();
    let mut tick_stats = Vec::new();
    let mut tick = 0u64;
    // Distribution network (distnet runs only): created at the tick
    // antibody *production* completes (`T0 + γ`); from then on bundles
    // must actually traverse the wire and verify before a consumer is
    // protected. `resolved` counts consumers that are infected or
    // protected — once every consumer is resolved, nothing can change.
    let mut dist: Option<DistNet> = None;
    let mut resolved: u64 = infected;
    // Failure-containment estimator (failcont runs only); fed at the
    // post-apply barrier, read (flag membership) by generate.
    let mut failcont: Option<FailCont> = p
        .failcont
        .enabled
        .then(|| FailCont::new(&p.failcont, p.seed, p.hosts));

    // Hoisted scratch (PR 9 fix): the per-tick shard loop used to
    // allocate a fresh k×k outbox matrix, k inboxes and their routing
    // clones every tick. These buffers now live across ticks — cleared
    // and refilled in place, routed by `Vec::append` draining — so the
    // steady-state tick loop allocates only on high-water growth.
    let mut outboxes: Vec<Vec<Vec<Event>>> = (0..k).map(|_| vec![Vec::new(); k]).collect();
    let mut inboxes: Vec<Vec<Event>> = vec![Vec::new(); k];
    let mut failure_bufs: Vec<Vec<(u64, u64)>> = vec![Vec::new(); k];

    while tick < p.max_ticks {
        if p.distnet.enabled {
            if dist.is_none() {
                if let Some(t0) = t0_tick {
                    if tick >= t0 + p.gamma_ticks {
                        // Production complete: initial broadcast now.
                        dist = Some(DistNet::new(
                            &p.distnet, p.seed, p.hosts, producers, &bounds, tick,
                        ));
                    }
                }
            }
            if let Some(d) = dist.as_mut() {
                // The distribution step runs in the coordinator, before
                // the generate phase, so a bundle verified at tick t
                // protects its host from tick t's contacts — with a
                // perfect wire that reproduces the legacy instant-
                // immunity break bit-identically.
                let infected_q = |h: u64| {
                    let s = shard_of(h, &bounds);
                    shards[s].hosts.contains(h - bounds[s].0)
                };
                resolved += d.step(tick, &infected_q);
            }
            if resolved >= consumer_count {
                break; // Every consumer is infected or protected.
            }
        } else {
            if let Some(t0) = t0_tick {
                if tick >= t0 + p.gamma_ticks {
                    break; // Immunity deployed.
                }
            }
            if infected >= consumer_count {
                break; // Saturation.
            }
        }
        let tick_start = Instant::now();
        // Sparse ticks (few infected hosts) run inline: spawning
        // threads would cost more than the work saves. Same functions,
        // same result either way.
        let go_parallel =
            k > 1 && infected.saturating_mul(u64::from(p.attempts_per_tick)) >= PARALLEL_THRESHOLD;
        let flagged = failcont.as_ref().map(|f| f.flagged());

        // Phase 1: generate (parallel over shards), each shard filling
        // its own persistent outbox row.
        if !go_parallel {
            for ((sh, out), fb) in shards
                .iter_mut()
                .zip(outboxes.iter_mut())
                .zip(failure_bufs.iter_mut())
            {
                sh.generate(p, &bounds, tick, flagged, out, fb);
            }
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .zip(outboxes.iter_mut())
                    .zip(failure_bufs.iter_mut())
                    .map(|((sh, out), fb)| {
                        let bounds = &bounds;
                        scope.spawn(move || sh.generate(p, bounds, tick, flagged, out, fb))
                    })
                    .collect();
                for h in handles {
                    h.join().expect("generate worker");
                }
            });
        }

        // Route + canonical merge: inbox[d] gathers every shard's
        // outbox for destination d, drained in shard (= src) order and
        // stably sorted by (src, attempt). Concatenation in shard order
        // already yields that order for contiguous partitions with the
        // dense backend; the sort makes the invariant explicit and
        // independent of backend visit order.
        let mut exchanged = 0u64;
        for (d, inbox) in inboxes.iter_mut().enumerate() {
            inbox.clear();
            for (s, ob) in outboxes.iter_mut().enumerate() {
                if s != d {
                    exchanged += ob[d].len() as u64;
                }
                inbox.append(&mut ob[d]);
            }
            inbox.sort_by_key(|e| (e.src, e.attempt));
        }

        // Phase 2: apply (parallel over target shards — disjoint state).
        // The distribution network is only *read* here (protection /
        // throttle flags); `Option<&DistNet>` is freely shared across
        // the scoped workers. Failure records land in per-shard scratch
        // buffers, folded after the barrier.
        let dist_ref = dist.as_ref();
        let applied: Vec<(u64, bool)> = if !go_parallel {
            shards
                .iter_mut()
                .zip(inboxes.iter())
                .zip(failure_bufs.iter_mut())
                .map(|((sh, inbox), fb)| sh.apply(p, inbox, tick, dist_ref, fb))
                .collect()
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter_mut()
                    .zip(inboxes.iter())
                    .zip(failure_bufs.iter_mut())
                    .map(|((sh, inbox), fb)| {
                        scope.spawn(move || sh.apply(p, inbox, tick, dist_ref, fb))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("apply worker"))
                    .collect()
            })
        };

        // Post-apply barrier: fold this tick's failure records and make
        // flag decisions against the fully folded pool (shard- and
        // engine-invariant; see `crate::failest`).
        if let Some(fc) = failcont.as_mut() {
            fc.fold_tick(&mut failure_bufs);
        }

        let fresh: u64 = applied.iter().map(|&(f, _)| f).sum();
        if t0_tick.is_none() && applied.iter().any(|&(_, c)| c) {
            t0_tick = Some(tick); // min over ticks: first tick with any contact.
        }
        infected += fresh;
        // A freshly infected consumer was necessarily unprotected (the
        // apply phase blocks protected targets), so it newly resolves.
        resolved += fresh;
        curve.push(infected);
        tick_stats.push(TickStats {
            tick,
            new_infections: fresh,
            events_exchanged: exchanged,
            wall_nanos: tick_start.elapsed().as_nanos(),
        });
        tick += 1;
    }

    // Antibody application at the immunity instant.
    if t0_tick.is_some() {
        for sh in &mut shards {
            sh.stats.antibodies_applied = sh.stats.hosts - sh.hosts.count();
        }
    }

    let failcont_out = failcont.map(|fc| {
        let suppressed: u64 = shards.iter().map(|s| s.stats.failcont_suppressed).sum();
        fc.outcome(suppressed)
    });
    CommunityOutcome {
        t0_tick,
        infected,
        infection_ratio: infected as f64 / p.hosts as f64,
        curve,
        ticks: tick,
        shards_used: k,
        shard_stats: shards.into_iter().map(|s| s.stats).collect(),
        tick_stats,
        dist: dist.map(|d| DistOutcome {
            activated_tick: d.activated_tick(),
            protection_complete_tick: d.protection_complete_tick(),
            protected: d.protected_count(),
            byzantine_producers: d.byzantine_producers(),
            deployed_unverified: d.deployed_unverified(),
            shard_stats: d.shard_stats().to_vec(),
        }),
        failcont: failcont_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::solve;

    fn params(hosts: u64, alpha: f64, gamma_ticks: u64, k: usize) -> CommunityParams {
        CommunityParams {
            hosts,
            alpha,
            rho: 1.0,
            gamma_ticks,
            attempts_per_tick: 1,
            attempt_prob: 1.0,
            i0: 1,
            max_ticks: 5_000,
            seed: 42,
            parallelism: Parallelism::Fixed(k),
            engine: CommunityEngine::default(),
            distnet: DistNetParams::disabled(),
            failcont: FailContParams::disabled(),
        }
    }

    /// Strip the timing/topology counters so outcomes can be compared
    /// across shard counts.
    fn essence(o: &CommunityOutcome) -> (Option<u64>, u64, Vec<u64>, u64) {
        (o.t0_tick, o.infected, o.curve.clone(), o.ticks)
    }

    /// Mean infection ratio of scenario `s` over `seeds`, ticked at `dt`.
    fn scenario_mean(s: &Scenario, dt: f64, seeds: std::ops::Range<u64>) -> f64 {
        let runs = seeds.end - seeds.start;
        let total: f64 = seeds
            .map(|seed| {
                run(&CommunityParams::from_scenario(
                    s,
                    dt,
                    seed,
                    Parallelism::Fixed(1),
                ))
                .infection_ratio
            })
            .sum();
        total / runs as f64
    }

    /// A scaled-down Slammer (β = 0.1, N = 10 000): the dynamics depend
    /// on α·N and β, so α is scaled up accordingly.
    fn small_slammer(alpha: f64, gamma: f64) -> Scenario {
        Scenario {
            beta: 0.1,
            n: 10_000.0,
            alpha,
            rho: 1.0,
            gamma,
            i0: 1.0,
        }
    }

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

    #[test]
    fn partition_is_contiguous_and_total() {
        for (hosts, k) in [(10u64, 3usize), (16, 4), (7, 7), (100, 1)] {
            let b = partition(hosts, k);
            assert_eq!(b.len(), k);
            assert_eq!(b[0].0, 0);
            assert_eq!(b[k - 1].1, hosts);
            for w in b.windows(2) {
                assert_eq!(w[0].1, w[1].0);
            }
            for h in 0..hosts {
                let s = shard_of(h, &b);
                assert!(b[s].0 <= h && h < b[s].1);
            }
        }
    }

    #[test]
    fn serial_and_sharded_agree_exactly() {
        let serial = run(&params(500, 0.01, 40, 1));
        for k in [2usize, 3, 4, 8] {
            let sharded = run(&params(500, 0.01, 40, k));
            assert_eq!(essence(&serial), essence(&sharded), "k={k}");
            assert_eq!(sharded.shards_used, k);
        }
    }

    #[test]
    fn dense_ticks_take_the_threaded_path_and_still_agree() {
        // i0 high enough that infected × attempts crosses the inline
        // threshold, so k > 1 really runs on worker threads.
        let dense = |k| CommunityParams {
            i0: 8_000,
            ..params(20_000, 0.005, 15, k)
        };
        let serial = run(&dense(1));
        for k in [2usize, 4, 8] {
            let sharded = run(&dense(k));
            assert_eq!(essence(&serial), essence(&sharded), "k={k}");
        }
    }

    #[test]
    fn legacy_and_soa_engines_agree_bit_identically() {
        // The backend parity claim (I11): every non-wall-clock field
        // equal on legacy-clock, ideal-wire, lossy-wire and failcont
        // configurations, serial and sharded.
        let configs = [
            params(500, 0.01, 40, 1),
            params(500, 0.01, 40, 4),
            CommunityParams {
                distnet: DistNetParams::ideal(),
                ..contained_params(4, 42, 2)
            },
            CommunityParams {
                distnet: DistNetParams::lossy(0.35, 0.3),
                ..contained_params(5, 7, 3)
            },
            CommunityParams {
                failcont: FailContParams::standard(),
                ..params(1_000, 0.0, 10, 2)
            },
        ];
        for base in configs {
            let legacy = run(&CommunityParams {
                engine: CommunityEngine::Legacy,
                ..base
            });
            let soa = run(&CommunityParams {
                engine: CommunityEngine::Soa,
                ..base
            });
            assert_eq!(
                legacy.without_wall_clock(),
                soa.without_wall_clock(),
                "{base:?}"
            );
        }
    }

    #[test]
    fn pinned_outcomes_are_unchanged_by_the_rework() {
        // Values captured from the pre-PR-9 engine (dense scans,
        // per-tick scratch allocation, map-based distnet): the scratch
        // hoist, the SoA backend and the distnet re-index must all
        // reproduce them exactly.
        for engine in [CommunityEngine::Legacy, CommunityEngine::Soa] {
            let o = run(&CommunityParams {
                engine,
                ..params(500, 0.01, 40, 1)
            });
            assert_eq!(o.t0_tick, Some(8), "{engine:?}");
            assert_eq!(o.infected, 495, "{engine:?}");
            assert_eq!(o.ticks, 15, "{engine:?}");
            assert_eq!(curve_fnv(&o.curve), 0x3b25_e759_491d_a176, "{engine:?}");

            let o = run(&CommunityParams {
                engine,
                distnet: DistNetParams::ideal(),
                parallelism: Parallelism::Fixed(2),
                ..contained_params(4, 42, 2)
            });
            let d = o.dist.as_ref().expect("dist outcome");
            assert_eq!(
                (o.t0_tick, o.infected, o.ticks, d.protected),
                (Some(4), 35, 8, 1_900),
                "{engine:?}"
            );
            assert_eq!(curve_fnv(&o.curve), 0x7445_d04f_2455_a20a, "{engine:?}");

            let o = run(&CommunityParams {
                engine,
                distnet: DistNetParams::lossy(0.35, 0.3),
                parallelism: Parallelism::Fixed(1),
                ..contained_params(5, 7, 1)
            });
            let d = o.dist.as_ref().expect("dist outcome");
            let verified: u64 = d.shard_stats.iter().map(|s| s.verified).sum();
            let rejected: u64 = d.shard_stats.iter().map(|s| s.rejected).sum();
            assert_eq!(
                (o.t0_tick, o.infected, o.ticks, d.protected),
                (Some(7), 368, 108, 1_893),
                "{engine:?}"
            );
            assert_eq!((verified, rejected), (1_893, 830), "{engine:?}");
            assert_eq!(curve_fnv(&o.curve), 0xfe91_1748_27fa_0caa, "{engine:?}");
        }
    }

    #[test]
    fn outbreak_is_contained_with_producers() {
        let out = run(&params(2_000, 0.02, 30, 4));
        assert!(out.t0_tick.is_some(), "producers should be contacted");
        assert!(
            out.infection_ratio < 1.0,
            "immunity should stop saturation: {out:?}"
        );
        // A fast response contains the outbreak far better than a slow
        // one (Slammer at one-second ticks, 20 seeds).
        let fast = scenario_mean(&small_slammer(0.002, 5.0), 1.0, 0..20);
        let slow = scenario_mean(&small_slammer(0.002, 60.0), 1.0, 0..20);
        assert!(fast + 0.5 < slow, "fast {fast:.3} vs slow {slow:.3}");
        // The Monte-Carlo mean stays in the §6 ODE's regime (a generous
        // band: same regime, not digit agreement).
        let s = small_slammer(0.002, 10.0);
        let (mc, ode) = (scenario_mean(&s, 1.0, 42..72), solve(&s).infection_ratio);
        assert!(
            (mc - ode).abs() < 0.25,
            "ODE {ode:.3} vs Monte-Carlo {mc:.3}"
        );
    }

    #[test]
    fn no_producers_saturates() {
        let out = run(&params(300, 0.0, 50, 2));
        assert!(out.t0_tick.is_none());
        assert_eq!(out.infected, 300, "all consumers infected");
    }

    #[test]
    fn proactive_protection_reduces_spread() {
        let hot = run(&params(2_000, 0.005, 60, 4));
        let cold = run(&CommunityParams {
            rho: (2.0f64).powi(-12),
            ..params(2_000, 0.005, 60, 4)
        });
        assert!(
            cold.infected < hot.infected.max(2),
            "ASLR-style protection must slow the worm: hot {} cold {}",
            hot.infected,
            cold.infected
        );
        // A β = 1000 hit-list saturates an unprotected community but is
        // contained at ρ = 2^-12 (10 ms ticks, 10 seeds).
        let hitlist = Scenario {
            beta: 1000.0,
            alpha: 0.001,
            ..small_slammer(0.0, 5.0)
        };
        let hot = scenario_mean(&hitlist, 0.01, 0..10);
        let cold = scenario_mean(
            &Scenario {
                rho: (2.0f64).powi(-12),
                ..hitlist
            },
            0.01,
            0..10,
        );
        assert!(hot > 0.8, "unprotected hit-list saturates: {hot:.4}");
        assert!(cold < 0.05, "protected hit-list contained: {cold:.4}");
    }

    #[test]
    fn curve_is_monotonic_and_counters_consistent() {
        let out = run(&params(800, 0.01, 25, 4));
        for w in out.curve.windows(2) {
            assert!(w[0] <= w[1]);
        }
        let per_shard: u64 = out.shard_stats.iter().map(|s| s.infected).sum();
        assert_eq!(per_shard, out.infected);
        let hosts: u64 = out.shard_stats.iter().map(|s| s.hosts).sum();
        assert_eq!(hosts, 800);
    }

    #[test]
    fn from_scenario_maps_rates() {
        let s = Scenario {
            beta: 1000.0,
            n: 1e5,
            alpha: 0.001,
            rho: 1.0,
            gamma: 0.1,
            i0: 1.0,
        };
        let p = CommunityParams::from_scenario(&s, 0.001, 7, Parallelism::Fixed(2));
        assert_eq!(p.hosts, 100_000);
        assert_eq!(p.attempts_per_tick, 1);
        assert!((p.attempt_prob - 1.0).abs() < 1e-12);
        assert_eq!(p.gamma_ticks, 100);
        assert_eq!(p.engine, CommunityEngine::Soa, "SoA is the default");
        assert!(!p.failcont.enabled, "containment defaults off");

        // A slow worm maps to fractional attempts (β·Δt < 1).
        let slow = Scenario {
            beta: 0.1,
            gamma: 5.0,
            ..s
        };
        let p2 = CommunityParams::from_scenario(&slow, 1.0, 7, Parallelism::Fixed(1));
        assert_eq!(p2.attempts_per_tick, 1);
        assert!((p2.attempt_prob - 0.1).abs() < 1e-12);
        assert_eq!(p2.gamma_ticks, 5);
    }

    #[test]
    fn metrics_simulation_counters_are_shard_count_invariant() {
        // The sharded merge (per-shard registries merged in shard
        // order) must reproduce the serial engine's simulation
        // counters exactly; only topology counters may differ with K.
        let serial = run(&params(800, 0.01, 25, 1)).metrics();
        const SIM: &[&str] = &[
            "epidemic.infected",
            "epidemic.producer_contacts",
            "epidemic.antibodies_applied",
            "epidemic.new_infections",
            "epidemic.ticks",
        ];
        assert_eq!(serial.counter("epidemic.events_cross_shard"), 0);
        assert!(serial.counter("epidemic.infected") > 0);
        for k in [2usize, 4, 8] {
            let m = run(&params(800, 0.01, 25, k)).metrics();
            for name in SIM {
                assert_eq!(m.counter(name), serial.counter(name), "{name} k={k}");
            }
            assert_eq!(m.gauge_value("epidemic.shards_used"), Some(k as f64));
        }
    }

    /// The epidemic-core counters that must be identical between the
    /// legacy clock and the zero-fault distribution network.
    const EPI_SIM: &[&str] = &[
        "epidemic.infected",
        "epidemic.producer_contacts",
        "epidemic.antibodies_applied",
        "epidemic.new_infections",
        "epidemic.ticks",
    ];

    /// A configuration where the antibody clock genuinely wins the race
    /// (plenty of producers, ρ = 0.5 slowing the worm): the legacy run
    /// ends via the immunity break, so the distribution network really
    /// activates and does its work.
    fn contained_params(gamma_ticks: u64, seed: u64, k: usize) -> CommunityParams {
        CommunityParams {
            rho: 0.5,
            gamma_ticks,
            seed,
            ..params(2_000, 0.05, gamma_ticks, k)
        }
    }

    #[test]
    fn ideal_distnet_reproduces_legacy_clock_bit_identically() {
        // The differential anchor: a perfect wire (no loss, dup, delay
        // or Byzantine producers) must reproduce the instantaneous-γ
        // results bit-identically — essence AND epidemic counters —
        // at K = 1 and K = 4, across several seeds and gammas,
        // including saturating runs where the network never activates.
        let mut activated = 0usize;
        let configs = [
            contained_params(4, 42, 1),
            contained_params(1, 7, 1),
            contained_params(9, 1234, 1),
            params(500, 0.01, 40, 1), // may saturate before T0 + γ
        ];
        for base in configs {
            for k in [1usize, 4] {
                let legacy = CommunityParams {
                    parallelism: Parallelism::Fixed(k),
                    ..base
                };
                let ideal = CommunityParams {
                    distnet: DistNetParams::ideal(),
                    ..legacy
                };
                let a = run(&legacy);
                let b = run(&ideal);
                let ctx = format!("seed={} gamma={} k={k}", base.seed, base.gamma_ticks);
                assert_eq!(essence(&a), essence(&b), "{ctx}");
                let (ma, mb) = (a.metrics(), b.metrics());
                for name in EPI_SIM {
                    assert_eq!(ma.counter(name), mb.counter(name), "{name} {ctx}");
                }
                // When the network activated, every consumer verified a
                // bundle in the broadcast tick itself: the emergent γ
                // equals the production γ, nothing was rejected, I8
                // holds.
                if let Some(d) = &b.dist {
                    activated += 1;
                    let verified: u64 = d.shard_stats.iter().map(|s| s.verified).sum();
                    assert!(verified > 0, "{ctx}: bundles must have been verified");
                    let rejected: u64 = d.shard_stats.iter().map(|s| s.rejected).sum();
                    assert_eq!(rejected, 0, "{ctx}: perfect wire rejects nothing");
                    assert_eq!(d.deployed_unverified, 0, "{ctx}");
                    assert_eq!(
                        d.gamma_effective(a.t0_tick.unwrap()),
                        Some(base.gamma_ticks.max(1)),
                        "{ctx}"
                    );
                }
            }
        }
        assert!(
            activated >= 6,
            "the contained configs must actually exercise the network ({activated})"
        );
    }

    #[test]
    fn ideal_distnet_parity_holds_across_shard_counts() {
        let base = CommunityParams {
            distnet: DistNetParams::ideal(),
            ..params(500, 0.01, 40, 1)
        };
        let serial = run(&base);
        for k in [2usize, 4, 8] {
            let sharded = run(&CommunityParams {
                parallelism: Parallelism::Fixed(k),
                ..base
            });
            assert_eq!(essence(&serial), essence(&sharded), "k={k}");
        }
    }

    #[test]
    fn lossy_wire_extends_gamma_and_infection() {
        let legacy = contained_params(4, 42, 2);
        let lossy = CommunityParams {
            distnet: DistNetParams::lossy(0.6, 0.0),
            ..legacy
        };
        let a = run(&legacy);
        let b = run(&lossy);
        let d = b.dist.expect("distnet outcome");
        let t0 = b.t0_tick.expect("producers contacted");
        // The legacy clock immunizes everyone the instant γ expires; a
        // wire dropping 60% of sends must take strictly longer to cover
        // the community, visible as extra simulated ticks...
        assert!(
            b.ticks > a.ticks,
            "loss must stretch the race: {} vs {} ticks",
            b.ticks,
            a.ticks
        );
        // ...and, when protection does complete, as an emergent γ above
        // the production γ. (Under heavy loss the run may end with some
        // already-infected consumers still unprotected, in which case
        // there is no completion tick to measure.)
        if let Some(g_eff) = d.gamma_effective(t0) {
            assert!(
                g_eff > legacy.gamma_ticks,
                "loss must stretch γ: {g_eff} vs {}",
                legacy.gamma_ticks
            );
        }
        assert!(
            b.infected >= a.infected,
            "a lossy wire cannot contain better than a perfect one"
        );
        let drops: u64 = d.shard_stats.iter().map(|s| s.drops).sum();
        let retries: u64 = d.shard_stats.iter().map(|s| s.retries).sum();
        assert!(drops > 0 && retries > 0, "the wire must actually be lossy");
    }

    #[test]
    fn byzantine_producers_trigger_quarantine_and_throttling() {
        let p = CommunityParams {
            distnet: DistNetParams::lossy(0.1, 0.4),
            ..contained_params(4, 42, 4)
        };
        let out = run(&p);
        let d = out.dist.as_ref().expect("distnet outcome");
        assert!(
            d.byzantine_producers > 0,
            "seed must pick Byzantine producers"
        );
        assert_eq!(d.deployed_unverified, 0, "I8: forgeries never deploy");
        let rejected: u64 = d.shard_stats.iter().map(|s| s.rejected).sum();
        let quarantines: u64 = d.shard_stats.iter().map(|s| s.quarantines).sum();
        assert!(rejected > 0, "forged bundles must be rejected");
        assert!(quarantines > 0, "rejections must quarantine senders");
        let m = out.metrics();
        assert_eq!(m.counter("distnet.quarantines"), quarantines);
        assert_eq!(m.counter("distnet.deployed_unverified"), 0);
    }

    #[test]
    fn distnet_counters_are_shard_count_invariant() {
        // PR-5 bugfix satellite: the per-host distribution counters are
        // attributed to the receiving host's shard and folded in shard
        // order by `metrics()`; a merge that leaked shard order or
        // shard topology into the counters would fail this.
        let base = CommunityParams {
            distnet: DistNetParams::lossy(0.35, 0.3),
            ..contained_params(5, 7, 1)
        };
        let serial = run(&base).metrics();
        const DIST: &[&str] = &[
            "distnet.sends",
            "distnet.retries",
            "distnet.drops",
            "distnet.dups",
            "distnet.delayed",
            "distnet.verified",
            "distnet.rejected",
            "distnet.quarantines",
            "distnet.skipped_quarantined",
            "distnet.late",
            "distnet.gave_up",
            "distnet.protected_blocks",
            "distnet.throttled_blocks",
            "distnet.deployed_unverified",
            "distnet.byzantine_producers",
            "distnet.protected_hosts",
        ];
        assert!(serial.counter("distnet.sends") > 0);
        for k in [2usize, 4, 8] {
            let m = run(&CommunityParams {
                parallelism: Parallelism::Fixed(k),
                ..base
            })
            .metrics();
            for name in EPI_SIM.iter().chain(DIST) {
                assert_eq!(m.counter(name), serial.counter(name), "{name} k={k}");
            }
        }
    }

    #[test]
    fn fractional_attempts_preserve_parity_too() {
        let base = CommunityParams {
            attempt_prob: 0.3,
            ..params(600, 0.01, 30, 1)
        };
        let serial = run(&base);
        let sharded = run(&CommunityParams {
            parallelism: Parallelism::Fixed(4),
            ..base
        });
        assert_eq!(essence(&serial), essence(&sharded));
    }

    #[test]
    fn failure_containment_slows_an_uncontained_worm() {
        // No producers, no distnet: the only brake is the estimator.
        // Proactive protection (ρ = 0.1) blocks 90% of exploits, so a
        // scanning source leaves ~0.9 failed connections per tick and
        // crosses the 32-slot flag threshold long before saturation.
        // Saturation must take strictly longer with containment on, and
        // the machinery must visibly engage.
        let open = CommunityParams {
            rho: 0.1,
            ..params(2_000, 0.0, 50, 2)
        };
        let contained = CommunityParams {
            failcont: FailContParams::standard(),
            ..open
        };
        let a = run(&open);
        let b = run(&contained);
        assert_eq!(a.infected, 2_000, "open worm saturates consumers");
        let f = b.failcont.expect("failcont outcome");
        assert!(f.flagged_sources > 0, "heavy failers must be flagged");
        assert!(f.suppressed_attempts > 0, "flagged sources must lose slots");
        assert!(f.failures_recorded > 0);
        assert!(f.bits_set > 0);
        assert!(
            b.ticks > a.ticks,
            "containment must slow saturation: {} vs {} ticks",
            b.ticks,
            a.ticks
        );
        assert!(a.failcont.is_none(), "knob off ⇒ no outcome block");
    }

    #[test]
    fn failcont_counters_are_shard_count_and_engine_invariant() {
        let base = CommunityParams {
            failcont: FailContParams::standard(),
            ..params(1_500, 0.01, 30, 1)
        };
        let serial = run(&base);
        let serial_m = serial.metrics();
        assert!(serial_m.counter("failcont.failures_recorded") > 0);
        const FC: &[&str] = &[
            "failcont.suppressed_attempts",
            "failcont.failures_recorded",
            "failcont.flagged_sources",
            "failcont.pool_bits_set",
        ];
        for k in [2usize, 4, 8] {
            let m = run(&CommunityParams {
                parallelism: Parallelism::Fixed(k),
                ..base
            })
            .metrics();
            for name in EPI_SIM.iter().chain(FC) {
                assert_eq!(m.counter(name), serial_m.counter(name), "{name} k={k}");
            }
        }
        for k in [1usize, 4] {
            let at = |engine| {
                run(&CommunityParams {
                    engine,
                    parallelism: Parallelism::Fixed(k),
                    ..base
                })
                .without_wall_clock()
            };
            let legacy = at(CommunityEngine::Legacy);
            assert_eq!(legacy.failcont, serial.failcont, "k={k}");
            assert_eq!(legacy, at(CommunityEngine::Soa), "k={k}");
        }
    }

    #[test]
    fn without_wall_clock_compares_every_computed_field() {
        // The I11 comparison: outcomes that differ only in wall-clock
        // fields compare equal, and any one engine counter breaks it.
        let a = run(&params(500, 0.01, 40, 2));
        let mut b = a.clone();
        for s in &mut b.shard_stats {
            s.generate_nanos += 123;
            s.apply_nanos += 45;
        }
        for t in &mut b.tick_stats {
            t.wall_nanos += 6;
        }
        assert_ne!(a, b, "the wall fields do differ");
        assert_eq!(
            a.clone().without_wall_clock(),
            b.clone().without_wall_clock()
        );
        let mut shard = b.clone();
        shard.shard_stats[1].events_received_cross += 1;
        assert_ne!(a.clone().without_wall_clock(), shard.without_wall_clock());
        let mut tick = b;
        tick.tick_stats[3].events_exchanged += 1;
        assert_ne!(a.without_wall_clock(), tick.without_wall_clock());
    }
}
