//! The fleet simulation: thousands of guest [`Sweeper`] instances
//! multiplexed on one deterministic virtual-clock reactor.
//!
//! Each host is a full Sweeper-protected server. The reactor drives
//! four event kinds:
//!
//! - **Benign arrival** — open-loop Poisson client requests
//!   ([`crate::loadgen`]); each arrival chains the next one.
//! - **Worm arrival** — an exploit request delivered by the epidemic
//!   contact process ([`epidemic::contact`]). Seeded mid-run by
//!   patient-zero external scans at `outbreak_at_ms`.
//! - **Complete** — a host finished a service step and becomes idle;
//!   the next queued request starts. (The checkpoint pre-copy needs no
//!   event: each served request's own dirty-page walk interns its pages
//!   before `poll_offer` returns.)
//! - **Deliver** — a certified antibody bundle arriving from the first
//!   producer to complete analysis; the host replay-verifies before
//!   deploying ([`Sweeper::receive_certified`]).
//!
//! Service on each host is *sequential* (one request at a time; later
//! arrivals queue), but hosts overlap freely: while one host is paused
//! in rollback/replay/analysis — a single [`Sweeper::poll_offer`] call
//! whose `busy_cycles` covers the whole pause — every other host keeps
//! serving, and its queue depth converts the pause into tail latency.
//! That is exactly the fleet-wide p99/p999 shift the outbreak window
//! measures against the quiescent baseline.
//!
//! ## What the contact process models
//!
//! Under Sweeper every exploit delivery *fails* (ASLR makes the first
//! scan crash, detection fires, the host recovers); the worm never
//! acquires a host from which to scan. The branching contact process
//! here therefore models the *external* worm population's scan
//! pressure: each delivered-and-detected exploit spawns a bounded burst
//! of future contacts, approximating the outside epidemic's growth.
//! Once antibodies distribute, deliveries die at the proxy filter and
//! spawn nothing — the quench is visible as `filtered` overtaking
//! `attacks`.
//!
//! ## Determinism
//!
//! Every random quantity — arrival gaps, contact delays and victims,
//! wire delays, same-cycle tie-breaks — is a counter-PRNG draw keyed by
//! stable identities (host ids, arrival indices, infection numbers),
//! never by processing order or wall-clock anything. Infections are
//! numbered in reactor pop order, which the reactor derives from event
//! identity alone, so the same seed produces a bit-identical
//! [`FleetOutcome::digest`] across repeated runs (chaos invariant I10).

use std::collections::VecDeque;

use antibody::CertifiedBundle;
use apps::workload::{Target, Workload};
use apps::{cvs, httpd1, httpd2, squid, App};
use epidemic::rng::{draw, draw_unit};
use epidemic::ContactModel;
use obs::MetricsRegistry;
use svm::clock::{cycles_to_secs, secs_to_cycles};
use sweeper::{Config, LatencyBook, RecoveryMode, RequestOutcome, Sweeper};

use crate::loadgen::LoadGen;
use crate::reactor::Reactor;

/// Domain tag for deriving the fleet's sub-seeds (`"flt "`).
pub const DOMAIN_FLEET: u64 = 0x666c_7420;
/// Domain tag for antibody wire-propagation delays (`"wire"`).
pub const DOMAIN_WIRE: u64 = 0x7769_7265;

/// The shared community certification key every fleet host trusts.
pub const COMMUNITY_KEY: u64 = 0x5eed_f1ee_7c0d_e042;

/// Configuration of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Number of guest Sweeper hosts.
    pub hosts: u32,
    /// Inert: the reactor is one heap. Kept only so the `benchmark`
    /// package builds; ROADMAP item 3 deletes it with its caller.
    pub shards: usize,
    /// Master seed; every random stream derives from it.
    pub seed: u64,
    /// Which protected application the fleet runs.
    pub target: Target,
    /// Mean per-host benign arrival rate (requests per virtual second).
    pub arrival_rate_hz: f64,
    /// Virtual-time horizon: no new work is scheduled past this point
    /// (in-flight service still completes).
    pub horizon_ms: f64,
    /// When patient-zero scans hit, `None` for a quiescent-only run.
    pub outbreak_at_ms: Option<f64>,
    /// Every `producer_every`-th host is a producer (full analysis);
    /// the rest are consumers.
    pub producer_every: u32,
    /// Mean scan rate of the modelled external worm (contacts/sec).
    pub worm_rate_hz: f64,
    /// Contacts spawned per delivered infection.
    pub fanout: u32,
    /// Uniform `(min, max)` antibody wire delay in virtual ms.
    pub wire_delay_ms: (f64, f64),
    /// Per-host checkpoint interval, ms.
    pub interval_ms: u64,
    /// Hard cap on total worm contacts scheduled (keeps the branching
    /// process bounded above the horizon cutoff).
    pub contact_cap: u32,
    /// Post-attack recovery strategy every host runs. Domain (the
    /// default) is what keeps an attacked host's pause off its benign
    /// queue: the partial rollback restores service immediately and the
    /// analysis overlaps the queued requests
    /// ([`sweeper::PollOutcome::deferred_cycles`]).
    pub recovery: RecoveryMode,
}

impl FleetConfig {
    /// The benchmark configuration: `hosts` guests at `seed`, 1.5 Hz
    /// open-loop load, 1.5 s horizon with patient zero at 700 ms.
    pub fn new(hosts: u32, seed: u64) -> FleetConfig {
        FleetConfig {
            hosts,
            shards: 1,
            seed,
            target: Target::Apache1,
            arrival_rate_hz: 1.5,
            horizon_ms: 1500.0,
            outbreak_at_ms: Some(700.0),
            producer_every: 50,
            worm_rate_hz: 40.0,
            fanout: 3,
            wire_delay_ms: (5.0, 25.0),
            interval_ms: 200,
            contact_cap: 4 * hosts,
            recovery: RecoveryMode::Domain,
        }
    }

    /// A small, fast configuration for tests and the chaos harness.
    pub fn smoke(hosts: u32, seed: u64) -> FleetConfig {
        FleetConfig {
            horizon_ms: 600.0,
            outbreak_at_ms: Some(250.0),
            producer_every: 4,
            contact_cap: 2 * hosts,
            ..FleetConfig::new(hosts, seed)
        }
    }

    /// Same run with a different per-host recovery strategy.
    pub fn with_recovery(self, recovery: RecoveryMode) -> FleetConfig {
        FleetConfig { recovery, ..self }
    }
}

/// Aggregate result of one fleet run.
///
/// Deliberately free of wall-clock time: every field is a pure
/// function of the config, which is what makes the digest comparable
/// across runs.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Hosts simulated.
    pub hosts: u32,
    /// Master seed of the run.
    pub seed: u64,
    /// Requests served normally.
    pub served: u64,
    /// Requests dropped by deployed signatures.
    pub filtered: u64,
    /// Attacks detected (exploit deliveries that reached execution).
    pub attacks: u64,
    /// Worm contacts scheduled by the epidemic process.
    pub contacts: u64,
    /// Certified bundles verified and deployed fleet-wide.
    pub bundles_deployed: u64,
    /// Certified bundles rejected at verification.
    pub bundles_rejected: u64,
    /// Hosts holding at least one deployed antibody at the end.
    pub protected_hosts: u32,
    /// Benign service latency for requests arriving before the
    /// outbreak (or all requests when no outbreak was configured).
    pub quiescent: LatencyBook,
    /// Benign service latency for requests arriving at or after the
    /// outbreak instant.
    pub outbreak: LatencyBook,
    /// FNV-1a digest of every service completion (host, arrival,
    /// completion) in reactor order plus final per-host state in host
    /// order. Bit-identical across repeated runs.
    pub digest: u64,
    /// All hosts' metrics merged in host-index order
    /// ([`MetricsRegistry::merge_all`]): counters sum, gauges keep the
    /// highest-indexed host's value.
    pub metrics: MetricsRegistry,
}

/// One queued-but-unserved request on a host.
struct PendingReq {
    bytes: Vec<u8>,
    arrival: u64,
    worm: bool,
}

/// One guest host: the protected Sweeper, its client workload, and its
/// service queue.
struct Host {
    sw: Sweeper,
    wl: Workload,
    queue: VecDeque<PendingReq>,
    busy: bool,
}

/// Reactor event payloads.
#[derive(Debug)]
enum Ev {
    /// Benign arrival number `k` on its host (chains arrival `k + 1`).
    Benign { k: u64 },
    /// A worm exploit delivery.
    Worm,
    /// The host's in-flight service step finishes.
    Complete,
    /// A certified antibody bundle arrives.
    Deliver(Box<CertifiedBundle>),
}

/// FNV-1a (64-bit) fold of one u64, the same construction the chaos
/// harness uses (fleet cannot depend on `chaos` — chaos depends on
/// fleet — so the five-line primitive is restated here).
fn fnv_fold(h: u64, v: u64) -> u64 {
    let mut h = h;
    for b in v.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

struct Sim {
    cfg: FleetConfig,
    hosts: Vec<Host>,
    reactor: Reactor<Ev>,
    lg: LoadGen,
    contact: ContactModel,
    wire_seed: u64,
    worm_input: Vec<u8>,
    horizon: u64,
    outbreak_at: Option<u64>,
    next_infection: u64,
    bundle_sent: bool,
    served: u64,
    filtered: u64,
    attacks: u64,
    contacts: u64,
    bundles_deployed: u64,
    bundles_rejected: u64,
    quiescent: LatencyBook,
    outbreak: LatencyBook,
    digest: u64,
}

impl Sim {
    fn boot(cfg: &FleetConfig) -> Result<Sim, String> {
        let app = boot_app(cfg.target)?;
        let worm_input = exploit_input(cfg.target, &app);
        let mut hosts = Vec::with_capacity(cfg.hosts as usize);
        for h in 0..cfg.hosts {
            let hseed = draw(cfg.seed, DOMAIN_FLEET, 0x100 + u64::from(h));
            let producer = cfg.producer_every > 0 && h % cfg.producer_every == 0;
            let conf = if producer {
                Config::producer(hseed)
            } else {
                Config::consumer(hseed)
            }
            .with_interval_ms(cfg.interval_ms as f64)
            .with_recovery(cfg.recovery);
            let sw = Sweeper::protect(&app, conf)
                .map_err(|e| format!("fleet host {h} failed to boot: {e}"))?;
            hosts.push(Host {
                sw,
                wl: Workload::new(cfg.target, hseed ^ 0x776c),
                queue: VecDeque::new(),
                busy: false,
            });
        }
        Ok(Sim {
            hosts,
            reactor: Reactor::new(cfg.hosts, cfg.shards, draw(cfg.seed, DOMAIN_FLEET, 4)),
            lg: LoadGen {
                seed: draw(cfg.seed, DOMAIN_FLEET, 1),
                rate_per_sec: cfg.arrival_rate_hz,
            },
            contact: ContactModel {
                seed: draw(cfg.seed, DOMAIN_FLEET, 2),
                hosts: u64::from(cfg.hosts),
                rate_per_sec: cfg.worm_rate_hz,
                fanout: cfg.fanout,
            },
            wire_seed: draw(cfg.seed, DOMAIN_FLEET, 3),
            worm_input,
            horizon: secs_to_cycles(cfg.horizon_ms / 1e3),
            outbreak_at: cfg.outbreak_at_ms.map(|ms| secs_to_cycles(ms / 1e3)),
            next_infection: 0,
            bundle_sent: false,
            served: 0,
            filtered: 0,
            attacks: 0,
            contacts: 0,
            bundles_deployed: 0,
            bundles_rejected: 0,
            quiescent: LatencyBook::new(),
            outbreak: LatencyBook::new(),
            digest: FNV_OFFSET,
            cfg: *cfg,
        })
    }

    /// Seed the initial event population: each host's first benign
    /// arrival and patient zero's scans.
    fn prime(&mut self) {
        for h in 0..self.cfg.hosts {
            let at = secs_to_cycles(self.lg.gap_secs(h, 0));
            if at <= self.horizon {
                self.reactor.schedule(at, h, Ev::Benign { k: 0 });
            }
        }
        if self.outbreak_at.is_some() {
            let infection = self.next_infection;
            self.next_infection += 1;
            self.spawn_contacts(infection, self.outbreak_at.unwrap_or(0));
        }
    }

    /// Schedule the contact burst of infection event `infection`,
    /// starting from virtual time `from`.
    fn spawn_contacts(&mut self, infection: u64, from: u64) {
        for (delay_secs, victim) in self.contact.burst(infection) {
            if self.contacts >= u64::from(self.cfg.contact_cap) {
                return;
            }
            let at = from + secs_to_cycles(delay_secs);
            if at > self.horizon {
                continue;
            }
            self.contacts += 1;
            self.reactor.schedule(at, victim as u32, Ev::Worm);
        }
    }

    /// Start serving the host's next queued request, if it is idle and
    /// one is waiting.
    fn maybe_begin_service(&mut self, h: u32, t: u64) {
        let host = &mut self.hosts[h as usize];
        if host.busy {
            return;
        }
        let Some(req) = host.queue.pop_front() else {
            return;
        };
        host.busy = true;
        let poll = host.sw.poll_offer(req.bytes);
        let done = t + poll.busy_cycles;
        self.digest = fnv_fold(
            fnv_fold(fnv_fold(self.digest, u64::from(h)), req.arrival),
            done,
        );
        match poll.outcome {
            RequestOutcome::Served { .. } => self.served += 1,
            RequestOutcome::Filtered { .. } => self.filtered += 1,
            RequestOutcome::Attack(report) => {
                self.attacks += 1;
                if req.worm {
                    let infection = self.next_infection;
                    self.next_infection += 1;
                    self.spawn_contacts(infection, done);
                }
                if !self.bundle_sent {
                    if let Some(analysis) = report.analysis.as_ref() {
                        let bundle = self.hosts[h as usize].sw.certify_antibody(
                            h,
                            0,
                            COMMUNITY_KEY,
                            &analysis.antibody,
                        );
                        if let Some(bundle) = bundle {
                            self.bundle_sent = true;
                            self.broadcast(h, done, &bundle);
                        }
                    }
                }
            }
        }
        if !req.worm {
            let ms = cycles_to_secs(done - req.arrival) * 1e3;
            let book = match self.outbreak_at {
                Some(outbreak) if req.arrival >= outbreak => &mut self.outbreak,
                _ => &mut self.quiescent,
            };
            book.add(done, ms);
        }
        self.reactor.schedule(done, h, Ev::Complete);
    }

    /// Fan the first certified bundle out to every other host with a
    /// per-destination wire delay.
    fn broadcast(&mut self, from: u32, at: u64, bundle: &CertifiedBundle) {
        let (lo, hi) = self.cfg.wire_delay_ms;
        for dest in 0..self.cfg.hosts {
            if dest == from {
                continue;
            }
            let counter = (u64::from(from) << 32) | u64::from(dest);
            let u = draw_unit(self.wire_seed, DOMAIN_WIRE, counter);
            let delay = secs_to_cycles((lo + u * (hi - lo)) / 1e3);
            self.reactor
                .schedule(at + delay, dest, Ev::Deliver(Box::new(bundle.clone())));
        }
    }

    fn run(mut self) -> FleetOutcome {
        self.prime();
        while let Some(fired) = self.reactor.pop() {
            let (t, h) = (fired.at_cycles, fired.host);
            match fired.payload {
                Ev::Benign { k } => {
                    let bytes = self.hosts[h as usize].wl.next_request();
                    self.hosts[h as usize].queue.push_back(PendingReq {
                        bytes,
                        arrival: t,
                        worm: false,
                    });
                    let next = t + secs_to_cycles(self.lg.gap_secs(h, k + 1));
                    if next <= self.horizon {
                        self.reactor.schedule(next, h, Ev::Benign { k: k + 1 });
                    }
                    self.maybe_begin_service(h, t);
                }
                Ev::Worm => {
                    self.hosts[h as usize].queue.push_back(PendingReq {
                        bytes: self.worm_input.clone(),
                        arrival: t,
                        worm: true,
                    });
                    self.maybe_begin_service(h, t);
                }
                Ev::Complete => {
                    self.hosts[h as usize].busy = false;
                    self.maybe_begin_service(h, t);
                }
                Ev::Deliver(bundle) => {
                    match self.hosts[h as usize]
                        .sw
                        .receive_certified(&bundle, COMMUNITY_KEY)
                    {
                        sweeper::BundleOutcome::Deployed { .. } => self.bundles_deployed += 1,
                        sweeper::BundleOutcome::Rejected(_) => self.bundles_rejected += 1,
                        sweeper::BundleOutcome::SenderQuarantined => {}
                    }
                }
            }
        }
        self.finish()
    }

    fn finish(mut self) -> FleetOutcome {
        let mut protected = 0u32;
        for host in &self.hosts {
            let s = host.sw.status();
            if s.deployed_signatures > 0 || s.deployed_vsefs > 0 {
                protected += 1;
            }
            for v in [
                s.requests_served,
                s.requests_sampled,
                s.attacks_detected,
                s.requests_filtered,
                s.deployed_vsefs as u64,
                s.deployed_signatures as u64,
                s.checkpoints_retained as u64,
                s.checkpoints_taken,
                host.sw.machine.clock.cycles(),
            ] {
                self.digest = fnv_fold(self.digest, v);
            }
        }
        let exported: Vec<MetricsRegistry> =
            self.hosts.iter().map(|h| h.sw.export_metrics()).collect();
        let metrics = MetricsRegistry::merge_all(&exported);
        FleetOutcome {
            hosts: self.cfg.hosts,
            seed: self.cfg.seed,
            served: self.served,
            filtered: self.filtered,
            attacks: self.attacks,
            contacts: self.contacts,
            bundles_deployed: self.bundles_deployed,
            bundles_rejected: self.bundles_rejected,
            protected_hosts: protected,
            quiescent: self.quiescent,
            outbreak: self.outbreak,
            digest: self.digest,
            metrics,
        }
    }
}

fn boot_app(target: Target) -> Result<App, String> {
    match target {
        Target::Apache1 => httpd1::app(),
        Target::Apache2 => httpd2::app(),
        Target::Cvs => cvs::app(),
        Target::Squid => squid::app(),
    }
    .map_err(|e| format!("fleet app boot ({target:?}): {e}"))
}

fn exploit_input(target: Target, app: &App) -> Vec<u8> {
    match target {
        Target::Apache1 => httpd1::exploit_crash(app).input,
        Target::Apache2 => httpd2::exploit_crash(app).input,
        Target::Cvs => cvs::exploit_crash(app).input,
        Target::Squid => squid::exploit_crash(app).input,
    }
}

/// Run one fleet simulation to completion.
pub fn run(cfg: &FleetConfig) -> Result<FleetOutcome, String> {
    Ok(Sim::boot(cfg)?.run())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_fleet_serves_everything() {
        let cfg = FleetConfig {
            outbreak_at_ms: None,
            ..FleetConfig::smoke(4, 11)
        };
        let out = run(&cfg).expect("fleet runs");
        assert!(out.served > 0, "{out:?}");
        assert_eq!(out.attacks, 0);
        assert_eq!(out.contacts, 0);
        assert!(out.outbreak.is_empty());
        assert_eq!(out.quiescent.len() as u64, out.served);
        assert!(out.quiescent.percentile(0.5).expect("p50") > 0.0);
    }

    #[test]
    fn outbreak_detects_spreads_and_quenches() {
        let out = run(&FleetConfig::smoke(6, 3)).expect("fleet runs");
        assert!(out.attacks > 0, "patient zero lands: {out:?}");
        assert!(out.contacts > 0, "detections spawn scan pressure");
        assert_eq!(out.bundles_rejected, 0);
        assert!(out.bundles_deployed > 0, "first producer broadcasts");
        assert!(
            out.protected_hosts > 1,
            "antibody reached beyond the producer: {out:?}"
        );
    }

    #[test]
    fn domain_recovery_keeps_the_analysis_pause_off_the_queue() {
        // Same seed, same outbreak, only the recovery strategy differs.
        // Under Full recovery an attacked producer stalls its whole
        // queue behind detect→rollback→replay→analysis; under Domain
        // recovery the partial rollback restores the benign connections
        // first and the analysis overlaps the queue, so the outbreak
        // tail collapses.
        let cfg = FleetConfig {
            // Dense enough load that benign requests queue behind an
            // attacked host's pause, and every host a producer so the
            // attacked host itself pays the analysis.
            arrival_rate_hz: 25.0,
            producer_every: 1,
            ..FleetConfig::smoke(8, 5)
        };
        let dom = run(&cfg).expect("domain run");
        let full = run(&cfg.with_recovery(RecoveryMode::Full)).expect("full run");
        assert!(dom.attacks > 0 && full.attacks > 0, "outbreak landed");
        assert!(
            dom.metrics.counter("recovery.domain_rollbacks") > 0,
            "partial rollbacks ran"
        );
        assert_eq!(full.metrics.counter("recovery.domain_rollbacks"), 0);
        assert_eq!(dom.metrics.counter("recovery.i12_violations"), 0, "I12");
        let d999 = dom.outbreak.percentile(0.999).expect("domain outbreak");
        let f999 = full.outbreak.percentile(0.999).expect("full outbreak");
        assert!(
            d999 < f999,
            "domain tail must beat full: {d999:.3} vs {f999:.3} ms"
        );
    }

    #[test]
    fn same_seed_same_digest() {
        let base = FleetConfig::smoke(5, 7);
        let one = run(&base).expect("run");
        let again = run(&base).expect("run");
        assert_eq!(one.digest, again.digest, "repeat runs are bit-identical");
        assert_eq!(one.served, again.served);
        assert_eq!(one.attacks, again.attacks);
        let other = run(&FleetConfig::smoke(5, 8)).expect("run");
        assert_ne!(one.digest, other.digest, "seed changes the run");
    }
}
