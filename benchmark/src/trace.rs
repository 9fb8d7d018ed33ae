//! The traced run: per-layer wall time, counts and ratios.
//!
//! Spans are recorded from this file, around the calls into each layer,
//! so no program code changes. For the fleet workloads that means
//! re-running `fleet::sim`'s event loop here through the fleet crate's
//! public pieces (`Reactor`, `LoadGen`, `ContactModel`) and `Sweeper`'s
//! public calls, with a timer around each call. The mirror folds the
//! same determinism digest as `fleet::run`; the caller compares the two,
//! so a change to the program's event flow that the mirror does not
//! follow fails loudly instead of tracing a different run.
//!
//! Spans (`name, start, end, parent, request`) stay in memory and are
//! written to a TSV file when the run ends. Operations too short to
//! time one by one without distorting them (reactor push/pop, request
//! generation) are summed into accumulators instead.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::time::Instant;

use antibody::CertifiedBundle;
use apps::workload::{Target, Workload};
use apps::{cvs, httpd1, httpd2, squid, App};
use epidemic::community::CommunityOutcome;
use epidemic::rng::{draw, draw_unit};
use epidemic::ContactModel;
use fleet::sim::{DOMAIN_FLEET, DOMAIN_WIRE};
use fleet::{FleetConfig, FleetOutcome, LoadGen, Reactor, COMMUNITY_KEY};
use obs::MetricsRegistry;
use svm::clock::{cycles_to_secs, secs_to_cycles};
use sweeper::{BundleOutcome, Config, LatencyBook, RequestOutcome, Sweeper};

use crate::stats::percentile;
use crate::workload::{community_rep, fleet_rep, fnv_fold, Arm, Rep, FNV_OFFSET};

/// Where traced runs write their spans.
pub const SPAN_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Which request a span served: host and arrival index (benign) or
/// worm-contact number.
#[derive(Debug, Clone, Copy)]
pub enum Req {
    Benign { host: u32, k: u64 },
    Worm { host: u32, contact: u64 },
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<Req>,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder on one monotonic clock.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        req: Option<Req>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, None)
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Durations (ns) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.ns() as f64)
            .collect()
    }

    /// Tab-separated spans, one per line, parents before children.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\tname\tstart_ns\tend_ns\trequest\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let req = match s.req {
                Some(Req::Benign { host, k }) => format!("{host}/{k}"),
                Some(Req::Worm { host, contact }) => format!("{host}/w{contact}"),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{req}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }

    /// Write the spans to `<SPAN_DIR>/spans-<workload>-seed<seed>.tsv`;
    /// a failure to write is reported, never fatal to the measurement.
    pub fn save(&self, workload: &str, seed: u64) {
        let path = format!("{SPAN_DIR}/spans-{workload}-seed{seed}.tsv");
        let res =
            std::fs::create_dir_all(SPAN_DIR).and_then(|()| std::fs::write(&path, self.to_tsv()));
        if let Err(e) = res {
            eprintln!("benchmark: could not write spans to {path}: {e}");
        }
    }
}

/// A count of calls and their summed wall time.
#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    calls: u64,
    ns: u64,
}

impl Acc {
    fn add(&mut self, start: u64, end: u64) {
        self.calls += 1;
        self.ns += end.saturating_sub(start);
    }
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// Sum of `v`; +0.0 when empty (`Iterator::sum` gives -0.0).
fn total(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |a, b| a + b)
}

/// Sum, p50 and p99 (µs) of a list of nanosecond durations.
fn dist(mut ns: Vec<f64>) -> (f64, f64, f64) {
    let sum = total(&ns);
    let p50 = percentile(&mut ns, 0.5).unwrap_or(0.0) / 1e3;
    let p99 = percentile(&mut ns, 0.99).unwrap_or(0.0) / 1e3;
    (sum, p50, p99)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

// ---------------------------------------------------------------------
// Fleet mirror. Everything below follows `fleet::sim` step for step;
// only the timers are new.
// ---------------------------------------------------------------------

struct PendingReq {
    bytes: Vec<u8>,
    arrival: u64,
    req: Req,
}

struct Host {
    sw: Sweeper,
    wl: Workload,
    queue: VecDeque<PendingReq>,
    busy: bool,
}

#[derive(Debug)]
enum Ev {
    Benign { k: u64 },
    Worm { contact: u64 },
    Complete,
    Drain,
    Deliver(Box<CertifiedBundle>),
}

/// Live-machine counters right after boot, so the layer numbers cover
/// the run and not the boot.
#[derive(Default)]
struct Baseline {
    insns: u64,
    syscalls: u64,
    icache_hits: u64,
    icache_misses: u64,
    sb_insns: u64,
    ckpt_taken: u64,
    ckpt_pages: u64,
    ckpt_cycles: u64,
}

impl Baseline {
    fn add(&mut self, sw: &Sweeper) {
        let m = &sw.machine;
        self.insns += m.insns_retired;
        self.syscalls += m.syscalls_retired;
        self.icache_hits += m.icache_stats().hits;
        self.icache_misses += m.icache_stats().misses;
        self.sb_insns += m.superblock_stats().insns;
        self.ckpt_taken += sw.mgr.taken_total;
        self.ckpt_pages += sw.mgr.pages_copied_total;
        self.ckpt_cycles += sw.mgr.overhead_cycles;
    }
}

/// Per-phase totals of the analysis pipeline's wall-mirrored spans.
#[derive(Default, Clone, Copy)]
struct Phase {
    wall_ns: f64,
    virt_ms: f64,
}

const PHASES: [(&str, &str); 4] = [
    ("pipeline.memory_state", "analysis.memory_state"),
    ("pipeline.memory_bug", "analysis.memory_bug"),
    ("pipeline.taint", "analysis.taint"),
    ("pipeline.slicing", "analysis.slicing"),
];

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
    interval_cycles: u64,
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
    // Tracing state.
    tr: Tracer,
    loop_span: Option<usize>,
    reactor_acc: Acc,
    workload_acc: Acc,
    drain_pages: u64,
    serve_virt_cycles: u64,
    analyzed: u64,
    compromised: u64,
    phases: [Phase; 4],
    base: Baseline,
}

impl Sim {
    fn boot(cfg: &FleetConfig, mut tr: Tracer, root: usize) -> Result<Sim, String> {
        let boot = tr.open("fleet.boot", Some(root));
        let build = tr.open("apps.build", Some(boot));
        let app = boot_app(cfg.target)?;
        let worm_input = exploit_input(cfg.target, &app);
        tr.close(build);
        let mut hosts = Vec::with_capacity(cfg.hosts as usize);
        let mut base = Baseline::default();
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
            let t0 = tr.now();
            let sw = Sweeper::protect(&app, conf)
                .map_err(|e| format!("fleet host {h} failed to boot: {e}"))?;
            let t1 = tr.now();
            tr.record("sweeper.protect", t0, t1, Some(boot), None);
            base.add(&sw);
            hosts.push(Host {
                sw,
                wl: Workload::new(cfg.target, hseed ^ 0x776c),
                queue: VecDeque::new(),
                busy: false,
            });
        }
        let mut sim = Sim {
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
            interval_cycles: secs_to_cycles(cfg.interval_ms as f64 / 1e3),
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
            tr,
            loop_span: None,
            reactor_acc: Acc::default(),
            workload_acc: Acc::default(),
            drain_pages: 0,
            serve_virt_cycles: 0,
            analyzed: 0,
            compromised: 0,
            phases: [Phase::default(); 4],
            base,
        };
        sim.tr.close(boot);
        Ok(sim)
    }

    fn schedule(&mut self, at: u64, host: u32, ev: Ev) {
        let t0 = self.tr.now();
        self.reactor.schedule(at, host, ev);
        let t1 = self.tr.now();
        self.reactor_acc.add(t0, t1);
    }

    fn drain(&mut self, h: u32) {
        let t0 = self.tr.now();
        let pages = self.hosts[h as usize].sw.drain_precopy();
        let t1 = self.tr.now();
        self.tr
            .record("checkpoint.drain", t0, t1, self.loop_span, None);
        self.drain_pages += pages as u64;
    }

    fn prime(&mut self) {
        for h in 0..self.cfg.hosts {
            let at = secs_to_cycles(self.lg.gap_secs(h, 0));
            if at <= self.horizon {
                self.schedule(at, h, Ev::Benign { k: 0 });
            }
            if self.interval_cycles <= self.horizon {
                self.schedule(self.interval_cycles, h, Ev::Drain);
            }
        }
        if self.outbreak_at.is_some() {
            let infection = self.next_infection;
            self.next_infection += 1;
            self.spawn_contacts(infection, self.outbreak_at.unwrap_or(0));
        }
    }

    fn spawn_contacts(&mut self, infection: u64, from: u64) {
        for (delay_secs, victim) in self.contact.burst(infection) {
            if self.contacts >= u64::from(self.cfg.contact_cap) {
                return;
            }
            let at = from + secs_to_cycles(delay_secs);
            if at > self.horizon {
                continue;
            }
            let contact = self.contacts;
            self.contacts += 1;
            self.schedule(at, victim as u32, Ev::Worm { contact });
        }
    }

    fn maybe_begin_service(&mut self, h: u32, t: u64) {
        let host = &mut self.hosts[h as usize];
        if host.busy {
            return;
        }
        let Some(req) = host.queue.pop_front() else {
            return;
        };
        host.busy = true;
        let spans_before = host.sw.obs.spans().len();
        let t0 = self.tr.now();
        let poll = host.sw.poll_offer(req.bytes);
        let t1 = self.tr.now();
        let done = t + poll.busy_cycles;
        self.digest = fnv_fold(
            fnv_fold(fnv_fold(self.digest, u64::from(h)), req.arrival),
            done,
        );
        let worm = matches!(req.req, Req::Worm { .. });
        match poll.outcome {
            RequestOutcome::Served { .. } | RequestOutcome::Filtered { .. } => {
                if matches!(poll.outcome, RequestOutcome::Served { .. }) {
                    self.served += 1;
                } else {
                    self.filtered += 1;
                }
                self.serve_virt_cycles += poll.busy_cycles;
                self.tr
                    .record("sweeper.serve", t0, t1, self.loop_span, Some(req.req));
            }
            RequestOutcome::Attack(report) => {
                self.attacks += 1;
                let span = self
                    .tr
                    .record("sweeper.attack", t0, t1, self.loop_span, Some(req.req));
                self.attack_children(h, spans_before, span, t0);
                if report.analysis.is_some() {
                    self.analyzed += 1;
                }
                if report.compromised {
                    self.compromised += 1;
                }
                if worm {
                    let infection = self.next_infection;
                    self.next_infection += 1;
                    self.spawn_contacts(infection, done);
                }
                if !self.bundle_sent {
                    if let Some(analysis) = report.analysis.as_ref() {
                        let c0 = self.tr.now();
                        let bundle = self.hosts[h as usize].sw.certify_antibody(
                            h,
                            0,
                            COMMUNITY_KEY,
                            &analysis.antibody,
                        );
                        let c1 = self.tr.now();
                        self.tr
                            .record("antibody.certify", c0, c1, self.loop_span, None);
                        if let Some(bundle) = bundle {
                            self.bundle_sent = true;
                            self.broadcast(h, done, &bundle);
                        }
                    }
                }
            }
        }
        if !worm {
            let ms = cycles_to_secs(done - req.arrival) * 1e3;
            let book = match self.outbreak_at {
                Some(outbreak) if req.arrival >= outbreak => &mut self.outbreak,
                _ => &mut self.quiescent,
            };
            book.add(done, ms);
        }
        self.schedule(done, h, Ev::Complete);
    }

    /// The analysis phases the attack call ran, read back from the
    /// host's wall-mirrored `pipeline.*` spans and laid end to end
    /// inside the attack span (their order is known, their exact start
    /// offsets are not).
    fn attack_children(&mut self, h: u32, spans_before: usize, parent: usize, start: u64) {
        let mut at = start;
        let new: Vec<(usize, u64, f64)> = self.hosts[h as usize].sw.obs.spans()[spans_before..]
            .iter()
            .filter_map(|s| {
                PHASES
                    .iter()
                    .position(|(src, _)| *src == s.name)
                    .map(|i| (i, s.wall_nanos, s.ms()))
            })
            .collect();
        for (i, wall, virt) in new {
            self.phases[i].wall_ns += wall as f64;
            self.phases[i].virt_ms += virt;
            self.tr
                .record(PHASES[i].1, at, at + wall, Some(parent), None);
            at += wall;
        }
    }

    fn broadcast(&mut self, from: u32, at: u64, bundle: &CertifiedBundle) {
        let (lo, hi) = self.cfg.wire_delay_ms;
        for dest in 0..self.cfg.hosts {
            if dest == from {
                continue;
            }
            let counter = (u64::from(from) << 32) | u64::from(dest);
            let u = draw_unit(self.wire_seed, DOMAIN_WIRE, counter);
            let delay = secs_to_cycles((lo + u * (hi - lo)) / 1e3);
            self.schedule(at + delay, dest, Ev::Deliver(Box::new(bundle.clone())));
        }
    }

    fn run(mut self, root: usize) -> (FleetOutcome, Tracer, BTreeMap<String, f64>) {
        self.loop_span = Some(self.tr.open("fleet.loop", Some(root)));
        self.prime();
        loop {
            let t0 = self.tr.now();
            let fired = self.reactor.pop();
            let t1 = self.tr.now();
            self.reactor_acc.add(t0, t1);
            let Some(fired) = fired else { break };
            let (t, h) = (fired.at_cycles, fired.host);
            match fired.payload {
                Ev::Benign { k } => {
                    let w0 = self.tr.now();
                    let bytes = self.hosts[h as usize].wl.next_request();
                    let w1 = self.tr.now();
                    self.workload_acc.add(w0, w1);
                    self.hosts[h as usize].queue.push_back(PendingReq {
                        bytes,
                        arrival: t,
                        req: Req::Benign { host: h, k },
                    });
                    let next = t + secs_to_cycles(self.lg.gap_secs(h, k + 1));
                    if next <= self.horizon {
                        self.schedule(next, h, Ev::Benign { k: k + 1 });
                    }
                    self.maybe_begin_service(h, t);
                }
                Ev::Worm { contact } => {
                    self.hosts[h as usize].queue.push_back(PendingReq {
                        bytes: self.worm_input.clone(),
                        arrival: t,
                        req: Req::Worm { host: h, contact },
                    });
                    self.maybe_begin_service(h, t);
                }
                Ev::Complete => {
                    self.hosts[h as usize].busy = false;
                    self.drain(h);
                    self.maybe_begin_service(h, t);
                }
                Ev::Drain => {
                    if !self.hosts[h as usize].busy {
                        self.drain(h);
                    }
                    let next = t + self.interval_cycles;
                    if next <= self.horizon {
                        self.schedule(next, h, Ev::Drain);
                    }
                }
                Ev::Deliver(bundle) => {
                    let v0 = self.tr.now();
                    let verdict = self.hosts[h as usize]
                        .sw
                        .receive_certified(&bundle, COMMUNITY_KEY);
                    let v1 = self.tr.now();
                    self.tr
                        .record("antibody.verify", v0, v1, self.loop_span, None);
                    match verdict {
                        BundleOutcome::Deployed { .. } => self.bundles_deployed += 1,
                        BundleOutcome::Rejected(_) => self.bundles_rejected += 1,
                        BundleOutcome::SenderQuarantined => {}
                    }
                }
            }
        }
        if let Some(l) = self.loop_span {
            self.tr.close(l);
        }
        self.finish(root)
    }

    fn finish(mut self, root: usize) -> (FleetOutcome, Tracer, BTreeMap<String, f64>) {
        let fin = self.tr.open("fleet.finish", Some(root));
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
        let export = self.tr.open("obs.export", Some(fin));
        let exported: Vec<MetricsRegistry> =
            self.hosts.iter().map(|h| h.sw.export_metrics()).collect();
        let metrics = MetricsRegistry::merge_all(&exported);
        self.tr.close(export);
        self.tr.close(fin);
        self.tr.close(root);
        let layers = self.layers(&metrics, root);
        let out = FleetOutcome {
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
        };
        (out, self.tr, layers)
    }

    fn layers(&self, m: &MetricsRegistry, root: usize) -> BTreeMap<String, f64> {
        let tr = &self.tr;
        let mut l = BTreeMap::new();
        let mut put = |k: &str, v: f64| {
            l.insert(k.to_string(), v);
        };
        let wall_ns = tr.spans[root].ns() as f64;
        let span_ns = |name: &str| total(&tr.durations(name));

        let (boot_ns, boot_p50, boot_p99) = dist(tr.durations("sweeper.protect"));
        put("fleet.boot.calls", f64::from(self.cfg.hosts));
        put("fleet.boot.wall_ms", ms(boot_ns));
        put("fleet.boot.p50_us", boot_p50);
        put("fleet.boot.p99_us", boot_p99);
        let build_ns = span_ns("apps.build");
        put("apps.build.wall_ms", ms(build_ns));

        let serve = tr.durations("sweeper.serve");
        let serve_calls = serve.len() as f64;
        let (serve_ns, serve_p50, serve_p99) = dist(serve);
        put("sweeper.serve.calls", serve_calls);
        put("sweeper.serve.wall_ms", ms(serve_ns));
        put("sweeper.serve.p50_us", serve_p50);
        put("sweeper.serve.p99_us", serve_p99);
        let serve_virt_ms = cycles_to_secs(self.serve_virt_cycles) * 1e3;
        put(
            "sweeper.serve.virt_per_wall",
            ratio(serve_virt_ms, ms(serve_ns)),
        );

        let b = &self.base;
        let insns = m.counter("svm.insns_retired").saturating_sub(b.insns) as f64;
        let hits = m.counter("svm.icache.hits").saturating_sub(b.icache_hits) as f64;
        let misses = m
            .counter("svm.icache.misses")
            .saturating_sub(b.icache_misses) as f64;
        let sb_insns = m.counter("svm.superblock.insns").saturating_sub(b.sb_insns) as f64;
        let attack = tr.durations("sweeper.attack");
        let attack_calls = attack.len() as f64;
        put("svm.insns", insns);
        put(
            "svm.insns_per_request",
            ratio(insns, serve_calls + attack_calls),
        );
        put("svm.serve_insns_per_s", ratio(insns, serve_ns / 1e9));
        put("svm.icache.hit_ratio", ratio(hits, hits + misses));
        put("svm.superblock.insn_share", ratio(sb_insns, insns));
        put(
            "svm.syscalls",
            m.counter("svm.syscalls_retired").saturating_sub(b.syscalls) as f64,
        );

        let drain = tr.durations("checkpoint.drain");
        put("checkpoint.drain.calls", drain.len() as f64);
        let drain_ns = total(&drain);
        put("checkpoint.drain.wall_ms", ms(drain_ns));
        put("checkpoint.drain.pages", self.drain_pages as f64);

        let (attack_ns, attack_p50, attack_p99) = dist(attack);
        let phase_ns: f64 = self.phases.iter().map(|p| p.wall_ns).sum();
        put("sweeper.attack.calls", attack_calls);
        put("sweeper.attack.analyzed", self.analyzed as f64);
        put("sweeper.attack.wall_ms", ms(attack_ns));
        put("sweeper.attack.self_ms", ms(attack_ns - phase_ns));
        put("sweeper.attack.p50_us", attack_p50);
        put("sweeper.attack.p99_us", attack_p99);
        put("sweeper.attack.compromised", self.compromised as f64);
        for (p, (_, name)) in self.phases.iter().zip(PHASES) {
            put(&format!("{name}.wall_ms"), ms(p.wall_ns));
            put(&format!("{name}.virt_ms"), p.virt_ms);
            put(
                &format!("{name}.virt_per_wall"),
                ratio(p.virt_ms, ms(p.wall_ns)),
            );
        }
        put(
            "dbi.vsef_events",
            m.counter("dbi.tool.vsef-runtime.events") as f64,
        );
        put(
            "dbi.virt_charged_ms",
            cycles_to_secs(m.counter("dbi.overhead.charged_cycles")) * 1e3,
        );

        put(
            "checkpoint.taken",
            m.counter("checkpoint.taken_total")
                .saturating_sub(b.ckpt_taken) as f64,
        );
        put(
            "checkpoint.pages_copied",
            m.counter("checkpoint.pages_copied_total")
                .saturating_sub(b.ckpt_pages) as f64,
        );
        let dedupe_hits = m.counter("checkpoint.dedupe_hits") as f64;
        let inserted = m.counter("checkpoint.store_inserted") as f64;
        put(
            "checkpoint.dedupe_ratio",
            ratio(dedupe_hits, dedupe_hits + inserted),
        );
        put(
            "checkpoint.virt_overhead_ms",
            cycles_to_secs(
                m.counter("checkpoint.overhead_cycles")
                    .saturating_sub(b.ckpt_cycles),
            ) * 1e3,
        );
        put(
            "checkpoint.domain_rollbacks",
            m.counter("checkpoint.domain_rollbacks") as f64,
        );
        put(
            "sweeper.recovery.domain_fallbacks",
            m.counter("recovery.domain_fallbacks") as f64,
        );

        let certify = tr.durations("antibody.certify");
        put("antibody.certify.calls", certify.len() as f64);
        let certify_ns = total(&certify);
        put("antibody.certify.wall_ms", ms(certify_ns));
        let verify = tr.durations("antibody.verify");
        put("antibody.verify.calls", verify.len() as f64);
        let (verify_ns, _, verify_p99) = dist(verify);
        put("antibody.verify.wall_ms", ms(verify_ns));
        put("antibody.verify.p99_us", verify_p99);
        put("antibody.verify.rejected", self.bundles_rejected as f64);

        put("fleet.reactor.ops", self.reactor_acc.calls as f64);
        put("fleet.reactor.wall_ms", ms(self.reactor_acc.ns as f64));
        let finish_ns = span_ns("fleet.finish");
        put("fleet.finish.wall_ms", ms(finish_ns));
        put("obs.export.wall_ms", ms(span_ns("obs.export")));
        put("apps.workload.wall_ms", ms(self.workload_acc.ns as f64));

        // Attribution: the leaf layers above, which do not overlap.
        let attributed = boot_ns
            + build_ns
            + serve_ns
            + attack_ns
            + drain_ns
            + certify_ns
            + verify_ns
            + self.reactor_acc.ns as f64
            + self.workload_acc.ns as f64
            + finish_ns;
        put("trace.wall_s", wall_ns / 1e9);
        put("trace.attributed_share", ratio(attributed, wall_ns));
        put("trace.residual_ms", ms(wall_ns - attributed));
        l
    }
}

/// The Table 1 guest behind a workload target.
pub fn boot_app(target: Target) -> Result<App, String> {
    match target {
        Target::Apache1 => httpd1::app(),
        Target::Apache2 => httpd2::app(),
        Target::Cvs => cvs::app(),
        Target::Squid => squid::app(),
    }
    .map_err(|e| format!("app boot ({target:?}): {e}"))
}

fn exploit_input(target: Target, app: &App) -> Vec<u8> {
    match target {
        Target::Apache1 => httpd1::exploit_crash(app).input,
        Target::Apache2 => httpd2::exploit_crash(app).input,
        Target::Cvs => cvs::exploit_crash(app).input,
        Target::Squid => squid::exploit_crash(app).input,
    }
}

/// One traced fleet repetition: the mirror's outcome goes through the
/// same checks as an untraced run, plus "no host was compromised".
pub fn fleet(cfg: &FleetConfig, outbreak: bool) -> (Rep, Option<Tracer>) {
    let mut tr = Tracer::new();
    let root = tr.open("rep", None);
    let sim = match Sim::boot(cfg, tr, root) {
        Ok(sim) => sim,
        Err(e) => return (fleet_rep(cfg, outbreak, Err(e), f64::NAN), None),
    };
    let (out, tr, layers) = sim.run(root);
    let wall_s = layers.get("trace.wall_s").copied().unwrap_or(f64::NAN);
    let mut rep = fleet_rep(cfg, outbreak, Ok(out), wall_s);
    let compromised = layers
        .get("sweeper.attack.compromised")
        .copied()
        .unwrap_or(0.0);
    rep.check(compromised == 0.0, || {
        format!("{compromised} attacks ran shellcode before detection")
    });
    rep.layers = layers;
    (rep, Some(tr))
}

/// One traced community repetition: a span per arm, tick and phase
/// times from the engine's own wall counters.
pub fn community(arms: &[Arm]) -> (Rep, Option<Tracer>) {
    let mut tr = Tracer::new();
    let root = tr.open("rep", None);
    let mut outs: Vec<CommunityOutcome> = Vec::new();
    let mut layers = BTreeMap::new();
    let mut ticks_ns: Vec<f64> = Vec::new();
    let (mut gen_ns, mut apply_ns) = (0.0, 0.0);
    for a in arms {
        let t0 = tr.now();
        let o = epidemic::community::run(&a.params);
        let t1 = tr.now();
        let name: &'static str = match a.name {
            "none" => "epidemic.none",
            "failest" => "epidemic.failest",
            _ => "epidemic.antibody-lossy",
        };
        tr.record(name, t0, t1, Some(root), None);
        let wall_ms = (t1 - t0) as f64 / 1e6;
        layers.insert(format!("{name}.wall_ms"), wall_ms);
        layers.insert(format!("{name}.ticks"), o.ticks as f64);
        layers.insert(
            format!("{name}.host_ticks_per_s"),
            ratio(a.params.hosts as f64 * o.ticks as f64, wall_ms / 1e3),
        );
        gen_ns += o
            .shard_stats
            .iter()
            .map(|s| s.generate_nanos as f64)
            .sum::<f64>();
        apply_ns += o
            .shard_stats
            .iter()
            .map(|s| s.apply_nanos as f64)
            .sum::<f64>();
        ticks_ns.extend(o.tick_stats.iter().map(|t| t.wall_nanos as f64));
        if let Some(d) = &o.dist {
            layers.insert(
                "epidemic.distnet.verified".into(),
                d.shard_stats.iter().map(|s| s.verified as f64).sum(),
            );
            layers.insert(
                "epidemic.distnet.rejected".into(),
                d.shard_stats.iter().map(|s| s.rejected as f64).sum(),
            );
        }
        if let Some(f) = &o.failcont {
            layers.insert(
                "epidemic.failcont.suppressed".into(),
                f.suppressed_attempts as f64,
            );
        }
        outs.push(o);
    }
    tr.close(root);
    let wall_ns = tr.spans[root].ns() as f64;
    let tick_total: f64 = ticks_ns.iter().sum();
    let (_, p50, p99) = dist(ticks_ns);
    layers.insert("epidemic.generate.wall_ms".into(), ms(gen_ns));
    layers.insert("epidemic.apply.wall_ms".into(), ms(apply_ns));
    layers.insert("epidemic.tick.p50_us".into(), p50);
    layers.insert("epidemic.tick.p99_us".into(), p99);
    // Attributed: time inside the engine's tick timers. The residual is
    // everything around them: state allocation, outcome assembly and
    // teardown.
    layers.insert("trace.wall_s".into(), wall_ns / 1e9);
    layers.insert("trace.attributed_share".into(), ratio(tick_total, wall_ns));
    layers.insert("trace.residual_ms".into(), ms(wall_ns - tick_total));
    let mut rep = community_rep(arms, &outs, wall_ns / 1e9);
    rep.layers = layers;
    (rep, Some(tr))
}
