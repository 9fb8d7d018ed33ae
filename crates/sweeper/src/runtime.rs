//! The Sweeper runtime: a protected server process end to end.
//!
//! Wraps a guest server with the full defence loop of paper §2.1:
//! lightweight monitoring (ASLR faults + deployed VSEFs), periodic
//! lightweight checkpoints, signature filtering at the proxy, post-attack
//! analysis via the [`pipeline`](crate::pipeline), antibody deployment,
//! and rollback-based recovery (falling back to restart).

use std::sync::Arc;

use analysis::TaintTool;
use antibody::{
    verify_with_sandbox, Antibody, AntibodyItem, CertifiedBundle, CertifyError, SignatureSet,
    VsefRuntime, VsefSpec,
};
use apps::App;
use checkpoint::{
    recover, recover_domain, recovery_digest, CheckpointManager, CkptId, InputFilter, Proxy,
    RecoveryKind, RecoveryOutcome, ResumeReport,
};
use dbi::{Instrumenter, ToolId};
use svm::clock::cycles_to_secs;
use svm::hook::Pair;
use svm::loader::Layout;
use svm::rng::XorShift64;
use svm::{Machine, Status};

use crate::error::SweeperError;

use crate::config::{Config, RecoveryMode, Role};
use crate::fault::{FaultHooks, NoFaultHooks};
use crate::pipeline::{analyze_attack, AnalysisReport, RESTART_CYCLES};
use crate::timeline::{Event, Timeline};

/// Outcome of offering one request to a protected server.
#[derive(Debug)]
pub enum RequestOutcome {
    /// Served normally; response bytes released.
    Served {
        /// Proxy log id.
        log_id: usize,
        /// Released bytes.
        bytes: usize,
    },
    /// Dropped by a deployed input signature.
    Filtered {
        /// Proxy log id.
        log_id: usize,
    },
    /// An attack was detected (and, for producers, analyzed + recovered).
    Attack(Box<AttackReport>),
}

/// Outcome of one reactor-driven service step (see
/// [`Sweeper::poll_offer`]): the request outcome plus how much virtual
/// host time the step consumed, so an external scheduler can advance
/// its own clock without reaching into the machine.
#[derive(Debug)]
pub struct PollOutcome {
    /// What happened to the request.
    pub outcome: RequestOutcome,
    /// Virtual cycles of host busy time the step consumed: service,
    /// any due checkpoint, and — when the request was an attack — the
    /// part of the analysis/recovery pause that actually blocks the
    /// service queue. Zero-cost steps (a request dropped at the proxy
    /// filter) report 0.
    pub busy_cycles: u64,
    /// Virtual cycles of attack-handling work that does **not** block
    /// the service queue: after a successful domain rollback the benign
    /// connections are already restored, so the heavyweight analysis
    /// runs concurrently with the host's own queued requests. Always 0
    /// for non-attack steps and for full (rollback+replay or restart)
    /// recoveries, whose pause genuinely stalls the queue.
    pub deferred_cycles: u64,
}

/// Everything Sweeper did about one attack.
#[derive(Debug)]
pub struct AttackReport {
    /// What tripped: `fault: ...` or `vsef: ...`.
    pub cause: String,
    /// The analysis output (None for consumers, which do not analyze).
    pub analysis: Option<AnalysisReport>,
    /// How service was restored.
    pub recovery_method: &'static str,
    /// Service pause in virtual milliseconds (analysis + recovery).
    pub pause_ms: f64,
    /// Of the pause, virtual cycles that overlap queued benign service
    /// instead of stalling it: the analysis phase, when (and only when)
    /// recovery was a partial domain rollback. See
    /// [`PollOutcome::deferred_cycles`].
    pub deferred_cycles: u64,
    /// Whether the attacker's shellcode ran before detection (should
    /// always be false for ASLR misses; true means compromise).
    pub compromised: bool,
}

/// What caught an attack. It decides only how [`Sweeper::handle_attack`]
/// obtains the antibody and the drop set; recovery is shared.
enum Detection {
    /// A lightweight monitor: an ASLR fault or an anomalous exit.
    /// Producers analyze the attack.
    Monitor,
    /// A deployed VSEF: the vulnerability is already known, so nobody
    /// re-analyzes it.
    Vsef,
    /// A §4.2 sampling taint alert on connection `log_id`, carrying the
    /// antibody built from the sampling tool's findings. Its drop set is
    /// that connection alone, and it stays out of the Polygraph sample
    /// corpus.
    Sampled {
        /// Proxy log id of the sampled connection.
        log_id: usize,
        /// The taint-derived antibody.
        antibody: Antibody,
    },
}

/// Outcome of receiving one certified antibody bundle from the
/// community distribution network (see [`Sweeper::receive_certified`]).
#[derive(Debug)]
pub enum BundleOutcome {
    /// The bundle passed both the cheap certification check and the
    /// sandboxed exploit replay; its antibody is now deployed.
    Deployed {
        /// VSEFs deployed after this bundle (cumulative).
        vsefs: usize,
        /// Signatures deployed after this bundle (cumulative).
        signatures: usize,
    },
    /// The sending producer was already quarantined: the bundle was
    /// dropped without being verified (quarantine is sticky).
    SenderQuarantined,
    /// Verification failed; the sender is now quarantined and nothing
    /// was deployed (invariant I8: verify-before-deploy).
    Rejected(CertifyError),
}

/// Operator-facing summary of a protected host (see [`Sweeper::status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HostStatus {
    /// Protected application name.
    pub app: String,
    /// Global virtual uptime in seconds.
    pub uptime_secs: f64,
    /// Requests served.
    pub requests_served: u64,
    /// Requests run under §4.2 sampling.
    pub requests_sampled: u64,
    /// Attacks detected (faults, VSEF hits, sampling hits, anomalies).
    pub attacks_detected: u64,
    /// Requests dropped at the proxy by signatures.
    pub requests_filtered: u64,
    /// Deployed VSEF count.
    pub deployed_vsefs: usize,
    /// Deployed signature count.
    pub deployed_signatures: usize,
    /// Checkpoints currently retained.
    pub checkpoints_retained: usize,
    /// Checkpoints taken over the host's lifetime.
    pub checkpoints_taken: u64,
    /// Whether the protected process is currently serviceable.
    pub healthy: bool,
}

impl core::fmt::Display for HostStatus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "{} [{}] up {:.2}s: {} served ({} sampled), {} attacks, {} filtered",
            self.app,
            if self.healthy { "healthy" } else { "DOWN" },
            self.uptime_secs,
            self.requests_served,
            self.requests_sampled,
            self.attacks_detected,
            self.requests_filtered,
        )?;
        write!(
            f,
            "antibodies: {} VSEFs, {} signatures; checkpoints: {}/{} retained",
            self.deployed_vsefs,
            self.deployed_signatures,
            self.checkpoints_retained,
            self.checkpoints_taken,
        )
    }
}

struct SigFilter<'a>(&'a SignatureSet);

impl InputFilter for SigFilter<'_> {
    fn blocks(&self, input: &[u8]) -> bool {
        self.0.matches(input)
    }
    fn name(&self) -> &str {
        "signature-set"
    }
}

/// A Sweeper-protected server instance.
pub struct Sweeper {
    /// Application name.
    pub app_name: String,
    /// The protected program, shared with its [`App`].
    program: Arc<svm::asm::Program>,
    /// The live protected machine.
    pub machine: Machine,
    /// Checkpoint storage/policy.
    pub mgr: CheckpointManager,
    /// Logging/filtering proxy.
    pub proxy: Proxy,
    /// Deployed input signatures.
    pub signatures: SignatureSet,
    vsef_instr: Instrumenter,
    vsef_id: ToolId,
    /// Monotone global event log.
    pub timeline: Timeline,
    /// Metrics and tracing for this host: `pipeline.*` phase spans (the
    /// Table 3 source of truth), `sweeper.*` / `recovery.*` counters.
    /// Layer-local counters (svm, dbi, checkpoint, proxy) are merged in
    /// on demand by [`Sweeper::export_metrics`].
    pub obs: obs::MetricsRegistry,
    /// Configuration.
    pub config: Config,
    /// Attacks detected so far.
    pub attacks_detected: u64,
    /// Requests served so far.
    pub requests_served: u64,
    /// Requests that were run under full sampling instrumentation (§4.2).
    pub requests_sampled: u64,
    sample_rng: XorShift64,
    /// Monotone count of post-attack re-randomizations (restart boots).
    ///
    /// Mixed into the ASLR reseed so repeated rollback/restart cycles
    /// can never re-derive a previously used layout, which the old
    /// `seed + attacks_detected` arithmetic could (it repeated whenever
    /// the detection count didn't change between restarts, and collided
    /// with neighbouring hosts' boot seeds).
    rerandomizations: u64,
    /// Exploit inputs captured so far (one per detected attack); when
    /// VSEFs catch polymorphic variants of a vulnerability, these samples
    /// feed token-sequence signature generalization (Polygraph-style,
    /// paper §3.3 "Polymorphic signatures are also feasible").
    attack_samples: Vec<Vec<u8>>,
    /// Fault-injection hooks ([`NoFaultHooks`] in production): the seam
    /// the `chaos` harness uses to perturb attack handling. See
    /// [`crate::fault`].
    fault_hooks: Box<dyn FaultHooks>,
    /// Producers whose certified bundles failed verification: every
    /// later bundle they send is dropped unexamined.
    quarantined_producers: Vec<u32>,
}

impl Sweeper {
    /// Protect an application.
    ///
    /// Failures (bad program image, boot fault) surface as
    /// [`SweeperError`] so callers — notably the community campaign,
    /// which boots whole populations — can skip a bad host instead of
    /// aborting.
    pub fn protect(app: &App, config: Config) -> Result<Sweeper, SweeperError> {
        let mut machine = app.boot(config.aslr)?;
        machine.mem.nx = config.nx;
        let mgr = CheckpointManager::new(config.checkpoint_interval, config.retained_checkpoints)
            .with_engine(config.checkpoint_engine);
        let mut vsef_instr = Instrumenter::new();
        let vsef_id = vsef_instr.attach(Box::new(VsefRuntime::new(Vec::new())));
        let mut s = Sweeper {
            app_name: app.name.to_string(),
            program: Arc::clone(&app.program),
            machine,
            mgr,
            proxy: Proxy::new(),
            signatures: SignatureSet::new(),
            vsef_instr,
            vsef_id,
            timeline: Timeline::new(),
            obs: obs::MetricsRegistry::new(),
            sample_rng: XorShift64::new(config.aslr.seed ^ 0x5a3b_17ee),
            config,
            attacks_detected: 0,
            requests_served: 0,
            requests_sampled: 0,
            rerandomizations: 0,
            attack_samples: Vec::new(),
            fault_hooks: Box::new(NoFaultHooks),
            quarantined_producers: Vec::new(),
        };
        // Boot to quiescence and take the initial checkpoint.
        s.run_until_idle();
        let id = s.mgr.take(&mut s.machine);
        s.sync_time();
        s.timeline.record(Event::Checkpoint { id: id.0 });
        Ok(s)
    }

    /// Install fault-injection hooks (the `chaos` harness's seam into
    /// attack handling). Production code never calls this; with no hooks
    /// installed every fault seam is a no-op.
    pub fn set_fault_hooks(&mut self, hooks: Box<dyn FaultHooks>) {
        self.fault_hooks = hooks;
    }

    /// Deploy an antibody, passing it through the in-transit corruption
    /// fault seam first: the hook may hand back damaged serialized bytes,
    /// which the runtime then decodes as what "arrived". A corrupted
    /// bundle is rejected — surfaced as a
    /// [`SweeperError::CorruptAntibody`] on the timeline and counted in
    /// `sweeper.antibody_corrupt_total` — and never partially deployed.
    fn deploy_antibody_faulted(&mut self, antibody: &Antibody) {
        match self.fault_hooks.corrupt_antibody(antibody) {
            None => self.deploy_antibody(antibody),
            Some(bytes) => match Antibody::from_bytes(&bytes) {
                Ok(ab) => self.deploy_antibody(&ab),
                Err(e) => {
                    let err = SweeperError::from(e);
                    self.obs.inc("sweeper.antibody_corrupt_total", 1);
                    self.timeline.record(Event::AntibodyReleased {
                        what: format!("rejected: {err}"),
                    });
                }
            },
        }
    }

    /// Deploy an antibody received from the community (or produced
    /// locally): signatures to the proxy filter, VSEFs (rebased from the
    /// nominal distribution layout to this host's layout) to the
    /// instrumenter.
    pub fn deploy_antibody(&mut self, antibody: &Antibody) {
        for sig in antibody.signatures().all() {
            self.signatures.add(sig.clone());
        }
        let nominal = Layout::nominal();
        let host = self.machine.layout;
        let existing: Vec<VsefSpec> = self
            .vsef_instr
            .get::<VsefRuntime>(self.vsef_id)
            .map(|v| v.specs().to_vec())
            .unwrap_or_default();
        if let Some(rt) = self.vsef_instr.get_mut::<VsefRuntime>(self.vsef_id) {
            for spec in antibody.vsefs() {
                let rebased = spec.rebase(&nominal, &host);
                if !existing.contains(&rebased) {
                    rt.add(rebased);
                }
            }
        }
        self.vsef_instr.refresh(self.vsef_id);
    }

    /// Seal this host's antibody into a certified bundle for the
    /// community distribution network (paper §3.3 "Distribution").
    ///
    /// `producer` is this host's community id, `seq` a per-producer
    /// sequence number, `key` the shared community certification key.
    /// Returns `None` when the antibody carries no exploit-triggering
    /// input — an antibody without evidence cannot be certified, because
    /// receivers could never replay-verify it.
    pub fn certify_antibody(
        &mut self,
        producer: u32,
        seq: u64,
        key: u64,
        antibody: &Antibody,
    ) -> Option<CertifiedBundle> {
        let bundle = CertifiedBundle::seal(producer, seq, antibody, key)?;
        self.obs.inc("sweeper.bundles_certified", 1);
        self.timeline.record(Event::AntibodyReleased {
            what: format!("certified bundle producer={producer} seq={seq}"),
        });
        Some(bundle)
    }

    /// Receive one certified bundle from the community: verify before
    /// deploy.
    ///
    /// The bundle first passes the cheap certification check (tag,
    /// fail-closed decode, evidence consistency), then a **sandboxed
    /// exploit replay** ([`verify_with_sandbox`]): a fresh randomized
    /// instance of this host's program is attacked with the bundled
    /// evidence and the bundle's own VSEFs/signatures must detect it.
    /// Only then is the antibody deployed. A failing bundle quarantines
    /// its sender: later bundles from that producer are dropped without
    /// examination. Counters: `sweeper.bundles_verified`,
    /// `sweeper.bundles_rejected`, `sweeper.bundles_quarantine_dropped`,
    /// `sweeper.producers_quarantined`.
    pub fn receive_certified(&mut self, bundle: &CertifiedBundle, key: u64) -> BundleOutcome {
        if self.quarantined_producers.contains(&bundle.producer) {
            self.obs.inc("sweeper.bundles_quarantine_dropped", 1);
            return BundleOutcome::SenderQuarantined;
        }
        let sandbox_seed = self.config.aslr.seed ^ bundle.seq.rotate_left(17) ^ 0x5eed_ab1e;
        match verify_with_sandbox(&self.program, bundle, key, sandbox_seed) {
            Ok(antibody) => {
                self.deploy_antibody(&antibody);
                self.obs.inc("sweeper.bundles_verified", 1);
                self.timeline.record(Event::AntibodyReleased {
                    what: format!(
                        "verified+deployed bundle producer={} seq={}",
                        bundle.producer, bundle.seq
                    ),
                });
                BundleOutcome::Deployed {
                    vsefs: self.deployed_vsefs(),
                    signatures: self.signatures.len(),
                }
            }
            Err(e) => {
                self.obs.inc("sweeper.bundles_rejected", 1);
                self.obs.inc("sweeper.producers_quarantined", 1);
                self.quarantined_producers.push(bundle.producer);
                self.timeline.record(Event::AntibodyReleased {
                    what: format!(
                        "rejected bundle producer={} seq={}: {e} (sender quarantined)",
                        bundle.producer, bundle.seq
                    ),
                });
                BundleOutcome::Rejected(e)
            }
        }
    }

    /// Producers this host has quarantined so far.
    pub fn quarantined_producers(&self) -> &[u32] {
        &self.quarantined_producers
    }

    /// Deployed VSEF count.
    pub fn deployed_vsefs(&self) -> usize {
        self.vsef_instr
            .get::<VsefRuntime>(self.vsef_id)
            .map(|v| v.specs().len())
            .unwrap_or(0)
    }

    /// Advance the global timeline to the machine's clock.
    fn sync_time(&mut self) {
        self.timeline.advance_to(self.machine.clock.cycles());
    }

    /// Run the machine until it blocks (idle on `accept`, or waiting on
    /// a read), halts, faults, or a deployed VSEF fires: a detection
    /// stops the run right after the detecting instruction.
    fn run_until_idle(&mut self) -> Status {
        let status = self.machine.run(&mut self.vsef_instr, u64::MAX);
        self.vsef_instr.charge(&mut self.machine);
        self.sync_time();
        status
    }

    /// Offer one client request to the protected server.
    pub fn offer_request(&mut self, input: Vec<u8>) -> RequestOutcome {
        // Checkpoint if due (taken at request boundaries, like Rx).
        if self.mgr.due(&self.machine) {
            let id = self.mgr.take(&mut self.machine);
            self.sync_time();
            self.timeline.record(Event::Checkpoint { id: id.0 });
        }
        let filter = SigFilter(&self.signatures);
        let (log_id, delivered) =
            self.proxy
                .offer(&mut self.machine, input, &[&filter as &dyn InputFilter]);
        if !delivered {
            self.timeline.record(Event::RequestFiltered { log_id });
            return RequestOutcome::Filtered { log_id };
        }
        // §4.2 sampling: run this request under full taint analysis with
        // probability `sample_rate`. The sampled path catches attacks the
        // probabilistic monitors can miss (a worm that guessed the
        // layout), *before* the tainted control transfer executes.
        let sampled =
            self.config.sample_rate > 0.0 && self.sample_rng.next_f64() < self.config.sample_rate;
        let status = if sampled {
            self.requests_sampled += 1;
            match self.run_sampled(log_id) {
                Ok(status) => status,
                Err(report) => return RequestOutcome::Attack(report),
            }
        } else {
            self.run_until_idle()
        };
        let vsef_detection = self
            .vsef_instr
            .get_mut::<VsefRuntime>(self.vsef_id)
            .map(|v| v.take_detections())
            .unwrap_or_default();
        if let Some(d) = vsef_detection.first() {
            let cause = format!("vsef: {} at {:#010x} ({})", d.vsef_kind, d.pc, d.detail);
            return RequestOutcome::Attack(Box::new(self.handle_attack(cause, Detection::Vsef)));
        }
        match status {
            Status::Faulted(f) => {
                let cause = format!("fault: {f}");
                RequestOutcome::Attack(Box::new(self.handle_attack(cause, Detection::Monitor)))
            }
            Status::Halted(code) => {
                // A server process has no legitimate reason to exit while
                // serving: treat an unexpected exit (e.g. shellcode
                // calling exit) as an anomaly and recover.
                let cause = format!("anomaly: server exited with code {code:#x}");
                RequestOutcome::Attack(Box::new(self.handle_attack(cause, Detection::Monitor)))
            }
            _ => {
                let released = self.proxy.release_outputs(&self.machine);
                let bytes: usize = released.iter().map(|(_, b)| b.len()).sum();
                self.requests_served += 1;
                // The one dirty-page walk of this request: attribute its
                // pages to its own rollback domain, pre-copy them into
                // the pending delta (background work, never charged to
                // the service clock, so the next snapshot instant pays
                // only for pages dirtied since), and advance the service
                // boundary: the idle state a later partial rollback
                // restores to.
                self.mgr.note_service(&mut self.machine, log_id as u32);
                self.timeline.record(Event::RequestServed { log_id, bytes });
                RequestOutcome::Served { log_id, bytes }
            }
        }
    }

    /// Offer one request without blocking the caller's scheduler: the
    /// fleet reactor's entry point around [`Sweeper::offer_request`].
    ///
    /// The host's notion of time is the maximum of its machine clock
    /// and its monotone timeline (recovery rewinds the former and
    /// re-anchors it to the latter, so the max is monotone across every
    /// path through the runtime). The returned `busy_cycles` is the
    /// advance of that maximum across the call — service work, due
    /// checkpoints, and any analysis/recovery pause — which is exactly
    /// what a virtual-clock reactor must add to its own clock before
    /// this host can accept the next event.
    pub fn poll_offer(&mut self, input: Vec<u8>) -> PollOutcome {
        let before = self.machine.clock.cycles().max(self.timeline.now());
        let outcome = self.offer_request(input);
        let after = self.machine.clock.cycles().max(self.timeline.now());
        // A domain rollback restores the benign connections *before*
        // analysis output is needed, so the analysis phase overlaps the
        // host's own queued requests instead of stalling them: report it
        // separately and exclude it from the queue-blocking busy time.
        let deferred_cycles = match &outcome {
            RequestOutcome::Attack(r) => r.deferred_cycles,
            _ => 0,
        };
        PollOutcome {
            outcome,
            busy_cycles: after.saturating_sub(before).saturating_sub(deferred_cycles),
            deferred_cycles,
        }
    }

    /// Inert: a served request's own dirty-page walk already pre-copies
    /// its pages, so between requests there is nothing left to drain and
    /// this returns 0. Kept only so the `benchmark` package builds; ROADMAP
    /// item 3 deletes it with its caller.
    pub fn drain_precopy(&mut self) -> usize {
        self.mgr.drain(&mut self.machine)
    }

    /// Handle a detected attack: obtain the antibody and the drop set,
    /// then recover. Only the first step depends on what caught the
    /// attack; recovery is the same for every [`Detection`].
    fn handle_attack(&mut self, cause: String, source: Detection) -> AttackReport {
        self.attacks_detected += 1;
        self.sync_time();
        let detection_at = self.timeline.now();
        let compromised = apps::is_compromised(&self.machine);
        self.timeline.record(Event::AttackDetected {
            cause: cause.clone(),
        });

        // Producers run the full analysis (skipped when a deployed VSEF
        // caught a known vulnerability — the antibody already exists).
        let analyze = self.config.role == Role::Producer && matches!(source, Detection::Monitor);
        let analysis_begin = self.timeline.now();
        let (analysis, drop_ids) = match source {
            Detection::Sampled { log_id, antibody } => {
                self.deploy_antibody_faulted(&antibody);
                (None, vec![log_id])
            }
            Detection::Monitor | Detection::Vsef => {
                let analysis = if analyze {
                    analyze_attack(
                        &self.machine,
                        &self.mgr,
                        &self.proxy,
                        &mut self.timeline,
                        &mut self.obs,
                        &self.config,
                        &mut *self.fault_hooks,
                    )
                } else {
                    None
                };
                // Deploy our own antibody locally.
                let drop_ids = match &analysis {
                    Some(rep) => {
                        self.deploy_antibody_faulted(&rep.antibody);
                        if rep.input.attack_log_ids.is_empty() {
                            self.last_conn_fallback()
                        } else {
                            rep.input.attack_log_ids.clone()
                        }
                    }
                    None => self.last_conn_fallback(),
                };
                self.generalize_signatures(&drop_ids);
                (analysis, drop_ids)
            }
        };
        // Only the analysis advances the timeline here: deploying an
        // antibody is free on the virtual clock.
        let analysis_cycles = self.timeline.now() - analysis_begin;

        // Recovery: roll back and re-execute without the attack.
        let recover_from = self
            .mgr
            .latest_before(
                drop_ids
                    .iter()
                    .filter_map(|&id| self.proxy.get(id))
                    .map(|c| c.arrival_cycles)
                    .min()
                    .unwrap_or(u64::MAX),
            )
            .or_else(|| self.mgr.oldest())
            .map(|c| c.id);
        // Attribute the attack's dirty pages to its own domain *before*
        // the fault seam runs, so the chaos hooks that corrupt domain
        // tags or force spills find a populated ledger to perturb.
        let attacked: Vec<u32> = drop_ids
            .iter()
            .filter_map(|&id| self.proxy.get(id))
            .map(|c| c.domain)
            .collect();
        if let Some(&d) = attacked.first() {
            self.mgr.note_attack(&mut self.machine, d);
        }
        // Fault seam: the eviction-race window between choosing a
        // checkpoint and replaying from it. A hook may evict the chosen
        // snapshot here; recovery must then degrade to a restart.
        self.fault_hooks
            .before_recovery(&mut self.mgr, &mut self.proxy);
        let mut method: &'static str = "restart";
        if let Some(ck) = recover_from {
            method = self.run_recovery(ck, &drop_ids, &attacked);
        }
        if method == "restart" {
            self.restart(&drop_ids);
        }
        self.obs.inc(
            if method == "restart" {
                "recovery.restarts"
            } else {
                "recovery.rollback_replays"
            },
            1,
        );
        // The VSEF instrumentation is logically re-attached to the
        // recovered (or restarted) execution: clear its shadow state.
        if let Some(rt) = self.vsef_instr.get_mut::<VsefRuntime>(self.vsef_id) {
            rt.reset_state();
        }
        // The recovered machine's clock rewound; wall time did not.
        // Re-anchor the machine clock at the monotone global time.
        let now = self.timeline.now();
        if self.machine.clock.cycles() < now {
            self.machine.clock.tick(now - self.machine.clock.cycles());
        }
        let pause_ms = cycles_to_secs(self.timeline.now() - detection_at) * 1e3;
        self.timeline.record(Event::Recovered { method, pause_ms });
        // Fresh checkpoint of the recovered state. The pre-attack drain
        // set refers to the execution that was just rolled back (or
        // replaced): discard it, or its stale pages leak into this
        // delta (see `CheckpointManager::discard_pending`).
        self.mgr.discard_pending();
        let id = self.mgr.take(&mut self.machine);
        self.sync_time();
        self.timeline.record(Event::Checkpoint { id: id.0 });
        AttackReport {
            cause,
            analysis,
            recovery_method: method,
            pause_ms,
            // Only a domain rollback leaves the benign connections live
            // while analysis runs; a full replay (or restart) needs the
            // analysis verdict before service state exists again. A
            // sampled catch ran no analysis: its heavyweight work was the
            // monitoring, charged to the live clock before detection.
            deferred_cycles: if method == "domain-rollback" {
                analysis_cycles
            } else {
                0
            },
            compromised,
        }
    }

    /// Polygraph-style signature generalization: accumulate captured
    /// exploit samples; once two or more polymorphic variants of the
    /// vulnerability have been seen (e.g. caught by a VSEF after the
    /// exact signature missed), derive an ordered token-sequence
    /// signature that drops future byte-level-different variants at the
    /// proxy. VSEFs remain the safety net against mistraining.
    fn generalize_signatures(&mut self, drop_ids: &[usize]) {
        for &id in drop_ids {
            if let Some(lc) = self.proxy.get(id) {
                if !self.attack_samples.contains(&lc.input) {
                    self.attack_samples.push(lc.input.clone());
                }
            }
        }
        if self.attack_samples.len() < 2 {
            return;
        }
        let samples: Vec<&[u8]> = self.attack_samples.iter().map(|s| s.as_slice()).collect();
        if let Some(sig) = antibody::tokens_from_samples(&samples, 4) {
            // Mistraining guard (the Paragraph-attack concern the paper
            // cites): only deploy a generalization when this host has
            // *negative examples* — served benign inputs — and the
            // candidate matches none of them. Without a benign corpus,
            // generalizing is unsafe (the common tokens may be pure
            // protocol framing); the exact and substring signatures plus
            // VSEFs carry the load.
            let benign: Vec<&[u8]> = self
                .proxy
                .log()
                .iter()
                .filter(|c| !c.filtered && !self.attack_samples.contains(&c.input))
                .map(|c| c.input.as_slice())
                .collect();
            if !benign.is_empty() && !benign.iter().any(|b| sig.matches(b)) {
                self.signatures.add(sig);
            }
        }
    }

    /// Run the configured post-attack recovery strategy against
    /// checkpoint `ck`, accounting the outcome. Returns the method label
    /// recorded on the timeline: `"domain-rollback"` (partial rollback,
    /// benign connections untouched), `"rollback-replay"` (full rollback
    /// plus drop-the-attack replay), or `"restart"` (nothing could be
    /// recovered).
    fn run_recovery(&mut self, ck: CkptId, drop_ids: &[usize], attacked: &[u32]) -> &'static str {
        match self.config.recovery {
            RecoveryMode::Full => self.full_recovery(ck, drop_ids, attacked),
            RecoveryMode::Domain => self
                .domain_recovery(ck, drop_ids, attacked)
                .unwrap_or_else(|| self.full_recovery(ck, drop_ids, attacked)),
            RecoveryMode::Differential => {
                // The differential oracle: run the partial rollback on a
                // shadow clone of the faulted machine and the full
                // rollback+replay on the live one, then require their
                // guest-observable states to be bit-identical. The Full
                // result is always the one adopted.
                let mut shadow = self.machine.clone();
                let domain =
                    recover_domain(&mut shadow, &mut self.mgr, &mut self.proxy, ck, drop_ids);
                if let Err(refusal) = &domain {
                    self.count_domain_fallback(*refusal);
                }
                let method = self.full_recovery(ck, drop_ids, attacked);
                if let Ok(RecoveryOutcome::Resumed(r)) = &domain {
                    if r.disturbed_outside(attacked) {
                        self.obs.inc("recovery.i12_violations", 1);
                    }
                    if method == "rollback-replay" {
                        self.obs.inc("recovery.domain_parity_checks", 1);
                        if recovery_digest(&shadow) != recovery_digest(&self.machine) {
                            self.obs.inc("recovery.domain_parity_mismatches", 1);
                        }
                    }
                }
                method
            }
        }
    }

    /// Attempt the partial (domain) rollback; `None` means it refused
    /// fail-closed and the caller must run the full path.
    fn domain_recovery(
        &mut self,
        ck: CkptId,
        drop_ids: &[usize],
        attacked: &[u32],
    ) -> Option<&'static str> {
        match recover_domain(
            &mut self.machine,
            &mut self.mgr,
            &mut self.proxy,
            ck,
            drop_ids,
        ) {
            Ok(RecoveryOutcome::Resumed(r)) => {
                self.adopt_resume(&r, attacked);
                Some("domain-rollback")
            }
            Ok(_) => None,
            Err(refusal) => {
                self.count_domain_fallback(refusal);
                None
            }
        }
    }

    /// Full rollback + drop-the-attack replay (the pre-domain pipeline).
    fn full_recovery(&mut self, ck: CkptId, drop_ids: &[usize], attacked: &[u32]) -> &'static str {
        match recover(
            &mut self.machine,
            &self.mgr,
            &mut self.proxy,
            ck,
            drop_ids,
            &mut *self.fault_hooks,
        ) {
            RecoveryOutcome::Resumed(r) => {
                self.adopt_resume(&r, attacked);
                "rollback-replay"
            }
            RecoveryOutcome::ReplayFaulted(_) | RecoveryOutcome::RestartRequired { .. } => {
                "restart"
            }
        }
    }

    /// Account a refused partial rollback: the silent-fallback visibility
    /// counters (satellite of invariant I12 — a Domain host quietly
    /// running Full recoveries must show up in metrics).
    fn count_domain_fallback(&mut self, refusal: checkpoint::DomainRefusal) {
        self.obs.inc("recovery.domain_fallbacks", 1);
        self.obs
            .inc(&format!("recovery.domain_fallback.{}", refusal.name()), 1);
        if refusal.is_spill() {
            self.obs.inc("recovery.domain_spill_fallbacks", 1);
        }
    }

    /// Account a successful resume: the legacy flat totals, the
    /// per-recovery-mode split (`recovery.full.*` / `recovery.domain.*`),
    /// per-domain counters, the unconditional I12 check for partial
    /// rollbacks, and the service pause.
    fn adopt_resume(&mut self, r: &ResumeReport, attacked: &[u32]) {
        let mode = r.kind.name();
        self.obs
            .inc("recovery.replayed_conns", r.replayed_conns() as u64);
        self.obs
            .inc("recovery.dropped_conns", r.dropped_conns() as u64);
        self.obs.inc(
            &format!("recovery.{mode}.replayed_conns"),
            r.replayed_conns() as u64,
        );
        self.obs.inc(
            &format!("recovery.{mode}.dropped_conns"),
            r.dropped_conns() as u64,
        );
        self.obs.inc(&format!("recovery.{mode}.resumes"), 1);
        for d in &r.per_domain {
            self.obs.inc(
                &format!("recovery.{mode}.domain.{}.replayed_conns", d.domain),
                d.replayed as u64,
            );
            self.obs.inc(
                &format!("recovery.{mode}.domain.{}.dropped_conns", d.domain),
                d.dropped as u64,
            );
        }
        if r.kind == RecoveryKind::Domain {
            self.obs.inc("recovery.domain_rollbacks", 1);
            // I12 is unconditional: a partial rollback that replayed or
            // dropped work in any benign domain is a violation no matter
            // what faults were firing.
            if r.disturbed_outside(attacked) {
                self.obs.inc("recovery.i12_violations", 1);
            }
        }
        self.timeline.advance_by(r.pause_cycles);
    }

    /// Run one request under full sampling instrumentation (taint paired
    /// with the deployed VSEFs). On a taint alert — tainted data about to
    /// be used as a control-transfer target — the run stops and the
    /// request is treated as an attack *before the hijacked target runs*:
    /// the antibody is derived directly from the sampling tool's findings
    /// (the heavyweight analysis already ran; it was the monitoring).
    fn run_sampled(&mut self, log_id: usize) -> Result<Status, Box<AttackReport>> {
        let mut sampler = Instrumenter::new();
        let taint_id = sampler.attach(Box::new(TaintTool::stopping()));
        let status = self
            .machine
            .run(&mut Pair(&mut self.vsef_instr, &mut sampler), u64::MAX);
        // Sampling is the expensive path: its instrumentation cost is
        // charged to the live clock (the §4.2 trade-off).
        sampler.charge(&mut self.machine);
        self.vsef_instr.charge(&mut self.machine);
        self.sync_time();
        let Some((a, taint)) = sampler
            .get::<TaintTool>(taint_id)
            .and_then(|t| Some((t.alerts().first()?, t)))
        else {
            return Ok(status);
        };
        let cause = format!(
            "sampling: tainted control transfer to {:#010x} at {:#010x}",
            a.target, a.pc
        );
        let mut prop: Vec<u32> = taint.propagation_pcs().iter().copied().collect();
        prop.truncate(64);
        // Build the antibody from the live sampling findings.
        let spec = VsefSpec::TaintFilter {
            prop_pcs: prop,
            sink_pc: a.pc,
        };
        let mut antibody = Antibody::new();
        antibody.push(
            AntibodyItem::Vsef(spec.rebase(&self.machine.layout, &Layout::nominal())),
            1.0,
        );
        if let Some(lc) = self.proxy.get(log_id) {
            antibody.push(
                AntibodyItem::Signature(antibody::exact_from(&lc.input)),
                2.0,
            );
            antibody.push(AntibodyItem::ExploitInput(lc.input.clone()), 3.0);
        }
        let source = Detection::Sampled { log_id, antibody };
        Err(Box::new(self.handle_attack(cause, source)))
    }

    /// A point-in-time operator summary of the protected host.
    pub fn status(&self) -> HostStatus {
        HostStatus {
            app: self.app_name.clone(),
            uptime_secs: self.timeline.now_secs(),
            requests_served: self.requests_served,
            requests_sampled: self.requests_sampled,
            attacks_detected: self.attacks_detected,
            requests_filtered: self.proxy.filtered_total,
            deployed_vsefs: self.deployed_vsefs(),
            deployed_signatures: self.signatures.len(),
            checkpoints_retained: self.mgr.retained(),
            checkpoints_taken: self.mgr.taken_total,
            healthy: !matches!(
                self.machine.status(),
                Status::Faulted(_) | Status::Halted(_)
            ),
        }
    }

    /// A full metrics snapshot for this host: the runtime's own
    /// registry (pipeline phase spans, recovery counters) merged with
    /// fresh exports from every subsystem (VM, checkpoint ring, proxy,
    /// VSEF instrumentation) plus top-level host counters.
    ///
    /// Exports use absolute mirrors (`set_counter`), so snapshotting is
    /// idempotent — calling this twice never double-counts.
    pub fn export_metrics(&self) -> obs::MetricsRegistry {
        let mut reg = self.obs.clone();
        self.machine.export_metrics(&mut reg);
        self.mgr.export_metrics(&self.machine, &mut reg);
        self.proxy.export_metrics(&mut reg);
        self.vsef_instr.export_metrics(&mut reg);
        reg.set_counter("sweeper.attacks_detected", self.attacks_detected);
        reg.set_counter("sweeper.requests_served", self.requests_served);
        reg.set_counter("sweeper.requests_sampled", self.requests_sampled);
        reg.set_counter("sweeper.deployed_signatures", self.signatures.len() as u64);
        reg.set_counter("sweeper.deployed_vsefs", self.deployed_vsefs() as u64);
        reg.set_counter("sweeper.rerandomizations_total", self.rerandomizations);
        reg.set_counter(
            "sweeper.quarantined_producers",
            self.quarantined_producers.len() as u64,
        );
        reg
    }

    fn last_conn_fallback(&self) -> Vec<usize> {
        self.proxy
            .last_delivered_before(u64::MAX)
            .map(|id| vec![id])
            .unwrap_or_default()
    }

    /// Full restart: boot a fresh instance (new ASLR draw), mark the
    /// attack connections dropped, charge the restart penalty.
    ///
    /// The ASLR reseed mixes a *monotone rerandomization counter*
    /// through a bijective finalizer ([`Aslr::rerandomize`]). The old
    /// scheme (`seed.wrapping_add(attacks_detected)`) stepped the seed
    /// through *neighboring* values, so a restarted host could re-derive
    /// a layout an attacker had already probed: the n-th restart landed
    /// exactly on the boot seed of any host configured at `seed + n`,
    /// and nearby xorshift seeds share low-bit structure under the
    /// entropy mask. The finalizer decorrelates consecutive draws.
    fn restart(&mut self, drop_ids: &[usize]) {
        self.rerandomizations += 1;
        let aslr = self.config.aslr.rerandomize(self.rerandomizations);
        self.obs.inc("sweeper.rerandomizations", 1);
        if let Ok(mut fresh) = Machine::boot(&self.program, aslr) {
            fresh
                .clock
                .tick(self.machine.clock.cycles() + RESTART_CYCLES);
            self.machine = fresh;
            // The drained pages belonged to the old instance; its
            // write generations mean nothing to the fresh boot.
            self.mgr.discard_pending();
            for &id in drop_ids {
                self.proxy.mark_dropped(id);
            }
            // Every connection logged so far went to the old instance:
            // the next one offered is the fresh machine's connection 0.
            self.proxy.restart();
            self.timeline.advance_by(RESTART_CYCLES);
            self.run_until_idle();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::{httpd1, httpd2, squid};

    fn served(out: &RequestOutcome) -> bool {
        matches!(out, RequestOutcome::Served { .. })
    }

    #[test]
    fn serves_benign_traffic_and_checkpoints() {
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(1)).expect("protect");
        for i in 0..10 {
            let out = s.offer_request(httpd1::benign_request(&format!("p{i}.html")));
            assert!(served(&out), "request {i}");
        }
        assert_eq!(s.requests_served, 10);
        assert!(s.mgr.taken_total >= 1);
        assert_eq!(s.attacks_detected, 0);
    }

    #[test]
    fn detects_analyzes_and_recovers_from_stack_smash() {
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(2)).expect("protect");
        assert!(served(&s.offer_request(httpd1::benign_request("a.html"))));
        let out = s.offer_request(httpd1::exploit_crash(&app).input);
        let RequestOutcome::Attack(report) = out else {
            panic!("expected attack")
        };
        assert!(report.cause.starts_with("fault:"), "{}", report.cause);
        assert!(!report.compromised);
        let analysis = report.analysis.as_ref().expect("producer analyzed");
        assert!(analysis.antibody.first_vsef_ms().is_some(), "VSEF produced");
        assert!(
            !analysis.input.attack_log_ids.is_empty(),
            "input identified"
        );
        // Default recovery is the partial domain rollback: the benign
        // connection's work survives without being replayed.
        assert_eq!(report.recovery_method, "domain-rollback");
        assert!(report.deferred_cycles > 0, "analysis overlaps the queue");
        let m = s.export_metrics();
        assert_eq!(m.counter("recovery.domain_rollbacks"), 1);
        assert_eq!(m.counter("recovery.domain.replayed_conns"), 0);
        assert_eq!(m.counter("recovery.domain.dropped_conns"), 1);
        assert_eq!(m.counter("recovery.i12_violations"), 0);
        // Service continues.
        assert!(served(&s.offer_request(httpd1::benign_request("b.html"))));
        // The same exploit again is now filtered by the exact signature.
        let again = s.offer_request(httpd1::exploit_crash(&app).input);
        assert!(
            matches!(again, RequestOutcome::Filtered { .. }),
            "signature blocks repeat"
        );
    }

    #[test]
    fn polymorphic_variant_caught_by_vsef_not_signature() {
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(3)).expect("protect");
        let first = s.offer_request(httpd1::exploit_crash(&app).input);
        assert!(matches!(first, RequestOutcome::Attack(_)));
        assert!(s.deployed_vsefs() > 0);
        // A byte-level different exploit of the same vulnerability: the
        // exact signature misses, but the deployed VSEF catches it
        // *before* the fault.
        let poly = s.offer_request(httpd1::exploit_crash_poly(&app, 9).input);
        let RequestOutcome::Attack(report) = poly else {
            panic!("expected attack")
        };
        assert!(
            report.cause.starts_with("vsef:"),
            "caught by VSEF: {}",
            report.cause
        );
        assert!(
            report.analysis.is_none(),
            "known vulnerability: no re-analysis"
        );
        // And the server still works.
        assert!(served(&s.offer_request(httpd1::benign_request("ok.html"))));
    }

    #[test]
    fn null_deref_dos_is_detected_and_service_recovers() {
        let app = httpd2::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(4)).expect("protect");
        assert!(served(&s.offer_request(httpd2::benign_request("x", None))));
        let out = s.offer_request(httpd2::exploit_crash(&app).input);
        let RequestOutcome::Attack(report) = out else {
            panic!("expected attack")
        };
        let analysis = report.analysis.as_ref().expect("analysis");
        assert!(matches!(
            analysis.core.class,
            analysis::CrashClass::NullDeref
        ));
        assert!(served(
            &s.offer_request(httpd2::benign_request("y", Some("http://ok/")))
        ));
    }

    #[test]
    fn layout_guessing_compromise_damages_without_sampling() {
        // The attacker guessed the layout (ASLR disabled here stands in
        // for the 2^-12 lucky draw): the shellcode runs — damage done —
        // before any monitor can react. The runtime still notices the
        // anomalous exit and recovers, but `compromised` is true.
        let app = httpd1::app().expect("app");
        let cfg = Config {
            aslr: svm::loader::Aslr::off(),
            ..Config::default()
        };
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        let ex = httpd1::exploit_compromise(&app, &svm::loader::Layout::nominal());
        let RequestOutcome::Attack(report) = s.offer_request(ex.input) else {
            panic!("anomalous exit not flagged")
        };
        assert!(report.compromised, "shellcode ran: {:?}", report.cause);
        // Service still recovers.
        assert!(served(
            &s.offer_request(httpd1::benign_request("next.html"))
        ));
    }

    #[test]
    fn sampling_catches_layout_guessing_worm_before_damage() {
        // §4.2: the same lucky-layout compromise is caught by sampled
        // taint analysis at the ret — *before* the hijack executes.
        let app = httpd1::app().expect("app");
        let cfg = Config {
            aslr: svm::loader::Aslr::off(),
            ..Config::default()
        }
        .with_sampling(1.0);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        let ex = httpd1::exploit_compromise(&app, &svm::loader::Layout::nominal());
        let RequestOutcome::Attack(report) = s.offer_request(ex.input) else {
            panic!("sampling missed the attack")
        };
        assert!(report.cause.starts_with("sampling:"), "{}", report.cause);
        assert!(!report.compromised, "caught before the shellcode ran");
        assert_eq!(s.requests_sampled, 1);
        // The derived antibody now protects future (unsampled) requests.
        assert!(s.deployed_vsefs() > 0);
        assert!(served(&s.offer_request(httpd1::benign_request("ok.html"))));
        let again = s
            .offer_request(httpd1::exploit_compromise(&app, &svm::loader::Layout::nominal()).input);
        assert!(
            matches!(again, RequestOutcome::Filtered { .. }),
            "signature blocks the repeat: {again:?}"
        );
    }

    #[test]
    fn sampling_rate_controls_coverage_and_cost() {
        let app = httpd1::app().expect("app");
        // Full sampling is strictly slower than none (heavyweight path).
        let mut full =
            Sweeper::protect(&app, Config::producer(9).with_sampling(1.0)).expect("protect");
        let mut none = Sweeper::protect(&app, Config::producer(9)).expect("protect");
        let reqs: Vec<Vec<u8>> = (0..10)
            .map(|i| httpd1::benign_request(&format!("p{i}.html")))
            .collect();
        let t0 = full.timeline.now();
        for r in &reqs {
            assert!(served(&full.offer_request(r.clone())));
        }
        let full_cycles = full.timeline.now() - t0;
        let t0 = none.timeline.now();
        for r in &reqs {
            assert!(served(&none.offer_request(r.clone())));
        }
        let none_cycles = none.timeline.now() - t0;
        assert_eq!(full.requests_sampled, 10);
        assert_eq!(none.requests_sampled, 0);
        // Sampling charges per-instruction taint overhead; the absolute
        // delta is modest per request (network RTTs dominate request
        // cost) but must be strictly and visibly positive.
        assert!(
            full_cycles > none_cycles + 100_000,
            "sampling must be measurably heavyweight: {full_cycles} vs {none_cycles}"
        );
        // Fractional sampling samples roughly that fraction.
        let mut half =
            Sweeper::protect(&app, Config::producer(10).with_sampling(0.5)).expect("protect");
        for i in 0..40 {
            half.offer_request(httpd1::benign_request(&format!("q{i}.html")));
        }
        assert!(
            (8..=32).contains(&half.requests_sampled),
            "~half sampled: {}",
            half.requests_sampled
        );
    }

    #[test]
    fn signatures_generalize_after_two_variants() {
        // Fully polymorphic variants: per-variant filler, fake fp, AND
        // return address, so neither the exact nor the taint-substring
        // signature from variant 1 matches variant 2. Only the shared
        // attack *structure* survives; after two captured samples the
        // host derives a token-sequence signature and drops variant 3 at
        // the proxy.
        fn variant(salt: u8) -> Vec<u8> {
            let mut v = b"GET /cgi-bin/vuln?arg=".to_vec();
            v.extend(std::iter::repeat_n(b'a' + salt, 46)); // 18+46 = 64-byte URI fill
            v.extend((0x4343_4341u32 + salt as u32).to_le_bytes()); // fake fp
            v.extend((0x6666_6601u32 + (salt as u32) * 0x10).to_le_bytes()); // ret
            v.extend_from_slice(b" HTTP/1.0\n");
            v
        }
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(0x9e4)).expect("protect");
        // Benign corpus first: the mistraining guard requires negative
        // examples before any generalization is deployed.
        for i in 0..3 {
            assert!(served(
                &s.offer_request(httpd1::benign_request(&format!("b{i}.html")))
            ));
        }
        let RequestOutcome::Attack(_) = s.offer_request(variant(1)) else {
            panic!("variant 1 undetected")
        };
        let RequestOutcome::Attack(r2) = s.offer_request(variant(2)) else {
            panic!("variant 2 should evade the byte-level signatures and hit the VSEF")
        };
        assert!(r2.cause.starts_with("vsef:"), "{}", r2.cause);
        // Variant 3: dropped at the proxy by the generalized signature.
        let out = s.offer_request(variant(3));
        assert!(
            matches!(out, RequestOutcome::Filtered { .. }),
            "token signature generalizes: {out:?}"
        );
        // And benign traffic still flows (no mistraining).
        assert!(served(
            &s.offer_request(httpd1::benign_request("still-ok.html"))
        ));
    }

    #[test]
    fn generalization_requires_a_benign_corpus() {
        // With no served traffic, common tokens are protocol framing; the
        // guard must refuse to deploy them.
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(0x9e5)).expect("protect");
        s.offer_request(httpd1::exploit_crash(&app).input);
        s.offer_request(httpd1::exploit_crash_poly(&app, 9).input);
        // Benign traffic must not be filtered by an over-general token
        // signature derived without negative examples.
        assert!(served(
            &s.offer_request(httpd1::benign_request("fresh.html"))
        ));
    }

    #[test]
    fn consumer_detects_but_does_not_analyze() {
        let app = squid::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::consumer(5)).expect("protect");
        let out = s.offer_request(squid::exploit_crash(&app).input);
        let RequestOutcome::Attack(report) = out else {
            panic!("expected attack")
        };
        assert!(report.analysis.is_none(), "consumers do not analyze");
        // Consumer still recovers (drop-last heuristic).
        assert!(served(&s.offer_request(squid::benign_request("bob", "h"))));
    }

    #[test]
    fn certified_bundle_roundtrip_protects_the_consumer() {
        // PR-5: producer analyzes an attack, seals its antibody into a
        // certified bundle; the consumer verifies it (tag check plus
        // sandboxed exploit replay) before deploying, and the exploit is
        // then blocked.
        const KEY: u64 = 0x0c0f_fee5_eed5_eed5;
        let app = squid::app().expect("app");
        let mut producer = Sweeper::protect(&app, Config::producer(6)).expect("p");
        let out = producer.offer_request(squid::exploit_crash(&app).input);
        let RequestOutcome::Attack(report) = out else {
            panic!("expected attack")
        };
        let antibody = report.analysis.as_ref().expect("analysis").antibody.clone();
        let bundle = producer
            .certify_antibody(1, 0, KEY, &antibody)
            .expect("analysis antibody carries its exploit input");
        assert_eq!(
            producer
                .export_metrics()
                .counter("sweeper.bundles_certified"),
            1
        );

        let mut consumer = Sweeper::protect(&app, Config::consumer(7)).expect("c");
        let outcome = consumer.receive_certified(&bundle, KEY);
        let BundleOutcome::Deployed { vsefs, signatures } = outcome else {
            panic!("honest bundle must deploy: {outcome:?}")
        };
        assert!(vsefs > 0 && signatures > 0);
        let m = consumer.export_metrics();
        assert_eq!(m.counter("sweeper.bundles_verified"), 1);
        assert_eq!(m.counter("sweeper.bundles_rejected"), 0);
        let again = consumer.offer_request(squid::exploit_crash(&app).input);
        match again {
            RequestOutcome::Filtered { .. } => {}
            RequestOutcome::Attack(r) => {
                assert!(r.cause.starts_with("vsef:"), "{}", r.cause)
            }
            other => panic!("consumer unprotected: {other:?}"),
        }
    }

    #[test]
    fn forged_bundles_are_rejected_and_the_sender_quarantined() {
        const KEY: u64 = 0x0c0f_fee5_eed5_eed5;
        let app = squid::app().expect("app");
        let mut producer = Sweeper::protect(&app, Config::producer(8)).expect("p");
        let RequestOutcome::Attack(report) =
            producer.offer_request(squid::exploit_crash(&app).input)
        else {
            panic!("expected attack")
        };
        let antibody = report.analysis.as_ref().expect("analysis").antibody.clone();
        let honest = producer
            .certify_antibody(3, 0, KEY, &antibody)
            .expect("seal");

        let mut consumer = Sweeper::protect(&app, Config::consumer(9)).expect("c");
        // I8: every forgery mode is rejected, nothing deploys, and the
        // forging producer is quarantined after the first rejection.
        let forged = honest.forged_bad_tag();
        assert!(matches!(
            consumer.receive_certified(&forged, KEY),
            BundleOutcome::Rejected(_)
        ));
        assert_eq!(consumer.deployed_vsefs(), 0, "I8: nothing deployed");
        assert_eq!(consumer.quarantined_producers(), &[3]);
        // A later bundle from the quarantined producer — even the honest
        // one — is dropped unexamined.
        assert!(matches!(
            consumer.receive_certified(&honest, KEY),
            BundleOutcome::SenderQuarantined
        ));
        let m = consumer.export_metrics();
        assert_eq!(m.counter("sweeper.bundles_rejected"), 1);
        assert_eq!(m.counter("sweeper.bundles_quarantine_dropped"), 1);
        assert_eq!(m.counter("sweeper.producers_quarantined"), 1);
        assert_eq!(m.counter("sweeper.quarantined_producers"), 1);
        // The same honest bundle re-sent under a different producer id
        // (an unquarantined sender) verifies and deploys: quarantine is
        // per-sender, not per-vulnerability.
        let resent = producer
            .certify_antibody(4, 1, KEY, &antibody)
            .expect("seal");
        assert!(matches!(
            consumer.receive_certified(&resent, KEY),
            BundleOutcome::Deployed { .. }
        ));
        // Evidence swapped for benign bytes and re-tagged under the real
        // key is caught by the cheap consistency check (evidence must
        // equal the antibody's own exploit input)...
        let swapped = honest.forged_mismatched_evidence(KEY, b"GET /index.html".to_vec());
        let mut fresh = Sweeper::protect(&app, Config::consumer(10)).expect("c2");
        assert!(matches!(
            fresh.receive_certified(&swapped, KEY),
            BundleOutcome::Rejected(_)
        ));
        assert_eq!(fresh.deployed_vsefs(), 0);
        // ...while an *honestly sealed* bundle whose evidence simply
        // isn't hostile (an insider Byzantine producer vouching for
        // nothing) passes the tag and consistency checks and is killed
        // by the sandbox replay itself: no detection, no deployment.
        let mut vacuous = Antibody::new();
        vacuous.push(AntibodyItem::Vsef(VsefSpec::NullCheck { insn_pc: 4 }), 1.0);
        vacuous.push(AntibodyItem::ExploitInput(b"hi".to_vec()), 2.0);
        let lying = CertifiedBundle::seal(6, 0, &vacuous, KEY).expect("seal");
        assert!(matches!(
            fresh.receive_certified(&lying, KEY),
            BundleOutcome::Rejected(CertifyError::SandboxRejected { .. })
        ));
        assert_eq!(fresh.deployed_vsefs(), 0, "I8 holds at the replay gate");
    }

    #[test]
    fn consumer_is_protected_by_received_antibody() {
        // Producer analyzes; consumer deploys the antibody and then
        // blocks/catches the same exploit.
        let app = squid::app().expect("app");
        let mut producer = Sweeper::protect(&app, Config::producer(6)).expect("p");
        let out = producer.offer_request(squid::exploit_crash(&app).input);
        let RequestOutcome::Attack(report) = out else {
            panic!("expected attack")
        };
        let antibody = report.analysis.as_ref().expect("analysis").antibody.clone();

        let mut consumer = Sweeper::protect(&app, Config::consumer(7)).expect("c");
        consumer.deploy_antibody(&antibody);
        assert!(consumer.deployed_vsefs() > 0);
        let again = consumer.offer_request(squid::exploit_crash(&app).input);
        match again {
            RequestOutcome::Filtered { .. } => {}
            RequestOutcome::Attack(r) => {
                assert!(
                    r.cause.starts_with("vsef:"),
                    "caught early by VSEF: {}",
                    r.cause
                )
            }
            other => panic!("consumer unprotected: {other:?}"),
        }
    }
}

#[cfg(test)]
mod recovery_mode_tests {
    use super::*;
    use crate::config::RecoveryMode;
    use crate::timeline::Stamped;
    use apps::httpd1;
    use checkpoint::ReplayFault;

    #[test]
    fn full_mode_replays_benign_connections() {
        let app = httpd1::app().expect("app");
        let cfg = Config::producer(21).with_recovery(RecoveryMode::Full);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        assert!(matches!(
            s.offer_request(httpd1::benign_request("a.html")),
            RequestOutcome::Served { .. }
        ));
        let RequestOutcome::Attack(report) = s.offer_request(httpd1::exploit_crash(&app).input)
        else {
            panic!("expected attack")
        };
        assert_eq!(report.recovery_method, "rollback-replay");
        assert_eq!(report.deferred_cycles, 0, "full pause stalls the queue");
        let m = s.export_metrics();
        assert_eq!(m.counter("recovery.domain_rollbacks"), 0);
        assert_eq!(m.counter("recovery.full.replayed_conns"), 1);
        assert_eq!(m.counter("recovery.full.dropped_conns"), 1);
        assert!(matches!(
            s.offer_request(httpd1::benign_request("b.html")),
            RequestOutcome::Served { .. }
        ));
    }

    #[test]
    fn differential_mode_proves_domain_matches_full() {
        let app = httpd1::app().expect("app");
        let cfg = Config::producer(22).with_recovery(RecoveryMode::Differential);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        for i in 0..3 {
            assert!(matches!(
                s.offer_request(httpd1::benign_request(&format!("p{i}.html"))),
                RequestOutcome::Served { .. }
            ));
        }
        let RequestOutcome::Attack(report) = s.offer_request(httpd1::exploit_crash(&app).input)
        else {
            panic!("expected attack")
        };
        assert_eq!(report.recovery_method, "rollback-replay", "Full adopted");
        let m = s.export_metrics();
        assert_eq!(m.counter("recovery.domain_parity_checks"), 1);
        assert_eq!(
            m.counter("recovery.domain_parity_mismatches"),
            0,
            "partial rollback must land on the bit-identical guest state"
        );
        assert_eq!(m.counter("recovery.i12_violations"), 0);
        assert!(matches!(
            s.offer_request(httpd1::benign_request("after.html")),
            RequestOutcome::Served { .. }
        ));
    }

    /// Forces every tracked domain into the spilled set right before
    /// recovery runs (the chaos `domain-spill` family's seam).
    struct ForceSpill;
    impl ReplayFault for ForceSpill {}
    impl FaultHooks for ForceSpill {
        fn before_recovery(&mut self, mgr: &mut CheckpointManager, _proxy: &mut Proxy) {
            assert!(mgr.chaos_force_domain_spill(), "ledger populated");
        }
    }

    /// One benign request, then a lucky-layout compromise caught by §4.2
    /// sampling, with `hooks` installed just before the attack.
    fn sampled_catch(hooks: Option<Box<dyn FaultHooks>>) -> (Sweeper, AttackReport) {
        let app = httpd1::app().expect("app");
        let cfg = Config {
            aslr: svm::loader::Aslr::off(),
            ..Config::default()
        }
        .with_sampling(1.0);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        assert!(matches!(
            s.offer_request(httpd1::benign_request("a.html")),
            RequestOutcome::Served { .. }
        ));
        if let Some(h) = hooks {
            s.set_fault_hooks(h);
        }
        let ex = httpd1::exploit_compromise(&app, &svm::loader::Layout::nominal());
        let RequestOutcome::Attack(report) = s.offer_request(ex.input) else {
            panic!("sampling missed the attack")
        };
        assert!(report.cause.starts_with("sampling:"), "{}", report.cause);
        assert!(report.analysis.is_none());
        (s, *report)
    }

    /// Characterization of a sampled catch through the shared recovery
    /// path, in the default Domain mode and with a forced spill before
    /// recovery: every value below was recorded before sampling and
    /// monitor catches shared one attack handler.
    #[test]
    fn sampled_catch_recovery_is_pinned() {
        struct Pinned {
            method: &'static str,
            pause_ms: f64,
            rollback_replays: u64,
            domain_rollbacks: u64,
            spilled: u64,
            recovered_at: u64,
            checkpoint_at: u64,
        }
        let cases: [(Option<Box<dyn FaultHooks>>, Pinned); 2] = [
            (
                None,
                Pinned {
                    method: "domain-rollback",
                    pause_ms: 0.015000000000000001,
                    rollback_replays: 1,
                    domain_rollbacks: 1,
                    spilled: 0,
                    recovered_at: 3_846_737,
                    checkpoint_at: 4_098_737,
                },
            ),
            (
                Some(Box::new(ForceSpill)),
                Pinned {
                    method: "rollback-replay",
                    pause_ms: 0.10119416666666667,
                    rollback_replays: 1,
                    domain_rollbacks: 0,
                    spilled: 1,
                    recovered_at: 4_053_603,
                    checkpoint_at: 4_305_603,
                },
            ),
        ];
        for (hooks, want) in cases {
            let (s, r) = sampled_catch(hooks);
            assert_eq!(r.recovery_method, want.method);
            assert_eq!(r.pause_ms, want.pause_ms);
            // Sampling's heavyweight work was the monitoring itself:
            // nothing overlaps the queue, even after a domain rollback.
            assert_eq!(r.deferred_cycles, 0);
            let m = s.export_metrics();
            assert_eq!(
                m.counter("recovery.rollback_replays"),
                want.rollback_replays
            );
            assert_eq!(m.counter("recovery.restarts"), 0);
            assert_eq!(
                m.counter("recovery.domain_rollbacks"),
                want.domain_rollbacks
            );
            assert_eq!(m.counter("recovery.domain_fallback.spilled"), want.spilled);
            assert_eq!(s.mgr.taken_total, 2);
            let events = s.timeline.events();
            assert_eq!(
                &events[events.len() - 2..],
                &[
                    Stamped {
                        at_cycles: want.recovered_at,
                        event: Event::Recovered {
                            method: want.method,
                            pause_ms: want.pause_ms,
                        },
                    },
                    Stamped {
                        at_cycles: want.checkpoint_at,
                        event: Event::Checkpoint { id: 1 },
                    },
                ]
            );
        }
    }

    #[test]
    fn spilled_domain_falls_back_to_full_not_a_wrong_answer() {
        // Force every tracked domain into the spilled set right before
        // recovery runs: the partial path must refuse and the full
        // pipeline must carry the recovery — never a partial restore of
        // unproven isolation.
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(23)).expect("protect");
        assert!(matches!(
            s.offer_request(httpd1::benign_request("a.html")),
            RequestOutcome::Served { .. }
        ));
        s.set_fault_hooks(Box::new(ForceSpill));
        let RequestOutcome::Attack(report) = s.offer_request(httpd1::exploit_crash(&app).input)
        else {
            panic!("expected attack")
        };
        assert_eq!(report.recovery_method, "rollback-replay", "fail-closed");
        let m = s.export_metrics();
        assert_eq!(m.counter("recovery.domain_fallbacks"), 1);
        assert_eq!(m.counter("recovery.domain_spill_fallbacks"), 1);
        assert_eq!(m.counter("recovery.domain_fallback.spilled"), 1);
        assert!(m.counter("checkpoint.domain_spills") >= 1);
        assert!(matches!(
            s.offer_request(httpd1::benign_request("b.html")),
            RequestOutcome::Served { .. }
        ));
    }

    #[test]
    fn corrupt_domain_tags_fall_back_to_full() {
        struct CorruptTag;
        impl ReplayFault for CorruptTag {}
        impl FaultHooks for CorruptTag {
            fn before_recovery(&mut self, mgr: &mut CheckpointManager, _proxy: &mut Proxy) {
                assert!(mgr.chaos_corrupt_domain_tag(5), "ledger populated");
            }
        }
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(24)).expect("protect");
        assert!(matches!(
            s.offer_request(httpd1::benign_request("a.html")),
            RequestOutcome::Served { .. }
        ));
        s.set_fault_hooks(Box::new(CorruptTag));
        let RequestOutcome::Attack(report) = s.offer_request(httpd1::exploit_crash(&app).input)
        else {
            panic!("expected attack")
        };
        assert_eq!(report.recovery_method, "rollback-replay", "fail-closed");
        let m = s.export_metrics();
        assert_eq!(m.counter("recovery.domain_fallback.corrupt-ledger"), 1);
        assert_eq!(m.counter("recovery.i12_violations"), 0);
        assert!(matches!(
            s.offer_request(httpd1::benign_request("b.html")),
            RequestOutcome::Served { .. }
        ));
    }
}

#[cfg(test)]
mod rerandomization_tests {
    use super::*;
    use apps::httpd1;
    use svm::loader::{Aslr, Layout};

    #[test]
    fn consecutive_restarts_never_repeat_a_layout() {
        // Regression for the additive reseed (`seed + attacks_detected`):
        // restart n landed exactly on the boot layout of a host seeded
        // `seed + n`. With the bijective rerandomize mix, the boot layout
        // and every subsequent restart layout are pairwise distinct, and
        // none coincides with a neighboring host's boot draw.
        let app = httpd1::app().expect("app");
        let mut cfg = Config::producer(77);
        cfg.aslr = Aslr::on(77);
        let mut s = Sweeper::protect(&app, cfg).expect("protect");
        let mut layouts = vec![s.machine.layout];
        for _ in 0..8 {
            s.restart(&[]);
            let layout = s.machine.layout;
            assert!(!layouts.contains(&layout), "layout repeated: {layout:#x?}");
            layouts.push(layout);
        }
        // No restart layout may equal a neighboring host's boot layout
        // (the exact collision the additive scheme produced).
        for n in 1..=8u64 {
            let neighbor = Layout::randomized(Aslr::on(77 + n));
            assert!(
                !layouts[1..].contains(&neighbor),
                "restart re-derived neighbor boot layout seed+{n}"
            );
        }
        assert_eq!(s.export_metrics().counter("sweeper.rerandomizations"), 8);
    }
}

#[cfg(test)]
mod status_tests {
    use super::*;
    use apps::httpd1;

    #[test]
    fn status_tracks_the_host_lifecycle() {
        let app = httpd1::app().expect("app");
        let mut s = Sweeper::protect(&app, Config::producer(123)).expect("protect");
        let fresh = s.status();
        assert!(fresh.healthy);
        assert_eq!(fresh.requests_served, 0);
        assert_eq!(fresh.checkpoints_retained, 1, "initial checkpoint");
        for i in 0..4 {
            s.offer_request(httpd1::benign_request(&format!("p{i}.html")));
        }
        s.offer_request(httpd1::exploit_crash(&app).input);
        s.offer_request(httpd1::exploit_crash(&app).input); // filtered
        let st = s.status();
        assert!(st.healthy, "recovered");
        assert_eq!(st.requests_served, 4);
        assert_eq!(st.attacks_detected, 1);
        assert_eq!(st.requests_filtered, 1);
        assert!(st.deployed_vsefs >= 2);
        assert!(st.deployed_signatures >= 1);
        assert!(st.uptime_secs > 0.0);
        let text = st.to_string();
        assert!(text.contains("healthy") && text.contains("VSEFs"), "{text}");
    }
}
