//! Throughput drivers for the overhead experiments (Figures 4/5, §5.3).
//!
//! All measurements are in *virtual* time: the VM charges every guest
//! instruction, syscall, network RTT, checkpoint, and instrumentation
//! event to its deterministic clock, so throughput numbers are exactly
//! reproducible.

use apps::workload::{Target, Workload};
use apps::App;
use checkpoint::Engine;
use svm::clock::cycles_to_secs;
use sweeper::{Config, RequestOutcome, Sweeper};

/// Result of one throughput run.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputRun {
    /// Requests offered.
    pub offered: usize,
    /// Requests served.
    pub served: usize,
    /// Virtual seconds elapsed.
    pub secs: f64,
    /// Application payload bytes moved (requests + responses).
    pub bytes: usize,
    /// Checkpoints taken.
    pub checkpoints: u64,
}

impl ThroughputRun {
    /// Payload megabits per virtual second (the paper's Figure 4 unit).
    pub fn mbps(&self) -> f64 {
        (self.bytes as f64 * 8.0 / 1e6) / self.secs
    }
}

/// Drive `n` benign requests through a Sweeper-protected server.
pub fn run_protected(
    app: &App,
    config: Config,
    target: Target,
    seed: u64,
    n: usize,
) -> ThroughputRun {
    let mut s = Sweeper::protect(app, config).expect("protect");
    let mut w = Workload::new(target, seed);
    let start = s.timeline.now();
    let mut served = 0usize;
    let mut bytes = 0usize;
    for _ in 0..n {
        let req = w.next_request();
        let req_len = req.len();
        match s.offer_request(req) {
            RequestOutcome::Served { bytes: b, .. } => {
                served += 1;
                bytes += b + req_len;
            }
            RequestOutcome::Filtered { .. } | RequestOutcome::Attack(_) => {}
        }
    }
    let secs = cycles_to_secs(s.timeline.now() - start);
    ThroughputRun {
        offered: n,
        served,
        secs,
        bytes,
        checkpoints: s.mgr.taken_total,
    }
}

/// Figure 4 cell: fractional throughput overhead of checkpointing at the
/// given interval versus the same system with checkpointing disabled.
///
/// Pinned to the legacy full-copy engine: Figure 4 reproduces the
/// paper's whole-image snapshot cost curve, which is the calibration
/// the incremental engine is measured *against* (see
/// [`cadence_sweep`]).
pub fn checkpoint_overhead(app: &App, target: Target, interval_ms: f64, n: usize) -> f64 {
    checkpoint_overhead_with_engine(app, target, Engine::Full, interval_ms, n)
}

/// [`checkpoint_overhead`] with the snapshot engine chosen explicitly.
/// Virtual-time arithmetic, so the result is exactly reproducible and
/// never negative: the checkpointed run differs from the baseline only
/// by the checkpoint costs charged to the clock.
pub fn checkpoint_overhead_with_engine(
    app: &App,
    target: Target,
    engine: Engine,
    interval_ms: f64,
    n: usize,
) -> f64 {
    let base_cfg = Config {
        checkpoint_interval: u64::MAX,
        ..Config::producer(11)
    }
    .with_engine(engine);
    let base = run_protected(app, base_cfg, target, 99, n);
    let cfg = Config::producer(11)
        .with_interval_ms(interval_ms)
        .with_engine(engine);
    let ck = run_protected(app, cfg, target, 99, n);
    (ck.secs - base.secs) / base.secs
}

/// One cell of the `ckptcadence` sweep: service-path overhead of one
/// snapshot engine at one production cadence.
#[derive(Debug, Clone)]
pub struct CadenceCell {
    /// Engine name (`"full"` or `"incremental"`).
    pub engine: &'static str,
    /// Checkpoint interval in virtual milliseconds.
    pub interval_ms: f64,
    /// Fractional throughput overhead vs the no-checkpoint baseline.
    pub overhead: f64,
    /// Checkpoints taken during the measured run.
    pub checkpoints: u64,
}

/// The `ckptcadence` sweep: overhead of the full-copy and incremental
/// engines across production cadences down to the paper's 200 ms
/// default. The incremental engine's 200 ms cell is the PR-7 headline
/// gate (< 1% service-path overhead).
pub fn cadence_sweep(app: &App, target: Target, n: usize) -> Vec<CadenceCell> {
    let mut cells = Vec::new();
    for engine in [Engine::Full, Engine::Incremental] {
        let base_cfg = Config {
            checkpoint_interval: u64::MAX,
            ..Config::producer(11)
        }
        .with_engine(engine);
        let base = run_protected(app, base_cfg, target, 99, n);
        for interval_ms in [20.0, 50.0, 100.0, 200.0] {
            let cfg = Config::producer(11)
                .with_interval_ms(interval_ms)
                .with_engine(engine);
            let ck = run_protected(app, cfg, target, 99, n);
            cells.push(CadenceCell {
                engine: engine.name(),
                interval_ms,
                overhead: (ck.secs - base.secs) / base.secs,
                checkpoints: ck.checkpoints,
            });
        }
    }
    cells
}

/// A Figure 5-style timeline: per-bin served request counts and bytes,
/// with an exploit injected at `attack_at` requests.
#[derive(Debug, Clone)]
pub struct AttackTimeline {
    /// Bin width in virtual seconds.
    pub bin_secs: f64,
    /// Megabits served per bin.
    pub mbps: Vec<f64>,
    /// Virtual second at which the attack arrived.
    pub attack_secs: f64,
    /// Virtual seconds of service pause (analysis + recovery).
    pub pause_secs: f64,
    /// Recovery method used.
    pub method: &'static str,
}

/// Run the Figure 5 experiment: benign load, one attack, continued load.
pub fn attack_timeline(
    app: &App,
    config: Config,
    target: Target,
    exploit: Vec<u8>,
    before: usize,
    after: usize,
    bin_secs: f64,
) -> AttackTimeline {
    let mut s = Sweeper::protect(app, config).expect("protect");
    let mut w = Workload::new(target, 5);
    let mut events: Vec<(f64, usize)> = Vec::new(); // (time, bytes served)
    let mut pause_secs = 0.0;
    let mut method: &'static str = "none";
    let serve = |s: &mut Sweeper, req: Vec<u8>, events: &mut Vec<(f64, usize)>| {
        let len = req.len();
        if let RequestOutcome::Served { bytes, .. } = s.offer_request(req) {
            events.push((s.timeline.now_secs(), bytes + len));
        }
    };
    for _ in 0..before {
        serve(&mut s, w.next_request(), &mut events);
    }
    let attack_secs = s.timeline.now_secs();
    if let RequestOutcome::Attack(rep) = s.offer_request(exploit) {
        pause_secs = rep.pause_ms / 1e3;
        method = rep.recovery_method;
    }
    for _ in 0..after {
        serve(&mut s, w.next_request(), &mut events);
    }
    let end = s.timeline.now_secs();
    let bins = (end / bin_secs).ceil() as usize + 1;
    let mut mbps = vec![0.0; bins];
    for (t, b) in events {
        let idx = (t / bin_secs) as usize;
        if idx < bins {
            mbps[idx] += b as f64 * 8.0 / 1e6 / bin_secs;
        }
    }
    AttackTimeline {
        bin_secs,
        mbps,
        attack_secs,
        pause_secs,
        method,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use apps::squid;

    #[test]
    fn protected_run_serves_everything() {
        let app = squid::app().expect("app");
        let r = run_protected(&app, Config::producer(3), Target::Squid, 1, 50);
        assert_eq!(r.served, 50);
        assert!(r.secs > 0.0);
        assert!(r.checkpoints >= 1);
    }

    #[test]
    fn checkpoint_overhead_is_positive_and_decreases_with_interval() {
        let app = squid::app().expect("app");
        let fast = checkpoint_overhead(&app, Target::Squid, 20.0, 300);
        let slow = checkpoint_overhead(&app, Target::Squid, 200.0, 300);
        assert!(
            fast > slow,
            "more frequent checkpoints cost more: {fast:.4} vs {slow:.4}"
        );
        assert!(slow >= 0.0);
        assert!(
            fast < 0.25,
            "even 20 ms interval stays lightweight: {fast:.4}"
        );
    }

    #[test]
    fn attack_timeline_shows_dip_and_recovery() {
        let app = squid::app().expect("app");
        let tl = attack_timeline(
            &app,
            Config::producer(8),
            Target::Squid,
            squid::exploit_crash(&app).input,
            200,
            200,
            0.05,
        );
        // Domain recovery is the default: the attacked connection's
        // domain rolls back alone, so the method is "domain-rollback"
        // (a fail-closed fallback would report "rollback-replay").
        assert_eq!(tl.method, "domain-rollback");
        assert!(tl.pause_secs > 0.0);
        // Service resumed: the last bins carry traffic again.
        let tail: f64 = tl.mbps.iter().rev().take(3).sum();
        assert!(tail > 0.0, "service resumed after the attack");
    }
}
