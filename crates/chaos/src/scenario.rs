//! Seed → workload: the deterministic case generator.
//!
//! A [`CaseScenario`] fixes everything about one fuzz case except the
//! fault plan: which guest server runs, the deployment knobs (role,
//! checkpoint cadence, retention, sampling, slicing), the benign request
//! stream, and where exploit variants land in it. The guest rotates with
//! `seed % 4`, so any contiguous block of ≥ 4 seeds covers all four
//! Table 1 servers.

use apps::workload::{Target, Workload};
use apps::{cvs, httpd1, httpd2, squid, App};
use checkpoint::Engine;
use epidemic::community::{CommunityEngine, CommunityParams, Parallelism};
use epidemic::distnet::DistNetParams;
use epidemic::failest::FailContParams;
use epidemic::rng::draw;
use sweeper::{Config, RecoveryMode, Role};

// Domain separators for scenario-shaping draws.
const DOM_BENIGN_N: u64 = 0x5ce0_0001;
const DOM_ATTACK_N: u64 = 0x5ce0_0002;
const DOM_ATTACK_POS: u64 = 0x5ce0_0003;
const DOM_ATTACK_SALT: u64 = 0x5ce0_0004;
const DOM_ROLE: u64 = 0x5ce0_0005;
const DOM_SAMPLING: u64 = 0x5ce0_0006;
const DOM_INTERVAL: u64 = 0x5ce0_0007;
const DOM_RETAIN: u64 = 0x5ce0_0008;
const DOM_SLICING: u64 = 0x5ce0_0009;
const DOM_ASLR: u64 = 0x5ce0_000a;
const DOM_WORKLOAD: u64 = 0x5ce0_000b;
const DOM_EPI: u64 = 0x5ce0_000c;
const DOM_ENGINE: u64 = 0x5ce0_000d;
const DOM_FAILCONT: u64 = 0x5ce0_000e;
const DOM_RECOVERY: u64 = 0x5ce0_000f;

/// One request in a scenario's schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Benign traffic from the deterministic workload generator.
    Benign(Vec<u8>),
    /// An exploit variant (`salt` 0 is the canonical crash exploit).
    Attack {
        /// Polymorphic variant index.
        salt: u8,
        /// The exploit bytes.
        input: Vec<u8>,
    },
}

impl Request {
    /// The raw bytes offered to the proxy.
    pub fn bytes(&self) -> &[u8] {
        match self {
            Request::Benign(b) => b,
            Request::Attack { input, .. } => input,
        }
    }
}

/// Everything about one fuzz case except the fault plan.
#[derive(Debug, Clone)]
pub struct CaseScenario {
    /// The case seed everything derives from.
    pub seed: u64,
    /// Which guest server this case protects.
    pub target: Target,
    /// Deployment role (mostly producer; 1 in 8 seeds is a consumer).
    pub role: Role,
    /// §4.2 sampling rate (mostly 0; some seeds exercise the taint path).
    pub sample_rate: f64,
    /// Checkpoint interval in virtual milliseconds.
    pub interval_ms: f64,
    /// Retained checkpoints (small values stress the eviction race).
    pub retained: usize,
    /// Whether the slicing verification step runs.
    pub run_slicing: bool,
    /// Checkpoint snapshot engine: three quarters of the seeds run the
    /// production `Incremental` engine (whose rebuilds I9 checks), a
    /// quarter the legacy `Full` copy.
    pub engine: Engine,
    /// Post-attack recovery strategy. Half the seeds run the default
    /// partial (`Domain`) rollback, a quarter pin the legacy `Full`
    /// path, and a quarter run the `Differential` recovery oracle
    /// (Domain on a shadow clone, Full on the live machine, digests
    /// compared — the strongest partial-recovery oracle the fuzzer has).
    pub recovery: RecoveryMode,
    /// The request schedule, in offer order.
    pub requests: Vec<Request>,
    /// Community-simulation parameters for the epidemic differential leg
    /// (parallelism is filled in per leg by the runner).
    pub community: CommunityParams,
}

impl CaseScenario {
    /// Derive the full scenario for `seed`.
    pub fn from_seed(seed: u64) -> CaseScenario {
        let target = match seed % 4 {
            0 => Target::Apache1,
            1 => Target::Apache2,
            2 => Target::Cvs,
            _ => Target::Squid,
        };
        let role = if draw(seed, DOM_ROLE, 0).is_multiple_of(8) {
            Role::Consumer
        } else {
            Role::Producer
        };
        let sample_rate = if draw(seed, DOM_SAMPLING, 0).is_multiple_of(8) {
            0.3
        } else {
            0.0
        };
        let interval_ms = match draw(seed, DOM_INTERVAL, 0) % 3 {
            0 => 30.0,
            1 => 100.0,
            _ => 200.0,
        };
        let retained = match draw(seed, DOM_RETAIN, 0) % 3 {
            0 => 2,
            1 => 4,
            _ => 20,
        };
        let run_slicing = draw(seed, DOM_SLICING, 0).is_multiple_of(2);
        let engine = match draw(seed, DOM_ENGINE, 0) % 4 {
            0 => Engine::Full,
            _ => Engine::Incremental,
        };
        let recovery = match draw(seed, DOM_RECOVERY, 0) % 4 {
            0 => RecoveryMode::Full,
            1 => RecoveryMode::Differential,
            _ => RecoveryMode::Domain,
        };

        // Request schedule: 4–10 benign requests with 0–2 exploit
        // variants interleaved after the first benign request (so the
        // fuzzer also covers the attack-free path).
        let n_benign = 4 + (draw(seed, DOM_BENIGN_N, 0) % 7) as usize;
        let n_attacks = (draw(seed, DOM_ATTACK_N, 0) % 3) as usize;
        let mut benign = Workload::new(target, draw(seed, DOM_WORKLOAD, 0));
        let mut requests: Vec<Request> = (0..n_benign)
            .map(|_| Request::Benign(benign.next_request()))
            .collect();
        for a in 0..n_attacks {
            let salt = if a == 0 {
                0
            } else {
                1 + (draw(seed, DOM_ATTACK_SALT, a as u64) % 23) as u8
            };
            let input = exploit_input(target, salt);
            let pos = 1 + (draw(seed, DOM_ATTACK_POS, a as u64) as usize) % requests.len();
            requests.insert(pos, Request::Attack { salt, input });
        }

        // A small community outbreak for the epidemic differential leg.
        // The runner runs every leg on both backends, parity checked
        // per case (I11). A third of the seeds also arm the failure
        // estimator so the containment draws are fuzzed alongside
        // everything else.
        let e = |c: u64| draw(seed, DOM_EPI, c);
        let community = CommunityParams {
            hosts: 600 + e(0) % 1400,
            alpha: 0.002 + (e(1) % 9) as f64 * 0.001,
            rho: if e(2) % 2 == 0 { 1.0 } else { 0.5 },
            gamma_ticks: 4 + e(3) % 16,
            attempts_per_tick: 1 + (e(4) % 2) as u32,
            attempt_prob: 1.0,
            i0: 1 + e(5) % 12,
            max_ticks: 600,
            seed: draw(seed, DOM_EPI, 99),
            parallelism: Parallelism::Fixed(1),
            engine: CommunityEngine::Soa,
            distnet: DistNetParams::disabled(),
            failcont: if draw(seed, DOM_FAILCONT, 0).is_multiple_of(3) {
                FailContParams::standard()
            } else {
                FailContParams::disabled()
            },
        };

        CaseScenario {
            seed,
            target,
            role,
            sample_rate,
            interval_ms,
            retained,
            run_slicing,
            engine,
            recovery,
            requests,
            community,
        }
    }

    /// Assemble the guest application for this scenario.
    pub fn app(&self) -> Result<App, svm::SvmError> {
        match self.target {
            Target::Apache1 => httpd1::app(),
            Target::Apache2 => httpd2::app(),
            Target::Cvs => cvs::app(),
            Target::Squid => squid::app(),
        }
    }

    /// The Sweeper configuration for this scenario.
    pub fn config(&self) -> Config {
        let mut c = match self.role {
            Role::Producer => Config::producer(draw(self.seed, DOM_ASLR, 0)),
            Role::Consumer => Config::consumer(draw(self.seed, DOM_ASLR, 0)),
        }
        .with_interval_ms(self.interval_ms)
        .with_sampling(self.sample_rate)
        .with_engine(self.engine)
        .with_recovery(self.recovery);
        c.retained_checkpoints = self.retained;
        c.run_slicing = self.run_slicing;
        c
    }

    /// The canonical (salt-0) crash exploit for this scenario's guest —
    /// the bundle hand-off leg uses it to make the producer's analysis
    /// pipeline emit a real antibody to certify and then forge.
    pub fn canonical_exploit(&self) -> Vec<u8> {
        exploit_input(self.target, 0)
    }

    /// Number of attack requests scheduled.
    pub fn attacks_scheduled(&self) -> usize {
        self.requests
            .iter()
            .filter(|r| matches!(r, Request::Attack { .. }))
            .count()
    }

    /// Community parameters with the given shard count.
    pub fn community_with(&self, k: usize) -> CommunityParams {
        CommunityParams {
            parallelism: Parallelism::Fixed(k),
            ..self.community
        }
    }

    /// Community parameters with the distribution network configured
    /// (the PR-5 distnet differential legs).
    pub fn community_distnet(&self, k: usize, distnet: DistNetParams) -> CommunityParams {
        CommunityParams {
            parallelism: Parallelism::Fixed(k),
            distnet,
            ..self.community
        }
    }

    /// A *contained* variant of the community outbreak for the faulted
    /// distnet leg: extra producers and ρ = 0.5 so the antibody race is
    /// genuinely winnable and the distribution network reliably
    /// activates (a saturating outbreak never broadcasts, which would
    /// starve the wire-fault families of coverage).
    pub fn community_contained_distnet(&self, k: usize, distnet: DistNetParams) -> CommunityParams {
        CommunityParams {
            parallelism: Parallelism::Fixed(k),
            distnet,
            alpha: self.community.alpha.max(0.04),
            rho: 0.5,
            gamma_ticks: self.community.gamma_ticks.min(8),
            ..self.community
        }
    }
}

/// The exploit input for a guest: salt 0 is the canonical crash
/// exploit, other salts are polymorphic variants.
fn exploit_input(target: Target, salt: u8) -> Vec<u8> {
    // The `_a: &App` parameters of the crash builders are unused by
    // construction (layout-independent exploits), so a minimal deferred
    // app is not required; still, build via the public API.
    match target {
        Target::Apache1 => {
            let a = httpd1::app().expect("httpd1 assembles");
            if salt == 0 {
                httpd1::exploit_crash(&a).input
            } else {
                httpd1::exploit_crash_poly(&a, salt).input
            }
        }
        Target::Apache2 => {
            let a = httpd2::app().expect("httpd2 assembles");
            if salt == 0 {
                httpd2::exploit_crash(&a).input
            } else {
                httpd2::exploit_crash_poly(&a, salt).input
            }
        }
        Target::Cvs => {
            let a = cvs::app().expect("cvs assembles");
            if salt == 0 {
                cvs::exploit_crash(&a).input
            } else {
                cvs::exploit_crash_poly(&a, salt).input
            }
        }
        Target::Squid => {
            let a = squid::app().expect("squid assembles");
            if salt == 0 {
                squid::exploit_crash(&a).input
            } else {
                squid::exploit_crash_poly(&a, salt).input
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        for seed in [0u64, 7, 0xfeed] {
            let a = CaseScenario::from_seed(seed);
            let b = CaseScenario::from_seed(seed);
            assert_eq!(a.requests, b.requests);
            assert_eq!(a.community, b.community);
            assert_eq!(a.target, b.target);
        }
    }

    #[test]
    fn four_consecutive_seeds_cover_all_guests() {
        let mut targets: Vec<Target> = (100..104u64)
            .map(|s| CaseScenario::from_seed(s).target)
            .collect();
        targets.sort_by_key(|t| format!("{t:?}"));
        targets.dedup();
        assert_eq!(targets.len(), 4);
    }

    #[test]
    fn seeds_cover_both_checkpoint_engines() {
        let engines: std::collections::BTreeSet<&'static str> = (0..32u64)
            .map(|s| CaseScenario::from_seed(s).engine.name())
            .collect();
        assert_eq!(engines.len(), 2, "engines covered: {engines:?}");
    }

    #[test]
    fn seeds_cover_all_three_recovery_modes() {
        let modes: std::collections::BTreeSet<&'static str> = (0..32u64)
            .map(|s| CaseScenario::from_seed(s).recovery.name())
            .collect();
        assert_eq!(modes.len(), 3, "recovery modes covered: {modes:?}");
    }

    #[test]
    fn schedules_mix_benign_and_attacks() {
        let mut with_attacks = 0;
        let mut without = 0;
        for seed in 0..32u64 {
            let s = CaseScenario::from_seed(seed);
            assert!(s.requests.len() >= 4);
            assert!(matches!(s.requests[0], Request::Benign(_)), "warmup first");
            if s.attacks_scheduled() > 0 {
                with_attacks += 1;
            } else {
                without += 1;
            }
        }
        assert!(with_attacks > 0 && without > 0);
    }
}
