//! Sweeper deployment configuration.

use checkpoint::Engine;
use svm::clock::secs_to_cycles;
use svm::loader::Aslr;

/// How post-attack recovery restores service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryMode {
    /// Whole-machine rollback to the chosen checkpoint followed by a
    /// drop-the-attack replay of every post-checkpoint connection.
    Full,
    /// Partial rollback of only the attacked connection's domain
    /// (benign connections are neither dropped nor replayed — invariant
    /// I12), falling back to [`RecoveryMode::Full`] whenever the
    /// page→domain ledger cannot *prove* isolation (cross-domain spill,
    /// corrupt ledger, stale window, trailing benign traffic). The
    /// fallback is fail-closed: correctness never depends on domain
    /// isolation holding.
    #[default]
    Domain,
    /// Run Domain recovery on a shadow clone and Full recovery on the
    /// live machine for the same fault, assert their post-recovery
    /// digests agree, and adopt the Full result — the differential
    /// oracle configuration used by the chaos harness and CI.
    Differential,
}

impl RecoveryMode {
    /// Stable lowercase label (metrics, bench JSON).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryMode::Full => "full",
            RecoveryMode::Domain => "domain",
            RecoveryMode::Differential => "differential",
        }
    }
}

/// How much of Sweeper a host deploys (paper §6 community roles).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Full system: lightweight monitoring, checkpointing, analysis,
    /// antibody generation (a community *Producer*).
    Producer,
    /// Lightweight monitoring + deployed antibodies only (a *Consumer*):
    /// attacks are detected and service recovers by restart, but no
    /// analysis runs locally.
    Consumer,
}

/// Tunable parameters (defaults follow the paper's evaluation setup).
#[derive(Debug, Clone)]
pub struct Config {
    /// Address-space randomization policy (the lightweight monitor).
    pub aslr: Aslr,
    /// Checkpoint interval in virtual cycles (paper default: 200 ms).
    pub checkpoint_interval: u64,
    /// Retained checkpoints (paper default: 20).
    pub retained_checkpoints: usize,
    /// Snapshot engine: incremental dirty-page deltas by default;
    /// `Full` selects the legacy whole-machine copy (the Figure 4
    /// baseline).
    pub checkpoint_engine: Engine,
    /// Run the expensive dynamic-slicing verification step.
    pub run_slicing: bool,
    /// Deployment role.
    pub role: Role,
    /// Virtual-time cost of a full restart (paper: Squid restart >5 s).
    pub restart_cycles: u64,
    /// Cycle budget per analysis replay (safety bound).
    pub replay_budget: u64,
    /// Sampling (paper §4.2): fraction of requests additionally run under
    /// full dynamic taint analysis. Catches attacks the probabilistic
    /// lightweight monitors can miss (e.g. a worm that guessed the
    /// layout), at heavyweight cost for the sampled requests only.
    pub sample_rate: f64,
    /// Enforce non-executable data pages (NX). Off by default: the
    /// paper's 2003-era targets predate NX, and the exploits' shellcode
    /// runs from data. Turning it on is the "modern mitigation" ablation.
    pub nx: bool,
    /// Post-attack recovery strategy (default: [`RecoveryMode::Domain`]
    /// with a fail-closed fallback to Full).
    pub recovery: RecoveryMode,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            aslr: Aslr::on(0x5eed_0001),
            checkpoint_interval: secs_to_cycles(0.2),
            retained_checkpoints: 20,
            checkpoint_engine: Engine::default(),
            run_slicing: true,
            role: Role::Producer,
            restart_cycles: secs_to_cycles(5.0),
            replay_budget: 20_000_000_000,
            sample_rate: 0.0,
            nx: false,
            recovery: RecoveryMode::default(),
        }
    }
}

impl Config {
    /// The paper's default producer configuration with a given ASLR seed.
    pub fn producer(seed: u64) -> Config {
        Config {
            aslr: Aslr::on(seed),
            ..Config::default()
        }
    }

    /// A consumer configuration (no local analysis).
    pub fn consumer(seed: u64) -> Config {
        Config {
            aslr: Aslr::on(seed),
            role: Role::Consumer,
            ..Config::default()
        }
    }

    /// Override the checkpoint interval in milliseconds.
    pub fn with_interval_ms(mut self, ms: f64) -> Config {
        self.checkpoint_interval = secs_to_cycles(ms / 1e3);
        self
    }

    /// Enable §4.2 sampling at the given rate (0.0..=1.0).
    pub fn with_sampling(mut self, rate: f64) -> Config {
        self.sample_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Select the checkpoint snapshot engine.
    pub fn with_engine(mut self, engine: Engine) -> Config {
        self.checkpoint_engine = engine;
        self
    }

    /// Select the post-attack recovery strategy.
    pub fn with_recovery(mut self, mode: RecoveryMode) -> Config {
        self.recovery = mode;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_setup() {
        let c = Config::default();
        assert_eq!(c.checkpoint_interval, secs_to_cycles(0.2));
        assert_eq!(c.retained_checkpoints, 20);
        assert_eq!(c.checkpoint_engine, Engine::Incremental);
        assert!(c.aslr.enabled);
        assert_eq!(c.aslr.entropy_bits, 12);
        assert_eq!(c.recovery, RecoveryMode::Domain, "partial by default");
    }

    #[test]
    fn recovery_override() {
        let c = Config::default().with_recovery(RecoveryMode::Differential);
        assert_eq!(c.recovery, RecoveryMode::Differential);
        assert_eq!(c.recovery.name(), "differential");
    }

    #[test]
    fn interval_override() {
        let c = Config::default().with_interval_ms(30.0);
        assert_eq!(c.checkpoint_interval, secs_to_cycles(0.03));
    }
}
