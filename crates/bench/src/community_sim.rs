//! A miniature community-defense simulation over *real* Sweeper hosts.
//!
//! The §6 epidemic figures are analytic; this module closes the loop by
//! running the same story against actual protected machines: a hit-list
//! worm walks a population of real servers firing a real exploit
//! (computed against the nominal layout). Each host randomizes
//! independently, so most attempts crash; hosts running full Sweeper
//! (producers) analyze the first attempt against them and publish an
//! antibody; after a dissemination delay every host deploys it, and
//! later attempts are filtered or VSEF-caught. The simulation reports
//! the same metrics as the model: time of first producer contact (T0),
//! compromised hosts, and who was protected by what.

use apps::cvs;
use epidemic::Parallelism;
use svm::loader::Layout;
use sweeper::{Config, RequestOutcome, Role, Sweeper};

/// Per-host outcome of the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostOutcome {
    /// Never attacked (worm stopped first).
    Untouched,
    /// Attacked; exploit crashed against this host's layout (detected).
    CrashDetected,
    /// Attacked after the antibody arrived: dropped by a signature.
    Filtered,
    /// Attacked after the antibody arrived: caught by a deployed VSEF.
    VsefCaught,
    /// The exploit ran shellcode on this host.
    Compromised,
}

/// Result of one community campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// Outcome per host, in hit-list order.
    pub outcomes: Vec<HostOutcome>,
    /// Index of the attack that first hit a producer.
    pub first_producer_contact: Option<usize>,
    /// Index from which the antibody was deployed community-wide.
    pub antibody_live_from: Option<usize>,
    /// The producer's measured time-to-antibody (virtual ms).
    pub gamma1_ms: Option<f64>,
}

impl CampaignResult {
    /// Number of compromised hosts.
    pub fn compromised(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, HostOutcome::Compromised))
            .count()
    }

    /// Number of hosts saved by the distributed antibody.
    pub fn antibody_protected(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o, HostOutcome::Filtered | HostOutcome::VsefCaught))
            .count()
    }
}

/// Configuration of the miniature campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Number of hosts on the worm's hit list.
    pub hosts: usize,
    /// Every `producer_every`-th host runs full Sweeper (α analogue).
    pub producer_every: usize,
    /// Attacks between the producer's analysis finishing and every host
    /// having the antibody deployed (the dissemination delay, γ₂
    /// expressed in worm-attempts rather than seconds).
    pub dissemination_attempts: usize,
    /// Disable ASLR on consumer hosts (models ρ = 1: every attempt on an
    /// unprotected host succeeds).
    pub consumers_unrandomized: bool,
    /// Base RNG/ASLR seed.
    pub seed: u64,
}

/// Build host `i`'s configuration (pure function of `cfg` and `i`).
fn host_config(cfg: &CampaignConfig, i: usize) -> Config {
    let is_producer = cfg.producer_every > 0 && i.is_multiple_of(cfg.producer_every);
    let mut c = if is_producer {
        Config::producer(cfg.seed + i as u64)
    } else {
        Config::consumer(cfg.seed + i as u64)
    };
    if cfg.consumers_unrandomized && !is_producer {
        c.aslr = svm::loader::Aslr::off();
    }
    c
}

/// Boot the host population in hit-list order.
fn boot_hosts(cfg: &CampaignConfig, app: &apps::App) -> Vec<Sweeper> {
    (0..cfg.hosts)
        .map(|i| Sweeper::protect(app, host_config(cfg, i)).expect("protect"))
        .collect()
}

/// Run the campaign with the CVS unlink-hijack worm.
pub fn run_campaign(cfg: CampaignConfig) -> CampaignResult {
    let app = cvs::app().expect("app");
    let exploit = cvs::exploit_compromise(&app, &Layout::nominal());
    let mut hosts: Vec<Sweeper> = boot_hosts(&cfg, &app);

    let mut outcomes = vec![HostOutcome::Untouched; cfg.hosts];
    let mut first_producer_contact = None;
    let mut antibody: Option<(usize, antibody::Antibody, f64)> = None;
    let mut antibody_live_from = None;

    for i in 0..cfg.hosts {
        // Deploy the antibody once the dissemination delay has elapsed.
        if antibody_live_from.is_none() {
            if let Some((produced_at, ab, _)) = &antibody {
                if i >= produced_at + cfg.dissemination_attempts {
                    for h in hosts.iter_mut() {
                        h.deploy_antibody(ab);
                    }
                    antibody_live_from = Some(i);
                }
            }
        }
        let host = &mut hosts[i];
        let is_producer = host.config.role == Role::Producer;
        if is_producer && first_producer_contact.is_none() {
            first_producer_contact = Some(i);
        }
        match host.offer_request(exploit.input.clone()) {
            RequestOutcome::Filtered { .. } => outcomes[i] = HostOutcome::Filtered,
            RequestOutcome::Attack(report) => {
                outcomes[i] = if report.compromised {
                    HostOutcome::Compromised
                } else if report.cause.starts_with("vsef:") {
                    HostOutcome::VsefCaught
                } else {
                    HostOutcome::CrashDetected
                };
                if antibody.is_none() {
                    if let Some(a) = report.analysis {
                        antibody = Some((i, a.antibody.clone(), a.timings.initial_ms));
                    }
                }
            }
            RequestOutcome::Served { .. } => outcomes[i] = HostOutcome::Compromised,
        }
    }
    CampaignResult {
        outcomes,
        first_producer_contact,
        antibody_live_from,
        gamma1_ms: antibody.map(|(_, _, g)| g),
    }
}

/// A Figure-7-style large-N run of the sharded *model* engine (hit-list
/// worm, β = 1000, ρ = 2⁻¹², γ = 5 s) with a hot start (half the
/// community already infected) so the per-tick workload is dense enough
/// to measure sharding speedups. Returns the outcome plus wall-clock
/// seconds. Bit-identical results at any shard count for a fixed seed.
pub fn model_campaign(
    hosts: u64,
    parallelism: Parallelism,
    seed: u64,
) -> (epidemic::CommunityOutcome, f64) {
    let scenario = epidemic::Scenario {
        n: hosts as f64,
        ..epidemic::Scenario::hitlist(1000.0, 0.001, 5.0)
    };
    let params = epidemic::CommunityParams {
        i0: hosts / 2,
        ..epidemic::CommunityParams::from_scenario(&scenario, 0.01, seed, parallelism)
    };
    let start = std::time::Instant::now();
    let outcome = epidemic::community::run(&params);
    (outcome, start.elapsed().as_secs_f64())
}

/// Render a campaign summary line.
pub fn render(cfg: CampaignConfig, r: &CampaignResult) -> String {
    format!(
        "hosts={:<3} producers=1/{:<2} dissemination={:<2} attempts | compromised {:>2}, crash-detected {:>2}, antibody-protected {:>2} (gamma1 {:.0} ms)",
        cfg.hosts,
        cfg.producer_every,
        cfg.dissemination_attempts,
        r.compromised(),
        r.outcomes.iter().filter(|o| matches!(o, HostOutcome::CrashDetected)).count(),
        r.antibody_protected(),
        r.gamma1_ms.unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomized_community_contains_the_worm() {
        let cfg = CampaignConfig {
            hosts: 12,
            producer_every: 4,
            dissemination_attempts: 2,
            consumers_unrandomized: false,
            seed: 5000,
        };
        let r = run_campaign(cfg);
        assert_eq!(r.compromised(), 0, "{:?}", r.outcomes);
        // A producer was contacted and produced the antibody quickly.
        assert!(r.first_producer_contact.is_some());
        assert!(r.gamma1_ms.expect("antibody produced") < 500.0);
        // Once live, every later host is protected pre-crash.
        let live = r.antibody_live_from.expect("antibody went live");
        for (i, o) in r.outcomes.iter().enumerate().skip(live) {
            assert!(
                matches!(o, HostOutcome::Filtered | HostOutcome::VsefCaught),
                "host {i} after dissemination: {o:?}"
            );
        }
    }

    #[test]
    fn unrandomized_consumers_without_producers_are_slaughtered() {
        // ρ = 1 and α = 0: the hit-list worm owns every host — the
        // paper's "unimpeded ... infect every vulnerable host" baseline.
        let cfg = CampaignConfig {
            hosts: 8,
            producer_every: 0,
            dissemination_attempts: usize::MAX,
            consumers_unrandomized: true,
            seed: 6000,
        };
        let r = run_campaign(cfg);
        assert_eq!(r.compromised(), 8, "{:?}", r.outcomes);
    }

    #[test]
    fn unrandomized_consumers_with_a_producer_lose_only_the_window() {
        // ρ = 1 for consumers, but host 0 is a randomized producer: the
        // worm compromises exactly the consumers hit before the antibody
        // propagates — the infected count *is* the response window.
        let cfg = CampaignConfig {
            hosts: 10,
            producer_every: 10, // Only host 0.
            dissemination_attempts: 3,
            consumers_unrandomized: true,
            seed: 7000,
        };
        let r = run_campaign(cfg);
        assert_eq!(r.antibody_live_from, Some(3));
        assert_eq!(
            r.compromised(),
            2,
            "hosts 1,2 fall in the window: {:?}",
            r.outcomes
        );
        assert!(r.outcomes[3..]
            .iter()
            .all(|o| matches!(o, HostOutcome::Filtered | HostOutcome::VsefCaught)));
    }

    #[test]
    fn slower_dissemination_costs_more_hosts() {
        let base = CampaignConfig {
            hosts: 10,
            producer_every: 10,
            dissemination_attempts: 2,
            consumers_unrandomized: true,
            seed: 8000,
        };
        let fast = run_campaign(base);
        let slow = run_campaign(CampaignConfig {
            dissemination_attempts: 6,
            ..base
        });
        assert!(
            slow.compromised() > fast.compromised(),
            "gamma matters: fast {} vs slow {}",
            fast.compromised(),
            slow.compromised()
        );
    }
}
