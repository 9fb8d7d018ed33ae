//! # epidemic — the community-defense worm model (paper §6)
//!
//! The Susceptible-Infected community model of equations (1)-(4):
//! Producers (full Sweeper, ratio α) detect the first infection attempt
//! against them, produce antibodies within the response time γ, and
//! immunize everyone; Consumers rely on lightweight proactive protection
//! (per-attempt success probability ρ) until then.
//!
//! - [`model`] — RK4 integration of the ODEs plus the closed-form
//!   logistic used to validate it.
//! - [`community`] — the discrete-tick community engine, shardable
//!   across threads with a deterministic merge (bit-identical to its
//!   serial run for the same seed); also the Monte-Carlo cross-check of
//!   the ODEs.
//! - [`distnet`] — the antibody distribution network: a deterministic,
//!   lossy, Byzantine-adversarial message layer that replaces the
//!   idealized instantaneous-γ clock with certified-bundle broadcast,
//!   verify-before-deploy, retry/backoff, and graceful degradation.
//! - [`soa`] — struct-of-arrays host state: word-level bitsets plus an
//!   active-host queue, the backend that makes million-host community
//!   runs O(infected) per tick instead of O(hosts).
//! - [`failest`] — connection-failure containment: hyper-compact
//!   failure estimators flagging and throttling scanning sources, the
//!   network-side alternative to antibody distribution.
//! - [`contact`] — the event-driven contact process feeding the fleet
//!   reactor: each infection spawns counter-keyed exponential-delay
//!   contacts instead of dense per-tick scans.
//! - [`figures`] — the α/γ sweeps regenerating Figures 6, 7, and 8.
//! - [`rng`] — the counter-based deterministic RNG every stochastic
//!   engine draws from.

pub mod community;
pub mod contact;
pub mod distnet;
pub mod failest;
pub mod figures;
pub mod model;
pub mod rng;
pub mod soa;

pub use community::{
    CommunityEngine, CommunityOutcome, CommunityParams, Parallelism, ShardStats, TickStats,
};
pub use contact::ContactModel;
pub use distnet::{backoff_ticks, DistNet, DistNetParams, DistOutcome, DistShardStats};
pub use failest::{FailContOutcome, FailContParams};
pub use figures::{
    figure6, figure6_community, figure7, figure7_community, figure8, figure8_community,
    CommunitySweepConfig, Curve, Figure, ALPHAS_FIG6, ALPHAS_FIG78, GAMMAS,
};
pub use model::{logistic_i, required_gamma, solve, Outcome, Scenario};
pub use soa::{HostBits, HostSet, SoaHosts};
