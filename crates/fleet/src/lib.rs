//! # fleet — the deterministic virtual-clock front-end (paper §5 scale-out)
//!
//! The per-host experiments elsewhere in this repository drive one
//! [`sweeper::Sweeper`] at a time. Sweeper's claims, though, are
//! *community* claims: thousands of lightly-instrumented hosts, a few
//! producers doing heavy analysis, antibodies racing a fast worm. This
//! crate is the front-end that serves that community from one process:
//!
//! - [`reactor`] — a sharded discrete-event scheduler over a virtual
//!   clock whose event order is a pure function of event identity
//!   (counter-PRNG tie-breaking), so a run is **bit-identical** for
//!   any shard count and across repeats of the same seed.
//! - [`loadgen`] — open-loop Poisson client arrivals per host, keyed
//!   by `(host, arrival-index)`.
//! - [`sim`] — the fleet itself: 1k–10k guest Sweeper instances, each
//!   a full protected server, serving benign load while the epidemic
//!   contact model ([`epidemic::contact`]) injects a mid-run outbreak;
//!   one host's rollback/replay/analysis pause overlaps every other
//!   host's service, and checkpoint pre-copy drains are batched into
//!   the gaps between events.
//!
//! The headline measurement ([`sim::run`] → [`FleetOutcome`]): fleet-
//! wide p50/p99/p999 benign service latency on the virtual clock,
//! outbreak window versus quiescent baseline, plus a determinism
//! digest the chaos harness checks for shard invariance (I10) and the
//! `tables fleet` benchmark serializes as the schema-v7 `"fleet"`
//! block.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod loadgen;
pub mod reactor;
pub mod sim;

pub use loadgen::LoadGen;
pub use reactor::{Fired, Reactor};
pub use sim::{run, FleetConfig, FleetOutcome, COMMUNITY_KEY};
