//! # chaos — deterministic fault injection and differential fuzzing
//!
//! The paper's end-to-end claim — lightweight monitor trips → rollback →
//! heavyweight re-execution → antibody → resume — is a chain of
//! hand-offs, and every hand-off can fail in a real deployment. This
//! crate drives the *whole* pipeline (svm → dbi → checkpoint → sweeper →
//! antibody → epidemic) under seeded fault plans and checks that it
//! degrades instead of breaking. Everything derives from one `u64` case
//! seed through the in-tree counter-based PRNG
//! ([`epidemic::rng::draw`]), so any failing case replays exactly from
//! its seed:
//!
//! ```text
//! cargo run --release -p chaos -- --seed 0xDEADBEEF
//! ```
//!
//! Three pillars (see `TESTING.md` for the operator guide):
//!
//! - **[`plan`]** — [`plan::FaultPlan`]: a seeded implementation of
//!   [`sweeper::FaultHooks`] injecting analysis-tool failures, mid-replay
//!   DBI detaches, checkpoint-ring eviction races, dropped / corrupted /
//!   reordered proxy replays, and antibody bit-flips. Every decision is a
//!   pure function of `(seed, domain, counter)`.
//! - **[`invariants`]** — the contract checked after every faulted run:
//!   the pipeline never panics, detection always yields an antibody *or*
//!   an explicit degradation on the record, the bookkeeping identities
//!   hold, and a plan that fired nothing is bit-identical to the
//!   unfaulted run.
//! - **[`runner`]** — the differential fuzzer: each seeded workload runs
//!   with the decode cache on/off × community parallelism K ∈ {1, 4}
//!   (metrics always on) and all four outcome digests must be bit-equal;
//!   the outbreak then re-runs over the antibody distribution network —
//!   a perfect wire must reproduce the legacy clock bit-identically, a
//!   seeded lossy/Byzantine wire must stay shard-invariant, forged
//!   bundles must be rejected (invariant I8) — and finally the same
//!   workload runs again under the fault plan and the invariant checker
//!   takes over. Every community leg runs on both contact-state
//!   backends and their outcomes must be equal outside the wall-clock
//!   fields (invariant I11).
//!
//! [`scenario`] turns a seed into a concrete workload (guest app, benign
//! traffic, exploit schedule, deployment knobs) and [`digest`] defines
//! the stable outcome fingerprint (wall-clock values and cache-internal
//! counters excluded).

pub mod digest;
pub mod invariants;
pub mod plan;
pub mod runner;
pub mod scenario;
pub mod seedfile;

pub use digest::{digest_community, digest_community_epidemic, digest_sweeper, Hasher};
pub use invariants::{check_faulted_run, check_i12, check_i8, FaultedRun, Violation};
pub use plan::{FaultPlan, FaultStats, SharedStats, WirePlan};
pub use runner::{run_case, run_many, CaseReport, Summary};
pub use scenario::{CaseScenario, Request};
pub use seedfile::{parse_seed, parse_seed_list, SeedFileError};
