//! # sweeper — the end-to-end defence system (the paper's contribution)
//!
//! Ties the substrates together into the full loop of paper §2:
//!
//! - **[`runtime`]** — the protected-process wrapper: lightweight
//!   monitoring (ASLR faults + deployed VSEFs), periodic in-memory
//!   checkpoints, signature filtering at the network proxy, attack
//!   handling, and rollback-based recovery with restart fallback.
//! - **[`pipeline`]** — the post-attack analysis: rollback and re-execute
//!   repeatedly with progressively heavier instrumentation (memory-state
//!   → memory-bug → taint/isolation → backward slicing), emitting
//!   timestamped antibody releases for piecemeal distribution.
//! - **[`timeline`]** — the monotone global event log behind Table 3 and
//!   Figure 5.
//! - **[`config`]** — deployment knobs (checkpoint interval, producer vs
//!   consumer role, slicing toggle).
//! - **[`error`]** — the runtime's error type ([`SweeperError`]); the
//!   runtime degrades (partial antibodies, skipped hosts) rather than
//!   panicking.
//! - **[`fault`]** — the fault-injection seams ([`fault::FaultHooks`])
//!   the `chaos` harness drives; no-ops in production.
//! - **[`report`]** — Table 2/3-style rendering of attack reports.

pub mod config;
pub mod error;
pub mod fault;
pub mod pipeline;
pub mod report;
pub mod runtime;
pub mod timeline;

pub use config::{Config, RecoveryMode, Role};
pub use error::SweeperError;
pub use fault::{FaultHooks, NoFaultHooks};
pub use pipeline::{
    analyze_attack, timings_from_timeline, AnalysisReport, InputFinding, SliceVerdict, StepTimings,
};
pub use runtime::{AttackReport, BundleOutcome, HostStatus, PollOutcome, RequestOutcome, Sweeper};
pub use timeline::{Event, LatencyBook, Stamped, Timeline};
