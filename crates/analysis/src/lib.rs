//! # analysis — Sweeper's post-attack exploit analysis tools
//!
//! The four analysis steps of paper §3.2, applied (in the full system) to
//! sandboxed replays from a checkpoint, cheapest first:
//!
//! 1. [`coredump`] — static memory-state analysis of the faulted image:
//!    classifies the crash, checks stack/heap consistency, and yields the
//!    *initial* VSEF recommendation within (virtual) milliseconds.
//! 2. [`membug`] — dynamic memory-bug detection (stack smashing, heap
//!    overflow via the allocator's inline metadata, double free, dangling
//!    writes), with one-frame-up caller attribution via [`callstack`].
//! 3. [`taint`] — TaintCheck-style dynamic taint analysis from network
//!    input bytes to control-transfer sinks; names the exact input bytes
//!    responsible.
//! 4. [`slicing`] — dynamic backward slicing over a full trace, including
//!    control dependencies; used to cross-verify the other tools'
//!    findings ("if they identify an issue which is not in the slice,
//!    then they are incorrect").

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

mod addr;
pub mod callstack;
pub mod coredump;
pub mod membug;
pub mod slicing;
pub mod taint;

pub use callstack::ShadowStack;
pub use coredump::{analyze, CoreDumpReport, CrashClass, InitialRecommendation};
pub use membug::{MemBugDetector, MemBugFinding, MemBugKind};
pub use slicing::{backward_slice, Slice};
pub use taint::{TaintAlert, TaintSource, TaintTool};
