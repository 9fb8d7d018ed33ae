//! # dbi — dynamic binary instrumentation over the Sweeper VM
//!
//! The PIN analogue of the reproduction (paper §3.1): a [`tool::Tool`]
//! abstraction, an [`instr::Instrumenter`] that multiplexes machine events
//! to attached tools — including *attaching mid-execution to a running
//! process*, the property Sweeper's deferred-analysis design hinges on —
//! per-pc selective instrumentation ([`tool::Watch`]) that makes VSEFs
//! cheap, virtual-cycle overhead accounting, the resolved dataflow
//! [`effects::effects`] decoder behind taint analysis and VSEFs, its
//! compact state-free part [`effects::access`] behind slicing, and a full
//! [`trace::TraceRecorder`].

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod effects;
pub mod instr;
pub mod tool;
pub mod trace;

pub use effects::{effects, Effects, Flow, Loc};
pub use instr::{Instrumenter, ToolId};
pub use tool::{Tool, Watch};
pub use trace::{TraceEntry, TraceEvent, TraceRecorder};
