//! # svm — the Sweeper virtual machine substrate
//!
//! A deterministic, fault-containing user-level virtual machine that stands
//! in for the paper's x86/Linux/PIN substrate (see `DESIGN.md` §2 for the
//! substitution argument). It provides:
//!
//! - a small fixed-width RISC-like ISA ([`isa`]) with an assembler
//!   ([`asm`]) and loader ([`loader`]) supporting address-space
//!   randomization;
//! - paged, permission-checked, copy-on-write guest memory ([`mem`]),
//!   with a span-indexed page table and each page's permission in its
//!   slot, so that every access costs one span lookup per page it
//!   touches, while `write_seq` and the per-page write generations still
//!   count bytes;
//! - a deliberately vulnerable in-guest-memory heap allocator ([`alloc`])
//!   with glibc-style inline boundary tags and unlink semantics;
//! - a connection-oriented network endpoint ([`net`]) whose reads carry
//!   input-stream offsets (the taint source);
//! - instruction-level instrumentation hooks ([`hook`]) that the `dbi`
//!   crate turns into PIN-style dynamic instrumentation; a hook states
//!   its interest once per run, and the machine makes no call the hook
//!   would ignore;
//! - a predecoded-page instruction cache ([`icache`]), keyed once per
//!   run: the machine's one accelerator, bit-identical to the
//!   word-at-a-time interpreter it keeps beside it as its reference;
//! - a virtual clock with an explicit cost model ([`clock`]) so overhead
//!   experiments are deterministic.
//!
//! Cloning a [`machine::Machine`] is an O(pages) copy-on-write checkpoint;
//! execution is fully deterministic given the same inputs, which is what
//! makes Sweeper's rollback/re-execute analysis loop possible.

#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod alloc;
pub mod asm;
pub mod clock;
pub mod cpu;
pub mod debug;
pub mod disasm;
pub mod error;
pub mod hook;
pub mod icache;
pub mod isa;
pub mod loader;
pub mod machine;
pub mod mem;
pub mod net;
pub mod rng;
pub mod stdlib;

pub use error::{Access, Fault, SvmError};
pub use hook::{Hook, Insns, Interest, NopHook};
pub use icache::{CacheStats, DecodeCache};
pub use machine::{Machine, Status};
