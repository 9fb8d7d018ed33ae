//! # checkpoint — lightweight checkpointing, replay, and recovery
//!
//! The Rx/Flashback analogue of the reproduction (paper §3.1): periodic
//! in-memory copy-on-write checkpoints ([`manager`]), a logging/filtering
//! network proxy ([`proxy`]), sandboxed rollback-and-re-execute sessions
//! ([`replay`]) that drive Sweeper's post-attack analysis, and
//! output-commit-aware recovery ([`recovery`]) that resumes service
//! without the attacker's input — or falls back to demanding a restart
//! when the re-execution diverges from committed output.

pub mod domains;
pub mod incremental;
pub mod manager;
pub mod proxy;
pub mod recovery;
pub mod replay;
pub mod syscall_log;

pub use domains::{recovery_digest, DomainLedger, DomainRecovery, DomainRefusal};
pub use incremental::{mem_digest, DedupeStore, DeltaRecord, PageKey, StoreStats};
pub use manager::{Checkpoint, CheckpointManager, CkptId, Engine};
pub use proxy::{InputFilter, LoggedConn, Proxy};
pub use recovery::{
    recover, recover_domain, DomainConns, RecoveryKind, RecoveryOutcome, ResumeReport,
};
pub use replay::{NoFault, ReplayEnd, ReplayFault, ReplayOutcome, ReplaySession};
pub use syscall_log::{divergence, Divergence, SyscallLog, SyscallLogError, SyscallRecord};
