//! Fault-injection seams threaded through the attack-handling pipeline.
//!
//! The paper's end-to-end claim — monitor trips → rollback → heavyweight
//! re-execution → antibody → resume — is a chain of hand-offs, and each
//! hand-off can fail in a real deployment: the analysis tool dies, the
//! checkpoint ring evicts the snapshot a recovery just chose, the proxy
//! log replays corrupted or reordered, the DBI runtime detaches mid
//! replay, the antibody arrives bit-flipped. [`FaultHooks`] is the
//! production-side seam the `chaos` harness uses to inject exactly those
//! failures deterministically. It extends [`checkpoint::ReplayFault`],
//! so the same hook object mediates every replay (analysis and
//! recovery) directly. Every method defaults to "no fault": a
//! [`Sweeper`](crate::Sweeper) runs [`NoFaultHooks`] until other hooks
//! are installed via
//! [`Sweeper::set_fault_hooks`](crate::Sweeper::set_fault_hooks).
//!
//! The contract the chaos invariant checker enforces on every injected
//! fault: the pipeline *degrades* — weaker antibody, explicit
//! [`SweeperError`](crate::SweeperError) surfaced on the timeline, or a
//! restart instead of a rollback — and never panics.

use antibody::Antibody;
use checkpoint::{CheckpointManager, Proxy, ReplayFault};

/// Hooks invoked at each fault-injection seam of the Sweeper pipeline.
///
/// All methods have no-op defaults; implement only the seams a fault
/// plan targets. The replay seams (drop, corrupt, reorder re-injected
/// connections) are the [`ReplayFault`] methods. Step names passed to
/// the tool hooks are the pipeline phase names: `"memory-state"`,
/// `"memory-bug"`, `"taint"`, `"slicing"`.
pub trait FaultHooks: ReplayFault + Send {
    /// Return `true` to make the named pipeline step's analysis tool
    /// unavailable (attach failure / tool crash). The pipeline must
    /// degrade that step's contribution, not abort the attack handling.
    fn fail_tool(&mut self, _step: &'static str) -> bool {
        false
    }

    /// Return `Some(n)` to detach the named step's tool after `n`
    /// delivered instruction events (mid-replay DBI death, realized via
    /// [`dbi::Instrumenter::set_detach_after`]).
    fn tool_detach_after(&mut self, _step: &'static str) -> Option<u64> {
        None
    }

    /// Called after a recovery checkpoint has been *chosen* but before
    /// the recovery replay runs — the eviction-race window. The hook may
    /// evict checkpoints (e.g. [`CheckpointManager::evict_oldest`]) or
    /// otherwise perturb retention; a vanished snapshot must turn into a
    /// restart, never a panic.
    fn before_recovery(&mut self, _mgr: &mut CheckpointManager, _proxy: &mut Proxy) {}

    /// Corrupt an antibody in transit (bit-flips, truncation): return
    /// its serialized bytes as they arrived, or `None` when it arrived
    /// intact. The runtime decodes corrupted bytes and must fail closed
    /// on decode errors.
    fn corrupt_antibody(&mut self, _antibody: &Antibody) -> Option<Vec<u8>> {
        None
    }
}

/// The no-op [`FaultHooks`]: production behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaultHooks;

impl ReplayFault for NoFaultHooks {}

impl FaultHooks for NoFaultHooks {}
