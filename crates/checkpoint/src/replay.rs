//! Rollback-and-re-execute: sandboxed replay from a checkpoint.
//!
//! Paper §2.1: after an attack, the runtime "rolls back and re-executes
//! repeatedly", each time with different instrumentation, replaying "all
//! of or a selected subset of incoming network messages received since
//! that checkpoint"; "all side-effects such as outgoing network messages
//! are sandboxed and silently dropped."
//!
//! A [`ReplaySession`] packages that: it clones the checkpointed machine,
//! re-injects the proxy's post-checkpoint connections (optionally dropping
//! suspects), and drives execution under a caller-supplied hook until the
//! guest halts, faults, or quiesces waiting for input that will never
//! come. The live machine and proxy are untouched; outputs accumulate in
//! the replay clone and are discarded with it.

use svm::net::BlockedOn;
use svm::{Hook, Machine, Status};

use crate::manager::{CheckpointManager, CkptId};
use crate::proxy::Proxy;

/// Why a replay stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayEnd {
    /// The guest processed every injected input and is idle (blocked on
    /// `accept` with nothing pending).
    Quiescent,
    /// The guest halted.
    Halted(u32),
    /// The guest faulted (the expected outcome when replaying an attack).
    Faulted(svm::Fault),
    /// The cycle budget ran out.
    BudgetExhausted,
    /// The guest blocked on a read that can never be satisfied.
    StuckOnRead,
}

/// Result of one replay run.
pub struct ReplayOutcome {
    /// Why the replay ended.
    pub end: ReplayEnd,
    /// The replayed machine at its final state (for post-mortem
    /// inspection; outputs inside are sandboxed, i.e. never released).
    pub machine: Machine,
    /// Instructions retired during the replay window.
    pub insns: u64,
    /// Virtual cycles consumed by the replay window (uninstrumented
    /// guest cost only; instrumentation overhead is accounted by the
    /// caller's instrumenter).
    pub cycles: u64,
}

/// Adversarial mutation hooks applied to a replay's input injection.
///
/// The chaos fault-injection harness implements this to model a lossy or
/// corrupted proxy log (truncated inputs, bit-flips, dropped or reordered
/// connections) while replaying; production code paths use [`NoFault`],
/// which leaves every input untouched. The trait only mediates *what the
/// replay clone is fed* — the live machine and the proxy log itself are
/// never modified through it.
pub trait ReplayFault {
    /// Called once per re-injected connection, in injection order, with
    /// the connection's log id and a mutable copy of its input bytes.
    /// Mutate `input` to corrupt it; return `false` to drop the
    /// connection from the replay entirely.
    fn on_replay_input(&mut self, _log_id: usize, _input: &mut Vec<u8>) -> bool {
        true
    }

    /// Called once with the full collected replay set (log id, input)
    /// before injection; permute the vector to reorder delivery.
    fn reorder(&mut self, _inputs: &mut Vec<(usize, Vec<u8>)>) {}
}

/// The do-nothing [`ReplayFault`]: production replay behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFault;

impl ReplayFault for NoFault {}

/// A configured replay: which checkpoint, which inputs to drop.
pub struct ReplaySession<'a> {
    /// The checkpointed machine, materialized once at session creation
    /// (a clone for full-copy snapshots, a digest-verified delta-chain
    /// reconstruction for incremental ones) and cloned per run.
    machine: Machine,
    /// Connection count at the checkpoint (the replay-set cut point).
    conns_at: usize,
    proxy: &'a Proxy,
    drop: Vec<usize>,
    budget: u64,
}

impl<'a> ReplaySession<'a> {
    /// Replay from checkpoint `id`, re-injecting all logged
    /// post-checkpoint connections. `None` when the checkpoint is not
    /// retained **or** cannot be reconstructed (a damaged delta chain
    /// fails closed here, and the caller degrades to a restart).
    pub fn new(mgr: &CheckpointManager, proxy: &'a Proxy, id: CkptId) -> Option<Self> {
        let conns_at = mgr.get(id)?.conns_at;
        Some(ReplaySession {
            machine: mgr.materialize(id)?,
            conns_at,
            proxy,
            drop: Vec::new(),
            budget: u64::MAX,
        })
    }

    /// Exclude a logged connection from re-injection (recovery drops the
    /// attacker's input this way).
    pub fn dropping(mut self, log_ids: &[usize]) -> Self {
        self.drop.extend_from_slice(log_ids);
        self
    }

    /// Bound the replay's virtual-cycle budget.
    pub fn with_budget(mut self, cycles: u64) -> Self {
        self.budget = cycles;
        self
    }

    /// Run the replay under `hook`, with `fault` mediating every
    /// re-injected input (see [`ReplayFault`]; production passes
    /// [`NoFault`]).
    pub fn run(&self, hook: &mut dyn Hook, fault: &mut dyn ReplayFault) -> ReplayOutcome {
        let mut m = self.machine.clone();
        m.clock.tick(svm::clock::cost::ROLLBACK);
        let insns_start = m.insns_retired;
        let cycles_start = m.clock.cycles();
        // Re-inject every post-checkpoint connection up front: the proxy
        // has the complete log, so replay need not respect original
        // arrival times (this is why replay runs faster than the original
        // execution, per the paper).
        let mut pending: Vec<(usize, Vec<u8>)> = self
            .proxy
            .replay_set(self.conns_at, &self.drop)
            .into_iter()
            .map(|lc| (lc.log_id, lc.input.clone()))
            .collect();
        fault.reorder(&mut pending);
        for (log_id, mut input) in pending {
            if fault.on_replay_input(log_id, &mut input) {
                m.net.push_connection(input);
            }
        }
        m.unblock();
        let end = loop {
            let elapsed = m.clock.cycles() - cycles_start;
            if elapsed > self.budget {
                break ReplayEnd::BudgetExhausted;
            }
            let chunk = (self.budget - elapsed).clamp(1, 1_000_000);
            match m.run(hook, chunk) {
                Status::Running => continue,
                Status::Halted(c) => break ReplayEnd::Halted(c),
                Status::Faulted(f) => break ReplayEnd::Faulted(f),
                Status::Blocked(BlockedOn::Accept) => break ReplayEnd::Quiescent,
                Status::Blocked(BlockedOn::Read { .. }) => break ReplayEnd::StuckOnRead,
            }
        };
        ReplayOutcome {
            end,
            insns: m.insns_retired - insns_start,
            cycles: m.clock.cycles() - cycles_start,
            machine: m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::stdlib::LIB_ASM;
    use svm::NopHook;

    /// A server that echoes requests; a request containing `X` makes it
    /// dereference NULL (a stand-in exploit).
    fn server() -> Machine {
        let src = format!(
            "
.text
main:
    sys accept
    mov r4, r0
    mov r0, r4
    movi r1, buf
    movi r2, 64
    sys read
    mov r5, r0           ; n
    ; scan for 'X'
    movi r0, buf
    movi r1, 'X'
    call strchr
    cmpi r0, 0
    jnz boom
    mov r0, r4
    movi r1, buf
    mov r2, r5
    sys write
    mov r0, r4
    sys close
    jmp main
boom:
    movi r1, 0
    ld r0, [r1, 0]
    jmp main
.data
buf: .space 64
{LIB_ASM}
"
        );
        Machine::boot(&assemble(&src).expect("asm"), Aslr::off()).expect("boot")
    }

    fn drive(m: &mut Machine) -> Status {
        m.run(&mut NopHook, 50_000_000)
    }

    #[test]
    fn replay_reproduces_the_fault() {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m); // Block on accept.
        let id = mgr.take(&mut m);
        proxy.offer(&mut m, b"hello".to_vec(), &[]);
        drive(&mut m);
        proxy.offer(&mut m, b"atkX!".to_vec(), &[]);
        let s = drive(&mut m);
        assert!(
            matches!(s, Status::Faulted(_)),
            "live machine faulted: {s:?}"
        );
        // Replay everything: fault reproduces deterministically.
        let out = ReplaySession::new(&mgr, &proxy, id)
            .expect("session")
            .run(&mut NopHook, &mut NoFault);
        assert!(
            matches!(out.end, ReplayEnd::Faulted(f) if f.is_null_deref()),
            "{:?}",
            out.end
        );
        assert!(out.insns > 0);
    }

    #[test]
    fn replay_dropping_attack_quiesces_cleanly() {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let id = mgr.take(&mut m);
        proxy.offer(&mut m, b"one".to_vec(), &[]);
        drive(&mut m);
        proxy.offer(&mut m, b"atkX".to_vec(), &[]);
        drive(&mut m);
        // Third request arrived while the server was dying.
        proxy.offer(&mut m, b"three".to_vec(), &[]);
        let out = ReplaySession::new(&mgr, &proxy, id)
            .expect("session")
            .dropping(&[1])
            .run(&mut NopHook, &mut NoFault);
        assert_eq!(out.end, ReplayEnd::Quiescent);
        // The replayed machine served requests 0 and 2 (guest ids 0, 1).
        assert_eq!(out.machine.net.conn(0).expect("c0").output, b"one");
        assert_eq!(out.machine.net.conn(1).expect("c1").output, b"three");
    }

    #[test]
    fn replay_outputs_are_sandboxed() {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let id = mgr.take(&mut m);
        proxy.offer(&mut m, b"hi".to_vec(), &[]);
        drive(&mut m);
        proxy.release_outputs(&m);
        let released_before = proxy.get(0).expect("c").released.clone();
        let _ = ReplaySession::new(&mgr, &proxy, id)
            .expect("s")
            .run(&mut NopHook, &mut NoFault);
        // Replay produced output in its sandboxed clone only.
        assert_eq!(proxy.get(0).expect("c").released, released_before);
        assert_eq!(
            m.net.conn(0).expect("c").output.len(),
            released_before.len()
        );
    }

    #[test]
    fn budget_bounds_replay() {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let id = mgr.take(&mut m);
        proxy.offer(&mut m, b"hello".to_vec(), &[]);
        let out = ReplaySession::new(&mgr, &proxy, id)
            .expect("s")
            .with_budget(10)
            .run(&mut NopHook, &mut NoFault);
        assert_eq!(out.end, ReplayEnd::BudgetExhausted);
    }

    #[test]
    fn missing_checkpoint_is_none() {
        let mgr = CheckpointManager::new(0, 2);
        let proxy = Proxy::new();
        assert!(ReplaySession::new(&mgr, &proxy, CkptId(42)).is_none());
    }
}
