//! Recovery: promote a drop-the-attack replay to the live process.
//!
//! Paper §3.1/§4.1: once the attack input is identified, Sweeper rolls
//! back, re-executes without the malicious input, and resumes service.
//! Two consistency concerns are handled here:
//!
//! - **Output commit**: bytes already released to clients must not be
//!   re-sent. The proxy remembers the exact released bytes; after the
//!   recovery replay they are treated as already delivered.
//! - **Session consistency** (the Flashback-style check): if a replayed
//!   connection's output *diverges* from bytes already released — the
//!   re-execution was sensitive to the dropped input — recovery aborts
//!   and reports that a restart is required, the fallback §4.1 describes.

use svm::Machine;

use crate::domains::DomainRefusal;
use crate::manager::{CheckpointManager, CkptId};
use crate::proxy::Proxy;
use crate::replay::{ReplayEnd, ReplayFault, ReplaySession};

/// Which rollback strategy produced a resumed machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryKind {
    /// Whole-machine rollback to the checkpoint + drop-the-attack replay.
    Full,
    /// Partial rollback of only the attacked connection's domain
    /// ([`CheckpointManager::rollback_domain`]); nothing was replayed.
    Domain,
}

impl RecoveryKind {
    /// Stable lowercase label (metrics and logs).
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryKind::Full => "full",
            RecoveryKind::Domain => "domain",
        }
    }
}

/// Replay/drop work attributed to one rollback domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainConns {
    /// The domain (per-connection by default: the proxy log id).
    pub domain: u32,
    /// Connections of this domain re-injected by the recovery replay.
    pub replayed: usize,
    /// Delivered connections of this domain retroactively dropped by
    /// *this* recovery.
    pub dropped: usize,
}

/// Accounting of one successful recovery, split per recovery mode and
/// per domain — so a Domain recovery that silently fell back to Full is
/// visible in metrics, and invariant I12 (benign connections in
/// untouched domains are neither dropped nor replayed) is checkable
/// from the outcome alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeReport {
    /// Which rollback strategy ran.
    pub kind: RecoveryKind,
    /// Virtual cycles the recovery consumed (service pause).
    pub pause_cycles: u64,
    /// Guest connections that survived recovery *without* being
    /// replayed: the pre-checkpoint prefix under [`RecoveryKind::Full`],
    /// every benign connection under [`RecoveryKind::Domain`].
    pub preserved_conns: usize,
    /// Per-domain replay/drop accounting. Domains with neither replayed
    /// nor dropped work do not appear.
    pub per_domain: Vec<DomainConns>,
}

impl ResumeReport {
    /// Total connections re-injected by the recovery replay.
    ///
    /// Counted as the replay-segment length of the guest-id mapping
    /// (everything past the pre-checkpoint prefix), **not** as
    /// `mapping.len() - conns_at`: when previously dropped attack
    /// connections shrink the unfiltered log below `conns_at`, the old
    /// subtraction silently under-reported replay work as 0.
    pub fn replayed_conns(&self) -> usize {
        self.per_domain.iter().map(|d| d.replayed).sum()
    }

    /// Total delivered connections retroactively dropped by this
    /// recovery — excluded replay work, reported separately so the
    /// Figure 5 narration can't conflate "nothing replayed" with
    /// "attack connections dropped".
    pub fn dropped_conns(&self) -> usize {
        self.per_domain.iter().map(|d| d.dropped).sum()
    }

    /// Whether any domain **outside** `attacked` saw replay or drop work
    /// — the invariant-I12 predicate for a [`RecoveryKind::Domain`]
    /// resume (a Full recovery legitimately replays benign domains).
    pub fn disturbed_outside(&self, attacked: &[u32]) -> bool {
        self.per_domain
            .iter()
            .any(|d| !attacked.contains(&d.domain) && (d.replayed > 0 || d.dropped > 0))
    }
}

/// Outcome of a recovery attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// The recovered machine was promoted to live; service continues.
    Resumed(ResumeReport),
    /// Replay diverged from committed output; a restart is required.
    RestartRequired {
        /// Log id of the diverging connection.
        diverged_conn: usize,
    },
    /// Replay itself faulted (e.g. a second attack in the window) —
    /// the caller should widen the drop set and retry.
    ReplayFaulted(svm::Fault),
}

/// Attempt recovery.
///
/// Replays from checkpoint `ckpt` with the attack connections `drop_ids`
/// excluded, verifies every committed output prefix, and on success marks
/// the dropped connections in the proxy and replaces `live` with the
/// recovered machine. On failure `live` and the proxy are untouched.
///
/// `fault` mediates the recovery replay's input injection (see
/// [`ReplayFault`]; production passes [`NoFault`](crate::NoFault)). The
/// chaos harness uses it to model a lossy recovery path. Faults can only
/// make recovery *more* conservative: a corrupted, dropped or reordered
/// input either replays to the same committed output (resume) or trips
/// the session-consistency check (restart required) — the live machine
/// and proxy are untouched unless the check passes.
pub fn recover(
    live: &mut Machine,
    mgr: &CheckpointManager,
    proxy: &mut Proxy,
    ckpt: CkptId,
    drop_ids: &[usize],
    fault: &mut dyn ReplayFault,
) -> RecoveryOutcome {
    let Some(session) = ReplaySession::new(mgr, proxy, ckpt) else {
        return RecoveryOutcome::RestartRequired {
            diverged_conn: usize::MAX,
        };
    };
    let out = session.dropping(drop_ids).run(&mut svm::NopHook, fault);
    match out.end {
        ReplayEnd::Faulted(f) => return RecoveryOutcome::ReplayFaulted(f),
        ReplayEnd::Quiescent | ReplayEnd::Halted(_) | ReplayEnd::StuckOnRead => {}
        ReplayEnd::BudgetExhausted => {
            return RecoveryOutcome::RestartRequired {
                diverged_conn: usize::MAX,
            }
        }
    }
    let replayed = out.machine;

    // The replayed machine's guest-id -> log-id mapping. Its
    // pre-checkpoint prefix can be *shorter* than `conns_at` when earlier
    // recoveries retroactively dropped pre-checkpoint connections; its
    // real length keeps the replay-work accounting below honest.
    let conns_at = mgr.get(ckpt).map(|c| c.conns_at).unwrap_or(0);
    let mapping = proxy.guest_to_log(conns_at, drop_ids);
    let prefix_len = conns_at.min(mapping.len());

    // Session-consistency check against committed output.
    for (guest_id, &log_id) in mapping.iter().enumerate() {
        let Some(lc) = proxy.get(log_id) else {
            continue;
        };
        if lc.released.is_empty() {
            continue;
        }
        let got = replayed
            .net
            .conn(guest_id as u32)
            .map(|c| c.output.as_slice())
            .unwrap_or(&[]);
        if got.len() < lc.released.len() || got[..lc.released.len()] != lc.released[..] {
            return RecoveryOutcome::RestartRequired {
                diverged_conn: log_id,
            };
        }
    }

    // Consistent: drop the attack connections from the log so that future
    // `release_outputs` walks line up with the recovered machine, then
    // promote the replayed machine to live. Count the dropped ids that
    // were genuinely delivered connections (excluded replay work)
    // *before* marking, so repeated drops aren't double-counted.
    let mut per_domain: Vec<DomainConns> = Vec::new();
    for &log_id in &mapping[prefix_len..] {
        let domain = proxy.get(log_id).map(|c| c.domain).unwrap_or(log_id as u32);
        bump_domain(&mut per_domain, domain).replayed += 1;
    }
    for id in drop_ids {
        if proxy.get(*id).is_some_and(|c| !c.filtered) {
            let domain = proxy.get(*id).map(|c| c.domain).unwrap_or(*id as u32);
            bump_domain(&mut per_domain, domain).dropped += 1;
        }
        proxy.mark_dropped(*id);
    }
    proxy.rewind_release();
    *live = replayed;
    RecoveryOutcome::Resumed(ResumeReport {
        kind: RecoveryKind::Full,
        pause_cycles: out.cycles,
        preserved_conns: prefix_len,
        per_domain,
    })
}

fn bump_domain(per_domain: &mut Vec<DomainConns>, domain: u32) -> &mut DomainConns {
    let i = match per_domain.iter().position(|d| d.domain == domain) {
        Some(i) => i,
        None => {
            per_domain.push(DomainConns {
                domain,
                replayed: 0,
                dropped: 0,
            });
            per_domain.len() - 1
        }
    };
    &mut per_domain[i]
}

/// Attempt a **partial** (domain) recovery: roll back only the dropped
/// connections' domains via [`CheckpointManager::rollback_domain`],
/// leaving every benign connection's state live — nothing is replayed,
/// nothing benign is dropped (invariant I12).
///
/// Structural preconditions are checked fail-closed before any state is
/// touched: every dropped connection must lie at or past the captured
/// service boundary, and no benign traffic may have been delivered after
/// it (either would require re-execution to subtract). On any
/// [`DomainRefusal`] the live machine and proxy are untouched and the
/// caller falls back to the full rollback/replay path ([`recover`]).
pub fn recover_domain(
    live: &mut Machine,
    mgr: &mut CheckpointManager,
    proxy: &mut Proxy,
    ckpt: CkptId,
    drop_ids: &[usize],
) -> Result<RecoveryOutcome, DomainRefusal> {
    let Some(boundary_conns) = mgr.ledger().boundary_conns() else {
        return Err(DomainRefusal::NoBoundary);
    };
    // Map each undropped live log entry to its guest connection index
    // and split the delivered traffic at the boundary.
    let mut domains: Vec<u32> = Vec::new();
    let mut dropped_delivered: Vec<u32> = Vec::new();
    for (guest_idx, lc) in proxy.live_log().iter().filter(|c| !c.filtered).enumerate() {
        if drop_ids.contains(&lc.log_id) {
            if guest_idx < boundary_conns {
                // Its effects are baked into the boundary snapshot.
                return Err(DomainRefusal::PreBoundary);
            }
            domains.push(lc.domain);
            dropped_delivered.push(lc.domain);
        } else if guest_idx >= boundary_conns {
            // Benign traffic after the boundary would be silently
            // discarded by the truncation, not replayed.
            return Err(DomainRefusal::TrailingBenign);
        }
    }
    // Already-filtered drop ids contribute no domain (nothing delivered
    // to roll back), mirroring the full path's dropped accounting.
    let rec = mgr.rollback_domain(ckpt, live, &domains)?;
    let mut per_domain: Vec<DomainConns> = Vec::new();
    for &d in &dropped_delivered {
        bump_domain(&mut per_domain, d).dropped += 1;
    }
    for id in drop_ids {
        proxy.mark_dropped(*id);
    }
    Ok(RecoveryOutcome::Resumed(ResumeReport {
        kind: RecoveryKind::Domain,
        pause_cycles: rec.pause_cycles,
        preserved_conns: live.net.conns().len(),
        per_domain,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::NoFault;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::stdlib::LIB_ASM;
    use svm::{NopHook, Status};

    /// Echo server; input containing 'X' crashes it (stand-in exploit);
    /// input containing 'R' makes the reply depend on a per-boot counter
    /// (stand-in for the SSL-session-key sensitivity of §4.1).
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
    mov r5, r0
    movi r0, buf
    movi r1, 'X'
    call strchr
    cmpi r0, 0
    jnz boom
    movi r0, buf
    movi r1, 'R'
    call strchr
    cmpi r0, 0
    jnz counter_reply
    mov r0, r4
    movi r1, buf
    mov r2, r5
    sys write
    mov r0, r4
    sys close
    jmp main
counter_reply:
    movi r1, count
    ld r2, [r1, 0]
    addi r2, r2, 1
    st [r1, 0], r2
    addi r2, r2, '0'
    movi r1, cbuf
    stb [r1, 0], r2
    mov r0, r4
    movi r2, 1
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
cbuf: .space 4
count: .word 0
{LIB_ASM}
"
        );
        Machine::boot(&assemble(&src).expect("asm"), Aslr::off()).expect("boot")
    }

    fn drive(m: &mut Machine) -> Status {
        m.run(&mut NopHook, 100_000_000)
    }

    struct World {
        m: Machine,
        mgr: CheckpointManager,
        proxy: Proxy,
        ckpt: CkptId,
    }

    fn attacked_world() -> World {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let ckpt = mgr.take(&mut m);
        proxy.offer(&mut m, b"first".to_vec(), &[]);
        drive(&mut m);
        proxy.release_outputs(&m);
        proxy.offer(&mut m, b"atkX".to_vec(), &[]);
        drive(&mut m);
        proxy.offer(&mut m, b"third".to_vec(), &[]);
        assert!(matches!(m.status(), Status::Faulted(_)));
        World {
            m,
            mgr,
            proxy,
            ckpt,
        }
    }

    #[test]
    fn recovery_resumes_service_without_the_attack() {
        let mut w = attacked_world();
        let out = recover(&mut w.m, &w.mgr, &mut w.proxy, w.ckpt, &[1], &mut NoFault);
        match out {
            RecoveryOutcome::Resumed(r) => {
                assert_eq!(r.kind, RecoveryKind::Full);
                assert_eq!(r.replayed_conns(), 2, "first + third replayed");
                assert_eq!(r.dropped_conns(), 1, "the attack connection");
                assert!(r.pause_cycles > 0);
                assert_eq!(r.preserved_conns, 0, "checkpoint preceded all conns");
                // Per-domain split: the attack's domain shows the drop,
                // the benign domains show the replays.
                let atk = r.per_domain.iter().find(|d| d.domain == 1).expect("atk");
                assert_eq!((atk.replayed, atk.dropped), (0, 1));
                assert!(r.disturbed_outside(&[1]), "full recovery replays benign");
            }
            other => panic!("{other:?}"),
        }
        // Live machine is healthy and served the third request.
        assert!(!matches!(w.m.status(), Status::Faulted(_)));
        let rel = w.proxy.release_outputs(&w.m);
        // "first" was already committed pre-recovery; only "third" is new.
        assert_eq!(rel, vec![(2, b"third".to_vec())]);
        // And the server keeps serving.
        w.proxy.offer(&mut w.m, b"fourth".to_vec(), &[]);
        drive(&mut w.m);
        let rel2 = w.proxy.release_outputs(&w.m);
        assert_eq!(rel2, vec![(3, b"fourth".to_vec())]);
    }

    #[test]
    fn divergent_replay_demands_restart() {
        // §4.1 scenario: dropping the attack changes a *later* replayed
        // connection's output that the client has already seen.
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let ckpt = mgr.take(&mut m);
        proxy.offer(&mut m, b"R".to_vec(), &[]); // id 0 -> "1", committed
        drive(&mut m);
        proxy.offer(&mut m, b"R".to_vec(), &[]); // id 1 -> "2", committed
        drive(&mut m);
        proxy.offer(&mut m, b"R".to_vec(), &[]); // id 2 -> "3", committed
        drive(&mut m);
        proxy.release_outputs(&m);
        proxy.offer(&mut m, b"atkX".to_vec(), &[]); // id 3 faults
        drive(&mut m);
        assert!(matches!(m.status(), Status::Faulted(_)));
        // Analysis (wrongly or rightly) decides connections 1 and 3 were
        // the attack. Without connection 1, the counter replay gives
        // connection 2 the reply "2" — but the client already saw "3".
        let out = recover(&mut m, &mgr, &mut proxy, ckpt, &[1, 3], &mut NoFault);
        assert!(
            matches!(out, RecoveryOutcome::RestartRequired { diverged_conn: 2 }),
            "got {out:?}"
        );
        // Live machine and proxy untouched on failure.
        assert!(matches!(m.status(), Status::Faulted(_)));
        assert!(!proxy.get(1).expect("c").filtered);
    }

    #[test]
    fn replay_fault_is_reported_when_wrong_input_dropped() {
        let mut w = attacked_world();
        // Drop the benign third connection; the attack replays and faults.
        let out = recover(&mut w.m, &w.mgr, &mut w.proxy, w.ckpt, &[2], &mut NoFault);
        assert!(matches!(out, RecoveryOutcome::ReplayFaulted(f) if f.is_null_deref()));
        // Live machine untouched (still faulted), proxy unmodified.
        assert!(matches!(w.m.status(), Status::Faulted(_)));
        assert!(!w.proxy.get(2).expect("c").filtered);
    }

    #[test]
    fn dropped_conns_are_reported_when_nothing_replays() {
        // Regression: dropping every delivered connection produces an
        // empty replay, which the old `mapping.len() - conns_at`
        // arithmetic reported as plain "0 replayed" with no trace of the
        // excluded work. The dropped-conn count must surface it.
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let ckpt = mgr.take(&mut m); // conns_at = 0
        proxy.offer(&mut m, b"stealth".to_vec(), &[]); // id 0: delivered, later deemed attack
        drive(&mut m);
        proxy.offer(&mut m, b"atkX".to_vec(), &[]); // id 1: faults
        drive(&mut m);
        assert!(matches!(m.status(), Status::Faulted(_)));
        let out = recover(&mut m, &mgr, &mut proxy, ckpt, &[0, 1], &mut NoFault);
        match out {
            RecoveryOutcome::Resumed(r) => {
                assert_eq!(
                    r.replayed_conns(),
                    0,
                    "everything after the ckpt was dropped"
                );
                assert_eq!(
                    r.dropped_conns(),
                    2,
                    "both delivered attack connections are accounted as dropped work"
                );
            }
            other => panic!("{other:?}"),
        }
        // The proxy distinguishes retroactive drops from filter blocks.
        assert!(proxy.get(0).expect("c").dropped);
        assert!(proxy.get(0).expect("c").filtered);
        assert_eq!(proxy.dropped_total, 2);
        assert_eq!(proxy.filtered_total, 0, "no filter-time block happened");
        // A second recovery naming the same ids must not double-count.
        let mut m2 = server();
        drive(&mut m2);
        let out2 = recover(&mut m2, &mgr, &mut proxy, ckpt, &[0, 1], &mut NoFault);
        if let RecoveryOutcome::Resumed(r) = out2 {
            assert_eq!(
                r.dropped_conns(),
                0,
                "already-dropped conns are not re-counted"
            );
        } else {
            panic!("{out2:?}");
        }
        assert_eq!(proxy.dropped_total, 2);
    }

    #[test]
    fn consistent_counter_replay_resumes() {
        // Same counter server, but the committed counter output replays
        // identically when only the attack is dropped (order preserved).
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let ckpt = mgr.take(&mut m);
        proxy.offer(&mut m, b"R1".to_vec(), &[]);
        drive(&mut m);
        proxy.release_outputs(&m);
        proxy.offer(&mut m, b"atkX".to_vec(), &[]);
        drive(&mut m);
        let out = recover(&mut m, &mgr, &mut proxy, ckpt, &[1], &mut NoFault);
        assert!(matches!(out, RecoveryOutcome::Resumed(_)), "got {out:?}");
    }

    /// An attacked world whose manager was fed the domain-attribution
    /// callbacks (note_service, note_attack) the runtime performs.
    fn attributed_world() -> World {
        let mut m = server();
        let mut mgr = CheckpointManager::new(0, 8);
        let mut proxy = Proxy::new();
        drive(&mut m);
        let ckpt = mgr.take(&mut m);
        let (first, _) = proxy.offer(&mut m, b"first".to_vec(), &[]);
        drive(&mut m);
        proxy.release_outputs(&m);
        mgr.note_service(&m, first as u32);
        let (atk, _) = proxy.offer(&mut m, b"atkX".to_vec(), &[]);
        drive(&mut m);
        assert!(matches!(m.status(), Status::Faulted(_)));
        mgr.note_attack(&m, atk as u32);
        World {
            m,
            mgr,
            proxy,
            ckpt,
        }
    }

    #[test]
    fn domain_recovery_preserves_benign_connections() {
        let mut w = attributed_world();
        let out = recover_domain(&mut w.m, &mut w.mgr, &mut w.proxy, w.ckpt, &[1])
            .expect("partial recovery");
        match out {
            RecoveryOutcome::Resumed(r) => {
                assert_eq!(r.kind, RecoveryKind::Domain);
                assert_eq!(r.replayed_conns(), 0, "nothing replays under I12");
                assert_eq!(r.dropped_conns(), 1, "only the attack dropped");
                assert_eq!(r.preserved_conns, 1, "the benign conn survived live");
                assert!(!r.disturbed_outside(&[1]), "I12: benign domains untouched");
                assert!(r.pause_cycles > 0);
            }
            other => panic!("{other:?}"),
        }
        assert!(!matches!(w.m.status(), Status::Faulted(_)));
        // The benign connection's served output is still committed; no
        // re-release happens.
        assert!(w.proxy.release_outputs(&w.m).is_empty());
        // And the server keeps serving with a consistent log↔guest map.
        w.proxy.offer(&mut w.m, b"third".to_vec(), &[]);
        drive(&mut w.m);
        assert_eq!(w.proxy.release_outputs(&w.m), vec![(2, b"third".to_vec())]);
    }

    #[test]
    fn domain_and_full_recovery_agree_on_guest_state() {
        // The differential oracle's core claim: both strategies land on
        // bit-identical guest-observable state (content digest; clock
        // and write generations legitimately differ).
        let mut dom = attributed_world();
        let out = recover_domain(&mut dom.m, &mut dom.mgr, &mut dom.proxy, dom.ckpt, &[1])
            .expect("partial");
        assert!(matches!(out, RecoveryOutcome::Resumed(_)));
        let mut full = attributed_world();
        let out = recover(
            &mut full.m,
            &full.mgr,
            &mut full.proxy,
            full.ckpt,
            &[1],
            &mut NoFault,
        );
        assert!(matches!(out, RecoveryOutcome::Resumed(_)));
        assert_eq!(
            crate::domains::recovery_digest(&dom.m),
            crate::domains::recovery_digest(&full.m),
            "domain and full recovery must agree bit-for-bit"
        );
    }

    #[test]
    fn trailing_benign_traffic_refuses_partial_recovery() {
        let mut w = attributed_world();
        // A benign connection delivered after the boundary (the runtime
        // never does this mid-recovery, but the seam must fail closed).
        w.proxy.offer(&mut w.m, b"late".to_vec(), &[]);
        let err =
            recover_domain(&mut w.m, &mut w.mgr, &mut w.proxy, w.ckpt, &[1]).expect_err("refused");
        assert_eq!(err, DomainRefusal::TrailingBenign);
        assert!(matches!(w.m.status(), Status::Faulted(_)), "live untouched");
        assert!(!w.proxy.get(1).expect("c").filtered, "proxy untouched");
    }

    #[test]
    fn pre_boundary_drop_refuses_partial_recovery() {
        let mut w = attributed_world();
        // Widened drop set naming the already-served benign connection:
        // its effects are baked into the boundary snapshot.
        let err = recover_domain(&mut w.m, &mut w.mgr, &mut w.proxy, w.ckpt, &[0, 1])
            .expect_err("refused");
        assert_eq!(err, DomainRefusal::PreBoundary);
        assert!(matches!(w.m.status(), Status::Faulted(_)), "live untouched");
    }
}
