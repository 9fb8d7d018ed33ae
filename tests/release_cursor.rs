//! The proxy's release cursor: `Proxy::release_outputs` resumes past the
//! settled prefix of the connection log instead of walking it from the
//! first entry on every served request.
//!
//! * **Bounded work** — over 2,000 requests served by a protected host
//!   (checkpoints, drains and filtering included) each served request
//!   looks at a constant number of log entries, however long the log.
//! * **Same answer** — at every call the cursor walk releases exactly
//!   what a walk from the first live entry would (the oracle below),
//!   across filtered inputs, a domain rollback, a full rollback-and-replay
//!   recovery that also drops an already-served connection, and a fresh
//!   boot announced by `Proxy::restart`.
//! * **Own log ids after a restart** — once a restart replaced the
//!   machine, each served request's response is released under its own
//!   log id, not under an entry the old instance saw.

use sweeper_repro::apps::httpd1;
use sweeper_repro::apps::workload::{Target, Workload};
use sweeper_repro::checkpoint::{
    recover, recover_domain, CheckpointManager, InputFilter, NoFault, Proxy, RecoveryOutcome,
    ReplayFault,
};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::stdlib::LIB_ASM;
use sweeper_repro::svm::{Machine, NopHook, Status};
use sweeper_repro::sweeper::{
    Config, FaultHooks, NoFaultHooks, RecoveryMode, RequestOutcome, Sweeper,
};

#[test]
fn served_requests_visit_a_bounded_number_of_log_entries() {
    let app = httpd1::app().expect("app");
    let mut s =
        Sweeper::protect(&app, Config::producer(5).with_interval_ms(20.0)).expect("protect");
    let mut w = Workload::new(Target::Apache1, 17);
    let mut served = 0u32;
    let mut worst = 0u64;
    for _ in 0..2000 {
        let before = s.proxy.release_visits();
        if let RequestOutcome::Served { .. } = s.offer_request(w.next_request()) {
            served += 1;
            worst = worst.max(s.proxy.release_visits() - before);
        }
    }
    assert_eq!(served, 2000, "benign traffic is all served");
    assert!(s.mgr.taken_total > 10, "checkpoints ran alongside");
    assert!(
        worst <= 2,
        "a served request visited {worst} log entries of {}",
        s.proxy.log().len()
    );
}

/// Echoes each request and closes; `R` requests get a one-digit count of
/// `R` requests so far (state a replay must rebuild); `X` faults.
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

struct Blocks(&'static [u8]);

impl InputFilter for Blocks {
    fn blocks(&self, input: &[u8]) -> bool {
        input.windows(self.0.len()).any(|w| w == self.0)
    }
}

/// What a walk from the first live log entry would release from `m` now.
fn from_first_entry(p: &Proxy, m: &Machine) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    for (guest, lc) in (0..).zip(p.live_log().iter().filter(|c| !c.filtered)) {
        let Some(conn) = m.net.conn(guest) else {
            break;
        };
        if conn.output.len() > lc.released.len() {
            out.push((lc.log_id, conn.output[lc.released.len()..].to_vec()));
        }
    }
    out
}

struct World {
    m: Machine,
    mgr: CheckpointManager,
    proxy: Proxy,
    /// Bytes released over the run, by log id.
    released: Vec<(usize, Vec<u8>)>,
}

impl World {
    /// Release pending output, checking it against the oracle.
    fn release(&mut self) {
        let expected = from_first_entry(&self.proxy, &self.m);
        let got = self.proxy.release_outputs(&self.m);
        assert_eq!(got, expected, "cursor walk disagrees with a full walk");
        self.released.extend(got);
    }

    /// Offer `input` (blocked by an `evil` filter), run the guest to
    /// idle, attribute (which pre-copies) like the runtime, and release.
    fn serve(&mut self, input: &[u8]) {
        let (id, delivered) = self
            .proxy
            .offer(&mut self.m, input.to_vec(), &[&Blocks(b"evil")]);
        if delivered {
            self.m.run(&mut NopHook, 100_000_000);
            self.mgr.note_service(&self.m, id as u32);
        }
        self.release();
    }

    /// Deliver an exploit; returns its log id once the guest faulted.
    fn attack(&mut self) -> usize {
        let (id, delivered) = self.proxy.offer(&mut self.m, b"atkX".to_vec(), &[]);
        assert!(delivered);
        self.m.run(&mut NopHook, 100_000_000);
        assert!(matches!(self.m.status(), Status::Faulted(_)));
        self.mgr.note_attack(&self.m, id as u32);
        id
    }
}

#[test]
fn cursor_releases_what_a_walk_from_the_first_entry_releases() {
    let mut m = server();
    m.run(&mut NopHook, 100_000_000);
    let mut w = World {
        m,
        mgr: CheckpointManager::new(0, 8),
        proxy: Proxy::new(),
        released: Vec::new(),
    };
    let base = w.mgr.take(&mut w.m);
    for i in 0..6 {
        w.serve(if i % 3 == 1 { b"evil" } else { b"R" });
    }
    // Domain rollback: only the attack's pages are restored.
    let atk = w.attack();
    let out = recover_domain(&mut w.m, &mut w.mgr, &mut w.proxy, base, &[atk]).expect("domain");
    assert!(matches!(out, RecoveryOutcome::Resumed(_)));
    w.mgr.discard_pending();
    let ckpt = w.mgr.take(&mut w.m);
    w.release();
    // A served connection later found to be part of the attack: settled,
    // so the cursor is past it when its drop shifts later guest ids.
    let stealth = w.proxy.log().len();
    w.serve(b"hello");
    for _ in 0..4 {
        w.serve(b"R");
    }
    // Full recovery: replay every later connection from the checkpoint.
    let atk = w.attack();
    let drop = [stealth, atk];
    let out = recover(&mut w.m, &w.mgr, &mut w.proxy, ckpt, &drop, &mut NoFault);
    assert!(matches!(out, RecoveryOutcome::Resumed(_)), "{out:?}");
    w.mgr.discard_pending();
    w.mgr.take(&mut w.m);
    w.release();
    for i in 0..4 {
        w.serve(if i == 2 { b"evil" } else { b"hello" });
    }
    // A fresh boot: the entries logged so far belong to the old one.
    w.m = server();
    w.proxy.restart();
    w.m.run(&mut NopHook, 100_000_000);
    w.mgr.discard_pending();
    w.mgr.take(&mut w.m);
    let first_fresh = w.proxy.log().len();
    for _ in 0..3 {
        w.serve(b"again");
    }
    let fresh: Vec<_> = w
        .released
        .iter()
        .filter(|(id, _)| *id >= first_fresh)
        .collect();
    assert_eq!(fresh.len(), 3, "each fresh response under its own log id");
    assert!(fresh.iter().all(|(_, b)| b == b"again"));
    let delivered = w.proxy.log().iter().filter(|c| !c.filtered).count();
    assert!(delivered >= 12, "the log kept growing: {delivered}");
    assert!(!w.released.is_empty());
    assert!(w.proxy.release_visits() > 0);
}

/// Evicts every retained checkpoint just before recovery runs, so a full
/// recovery has nothing to replay from and restarts.
struct EvictAll;

impl ReplayFault for EvictAll {}

impl FaultHooks for EvictAll {
    fn before_recovery(&mut self, mgr: &mut CheckpointManager, _proxy: &mut Proxy) {
        while mgr.evict_oldest().is_some() {}
    }
}

#[test]
fn responses_after_a_restart_are_released_under_their_own_log_ids() {
    let app = httpd1::app().expect("app");
    // Full recovery: a domain rollback needs no retained checkpoint.
    let cfg = Config::producer(31).with_recovery(RecoveryMode::Full);
    let mut s = Sweeper::protect(&app, cfg).expect("protect");
    let mut released_before = Vec::new();
    for i in 0..3 {
        let out = s.offer_request(httpd1::benign_request(&format!("b{i}.html")));
        let RequestOutcome::Served { log_id, .. } = out else {
            panic!("benign request {i}: {out:?}")
        };
        released_before.push((log_id, s.proxy.get(log_id).expect("c").released.clone()));
    }
    s.set_fault_hooks(Box::new(EvictAll));
    let RequestOutcome::Attack(r) = s.offer_request(httpd1::exploit_crash(&app).input) else {
        panic!("expected attack")
    };
    assert_eq!(r.recovery_method, "restart");
    s.set_fault_hooks(Box::new(NoFaultHooks));
    for i in 0..3 {
        let out = s.offer_request(httpd1::benign_request(&format!("a{i}.html")));
        let RequestOutcome::Served { log_id, bytes } = out else {
            panic!("request {i} after the restart: {out:?}")
        };
        let released = &s.proxy.get(log_id).expect("c").released;
        assert!(bytes > 0, "request {i} released nothing");
        assert_eq!(
            released.len(),
            bytes,
            "request {i}'s response went to another log entry"
        );
    }
    // The pre-restart entries keep exactly what they had released.
    for (id, bytes) in released_before {
        assert_eq!(s.proxy.get(id).expect("c").released, bytes);
    }
}
