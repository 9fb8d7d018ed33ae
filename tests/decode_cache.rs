//! Differential parity for the decode cache against its reference.
//!
//! The predecoded icache (`svm::icache`) is a pure performance knob: on
//! either tier — pure interpreter or icache — every guest (all four
//! Table 1 servers, every exploit variant, and checkpoint/rollback/
//! replay round trips) must produce **bit-identical** observable
//! behavior: the same final `Status` (same `Fault` at the same pc), the
//! same retired-instruction and virtual-cycle counts, the same
//! connection outputs, the same compromise verdicts. This is the
//! executable form of the cache's correctness contract;
//! `tests/parity.rs` plays the same role for the sharded community
//! engine.
//!
//! The self-modifying-code tests at the bottom pin the invalidation
//! machinery: a guest (or host) write to a cached executable page must
//! be visible to the very next instruction fetched from it.

use sweeper_repro::apps::{self, cvs, httpd1, httpd2, squid, App};
use sweeper_repro::checkpoint::CheckpointManager;
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::loader::{Aslr, Layout};
use sweeper_repro::svm::{Machine, NopHook, Status};

const FUEL: u64 = 400_000_000;

/// Everything observable about a finished run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    status: Status,
    pc: u32,
    insns: u64,
    cycles: u64,
    outputs: Vec<Vec<u8>>,
    compromised: bool,
}

fn fingerprint(m: &Machine, status: Status) -> Fingerprint {
    Fingerprint {
        status,
        pc: m.cpu.pc,
        insns: m.insns_retired,
        cycles: m.clock.cycles(),
        outputs: m.net.conns().iter().map(|c| c.output.clone()).collect(),
        compromised: apps::is_compromised(m),
    }
}

/// How to boot the guest for a given scenario.
enum Boot {
    /// Randomized layout from this seed.
    Random(u64),
    /// The attacker-assumed nominal layout (compromise variants).
    Nominal,
}

/// One of the two execution tiers under differential test.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tier {
    /// Pure word-at-a-time interpreter.
    Interp,
    /// Predecoded icache.
    Icache,
}

impl Tier {
    fn apply(self, m: Machine) -> Machine {
        m.with_decode_cache(self == Tier::Icache)
    }
}

fn run_inputs(app: &App, boot: &Boot, inputs: &[Vec<u8>], tier: Tier) -> Fingerprint {
    let mut m = tier.apply(
        match boot {
            Boot::Random(seed) => app.boot(Aslr::on(*seed)),
            Boot::Nominal => app.boot_at(Layout::nominal()),
        }
        .expect("boot"),
    );
    for i in inputs {
        m.net.push_connection(i.clone());
    }
    let status = m.run(&mut NopHook, FUEL);
    assert!(
        !matches!(status, Status::Running),
        "must finish within fuel"
    );
    match tier {
        Tier::Interp => assert_eq!(
            m.icache_stats(),
            Default::default(),
            "disabled cache is inert"
        ),
        Tier::Icache => assert!(m.icache_stats().hits > 0, "cache must actually engage"),
    }
    fingerprint(&m, status)
}

#[track_caller]
fn assert_parity(name: &str, app: &App, boot: Boot, inputs: Vec<Vec<u8>>) -> Fingerprint {
    let off = run_inputs(app, &boot, &inputs, Tier::Interp);
    let on = run_inputs(app, &boot, &inputs, Tier::Icache);
    assert_eq!(off, on, "{name}: decode cache changed observable behavior");
    on
}

#[test]
fn benign_traffic_parity_across_all_apps() {
    let a = httpd1::app().expect("app");
    assert_parity(
        "httpd1/benign",
        &a,
        Boot::Random(3),
        vec![
            httpd1::benign_request("index.html"),
            httpd1::benign_request("a/b.css"),
        ],
    );
    let a = httpd2::app().expect("app");
    assert_parity(
        "httpd2/benign",
        &a,
        Boot::Random(4),
        vec![
            httpd2::benign_request("ok.html", Some("http://1.2.3.4/")),
            httpd2::benign_request("plain.html", None),
        ],
    );
    let a = cvs::app().expect("app");
    assert_parity(
        "cvs/benign",
        &a,
        Boot::Random(5),
        vec![cvs::benign_session(&["x", "y"])],
    );
    let a = squid::app().expect("app");
    assert_parity(
        "squid/benign",
        &a,
        Boot::Random(6),
        vec![
            squid::benign_request("bob", "example.com"),
            b"ftp://a~b@host/\n".to_vec(),
        ],
    );
}

#[test]
fn exploit_parity_every_variant() {
    let nominal = Layout::nominal();

    let a = httpd1::app().expect("app");
    let fp = assert_parity(
        "httpd1/compromise",
        &a,
        Boot::Nominal,
        vec![httpd1::exploit_compromise(&a, &nominal).input],
    );
    assert!(fp.compromised, "compromise variant must land (both modes)");
    let fp = assert_parity(
        "httpd1/fnptr",
        &a,
        Boot::Nominal,
        vec![httpd1::exploit_fnptr(&a, &nominal).input],
    );
    assert!(fp.compromised, "fnptr variant must land (both modes)");
    assert_parity(
        "httpd1/fnptr_crash",
        &a,
        Boot::Random(11),
        vec![httpd1::exploit_fnptr_crash(&a).input],
    );
    assert_parity(
        "httpd1/crash",
        &a,
        Boot::Random(12),
        vec![httpd1::exploit_crash(&a).input],
    );
    for salt in [1u8, 77] {
        assert_parity(
            "httpd1/crash_poly",
            &a,
            Boot::Random(13),
            vec![httpd1::exploit_crash_poly(&a, salt).input],
        );
    }

    let a = httpd2::app().expect("app");
    assert_parity(
        "httpd2/crash",
        &a,
        Boot::Random(14),
        vec![httpd2::exploit_crash(&a).input],
    );
    for salt in [2u8, 78] {
        assert_parity(
            "httpd2/crash_poly",
            &a,
            Boot::Random(15),
            vec![httpd2::exploit_crash_poly(&a, salt).input],
        );
    }

    let a = cvs::app().expect("app");
    let fp = assert_parity(
        "cvs/compromise",
        &a,
        Boot::Nominal,
        vec![cvs::exploit_compromise(&a, &nominal).input],
    );
    assert!(fp.compromised, "compromise variant must land (both modes)");
    assert_parity(
        "cvs/crash",
        &a,
        Boot::Random(16),
        vec![cvs::exploit_crash(&a).input],
    );
    for salt in [3u8, 79] {
        assert_parity(
            "cvs/crash_poly",
            &a,
            Boot::Random(17),
            vec![cvs::exploit_crash_poly(&a, salt).input],
        );
    }

    let a = squid::app().expect("app");
    assert_parity(
        "squid/crash",
        &a,
        Boot::Random(18),
        vec![squid::exploit_crash(&a).input],
    );
    for salt in [4u8, 80] {
        assert_parity(
            "squid/crash_poly",
            &a,
            Boot::Random(19),
            vec![squid::exploit_crash_poly(&a, salt).input],
        );
    }
}

/// One full Sweeper-style cycle: serve benign traffic, checkpoint, take
/// the attack, roll back, replay the attack (determinism), then roll
/// back again and serve benign traffic instead (recovery). Returns the
/// fingerprints of all three machines.
fn rollback_cycle(tier: Tier) -> [Fingerprint; 3] {
    let app = httpd2::app().expect("app");
    let mut m = tier.apply(app.boot(Aslr::on(42)).expect("boot"));
    m.net
        .push_connection(httpd2::benign_request("pre.html", None));
    let s = m.run(&mut NopHook, FUEL);
    assert!(matches!(s, Status::Blocked(_)), "serving: {s:?}");

    let mut mgr = CheckpointManager::new(0, 4);
    let id = mgr.take(&mut m);

    m.net.push_connection(httpd2::exploit_crash(&app).input);
    m.unblock();
    let s_attack = m.run(&mut NopHook, FUEL);
    assert!(matches!(s_attack, Status::Faulted(_)), "{s_attack:?}");
    let live = fingerprint(&m, s_attack);

    // Replay the identical attack from the checkpoint: deterministic VM,
    // so the fault must reproduce exactly (same pc, same counts).
    let mut replay = mgr.rollback(id).expect("rollback");
    replay
        .net
        .push_connection(httpd2::exploit_crash(&app).input);
    replay.unblock();
    let s_replay = replay.run(&mut NopHook, FUEL);
    assert_eq!(
        (s_replay, replay.cpu.pc),
        (s_attack, live.pc),
        "replay reproduces the fault site"
    );
    let replayed = fingerprint(&replay, s_replay);

    // Roll back again and serve benign traffic instead: recovery works.
    let mut rec = mgr.rollback(id).expect("rollback");
    rec.net
        .push_connection(httpd2::benign_request("post.html", None));
    rec.unblock();
    let s_rec = rec.run(&mut NopHook, FUEL);
    assert!(matches!(s_rec, Status::Blocked(_)), "recovered: {s_rec:?}");
    let recovered = fingerprint(&rec, s_rec);

    [live, replayed, recovered]
}

#[test]
fn rollback_then_replay_round_trip_parity() {
    let off = rollback_cycle(Tier::Interp);
    let on = rollback_cycle(Tier::Icache);
    assert_eq!(off, on, "cache changed a rollback/replay round trip");
}

// ---------------------------------------------------------------------
// Self-modifying code and write-to-code-page invalidation.
// ---------------------------------------------------------------------

/// A guest that builds and patches its own code: it copies `tmpl_a`
/// (returns 7) into an executable data buffer, calls it, then overwrites
/// the buffer with `tmpl_b` (returns 9) and calls it again. Text pages
/// are read-only to the guest, so the pre-NX executable data segment is
/// where real guest-store SMC happens.
const SMC_GUEST: &str = "
.text
main:
    movi r9, tmpl_a
    call install
    call buf
    mov r8, r2          ; first verdict (expect 7)
    movi r9, tmpl_b
    call install
    call buf
    mov r7, r2          ; second verdict (expect 9)
    halt
; copy 4 words from [r9] to buf
install:
    movi r5, buf
    movi r6, 4
icopy:
    ld r4, [r9, 0]
    st [r5, 0], r4
    addi r9, r9, 4
    addi r5, r5, 4
    subi r6, r6, 1
    cmpi r6, 0
    jnz icopy
    ret
tmpl_a:
    movi r2, 7
    ret
tmpl_b:
    movi r2, 9
    ret
.data
buf: .space 16
";

fn run_smc(tier: Tier) -> (Machine, Status) {
    let prog = assemble(SMC_GUEST).expect("asm");
    let mut m = tier.apply(Machine::boot(&prog, Aslr::off()).expect("boot"));
    let s = m.run(&mut NopHook, FUEL);
    (m, s)
}

#[test]
fn guest_smc_sees_fresh_code_and_matches_uncached() {
    let (m_on, s_on) = run_smc(Tier::Icache);
    assert!(matches!(s_on, Status::Halted(_)), "{s_on:?}");
    assert_eq!(m_on.cpu.regs[8], 7, "first installed function ran");
    assert_eq!(m_on.cpu.regs[7], 9, "patched function ran fresh, not stale");
    let stats = m_on.icache_stats();
    assert!(
        stats.invalidations > 0,
        "rewriting an executed page must invalidate: {stats:?}"
    );

    let (m_off, s_off) = run_smc(Tier::Interp);
    assert_eq!(
        (
            s_on,
            m_on.cpu.clone(),
            m_on.insns_retired,
            m_on.clock.cycles()
        ),
        (s_off, m_off.cpu, m_off.insns_retired, m_off.clock.cycles()),
        "SMC runs identically with the cache off"
    );
}

#[test]
fn host_write_to_cached_code_page_invalidates() {
    // An infinite loop reading a data word; the host then patches the
    // *code* page out from under the warm cache, turning the loop into a
    // halt. The next fetch must see the new bytes.
    let prog = assemble(
        ".text\nmain:\nloop:\n movi r1, 1\n jmp loop\nhalt_src:\n halt\n.data\nv: .word 0\n",
    )
    .expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    assert!(m.decode_cache_enabled());
    for _ in 0..64 {
        assert!(matches!(m.step(), Status::Running));
    }
    assert!(m.icache_stats().hits > 0, "loop page is cached");

    // Copy the encoded `halt` over the `jmp loop` slot (host injection —
    // the same mechanism exploit payload installation uses).
    let halt_addr = m.symbols.addr_of("halt_src").expect("halt_src");
    let jmp_addr = m.symbols.addr_of("loop").expect("loop") + 8;
    let mut halt_bytes = [0u8; 8];
    for (i, b) in halt_bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(0, halt_addr + i as u32).expect("read");
    }
    m.mem
        .write_bytes_host(jmp_addr, &halt_bytes)
        .expect("host patch");

    let mut last = Status::Running;
    for _ in 0..4 {
        last = m.step();
        if !matches!(last, Status::Running) {
            break;
        }
    }
    assert!(
        matches!(last, Status::Halted(_)),
        "patched halt must execute, not the stale cached jmp: {last:?}"
    );
    assert!(
        m.icache_stats().invalidations > 0,
        "host write must be counted as an invalidation: {:?}",
        m.icache_stats()
    );
}

#[test]
fn rollback_flush_and_write_bump_same_page_count_once() {
    // Regression: when a rollback-path flush (`flush_decode_cache`, the
    // call `CheckpointManager::rollback` makes) and a write-generation
    // bump land on the same warm page inside one step window, the cache
    // must record ONE event — the flush. The dirtying write lands on a
    // page the flush already dropped, so counting it again as an
    // invalidation would double-count a single dirtying event.
    let prog = assemble(
        ".text\nmain:\nloop:\n movi r1, 1\n movi r2, 2\n movi r3, 3\n jmp loop\nhalt_src:\n halt\n.data\nv: .word 0\n",
    )
    .expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    // Warm the cache on the loop page.
    assert!(matches!(m.run(&mut NopHook, 2000), Status::Running));
    let warm_i = m.icache_stats();
    assert!(warm_i.hits > 0, "icache warm");

    // The rollback-path flush...
    m.flush_decode_cache();
    // ...and a host write dirtying the very page that was warm, before
    // the next instruction executes.
    let halt_addr = m.symbols.addr_of("halt_src").expect("halt_src");
    let patch_addr = m.symbols.addr_of("loop").expect("loop") + 8;
    let mut halt_bytes = [0u8; 8];
    for (i, b) in halt_bytes.iter_mut().enumerate() {
        *b = m.mem.read_u8(0, halt_addr + i as u32).expect("read");
    }
    m.mem
        .write_bytes_host(patch_addr, &halt_bytes)
        .expect("host patch");
    assert!(matches!(m.run(&mut NopHook, 2000), Status::Halted(_)));

    let after_i = m.icache_stats();
    assert_eq!(after_i.flushes, warm_i.flushes + 1, "one icache flush");
    assert_eq!(
        after_i.invalidations, warm_i.invalidations,
        "the write-gen bump must not ALSO count as an icache \
         invalidation — the flush already dropped the page"
    );
    // Re-decode after the flush shows up as misses, never as
    // invalidations.
    assert!(after_i.misses > warm_i.misses, "flushed pages re-decode");
}

#[test]
fn data_stores_take_no_slow_path_validation() {
    // A loop storing to a data word: no store lands on a decoded page,
    // so the inline check keeps holding and the out-of-line path never
    // re-compares a page generation.
    let prog = assemble(
        ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
    )
    .expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    assert!(matches!(m.run(&mut NopHook, 100_000), Status::Running));
    let v = m.symbols.addr_of("v").expect("v");
    assert!(m.mem.read_u32(0, v).expect("r") > 1_000, "the loop stored");
    let st = m.icache_stats();
    assert!(st.hits > 4_000, "{st:?}");
    assert_eq!((st.validations, st.invalidations), (0, 0), "{st:?}");

    // The same on a real request path: 500 benign Squid requests.
    let app = squid::app().expect("app");
    let mut s =
        sweeper_repro::sweeper::Sweeper::protect(&app, sweeper_repro::sweeper::Config::producer(7))
            .expect("protect");
    let mut w = sweeper_repro::apps::workload::Workload::new(
        sweeper_repro::apps::workload::Target::Squid,
        7,
    );
    for _ in 0..500 {
        let out = s.offer_request(w.next_request());
        assert!(matches!(
            out,
            sweeper_repro::sweeper::RequestOutcome::Served { .. }
        ));
    }
    let st = s.machine.icache_stats();
    assert!(st.hits > 100_000, "{st:?}");
    assert_eq!(st.validations, 0, "{st:?}");
}
