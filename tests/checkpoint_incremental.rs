//! Property tests for the incremental checkpoint engine (PR 7).
//!
//! A multi-page striding-writer guest is driven through random
//! interleavings of bounded `Machine::run` bursts, host page patches,
//! whole-page zero fills, snapshot takes, pre-copy drains, ring
//! evictions, and rollbacks. The oracle lives here, on the test side:
//! every take records the fingerprint (image digest, pc, retirement
//! count, clock) of the live machine it captured, and after **every**
//! operation every retained checkpoint must still materialize to exactly
//! that fingerprint, with zero materialize failures. Any divergence
//! means the delta chain dropped a dirty page, the dedupe store returned
//! the wrong content for a key, or the drain folded a stale generation.
//! Zero fills move pages between the never-written representation (no
//! bytes) and the written one: a zero-filled heap page gains bytes that
//! dedupe against the never-written pages' store slot, a zero-filled
//! buffer page loses its content, and rollbacks bring never-written
//! pages back.
//!
//! Every take also checks the record it made: its page table strictly
//! ascending, and its image digest (folded from store slot digests)
//! equal to `mem_digest` of the live machine. A third property runs the
//! same schedules on both engines against a test-side oracle for the
//! retained-page census: the distinct page storages of every
//! materialized snapshot that the live machine does not share, counted
//! with hash sets.
//!
//! Two deterministic companions pin the fail-closed paths the chaos
//! harness relies on: a truncated delta chain and an evicted dedupe
//! slot must turn materialization into `None` (counted as a
//! materialize failure, degrading to a restart) — never into a
//! silently wrong machine.

use std::collections::{BTreeMap, HashSet};

use proptest::collection::vec;
use proptest::prelude::*;
use sweeper_repro::checkpoint::{mem_digest, CheckpointManager, CkptId, Engine};
use sweeper_repro::svm::asm::assemble;
use sweeper_repro::svm::loader::Aslr;
use sweeper_repro::svm::{Machine, NopHook};

/// A writer that strides across eight 4 KiB pages forever, so every few
/// hundred cycles dirties a different page: checkpoints taken at random
/// points see genuinely different dirty sets, and a delta chain that
/// loses any one page changes the image digest.
const STRIDING_WRITER: &str = "
.text
main:
    movi r2, 0           ; monotonically changing value
outer:
    movi r1, buf         ; page cursor
    movi r5, 8           ; pages per sweep
sweep:
    st [r1, 0], r2       ; dirty the page under the cursor
    ld r6, [r1, 0]       ; read it back (keeps the page hot)
    movi r4, 4096
    add r1, r1, r4
    addi r2, r2, 1
    subi r5, r5, 1
    cmpi r5, 0
    jnz sweep
    jmp outer
.data
buf: .space 32768
";

/// One host-side action in the interleaving.
#[derive(Debug, Clone)]
enum HostOp {
    /// Run the guest for this many virtual cycles.
    Run(u32),
    /// Host-patch 8 bytes into one of the buffer's pages.
    Patch { page: u8, val: u8 },
    /// Host-write a whole page of zeros: pages 0–7 are the buffer's,
    /// 8–15 the first (never written by the guest) heap pages.
    ZeroFill { page: u8 },
    /// Take a snapshot (base + delta under the incremental engine).
    Take,
    /// Pre-copy drain: fold dirty pages into the pending delta.
    Drain,
    /// Evict the oldest retained checkpoint (memory pressure).
    Evict,
    /// Roll back to a retained checkpoint selected by this value.
    Rollback(u64),
}

fn arb_op() -> impl Strategy<Value = HostOp> {
    prop_oneof![
        (50u32..2_000).prop_map(HostOp::Run),
        (0u8..8, any::<u8>()).prop_map(|(page, val)| HostOp::Patch { page, val }),
        (0u8..16).prop_map(|page| HostOp::ZeroFill { page }),
        Just(HostOp::Take),
        Just(HostOp::Drain),
        Just(HostOp::Evict),
        any::<u64>().prop_map(HostOp::Rollback),
    ]
}

/// The identity of a materialized machine, for round-trip comparison.
fn fingerprint(m: &Machine) -> Fingerprint {
    (
        mem_digest(&m.mem),
        m.cpu.pc,
        m.insns_retired,
        m.clock.cycles(),
    )
}

type Fingerprint = (u64, u32, u64, u64);

struct Leg {
    m: Machine,
    mgr: CheckpointManager,
    /// The fingerprint of the live machine at every take, by id.
    taken: BTreeMap<CkptId, Fingerprint>,
}

impl Leg {
    fn boot(engine: Engine) -> Leg {
        let prog = assemble(STRIDING_WRITER).expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        Leg {
            m,
            // Interval u64::MAX: the schedule, not the clock, decides
            // when snapshots happen.
            mgr: CheckpointManager::new(u64::MAX, 4).with_engine(engine),
            taken: BTreeMap::new(),
        }
    }

    /// Take a snapshot and record what it must rebuild to; check the
    /// incremental record's table order and image digest.
    fn take(&mut self) {
        let id = self.mgr.take(&mut self.m);
        self.taken.insert(id, fingerprint(&self.m));
        let ckpt = self.mgr.get(id).expect("just taken");
        if let Some(d) = ckpt.delta() {
            assert!(
                d.pages().windows(2).all(|w| w[0].0 < w[1].0),
                "{id:?}: page table not strictly ascending"
            );
            assert_eq!(d.image_digest(), mem_digest(&self.m.mem), "{id:?}");
        }
    }

    fn apply(&mut self, op: &HostOp) {
        match op {
            HostOp::Run(cycles) => {
                self.m.run(&mut NopHook, u64::from(*cycles));
            }
            HostOp::Patch { page, val } => {
                let buf = self.m.symbols.addr_of("buf").expect("buf");
                let addr = buf + u32::from(*page) * 4096;
                self.m
                    .mem
                    .write_bytes_host(addr, &[*val; 8])
                    .expect("patch");
            }
            HostOp::ZeroFill { page } => {
                let addr = if *page < 8 {
                    self.m.symbols.addr_of("buf").expect("buf") + u32::from(*page) * 4096
                } else {
                    let heap = self.m.mem.regions().iter().find(|r| r.name == "heap");
                    heap.expect("heap").start + u32::from(*page - 8) * 4096
                };
                self.m
                    .mem
                    .write_bytes_host(addr, &[0; 4096])
                    .expect("zero fill");
            }
            HostOp::Take => {
                self.take();
            }
            HostOp::Drain => {
                self.mgr.drain(&self.m);
            }
            HostOp::Evict => {
                self.mgr.evict_oldest();
            }
            HostOp::Rollback(sel) => {
                let ids: Vec<_> = self.mgr.ids().collect();
                if ids.is_empty() {
                    return;
                }
                let id = ids[(*sel as usize) % ids.len()];
                if let Some(rolled) = self.mgr.rollback(id) {
                    self.m = rolled;
                    // Mirror the runtime (runtime.rs, recovery): the
                    // pre-rollback drain set is discarded — its pages
                    // were recorded under generations the rewound
                    // machine will re-reach with different bytes — and
                    // a fresh snapshot of the recovered state is taken
                    // before any new writes, rebuilding the cumulative
                    // table from the live image so later generations
                    // can never collide with pre-rollback entries.
                    self.mgr.discard_pending();
                    self.take();
                }
            }
        }
    }

    /// The invariant checked after every operation: every retained
    /// snapshot rebuilds to the fingerprint recorded when it was taken,
    /// and nothing failed closed.
    fn check(&self) -> Result<(), TestCaseError> {
        for id in self.mgr.ids().collect::<Vec<_>>() {
            let rebuilt = self.mgr.materialize(id);
            prop_assert!(rebuilt.is_some(), "undamaged {id:?} failed to materialize");
            prop_assert_eq!(
                Some(fingerprint(&rebuilt.expect("checked"))),
                self.taken.get(&id).copied(),
                "{:?} does not rebuild to the machine it captured",
                id
            );
        }
        prop_assert_eq!(
            self.mgr.materialize_failures(),
            0,
            "materialization failed without injected damage"
        );
        Ok(())
    }
}

/// The retained-page census computed the plain way: the storage of
/// every page of every materialized snapshot, minus the live machine's.
fn census_oracle(mgr: &CheckpointManager, live: &Machine) -> usize {
    let live_ids: HashSet<usize> = live.mem.page_storage_ids().collect();
    let mut held = HashSet::new();
    for id in mgr.ids().collect::<Vec<_>>() {
        let m = mgr.materialize(id).expect("undamaged snapshot");
        held.extend(m.mem.page_storage_ids());
    }
    held.difference(&live_ids).count()
}

proptest! {
    // 16 cases: the parity property rebuilds every retained snapshot
    // after every op, so each case already performs hundreds of
    // fingerprint-compared rebuilds.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of runs, patches, takes, drains, evictions,
    /// and rollbacks keep every retained incremental snapshot
    /// bit-identical to the machine it captured after every operation.
    #[test]
    fn interleaved_schedules_keep_engine_parity(
        ops in vec(arb_op(), 1..18),
    ) {
        let mut leg = Leg::boot(Engine::Incremental);
        leg.take(); // base snapshot, like the runtime
        for (i, op) in ops.iter().enumerate() {
            leg.apply(op);
            leg.check().map_err(|e| {
                TestCaseError::fail(format!("after op {i} = {op:?}: {e:?}"))
            })?;
        }
    }

    /// A snapshot taken at any point reproduces the live machine it
    /// captured, exactly, right after the take.
    #[test]
    fn latest_snapshot_reproduces_the_live_machine(
        ops in vec(arb_op(), 1..18),
    ) {
        let mut leg = Leg::boot(Engine::Incremental);
        leg.mgr.take(&mut leg.m);
        for op in &ops {
            leg.apply(op);
            if matches!(op, HostOp::Take) {
                let id = leg.mgr.ids().last().expect("just taken");
                let rebuilt = leg.mgr.materialize(id).expect("materialize");
                prop_assert_eq!(
                    fingerprint(&rebuilt),
                    fingerprint(&leg.m),
                    "snapshot does not reproduce the machine it captured"
                );
            }
        }
        prop_assert_eq!(leg.mgr.materialize_failures(), 0);
    }

    /// The production census equals the oracle after every operation,
    /// on both engines.
    #[test]
    fn retained_page_census_matches_the_oracle(
        ops in vec(arb_op(), 1..18),
    ) {
        for engine in [Engine::Full, Engine::Incremental] {
            let mut leg = Leg::boot(engine);
            leg.take();
            for (i, op) in ops.iter().enumerate() {
                leg.apply(op);
                prop_assert_eq!(
                    leg.mgr.retained_unique_pages(&leg.m),
                    census_oracle(&leg.mgr, &leg.m),
                    "{:?} after op {} = {:?}",
                    engine,
                    i,
                    op
                );
            }
        }
    }
}

/// Regression (stale-delta leak across rollback): a pre-copy drain
/// taken *before* a rollback must not be folded into the delta captured
/// *after* it. The drain records `(page, generation)` pairs; rollback
/// rewinds `write_seq`, so the replayed execution re-reaches the very
/// same generation numbers with different bytes. Pre-fix, the next
/// `take` saw a matching generation in the pending set and reused the
/// stale pre-rollback page content, so the snapshot's image digest
/// (computed from the live machine) could never match what
/// materialization rebuilds — a spurious fail-closed materialize
/// failure that degraded perfectly good rollback-replay recoveries to
/// restarts. The runtime now calls `discard_pending` between rollback
/// and the post-recovery snapshot; this test drives that exact
/// sequence at the manager level.
#[test]
fn pending_drain_does_not_leak_across_rollback() {
    let mut leg = Leg::boot(Engine::Incremental);
    let buf = leg.m.symbols.addr_of("buf").expect("buf");
    let base = leg.mgr.take(&mut leg.m);
    // Dirty one page and drain it: the pending set now holds the page
    // under the current write generation, content [1; 8].
    leg.m.mem.write_bytes_host(buf, &[1u8; 8]).expect("patch");
    assert_eq!(leg.mgr.drain(&leg.m), 1, "the patched page drains");
    // Roll back to the base: write_seq rewinds past the drained
    // generation.
    let rolled = leg.mgr.rollback(base).expect("base materializes");
    leg.m = rolled;
    // The replayed execution re-reaches the drained generation — same
    // (page, generation) pair, different bytes.
    leg.m.mem.write_bytes_host(buf, &[2u8; 8]).expect("patch");
    // The runtime's post-recovery sequence: discard the stale drain
    // set, then snapshot the recovered state. (Pre-fix there was no
    // discard, the stale [1; 8] page was captured under the matching
    // generation, and the assertions below failed.)
    leg.mgr.discard_pending();
    let id = leg.mgr.take(&mut leg.m);
    let rebuilt = leg.mgr.materialize(id);
    assert!(
        rebuilt.is_some(),
        "post-rollback snapshot must materialize (stale drained page leaked into the delta)"
    );
    assert_eq!(
        fingerprint(&rebuilt.expect("checked")),
        fingerprint(&leg.m),
        "snapshot must reproduce the live post-rollback machine"
    );
    assert_eq!(leg.mgr.materialize_failures(), 0, "no fail-closed damage");
}

/// A truncated delta chain must fail closed: the damaged snapshot
/// refuses to materialize (degrading to a restart) rather than handing
/// back a machine missing a page — and the damage stays contained to
/// the truncated record; older snapshots still round-trip.
#[test]
fn truncated_delta_chain_fails_closed() {
    let mut leg = Leg::boot(Engine::Incremental);
    leg.m.run(&mut NopHook, 3_000); // dirty several pages
    let base = leg.mgr.take(&mut leg.m);
    leg.m.run(&mut NopHook, 3_000); // advance the dirty set
    let latest = leg.mgr.take(&mut leg.m);
    assert!(
        leg.mgr.chaos_truncate_latest_delta(2) > 0,
        "the delta chain had pages to drop"
    );
    assert!(
        leg.mgr.materialize(latest).is_none(),
        "truncated snapshot must not materialize"
    );
    assert!(leg.mgr.materialize_failures() > 0, "failure was counted");
    assert!(
        leg.mgr.materialize(base).is_some(),
        "damage is contained to the truncated record"
    );
}

/// The dedupe-store eviction race must fail closed the same way: once
/// every slot a snapshot references is gone, materialization returns
/// `None` for every retained checkpoint — never a partial image.
#[test]
fn dedupe_store_eviction_fails_closed() {
    let mut leg = Leg::boot(Engine::Incremental);
    leg.m.run(&mut NopHook, 3_000);
    leg.mgr.take(&mut leg.m);
    leg.m.run(&mut NopHook, 3_000);
    leg.mgr.take(&mut leg.m);
    assert!(leg.mgr.store_pages() > 0, "snapshots hold store pages");
    while leg.mgr.chaos_evict_store_page() {}
    for id in leg.mgr.ids().collect::<Vec<_>>() {
        assert!(
            leg.mgr.materialize(id).is_none(),
            "{id:?} materialized from an emptied store"
        );
    }
    assert!(leg.mgr.materialize_failures() > 0, "failures were counted");
}
