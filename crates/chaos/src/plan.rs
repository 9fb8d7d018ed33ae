//! Seeded fault plans: a deterministic [`FaultHooks`] implementation.
//!
//! Every injection decision is a pure function of
//! `(case seed, site domain, per-site counter)` through the counter-based
//! PRNG ([`epidemic::rng::draw`]) — the same keystone the sharded
//! community engine uses for its deterministic merge. Because no decision
//! depends on evolving generator *state*, a plan rebuilt from the same
//! seed fires the same faults at the same sites in a replayed run, which
//! is what makes `chaos --seed 0x…` an exact reproducer.
//!
//! A plan covers fourteen fault families, each independently enabled by
//! a seed-derived mask so seeds explore combinations (including the
//! empty plan, which anchors the bit-identical invariant). Eleven are
//! hook families firing through [`sweeper::FaultHooks`]; three (PR 5)
//! are *wire* families that configure the antibody distribution network
//! and the certified-bundle hand-off of the runner's distnet legs:
//!
//! | family | seam |
//! |--------|------|
//! | replay-drop | a re-injected connection vanishes mid-replay |
//! | replay-corrupt | a re-injected connection is bit-flipped |
//! | replay-reorder | the replay set is permuted |
//! | tool-fail | an analysis tool fails to attach (per step) |
//! | tool-detach | the DBI runtime dies after N delivered events |
//! | ckpt-evict | the chosen checkpoint is evicted pre-recovery |
//! | antibody-corrupt | the serialized antibody is damaged in transit |
//! | delta-trunc | the newest incremental delta loses its tail pages |
//! | dedupe-evict | the dedupe store drops a live page slot (PR 7) |
//! | domain-tag-corrupt | a page's domain attribution is flipped pre-recovery (PR 10) |
//! | domain-spill-force | every tracked domain is forced into the spilled set (PR 10) |
//! | wire-loss | distnet sends are dropped / duplicated / delayed |
//! | wire-byzantine | a producer fraction emits forged bundles |
//! | bundle-forge | a forged certified bundle is handed to a consumer |

use std::sync::{Arc, Mutex};

use antibody::Antibody;
use checkpoint::{CheckpointManager, Proxy, ReplayFault};
use epidemic::rng::draw;
use sweeper::FaultHooks;

// Domain separators (arbitrary, fixed): one per decision site so
// counters never alias across sites.
const DOM_INTENSITY: u64 = 0xc4a0_0001;
const DOM_FAMILIES: u64 = 0xc4a0_0002;
const DOM_REPLAY_DROP: u64 = 0xc4a0_0010;
const DOM_REPLAY_CORRUPT: u64 = 0xc4a0_0011;
const DOM_CORRUPT_POS: u64 = 0xc4a0_0012;
const DOM_REORDER: u64 = 0xc4a0_0013;
const DOM_REORDER_SWAP: u64 = 0xc4a0_0014;
const DOM_TOOL_FAIL: u64 = 0xc4a0_0020;
const DOM_DETACH: u64 = 0xc4a0_0021;
const DOM_DETACH_N: u64 = 0xc4a0_0022;
const DOM_EVICT: u64 = 0xc4a0_0030;
const DOM_AB_CORRUPT: u64 = 0xc4a0_0040;
const DOM_AB_MODE: u64 = 0xc4a0_0041;
const DOM_WIRE_DUP: u64 = 0xc4a0_0050;
const DOM_WIRE_DELAY: u64 = 0xc4a0_0051;
const DOM_WIRE_BYZ: u64 = 0xc4a0_0052;
const DOM_DELTA_TRUNC: u64 = 0xc4a0_0070;
const DOM_TRUNC_N: u64 = 0xc4a0_0071;
const DOM_DEDUPE_EVICT: u64 = 0xc4a0_0072;
const DOM_DOMAIN_TAG: u64 = 0xc4a0_0080;
const DOM_TAG_SEL: u64 = 0xc4a0_0081;
const DOM_DOMAIN_SPILL: u64 = 0xc4a0_0082;

/// Family bit indices in the seed-derived enable mask.
const FAM_REPLAY_DROP: u32 = 0;
const FAM_REPLAY_CORRUPT: u32 = 1;
const FAM_REORDER: u32 = 2;
const FAM_TOOL_FAIL: u32 = 3;
const FAM_DETACH: u32 = 4;
const FAM_EVICT: u32 = 5;
const FAM_AB_CORRUPT: u32 = 6;
const FAM_WIRE_LOSS: u32 = 7;
const FAM_WIRE_BYZANTINE: u32 = 8;
const FAM_BUNDLE_FORGE: u32 = 9;
const FAM_DELTA_TRUNC: u32 = 10;
const FAM_DEDUPE_EVICT: u32 = 11;
const FAM_DOMAIN_TAG: u32 = 12;
const FAM_DOMAIN_SPILL: u32 = 13;

/// Counts of faults a plan actually *fired* during a run, per family.
///
/// The runner copies these into the observability registry as
/// `chaos.fault.<family>` counters, which is how the harness proves each
/// family is genuinely exercised (not just configured).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Replayed connections dropped.
    pub replay_dropped: u64,
    /// Replayed connections bit-flipped.
    pub replay_corrupted: u64,
    /// Replay sets permuted.
    pub replay_reordered: u64,
    /// Analysis-tool attach failures injected.
    pub tools_failed: u64,
    /// Mid-replay DBI detaches armed.
    pub tools_detached: u64,
    /// Checkpoints evicted in the recovery race window.
    pub ckpts_evicted: u64,
    /// Antibody bundles corrupted in transit.
    pub antibodies_corrupted: u64,
    /// Incremental delta records truncated in the recovery window
    /// (materialization must fail closed, degrading to restart).
    pub deltas_truncated: u64,
    /// Live dedupe-store page slots force-evicted out from under the
    /// delta chain (the compaction race).
    pub store_evictions: u64,
    /// Domain-ledger page tags corrupted in the recovery window (PR 10).
    /// The partial rollback must detect the mis-attribution through the
    /// ledger checksum and fail closed to full recovery — a corrupt tag
    /// never yields a wrong partial image.
    pub domain_tags_corrupted: u64,
    /// Cross-domain spills forced into the ledger in the recovery window
    /// (PR 10): every attacked domain then refuses partial rollback and
    /// the runtime falls back to full recovery.
    pub domain_spills_forced: u64,
    /// Distnet wire faults observed (sends dropped + duplicated +
    /// delayed) on the faulted distribution leg.
    pub wire_faults: u64,
    /// Forged bundles from Byzantine producers rejected at the
    /// verify-before-deploy gate on the faulted distribution leg.
    pub byzantine_rejections: u64,
    /// Forged certified bundles injected into the producer→consumer
    /// hand-off leg (each must be rejected; a deployment is an I8
    /// violation).
    pub bundles_forged: u64,
}

impl FaultStats {
    /// Total faults fired across all families.
    pub fn total(&self) -> u64 {
        self.hook_total() + self.wire_faults + self.byzantine_rejections + self.bundles_forged
    }

    /// Total *hook* faults fired (the eleven [`sweeper::FaultHooks`]
    /// families). This — not [`FaultStats::total`] — governs invariant
    /// I7: wire faults perturb only the distnet legs, never the faulted
    /// sweeper run, so they must not relax the bit-identity check.
    pub fn hook_total(&self) -> u64 {
        self.replay_dropped
            + self.replay_corrupted
            + self.replay_reordered
            + self.tools_failed
            + self.tools_detached
            + self.ckpts_evicted
            + self.antibodies_corrupted
            + self.deltas_truncated
            + self.store_evictions
            + self.domain_tags_corrupted
            + self.domain_spills_forced
    }

    /// Total replay-perturbing faults fired (drop / corrupt / reorder).
    /// These are the only families that touch the *full* recovery
    /// replay, so they are the only ones allowed to relax the
    /// Domain-vs-Full recovery parity comparison (the partial rollback
    /// replays nothing and cannot see them).
    pub fn replay_total(&self) -> u64 {
        self.replay_dropped + self.replay_corrupted + self.replay_reordered
    }

    /// Number of distinct families that fired at least once.
    pub fn families_fired(&self) -> usize {
        [
            self.replay_dropped,
            self.replay_corrupted,
            self.replay_reordered,
            self.tools_failed,
            self.tools_detached,
            self.ckpts_evicted,
            self.antibodies_corrupted,
            self.deltas_truncated,
            self.store_evictions,
            self.domain_tags_corrupted,
            self.domain_spills_forced,
            self.wire_faults,
            self.byzantine_rejections,
            self.bundles_forged,
        ]
        .iter()
        .filter(|&&n| n > 0)
        .count()
    }

    /// Accumulate another run's stats into this one.
    pub fn absorb(&mut self, other: &FaultStats) {
        self.replay_dropped += other.replay_dropped;
        self.replay_corrupted += other.replay_corrupted;
        self.replay_reordered += other.replay_reordered;
        self.tools_failed += other.tools_failed;
        self.tools_detached += other.tools_detached;
        self.ckpts_evicted += other.ckpts_evicted;
        self.antibodies_corrupted += other.antibodies_corrupted;
        self.deltas_truncated += other.deltas_truncated;
        self.store_evictions += other.store_evictions;
        self.domain_tags_corrupted += other.domain_tags_corrupted;
        self.domain_spills_forced += other.domain_spills_forced;
        self.wire_faults += other.wire_faults;
        self.byzantine_rejections += other.byzantine_rejections;
        self.bundles_forged += other.bundles_forged;
    }

    /// Write the per-family fired counts into `reg` as
    /// `chaos.fault.<family>` absolute counters.
    pub fn export(&self, reg: &mut obs::MetricsRegistry) {
        reg.set_counter("chaos.fault.replay_dropped", self.replay_dropped);
        reg.set_counter("chaos.fault.replay_corrupted", self.replay_corrupted);
        reg.set_counter("chaos.fault.replay_reordered", self.replay_reordered);
        reg.set_counter("chaos.fault.tools_failed", self.tools_failed);
        reg.set_counter("chaos.fault.tools_detached", self.tools_detached);
        reg.set_counter("chaos.fault.ckpts_evicted", self.ckpts_evicted);
        reg.set_counter(
            "chaos.fault.antibodies_corrupted",
            self.antibodies_corrupted,
        );
        reg.set_counter("chaos.fault.deltas_truncated", self.deltas_truncated);
        reg.set_counter("chaos.fault.store_evictions", self.store_evictions);
        reg.set_counter(
            "chaos.fault.domain_tags_corrupted",
            self.domain_tags_corrupted,
        );
        reg.set_counter(
            "chaos.fault.domain_spills_forced",
            self.domain_spills_forced,
        );
        reg.set_counter("chaos.fault.wire_faults", self.wire_faults);
        reg.set_counter(
            "chaos.fault.byzantine_rejections",
            self.byzantine_rejections,
        );
        reg.set_counter("chaos.fault.bundles_forged", self.bundles_forged);
    }

    /// `(name, count)` pairs in a fixed order, for reports.
    pub fn named(&self) -> [(&'static str, u64); 14] {
        [
            ("replay_dropped", self.replay_dropped),
            ("replay_corrupted", self.replay_corrupted),
            ("replay_reordered", self.replay_reordered),
            ("tools_failed", self.tools_failed),
            ("tools_detached", self.tools_detached),
            ("ckpts_evicted", self.ckpts_evicted),
            ("antibodies_corrupted", self.antibodies_corrupted),
            ("deltas_truncated", self.deltas_truncated),
            ("store_evictions", self.store_evictions),
            ("domain_tags_corrupted", self.domain_tags_corrupted),
            ("domain_spills_forced", self.domain_spills_forced),
            ("wire_faults", self.wire_faults),
            ("byzantine_rejections", self.byzantine_rejections),
            ("bundles_forged", self.bundles_forged),
        ]
    }
}

/// Shared handle to a plan's [`FaultStats`]: the plan is boxed into the
/// runtime (`Box<dyn FaultHooks>`), so the runner keeps this clone to
/// read the fired counts after the run — including after a caught panic.
pub type SharedStats = Arc<Mutex<FaultStats>>;

/// Wire-level fault configuration for the runner's distribution-network
/// legs, derived from the same `(seed, intensity, family-mask)` triple
/// as the hook families. Unlike hooks, wire faults are expressed as
/// [`epidemic::DistNetParams`] knobs: the distnet draws its own
/// per-send loss/dup/delay/forgery decisions from the *community* seed,
/// so the whole leg stays a pure function of the case seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WirePlan {
    /// Per-send loss probability for the faulted distnet leg.
    pub loss: f64,
    /// Per-send duplication probability.
    pub dup: f64,
    /// Maximum extra delivery delay in ticks.
    pub max_delay_ticks: u64,
    /// Byzantine producer fraction (≥ 0.10 whenever enabled, so smoke
    /// batches genuinely exercise forged-bundle rejection).
    pub byzantine: f64,
    /// Whether the forged certified-bundle hand-off leg runs.
    pub forge_bundles: bool,
}

impl WirePlan {
    /// Whether any distnet-level wire fault is configured.
    pub fn any_wire_fault(&self) -> bool {
        self.loss > 0.0 || self.byzantine > 0.0
    }
}

/// A seeded, deterministic fault plan (see module docs).
pub struct FaultPlan {
    seed: u64,
    /// Per-site fire probability in permille; 0 means the empty plan.
    permille: u64,
    /// Enabled-family bitmask (bits [`FAM_REPLAY_DROP`]..).
    families: u64,
    /// Per-domain decision counters (indexed by site, not family).
    counters: [u64; 11],
    stats: SharedStats,
}

impl FaultPlan {
    /// Derive a plan from a case seed. Roughly a quarter of seeds yield
    /// the *empty* plan (intensity 0): those anchor the invariant that an
    /// installed-but-silent plan is bit-identical to no plan at all.
    pub fn from_seed(seed: u64) -> (FaultPlan, SharedStats) {
        let permille = match draw(seed, DOM_INTENSITY, 0) % 4 {
            0 => 0,
            1 => 80,
            2 => 220,
            _ => 450,
        };
        let families = draw(seed, DOM_FAMILIES, 0) | (1 << FAM_TOOL_FAIL);
        let stats: SharedStats = Arc::new(Mutex::new(FaultStats::default()));
        (
            FaultPlan {
                seed,
                permille,
                families,
                counters: [0; 11],
                stats: Arc::clone(&stats),
            },
            stats,
        )
    }

    /// Whether this plan can fire at all.
    pub fn is_empty_plan(&self) -> bool {
        self.permille == 0
    }

    /// The wire-fault configuration for this plan's distnet legs (PR 5
    /// families, bits `FAM_WIRE_LOSS`..`FAM_BUNDLE_FORGE`). The
    /// empty plan yields a zero-fault wire, anchoring the differential
    /// invariant: an ideal wire is bit-identical to the legacy clock.
    pub fn wire(&self) -> WirePlan {
        let on = |fam: u32| self.permille > 0 && self.families & (1u64 << fam) != 0;
        let intensity = self.permille as f64 / 1000.0;
        let (loss, dup, max_delay_ticks) = if on(FAM_WIRE_LOSS) {
            (
                0.10 + 0.60 * intensity,
                (draw(self.seed, DOM_WIRE_DUP, 0) % 80) as f64 / 1000.0,
                draw(self.seed, DOM_WIRE_DELAY, 0) % 3,
            )
        } else {
            (0.0, 0.0, 0)
        };
        let byzantine = if on(FAM_WIRE_BYZANTINE) {
            0.10 + (draw(self.seed, DOM_WIRE_BYZ, 0) % 4) as f64 * 0.10
        } else {
            0.0
        };
        WirePlan {
            loss,
            dup,
            max_delay_ticks,
            byzantine,
            forge_bundles: on(FAM_BUNDLE_FORGE),
        }
    }

    /// One deterministic permille roll at `domain` (counter slot `slot`),
    /// gated on the family being enabled.
    fn roll(&mut self, family: u32, domain: u64, slot: usize) -> bool {
        if self.permille == 0 || self.families & (1 << family) == 0 {
            return false;
        }
        let c = self.counters[slot];
        self.counters[slot] += 1;
        draw(self.seed, domain, c) % 1000 < self.permille
    }

    /// A deterministic raw draw at `domain`, advancing slot `slot`.
    fn value(&mut self, domain: u64, slot: usize) -> u64 {
        let c = self.counters[slot];
        self.counters[slot] += 1;
        draw(self.seed, domain, c)
    }

    /// Damage serialized antibody bytes in transit (truncation, a bit
    /// flip or a 4-byte burst); `true` if `bytes` changed.
    fn corrupt_wire(&mut self, bytes: &mut Vec<u8>) -> bool {
        if bytes.is_empty() || !self.roll(FAM_AB_CORRUPT, DOM_AB_CORRUPT, 6) {
            return false;
        }
        let v = self.value(DOM_AB_MODE, 6);
        match v % 3 {
            // Truncation (lost tail in transit).
            0 => {
                let keep = (v >> 8) as usize % bytes.len();
                bytes.truncate(keep);
            }
            // Single bit-flip.
            1 => {
                let pos = (v >> 8) as usize % bytes.len();
                let bit = (v >> 56) % 8;
                bytes[pos] ^= 1 << bit;
            }
            // Burst corruption: stomp 4 bytes.
            _ => {
                let pos = (v >> 8) as usize % bytes.len();
                for (k, b) in bytes.iter_mut().skip(pos).take(4).enumerate() {
                    *b = (v >> (16 + 8 * k)) as u8;
                }
            }
        }
        self.stats.lock().unwrap().antibodies_corrupted += 1;
        true
    }

    /// Fold a step name into a domain so per-step decisions don't alias.
    fn step_domain(base: u64, step: &str) -> u64 {
        step.bytes()
            .fold(base, |acc, b| acc.rotate_left(7) ^ u64::from(b))
    }
}

impl ReplayFault for FaultPlan {
    fn on_replay_input(&mut self, _log_id: usize, input: &mut Vec<u8>) -> bool {
        if self.roll(FAM_REPLAY_DROP, DOM_REPLAY_DROP, 0) {
            self.stats.lock().unwrap().replay_dropped += 1;
            return false;
        }
        if !input.is_empty() && self.roll(FAM_REPLAY_CORRUPT, DOM_REPLAY_CORRUPT, 1) {
            let v = self.value(DOM_CORRUPT_POS, 1);
            let pos = (v as usize) % input.len();
            let bit = (v >> 32) % 8;
            input[pos] ^= 1 << bit;
            self.stats.lock().unwrap().replay_corrupted += 1;
        }
        true
    }

    fn reorder(&mut self, inputs: &mut Vec<(usize, Vec<u8>)>) {
        if inputs.len() < 2 || !self.roll(FAM_REORDER, DOM_REORDER, 2) {
            return;
        }
        // Deterministic Fisher–Yates over the replay set.
        for i in (1..inputs.len()).rev() {
            let j = (self.value(DOM_REORDER_SWAP, 2) as usize) % (i + 1);
            inputs.swap(i, j);
        }
        self.stats.lock().unwrap().replay_reordered += 1;
    }
}

impl FaultHooks for FaultPlan {
    fn fail_tool(&mut self, step: &'static str) -> bool {
        let dom = FaultPlan::step_domain(DOM_TOOL_FAIL, step);
        if self.roll(FAM_TOOL_FAIL, dom, 3) {
            self.stats.lock().unwrap().tools_failed += 1;
            return true;
        }
        false
    }

    fn tool_detach_after(&mut self, step: &'static str) -> Option<u64> {
        let dom = FaultPlan::step_domain(DOM_DETACH, step);
        if self.roll(FAM_DETACH, dom, 4) {
            let n = self.value(DOM_DETACH_N, 4) % 4096;
            self.stats.lock().unwrap().tools_detached += 1;
            return Some(n);
        }
        None
    }

    fn before_recovery(&mut self, mgr: &mut CheckpointManager, _proxy: &mut Proxy) {
        // The eviction race: retention pressure lands between choosing a
        // snapshot and replaying from it. Up to three evictions per
        // window so a seed can vanish the chosen checkpoint entirely.
        for _ in 0..3 {
            if !self.roll(FAM_EVICT, DOM_EVICT, 5) {
                break;
            }
            if mgr.evict_oldest().is_none() {
                break;
            }
            self.stats.lock().unwrap().ckpts_evicted += 1;
        }
        // Delta-chain truncation (PR 7): the newest incremental record
        // loses its tail pages in the same window. Materialization must
        // fail closed — a restart, never a wrong image. Fires only when
        // the engine actually holds a delta (Full snapshots are immune),
        // so the roll is counted only if pages were really dropped.
        if self.roll(FAM_DELTA_TRUNC, DOM_DELTA_TRUNC, 7) {
            let n = 1 + (self.value(DOM_TRUNC_N, 7) % 4) as usize;
            if mgr.chaos_truncate_latest_delta(n) > 0 {
                self.stats.lock().unwrap().deltas_truncated += 1;
            }
        }
        // Dedupe-store eviction race (PR 7): compaction pressure drops a
        // live page slot out from under every delta that references it.
        if self.roll(FAM_DEDUPE_EVICT, DOM_DEDUPE_EVICT, 8) && mgr.chaos_evict_store_page() {
            self.stats.lock().unwrap().store_evictions += 1;
        }
        // Domain-tag corruption (PR 10): one tracked page's domain
        // attribution is flipped without re-sealing the ledger checksum.
        // Partial recovery must detect the mis-attribution (a corrupt
        // ledger never verifies) and fail closed to full recovery. Lands
        // only when the ledger actually tracks pages.
        if self.roll(FAM_DOMAIN_TAG, DOM_DOMAIN_TAG, 9) {
            let sel = self.value(DOM_TAG_SEL, 9);
            if mgr.chaos_corrupt_domain_tag(sel) {
                self.stats.lock().unwrap().domain_tags_corrupted += 1;
            }
        }
        // Forced cross-domain spill (PR 10): every tracked domain is
        // marked spilled, modelling uncovered cross-domain writes. Every
        // attacked domain must then refuse partial rollback and fall
        // back to full recovery — never a wrong partial image.
        if self.roll(FAM_DOMAIN_SPILL, DOM_DOMAIN_SPILL, 10) && mgr.chaos_force_domain_spill() {
            self.stats.lock().unwrap().domain_spills_forced += 1;
        }
    }

    fn corrupt_antibody(&mut self, antibody: &Antibody) -> Option<Vec<u8>> {
        let mut bytes = antibody.to_bytes();
        self.corrupt_wire(&mut bytes).then_some(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal machine so the eviction seam has real checkpoints to
    /// race against.
    fn boot_counter() -> svm::Machine {
        let prog = svm::asm::assemble(
            ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
        )
        .expect("asm");
        svm::Machine::boot(&prog, svm::loader::Aslr::off()).expect("boot")
    }

    /// Drive a plan through a fixed synthetic site schedule, recording
    /// every decision.
    fn trace(seed: u64) -> (Vec<String>, FaultStats) {
        let (mut p, stats) = FaultPlan::from_seed(seed);
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 4);
        let mut proxy = Proxy::new();
        let mut out = Vec::new();
        for i in 0..24u64 {
            let mut input = vec![1, 2, 3, 4, (i & 0xff) as u8];
            let kept = p.on_replay_input(i as usize, &mut input);
            out.push(format!("replay {kept} {input:?}"));
            let mut set = vec![(0usize, vec![9u8]), (1, vec![8]), (2, vec![7])];
            p.reorder(&mut set);
            out.push(format!("order {set:?}"));
            for step in ["memory-state", "memory-bug", "taint", "slicing"] {
                out.push(format!("fail {} {}", step, p.fail_tool(step)));
                out.push(format!("detach {} {:?}", step, p.tool_detach_after(step)));
            }
            let mut ab = vec![0xabu8; 40];
            out.push(format!("ab {} {ab:?}", p.corrupt_wire(&mut ab)));
            // Keep the ring populated so evictions can actually land.
            while mgr.retained() < 3 {
                mgr.take(&mut m);
            }
            // Keep the domain ledger populated (run the guest, attribute
            // the dirtied pages) so the tag-corruption and forced-spill
            // seams can actually land.
            m.run(&mut svm::NopHook, 200);
            mgr.note_service(&mut m, (i % 3) as u32);
            p.before_recovery(&mut mgr, &mut proxy);
            out.push(format!("retained {}", mgr.retained()));
        }
        let s = *stats.lock().unwrap();
        (out, s)
    }

    #[test]
    fn same_seed_same_plan_bit_for_bit() {
        for seed in [0u64, 1, 42, 0xdead_beef, u64::MAX] {
            assert_eq!(trace(seed), trace(seed), "seed {seed:#x}");
        }
    }

    #[test]
    fn seeds_explore_distinct_fault_mixes() {
        let mut distinct = std::collections::BTreeSet::new();
        let mut empty_plans = 0;
        for seed in 0..64u64 {
            let (_, stats) = trace(seed);
            if stats.total() == 0 {
                empty_plans += 1;
            }
            distinct.insert(format!("{stats:?}"));
        }
        assert!(distinct.len() > 8, "only {} mixes", distinct.len());
        assert!(empty_plans > 0, "some seeds must yield the empty plan");
        // Across a small seed range, every family fires somewhere.
        let mut agg = FaultStats::default();
        for seed in 0..64u64 {
            agg.absorb(&trace(seed).1);
        }
        // `trace` drives only the hook seams; all 11 hook families fire.
        assert_eq!(
            agg.families_fired(),
            11,
            "all hook families reachable: {agg:?}"
        );
    }

    #[test]
    fn wire_plans_are_deterministic_and_explore_the_space() {
        let (mut lossy, mut byz, mut forge, mut quiet) = (0, 0, 0, 0);
        for seed in 0..256u64 {
            let (p, _) = FaultPlan::from_seed(seed);
            let w = p.wire();
            assert_eq!(w, FaultPlan::from_seed(seed).0.wire(), "seed {seed}");
            if p.is_empty_plan() {
                assert_eq!(
                    w,
                    WirePlan {
                        loss: 0.0,
                        dup: 0.0,
                        max_delay_ticks: 0,
                        byzantine: 0.0,
                        forge_bundles: false
                    },
                    "empty plan must yield a perfect wire"
                );
            }
            if w.loss > 0.0 {
                lossy += 1;
                assert!((0.1..0.9).contains(&w.loss), "loss bounded: {}", w.loss);
            }
            if w.byzantine > 0.0 {
                byz += 1;
                assert!(
                    (0.10..=0.40).contains(&w.byzantine),
                    "byzantine fraction >= 10%: {}",
                    w.byzantine
                );
            }
            if w.forge_bundles {
                forge += 1;
            }
            if !w.any_wire_fault() && !w.forge_bundles {
                quiet += 1;
            }
        }
        assert!(lossy > 10, "lossy wires: {lossy}");
        assert!(byz > 10, "byzantine wires: {byz}");
        assert!(forge > 10, "forge legs: {forge}");
        assert!(quiet > 10, "quiet wires anchor the differential: {quiet}");
    }

    #[test]
    fn empty_plan_never_fires() {
        for seed in 0..512u64 {
            let (p, _) = FaultPlan::from_seed(seed);
            if p.is_empty_plan() {
                let (_, stats) = trace(seed);
                assert_eq!(stats.total(), 0, "empty plan fired: seed {seed}");
                return;
            }
        }
        panic!("no empty plan in seed range");
    }

    #[test]
    fn stats_export_lands_in_the_registry() {
        let mut agg = FaultStats::default();
        for seed in 0..32u64 {
            agg.absorb(&trace(seed).1);
        }
        let mut reg = obs::MetricsRegistry::new();
        agg.export(&mut reg);
        assert_eq!(reg.counter("chaos.fault.tools_failed"), agg.tools_failed);
        assert_eq!(
            reg.counter("chaos.fault.replay_dropped"),
            agg.replay_dropped
        );
    }
}
