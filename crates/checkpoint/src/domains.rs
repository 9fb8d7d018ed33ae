//! Rollback domains: attribution of guest state to connections, and the
//! fail-closed partial-rollback ledger behind
//! [`CheckpointManager::rollback_domain`](crate::CheckpointManager::rollback_domain).
//!
//! "Unlimited Lives" (arXiv:2205.03205) motivates the mode: rolling back
//! *only* the attack-touched state lets benign connections on the same
//! host keep their served results — they are neither dropped nor replayed
//! (invariant I12). The ledger attributes every page dirtied inside the
//! current checkpoint window to the connection (**domain**) that was
//! being serviced, using the write-generation ladder the incremental
//! engine already maintains. Partial rollback is only *attempted*; it is
//! never *trusted*:
//!
//! - a page overwritten across domains whose earlier content was not
//!   captured by a pre-copy drain is a **spill** — the overwriting
//!   domain becomes non-rollbackable (`checkpoint.domain_spills`);
//! - the ledger carries an integrity checksum over its attribution
//!   entries, recomputed on every legitimate mutation, so a corrupted
//!   page→domain map (chaos family `domain-tag`) is detected before any
//!   page is restored;
//! - any missing restore source (evicted dedupe slot, damaged delta
//!   chain) refuses the partial path.
//!
//! Every refusal degrades to the existing full rollback/replay pipeline:
//! correctness never depends on domain isolation actually holding.

use std::collections::{BTreeMap, BTreeSet};

use svm::alloc::HeapState;
use svm::cpu::Cpu;
use svm::rng::XorShift64;
use svm::{Machine, Status};

use crate::manager::CkptId;

/// Why a partial (domain) rollback was refused. Every variant is
/// fail-closed: the caller falls back to full rollback + replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DomainRefusal {
    /// The ledger's attribution window does not cover the chosen
    /// checkpoint (e.g. recovery picked an older snapshot).
    StaleWindow,
    /// No service boundary was captured inside the window.
    NoBoundary,
    /// The ledger integrity checksum does not verify — the page→domain
    /// map cannot be trusted (chaos family `domain-tag`).
    CorruptLedger,
    /// An attacked domain overwrote (or was built on) uncovered
    /// cross-domain state (chaos family `domain-spill`, or a genuine
    /// spill under the full-copy engine, which has no pre-copy drain).
    Spilled,
    /// A page's pre-attack content is unavailable (store eviction or
    /// checkpoint damage).
    PageUnavailable,
    /// A dropped connection predates the service boundary: its effects
    /// are baked into the boundary register/heap snapshot and cannot be
    /// subtracted without re-execution.
    PreBoundary,
    /// Benign traffic was delivered after the service boundary; partial
    /// rollback would silently discard it instead of replaying it.
    TrailingBenign,
}

impl DomainRefusal {
    /// Stable lowercase label (metrics and logs).
    pub fn name(&self) -> &'static str {
        match self {
            DomainRefusal::StaleWindow => "stale-window",
            DomainRefusal::NoBoundary => "no-boundary",
            DomainRefusal::CorruptLedger => "corrupt-ledger",
            DomainRefusal::Spilled => "spilled",
            DomainRefusal::PageUnavailable => "page-unavailable",
            DomainRefusal::PreBoundary => "pre-boundary",
            DomainRefusal::TrailingBenign => "trailing-benign",
        }
    }

    /// Whether the refusal is the structural-taint (spill) escape hatch,
    /// as opposed to damage/staleness.
    pub fn is_spill(&self) -> bool {
        matches!(self, DomainRefusal::Spilled)
    }
}

/// A successful partial rollback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DomainRecovery {
    /// Attack-owned pages restored to their pre-attack content.
    pub pages_restored: usize,
    /// Virtual cycles charged to the live clock for the restore.
    pub pause_cycles: u64,
}

/// Idle machine state captured at a service boundary (after a benign
/// connection completed, before the next was offered). Domain rollback
/// restores exactly this — plus the attack-owned pages — so the machine
/// resumes as if the attack connection had never been accepted.
#[derive(Debug, Clone)]
pub struct ServiceBoundary {
    cpu: Cpu,
    heap: HeapState,
    rng: XorShift64,
    status: Status,
    /// Guest connection count at the boundary; later connections (the
    /// attack) are truncated away on restore.
    conns: usize,
}

/// Per-page attribution entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PageOwner {
    /// Domain (proxy log id) of the connection that last dirtied the page.
    domain: u32,
    /// Write generation of that last dirty.
    gen: u64,
    /// Whether a pre-copy drain captured the page's content *after* the
    /// owning domain's writes — i.e. whether a later domain may
    /// overwrite it without losing recoverable state.
    covered: bool,
}

/// The page→domain attribution ledger for the current checkpoint window.
///
/// Owned by the [`CheckpointManager`](crate::CheckpointManager), which
/// resets it at every [`take`](crate::CheckpointManager::take), feeds it
/// from `note_service`/`note_attack` at connection boundaries, and marks
/// coverage on every pre-copy drain.
#[derive(Debug, Default)]
pub struct DomainLedger {
    /// The checkpoint this window's attribution is anchored to.
    window: Option<CkptId>,
    /// Write-generation watermark of the last attribution scan.
    covered_gen: u64,
    owner: BTreeMap<u32, PageOwner>,
    /// Domains whose rollback is structurally unsafe (they overwrote
    /// uncovered cross-domain state).
    spilled: BTreeSet<u32>,
    boundary: Option<ServiceBoundary>,
    /// Cross-domain spills observed in this window and all previous ones
    /// (monotone counter, exported as `checkpoint.domain_spills`).
    pub spills: u64,
    /// Integrity checksum over the attribution entries, recomputed on
    /// every legitimate mutation and verified before any restore.
    checksum: u64,
}

impl DomainLedger {
    /// An empty ledger (no window open).
    pub fn new() -> DomainLedger {
        DomainLedger::default()
    }

    /// Open a fresh attribution window anchored to checkpoint `window`,
    /// capturing the machine's current idle state as the initial service
    /// boundary. Spill history (the counter) is preserved; attribution
    /// is not.
    pub fn reset(&mut self, window: CkptId, m: &Machine) {
        self.window = Some(window);
        self.covered_gen = m.mem.write_seq();
        self.owner.clear();
        self.spilled.clear();
        self.boundary = Some(capture_boundary(m));
        self.checksum = self.compute_checksum();
    }

    /// The checkpoint id this window is anchored to.
    pub fn window(&self) -> Option<CkptId> {
        self.window
    }

    /// Connection count at the captured service boundary.
    pub fn boundary_conns(&self) -> Option<usize> {
        self.boundary.as_ref().map(|b| b.conns)
    }

    /// Attribute every page dirtied since the last scan to `domain`, and
    /// advance the service boundary to the machine's current idle state.
    /// Call after a *benign* connection completes.
    pub fn note_service(&mut self, m: &Machine, domain: u32) {
        self.attribute(m, domain);
        self.boundary = Some(capture_boundary(m));
    }

    /// Attribute every page dirtied since the last scan to `domain`
    /// *without* moving the service boundary. Call for the attack
    /// connection after detection: the boundary must stay at the last
    /// benign idle state.
    pub fn note_attack(&mut self, m: &Machine, domain: u32) {
        self.attribute(m, domain);
    }

    fn attribute(&mut self, m: &Machine, domain: u32) {
        if self.window.is_none() {
            return;
        }
        let dirty: Vec<(u32, u64)> = m.mem.dirty_pages_since(self.covered_gen).collect();
        for (pno, gen) in dirty {
            if let Some(prev) = self.owner.get(&pno) {
                if prev.domain != domain && !prev.covered {
                    // Cross-domain overwrite of uncovered state: the
                    // overwriting domain can no longer be rolled back in
                    // isolation (the overwritten content is lost).
                    self.spills += 1;
                    self.spilled.insert(domain);
                }
            }
            self.owner.insert(
                pno,
                PageOwner {
                    domain,
                    gen,
                    covered: false,
                },
            );
        }
        self.covered_gen = m.mem.write_seq();
        self.checksum = self.compute_checksum();
    }

    /// A pre-copy drain just captured every page dirtied in this window:
    /// all current attribution entries become overwrite-safe.
    pub fn mark_all_covered(&mut self) {
        for o in self.owner.values_mut() {
            o.covered = true;
        }
        self.checksum = self.compute_checksum();
    }

    /// Whether `domain`'s rollback is structurally unsafe.
    pub fn is_spilled(&self, domain: u32) -> bool {
        self.spilled.contains(&domain)
    }

    /// Verify the integrity checksum over the attribution entries.
    pub fn verify(&self) -> bool {
        self.checksum == self.compute_checksum()
    }

    /// Pages currently attributed in this window.
    pub fn pages_tracked(&self) -> usize {
        self.owner.len()
    }

    /// The captured service boundary (cloned).
    pub(crate) fn boundary(&self) -> Option<ServiceBoundary> {
        self.boundary.clone()
    }

    /// Page numbers owned by any of `domains`, ascending.
    pub(crate) fn owned_pages(&self, domains: &[u32]) -> Vec<u32> {
        self.owner
            .iter()
            .filter(|(_, o)| domains.contains(&o.domain))
            .map(|(&pno, _)| pno)
            .collect()
    }

    /// Chaos seam: mis-attribute one tracked page (selected by
    /// `selector`) to a different domain **without** recomputing the
    /// checksum — modelling attribution-map corruption. Returns whether
    /// the fault landed (a page was tracked). A later
    /// [`DomainLedger::verify`] fails and partial rollback refuses.
    pub fn chaos_corrupt_tag(&mut self, selector: u64) -> bool {
        if self.owner.is_empty() {
            return false;
        }
        let idx = (selector as usize) % self.owner.len();
        let pno = *self.owner.keys().nth(idx).expect("idx < len");
        let o = self.owner.get_mut(&pno).expect("tracked");
        o.domain ^= 0x8000_0000;
        // Deliberately no checksum recompute: the corruption must be
        // *detected*, not legitimized.
        true
    }

    /// Chaos seam: force every tracked domain into the spilled set (one
    /// counted spill), modelling uncovered cross-domain writes. Returns
    /// whether the fault landed (a page was tracked). Rollback of any
    /// attacked domain then takes the fail-closed path to full recovery.
    pub fn chaos_force_spill(&mut self) -> bool {
        if self.owner.is_empty() {
            return false;
        }
        self.spills += 1;
        for o in self.owner.values() {
            self.spilled.insert(o.domain);
        }
        self.checksum = self.compute_checksum();
        true
    }

    fn compute_checksum(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for b in v.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        fold(self.window.map(|w| w.0 + 1).unwrap_or(0));
        for (&pno, o) in &self.owner {
            fold(pno as u64);
            fold(o.domain as u64);
            fold(o.gen);
            fold(o.covered as u64);
        }
        for &d in &self.spilled {
            fold(d as u64);
        }
        h
    }
}

/// Apply a captured boundary to the live machine (everything except
/// pages, which the manager restores separately, and the clock, which
/// stays monotone).
pub(crate) fn apply_boundary(live: &mut Machine, b: &ServiceBoundary) {
    live.cpu = b.cpu.clone();
    live.heap = b.heap;
    live.rng = b.rng;
    live.restore_status(b.status);
    live.net.truncate_conns(b.conns);
    live.flush_decode_cache();
}

fn capture_boundary(m: &Machine) -> ServiceBoundary {
    ServiceBoundary {
        cpu: m.cpu.clone(),
        heap: m.heap,
        rng: m.rng,
        status: m.status(),
        conns: m.net.conns().len(),
    }
}

/// Content-only digest of guest-observable machine state, for comparing
/// the *results* of two recovery strategies.
///
/// Deliberately **not** [`mem_digest`](crate::incremental::mem_digest):
/// that digest folds per-page write generations and the global write
/// watermark, which legitimately differ between a full rollback+replay
/// (generations restart from the snapshot) and a partial in-place
/// restore (generations keep counting). Folded here: CPU registers,
/// flags and PC; page numbers and page *contents* (plus NX); heap
/// allocator state; RNG state; every connection's id, input, read
/// position, EOF/closed flags and output; and the status discriminant.
/// Excluded: the virtual clock, retirement counters, cache state, write
/// generations, and the host-side diagnostics log.
pub fn recovery_digest(m: &Machine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    macro_rules! fold_bytes {
        ($bytes:expr) => {
            for &b in $bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
    }
    macro_rules! fold {
        ($v:expr) => {
            fold_bytes!(&u64::to_le_bytes($v))
        };
    }
    for r in m.cpu.regs {
        fold!(r as u64);
    }
    fold!(m.cpu.pc as u64);
    fold!(m.cpu.flags.zero as u64);
    fold!(m.cpu.flags.below as u64);
    for (pno, _gen, page) in m.mem.pages() {
        fold!(pno as u64);
        h = crate::incremental::fold_page(h, page);
    }
    fold!(m.mem.nx as u64);
    fold!(m.heap.base as u64);
    fold!(m.heap.end as u64);
    fold!(m.heap.brk as u64);
    fold!(m.heap.free_head as u64);
    fold!(m.heap.allocs);
    fold!(m.heap.frees);
    fold!(m.rng.state());
    for c in m.net.conns() {
        fold!(c.id as u64);
        fold_bytes!(&c.input[..]);
        fold!(c.read_pos as u64);
        fold!(c.eof as u64);
        fold_bytes!(&c.output[..]);
        fold!(c.closed as u64);
    }
    fold_bytes!(format!("{:?}", m.status()).as_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::NopHook;

    fn boot_counter() -> Machine {
        let prog = assemble(
            ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
        )
        .expect("asm");
        Machine::boot(&prog, Aslr::off()).expect("boot")
    }

    #[test]
    fn uncovered_cross_domain_overwrite_spills() {
        let mut m = boot_counter();
        let mut led = DomainLedger::new();
        led.reset(CkptId(0), &m);
        m.run(&mut NopHook, 500);
        led.note_service(&m, 0);
        assert_eq!(led.spills, 0);
        // Domain 1 overwrites the same data page; nothing drained it.
        m.run(&mut NopHook, 500);
        led.note_attack(&m, 1);
        assert_eq!(led.spills, 1);
        assert!(led.is_spilled(1));
        assert!(!led.is_spilled(0), "the overwritten domain stays safe");
        assert!(led.verify());
    }

    #[test]
    fn drain_coverage_prevents_the_spill() {
        let mut m = boot_counter();
        let mut led = DomainLedger::new();
        led.reset(CkptId(0), &m);
        m.run(&mut NopHook, 500);
        led.note_service(&m, 0);
        led.mark_all_covered(); // a drain captured domain 0's writes
        m.run(&mut NopHook, 500);
        led.note_attack(&m, 1);
        assert_eq!(led.spills, 0);
        assert!(!led.is_spilled(1));
    }

    #[test]
    fn tag_corruption_is_detected() {
        let mut m = boot_counter();
        let mut led = DomainLedger::new();
        led.reset(CkptId(0), &m);
        m.run(&mut NopHook, 500);
        led.note_service(&m, 0);
        assert!(led.verify());
        assert!(led.chaos_corrupt_tag(7));
        assert!(!led.verify(), "mis-attribution must not verify");
    }

    #[test]
    fn corrupting_an_empty_ledger_does_not_land() {
        let m = boot_counter();
        let mut led = DomainLedger::new();
        led.reset(CkptId(0), &m);
        assert!(!led.chaos_corrupt_tag(3));
        assert!(!led.chaos_force_spill());
        assert!(led.verify());
    }

    #[test]
    fn recovery_digest_ignores_clock_and_generations() {
        let mut a = boot_counter();
        let mut b = a.clone();
        a.run(&mut NopHook, 1000);
        b.run(&mut NopHook, 1000);
        assert_eq!(recovery_digest(&a), recovery_digest(&b));
        // Pure clock skew is invisible…
        a.clock.tick(123_456);
        assert_eq!(recovery_digest(&a), recovery_digest(&b));
        // …but guest-visible divergence is not.
        b.run(&mut NopHook, 100);
        assert_ne!(recovery_digest(&a), recovery_digest(&b));
    }
}
