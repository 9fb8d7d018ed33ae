//! Periodic lightweight checkpointing (the Rx/Flashback analogue).
//!
//! Snapshots are **incremental by default**: a checkpoint captures only
//! the pages whose write generation advanced since the previous capture
//! (base snapshot + dirty deltas) into a content-hash deduplicating
//! store shared across the ring ([`crate::incremental`]). One dirty-page
//! walk per served request, [`CheckpointManager::note_service`], credits
//! each page to the request's rollback domain ([`crate::domains`]) and
//! pre-copies it into the pending delta, so the snapshot instant itself
//! charges only for what changed since the last walk. The walk costs
//! O(pages written): it reads the machine's write set
//! ([`svm::mem::Mem::dirty_pages_since`] from the mark it left last
//! time) rather than scanning the page table. The pending delta holds
//! the pages themselves (a shared `Arc` and the generation it was taken
//! at), not store slots: hashing and interning happen once per page at
//! [`CheckpointManager::take`], not once per request that dirties it.
//! The legacy full-copy engine (a copy-on-write clone of the whole
//! [`Machine`]) stays selectable as [`Engine::Full`], the Figure 4
//! baseline. Every incremental record carries the digest of the image it
//! captured and refuses to materialize anything else, so damage fails
//! closed (`checkpoint.materialize_failures`); the bit-identical-rollback
//! contract itself is checked on the test side, by the
//! `checkpoint_incremental` proptests and `tables ckptparity`.
//!
//! The manager keeps a bounded ring of recent checkpoints (paper
//! default: 20 checkpoints, 200 ms interval) and can roll the live
//! machine back to any retained one.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use svm::clock::cost;
use svm::mem::Page;
use svm::Machine;

use crate::domains::{DomainLedger, DomainRecovery, DomainRefusal};
use crate::incremental::{DedupeStore, DeltaRecord, PageKey};

/// Identifier of a retained checkpoint (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CkptId(pub u64);

/// Which snapshot representation the manager maintains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Legacy whole-machine copy-on-write clone per snapshot.
    Full,
    /// Dirty-page delta records over the dedupe store (production
    /// default).
    #[default]
    Incremental,
}

impl Engine {
    /// Stable lowercase name (used by benches and scenario labels).
    pub fn name(&self) -> &'static str {
        match self {
            Engine::Full => "full",
            Engine::Incremental => "incremental",
        }
    }
}

/// The stored representation of one checkpoint.
enum Repr {
    Full(Machine),
    Delta(DeltaRecord),
}

/// One retained checkpoint.
pub struct Checkpoint {
    /// Identifier.
    pub id: CkptId,
    /// Virtual cycle count of the protected machine when taken.
    pub taken_at_cycles: u64,
    /// Number of connections that existed when taken (used by the proxy
    /// to know which logged connections must be re-injected on replay).
    pub conns_at: usize,
    /// The snapshot representation (reconstruct via
    /// [`CheckpointManager::materialize`]).
    repr: Repr,
}

impl Checkpoint {
    /// The incremental record behind this checkpoint (`None` under the
    /// full engine).
    pub fn delta(&self) -> Option<&DeltaRecord> {
        match &self.repr {
            Repr::Delta(d) => Some(d),
            Repr::Full(_) => None,
        }
    }
}

/// Checkpointing policy and storage.
pub struct CheckpointManager {
    /// Interval between checkpoints, in virtual cycles.
    pub interval_cycles: u64,
    /// Maximum retained checkpoints (oldest evicted first).
    pub max_retained: usize,
    /// Snapshot engine (see [`Engine`]).
    engine: Engine,
    /// The retention ring. A `VecDeque` so that evicting the oldest
    /// snapshot is O(1) (`pop_front`) instead of the O(n) front-shift a
    /// `Vec::remove(0)` costs on *every* checkpoint past `max_retained`
    /// — at the paper's 200 ms cadence that shift ran ~5×/s forever.
    ring: VecDeque<Checkpoint>,
    /// Content-addressed page storage shared by the incremental records.
    store: DedupeStore,
    /// Pages pre-copied since the last take: each page's storage (a
    /// shared `Arc`; a later guest write copies first) and the
    /// generation it was walked at. Nothing is interned until a take.
    pending: BTreeMap<u32, (Arc<Page>, u64)>,
    /// The one dirty-page watermark: `write_seq` at the last take or
    /// walk (a drain, `note_service` or `note_attack`).
    covered_gen: u64,
    next_id: u64,
    last_taken_cycles: Option<u64>,
    /// Total checkpoints ever taken (statistics).
    pub taken_total: u64,
    /// Total virtual cycles charged for checkpointing (statistics).
    pub overhead_cycles: u64,
    /// Total page captures charged across all checkpoints taken (COW
    /// copies for the full engine, fresh delta interns for the
    /// incremental one).
    pub pages_copied_total: u64,
    /// Pages captured by the most recent checkpoint.
    pub last_pages_copied: usize,
    /// Total pages pre-copied between snapshots (background work, never
    /// charged to the service path).
    pub pages_drained_total: u64,
    /// Virtual cycles of background pre-copy work (one page copy per
    /// page walked into the pending delta).
    pub precopy_cycles: u64,
    /// Page-table entries the dirty-page walks visited
    /// ([`svm::mem::Mem::dirty_scan_len`]): the pages written since the
    /// last walk when the watermark is the machine's mark, the whole
    /// table otherwise (statistics).
    pub walk_entries_visited: u64,
    /// Reconstructions that failed closed (delta-chain truncation or
    /// dedupe-store eviction damage detected by digest verification).
    /// Chaos invariant I9 requires 0 on any run where neither kind of
    /// damage was injected.
    materialize_failures: Cell<u64>,
    /// Page→domain attribution for the current checkpoint window (see
    /// [`crate::domains`]).
    ledger: DomainLedger,
    /// Successful partial (domain) rollbacks.
    pub domain_rollbacks: u64,
    /// Pages restored across all partial rollbacks.
    pub domain_pages_restored: u64,
}

impl CheckpointManager {
    /// A manager with the paper's defaults: 200 ms interval, 20 retained.
    pub fn with_defaults() -> CheckpointManager {
        CheckpointManager::new(svm::clock::secs_to_cycles(0.2), 20)
    }

    /// A manager with an explicit interval (cycles) and retention count,
    /// on the default ([`Engine::Incremental`]) engine.
    pub fn new(interval_cycles: u64, max_retained: usize) -> CheckpointManager {
        CheckpointManager {
            interval_cycles,
            max_retained: max_retained.max(1),
            engine: Engine::default(),
            ring: VecDeque::new(),
            store: DedupeStore::new(),
            pending: BTreeMap::new(),
            covered_gen: 0,
            next_id: 0,
            last_taken_cycles: None,
            taken_total: 0,
            overhead_cycles: 0,
            pages_copied_total: 0,
            last_pages_copied: 0,
            pages_drained_total: 0,
            precopy_cycles: 0,
            walk_entries_visited: 0,
            materialize_failures: Cell::new(0),
            ledger: DomainLedger::new(),
            domain_rollbacks: 0,
            domain_pages_restored: 0,
        }
    }

    /// Select the snapshot engine (builder style; call before the first
    /// checkpoint is taken).
    pub fn with_engine(mut self, engine: Engine) -> CheckpointManager {
        self.engine = engine;
        self
    }

    /// The active snapshot engine.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Whether the interval policy says a checkpoint is due.
    pub fn due(&self, m: &Machine) -> bool {
        match self.last_taken_cycles {
            None => true,
            Some(t) => m.clock.cycles().saturating_sub(t) >= self.interval_cycles,
        }
    }

    /// Pre-copy drain: fold the pages dirtied since the last walk into
    /// the pending delta, off the service path, crediting them to no
    /// rollback domain. Returns how many pages were drained. A served
    /// request's own [`CheckpointManager::note_service`] walk already
    /// pre-copies its pages; this is for memory dirtied outside a
    /// request. The work is accounted as background (`precopy_cycles`,
    /// `pages_drained_total`) and **never** charged to the machine's
    /// clock — it models the checkpoint thread copying pages while the
    /// server waits on the network, which is exactly why the snapshot
    /// instant itself ([`CheckpointManager::take`]) only pays for pages
    /// dirtied *since the last walk*. No-op for the full engine and
    /// before the base snapshot exists.
    pub fn drain(&mut self, m: &mut Machine) -> usize {
        self.walk(m, None, true)
    }

    /// The one walk over the pages dirtied since the watermark: credit
    /// each to `domain` (if any), and keep it in the pending delta when
    /// `capture` and the incremental engine's base snapshot exists —
    /// which is what makes a credited page *covered*. Then move the
    /// watermark, and the machine's mark with it, to the current
    /// `write_seq`. Returns how many pages it kept.
    fn walk(&mut self, m: &mut Machine, domain: Option<u32>, capture: bool) -> usize {
        let capture =
            capture && self.engine == Engine::Incremental && self.last_taken_cycles.is_some();
        if !capture && domain.is_none() {
            return 0;
        }
        let pending = &mut self.pending;
        let mut drained = 0usize;
        self.walk_entries_visited += m.mem.dirty_scan_len(self.covered_gen) as u64;
        let pages = m
            .mem
            .dirty_pages_since(self.covered_gen)
            .map(|(pno, gen, data)| {
                if capture {
                    pending.insert(pno, (Arc::clone(data), gen));
                    drained += 1;
                }
                (pno, gen)
            });
        match domain {
            Some(domain) => self.ledger.attribute(domain, pages, capture),
            // A drain credits no one: run the walk for its capture.
            None => pages.for_each(drop),
        }
        self.covered_gen = m.mem.write_seq();
        m.mem.mark_clean();
        self.pages_drained_total += drained as u64;
        self.precopy_cycles += cost::PAGE_COPY * drained as u64;
        drained
    }

    /// Discard the pending pre-copy drain set without capturing it.
    ///
    /// Must be called after the live machine is **rolled back or
    /// replaced**: a rollback rewinds `write_seq`, so the forward
    /// execution resumed from the snapshot re-reaches generation
    /// numbers the pending pages and the coverage watermark were
    /// recorded under — with different bytes. Left in place, the
    /// watermark would hide the resumed execution's writes from the
    /// next walk and take, and a domain rollback could restore a page
    /// of the abandoned execution. Drops every pending page and rewinds
    /// the coverage watermark so the next walk or take rescans the
    /// whole page table from generation 0.
    pub fn discard_pending(&mut self) {
        self.pending.clear();
        self.covered_gen = 0;
    }

    /// Take a checkpoint now, charging its cost to the machine's clock.
    ///
    /// Full engine: the `fork()`-like page-table copy plus the
    /// copy-on-write copies of pages dirtied since the last checkpoint
    /// (accounted here, deferred, rather than per-write). Incremental
    /// engine: the base snapshot pays the full-copy price once at boot; every later snapshot pays only
    /// [`cost::CHECKPOINT_DELTA`] plus a page copy per page dirtied
    /// since the last walk. Either engine sets the watermark.
    pub fn take(&mut self, m: &mut Machine) -> CkptId {
        let base = self.last_taken_cycles.is_none();
        let (cost, pages) = match self.engine {
            Engine::Full => {
                let dirty = m.mem.mapped_pages() - m.mem.shared_pages();
                (
                    cost::CHECKPOINT_BASE + cost::PAGE_COPY * dirty as u64,
                    dirty,
                )
            }
            Engine::Incremental => {
                if base {
                    let all = m.mem.mapped_pages();
                    (cost::CHECKPOINT_BASE + cost::PAGE_COPY * all as u64, all)
                } else {
                    let fresh = m.mem.dirty_pages_since(self.covered_gen).count();
                    (
                        cost::CHECKPOINT_DELTA + cost::PAGE_COPY * fresh as u64,
                        fresh,
                    )
                }
            }
        };
        m.clock.tick(cost);
        self.overhead_cycles += cost;
        self.pages_copied_total += pages as u64;
        self.last_pages_copied = pages;
        let id = CkptId(self.next_id);
        self.next_id += 1;
        self.taken_total += 1;
        self.last_taken_cycles = Some(m.clock.cycles());
        let repr = match self.engine {
            Engine::Full => Repr::Full(m.clone()),
            Engine::Incremental => Repr::Delta(self.capture_delta(m)),
        };
        let ckpt = Checkpoint {
            id,
            taken_at_cycles: m.clock.cycles(),
            conns_at: m.net.conns().len(),
            repr,
        };
        self.ring.push_back(ckpt);
        if self.ring.len() > self.max_retained {
            self.evict_oldest();
        }
        self.covered_gen = m.mem.write_seq();
        m.mem.mark_clean();
        self.ledger.reset(id, m);
        id
    }

    /// Capture an incremental record, interning the pages it needs, and
    /// drop the pending drain set.
    fn capture_delta(&mut self, m: &Machine) -> DeltaRecord {
        let prev = self.ring.back().and_then(Checkpoint::delta);
        let prev = prev.map_or(&[][..], DeltaRecord::pages);
        let rec = DeltaRecord::capture(m, &mut self.store, prev);
        self.pending.clear();
        rec
    }

    /// The retained checkpoint with the given id.
    pub fn get(&self, id: CkptId) -> Option<&Checkpoint> {
        self.ring.iter().find(|c| c.id == id)
    }

    /// The most recent retained checkpoint.
    pub fn latest(&self) -> Option<&Checkpoint> {
        self.ring.back()
    }

    /// The oldest retained checkpoint.
    pub fn oldest(&self) -> Option<&Checkpoint> {
        self.ring.front()
    }

    /// Forcibly evict the oldest retained checkpoint, returning its id.
    ///
    /// Models memory-pressure eviction racing a rollback decision: the
    /// chaos harness calls this between "pick a checkpoint" and "recover
    /// from it" to prove the pipeline degrades to a restart (never a
    /// panic) when the chosen snapshot vanishes. `None` when the ring is
    /// empty. Evicting an incremental record releases its store
    /// references, compacting now-unreferenced page contents.
    pub fn evict_oldest(&mut self) -> Option<CkptId> {
        let c = self.ring.pop_front()?;
        if let Repr::Delta(d) = &c.repr {
            d.release(&mut self.store);
        }
        Some(c.id)
    }

    /// Chaos seam: truncate the newest retained snapshot's delta chain
    /// (drop its highest page entries), modelling a lost delta segment.
    /// Returns how many page entries were dropped (0 on an empty ring or
    /// a full-engine ring, where there is no chain to truncate).
    /// Materializing the damaged snapshot afterwards fails closed.
    pub fn chaos_truncate_latest_delta(&mut self, drop_pages: usize) -> usize {
        let Some(c) = self.ring.back_mut() else {
            return 0;
        };
        match &mut c.repr {
            Repr::Delta(d) => d.chaos_truncate(&mut self.store, drop_pages),
            Repr::Full(_) => 0,
        }
    }

    /// Chaos seam: forcibly evict one dedupe-store slot despite
    /// outstanding references (the dedupe-store eviction race). Returns
    /// whether a slot was evicted. Snapshots referencing the evicted
    /// content fail their digest verification on materialize and degrade
    /// to a restart.
    pub fn chaos_evict_store_page(&mut self) -> bool {
        self.store.chaos_evict_one().is_some()
    }

    /// The most recent checkpoint taken at or before `cycles` — used to
    /// pick a rollback point prior to a suspect connection's arrival.
    pub fn latest_before(&self, cycles: u64) -> Option<&Checkpoint> {
        self.ring.iter().rev().find(|c| c.taken_at_cycles <= cycles)
    }

    /// Number of retained checkpoints.
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// Ids of every retained checkpoint, oldest first.
    pub fn ids(&self) -> impl Iterator<Item = CkptId> + '_ {
        self.ring.iter().map(|c| c.id)
    }

    /// Reconstruct the machine state of checkpoint `id` (no rollback
    /// cost charged — see [`CheckpointManager::rollback`] for the
    /// service-path entry point).
    ///
    /// Full engine: a clone. Incremental: rebuilt from the delta chain
    /// and digest-verified — `None` (fail closed, caller degrades to a
    /// restart) when truncation or store eviction damaged the chain.
    pub fn materialize(&self, id: CkptId) -> Option<Machine> {
        let c = self.get(id)?;
        match &c.repr {
            Repr::Full(m) => Some(m.clone()),
            Repr::Delta(d) => {
                let m = d.materialize(&self.store);
                if m.is_none() {
                    self.materialize_failures
                        .set(self.materialize_failures.get() + 1);
                }
                m
            }
        }
    }

    /// Reconstructions that failed closed on damage detection.
    pub fn materialize_failures(&self) -> u64 {
        self.materialize_failures.get()
    }

    /// Distinct page contents currently retained by the dedupe store.
    pub fn store_pages(&self) -> usize {
        self.store.len()
    }

    /// Produce a fresh machine rolled back to checkpoint `id`, charging
    /// the (cheap, context-switch-like) rollback cost to it.
    ///
    /// The rolled-back machine starts with a *cold* predecoded
    /// instruction cache: any decode state accumulated by the live
    /// machine after the checkpoint (or by the snapshot before it was
    /// frozen) must not leak into replay, or a page rewritten between
    /// checkpoint and rollback could execute stale instructions.
    /// `Machine::clone` already yields a cold cache; the explicit flush
    /// pins the invariant here rather than leaving it an implementation
    /// detail of `Clone` (and the incremental reconstruction path never
    /// had decode state to begin with).
    pub fn rollback(&self, id: CkptId) -> Option<Machine> {
        let mut m = self.materialize(id)?;
        m.flush_decode_cache();
        m.clock.tick(cost::ROLLBACK);
        Some(m)
    }

    /// The one dirty-page walk per served request: credit every page
    /// dirtied since the last walk to `domain` (a benign connection that
    /// just completed service), pre-copying it exactly as
    /// [`CheckpointManager::drain`] would, then advance the ledger's
    /// service boundary to the machine's current idle state. See
    /// [`crate::domains`].
    pub fn note_service(&mut self, m: &mut Machine, domain: u32) {
        self.walk(m, Some(domain), true);
        self.ledger.advance_boundary(m);
    }

    /// Credit the pages dirtied since the last walk to `domain` (the
    /// detected attack connection) as uncovered, capturing nothing — the
    /// pending delta must keep their pre-attack content — and *without*
    /// moving the service boundary.
    pub fn note_attack(&mut self, m: &mut Machine, domain: u32) {
        self.walk(m, Some(domain), false);
    }

    /// The page→domain attribution ledger for the current window.
    pub fn ledger(&self) -> &DomainLedger {
        &self.ledger
    }

    /// Cross-domain spills observed so far (monotone).
    pub fn domain_spills(&self) -> u64 {
        self.ledger.spills
    }

    /// Partial rollback: restore *only* the pages owned by `domains`
    /// (the attacked connections) to their pre-attack content and rewind
    /// CPU/heap/RNG/status/connections to the captured service boundary,
    /// leaving every other page — and the work of every benign
    /// connection — live and untouched. The clock stays monotone; the
    /// restore cost is charged forward.
    ///
    /// Fail-closed on every structural doubt: a stale window, a missing
    /// boundary, a failing ledger checksum, a spilled domain, or a
    /// missing restore source refuses the partial path (the caller runs
    /// full rollback + replay instead). The pre-attack content of each
    /// owned page is the pre-copy drain's pending page when present
    /// (captured *after* the last benign write; held directly, so no
    /// store damage can take it), else the page of the checkpoint image
    /// (the page was untouched between the snapshot and the attack),
    /// which store damage can make unavailable.
    pub fn rollback_domain(
        &mut self,
        id: CkptId,
        live: &mut Machine,
        domains: &[u32],
    ) -> Result<DomainRecovery, DomainRefusal> {
        if self.ledger.window() != Some(id) {
            return Err(DomainRefusal::StaleWindow);
        }
        if !self.ledger.verify() {
            return Err(DomainRefusal::CorruptLedger);
        }
        let Some(boundary) = self.ledger.boundary() else {
            return Err(DomainRefusal::NoBoundary);
        };
        if domains.iter().any(|d| self.ledger.is_spilled(*d)) {
            return Err(DomainRefusal::Spilled);
        }
        // Gather every restore source before touching `live`.
        let owned = self.ledger.owned_pages(domains);
        let mut restores = Vec::with_capacity(owned.len());
        let mut ckpt_image: Option<Machine> = None;
        for pno in owned {
            let arc = match self.pending.get(&pno) {
                Some((page, _)) => Some(Arc::clone(page)),
                None => {
                    if ckpt_image.is_none() {
                        ckpt_image = self.materialize(id);
                    }
                    let Some(image) = &ckpt_image else {
                        return Err(DomainRefusal::PageUnavailable);
                    };
                    image.mem.page_arc(pno).map(|(arc, _)| arc)
                }
            };
            match arc {
                Some(a) => restores.push((pno, a)),
                None => return Err(DomainRefusal::PageUnavailable),
            }
        }
        // Commit: restore pages at the current write watermark (they are
        // "dirty now"; the caller discards pending state and takes a
        // fresh checkpoint right after recovery anyway), then rewind the
        // non-memory state to the boundary.
        let pages = restores.len();
        let gen = live.mem.write_seq();
        for (pno, data) in restores {
            live.mem.restore_page(pno, data, gen);
        }
        crate::domains::apply_boundary(live, &boundary);
        let pause = cost::ROLLBACK + cost::PAGE_COPY * pages as u64;
        live.clock.tick(pause);
        self.domain_rollbacks += 1;
        self.domain_pages_restored += pages as u64;
        Ok(DomainRecovery {
            pages_restored: pages,
            pause_cycles: pause,
        })
    }

    /// Chaos seam: mis-attribute one ledger entry to a different domain
    /// without updating the integrity checksum (chaos family
    /// `domain-tag`). Returns whether the fault landed. The next
    /// [`CheckpointManager::rollback_domain`] must detect the corruption
    /// and refuse.
    pub fn chaos_corrupt_domain_tag(&mut self, selector: u64) -> bool {
        self.ledger.chaos_corrupt_tag(selector)
    }

    /// Chaos seam: force every tracked domain into the spilled set
    /// (chaos family `domain-spill`). Returns whether the fault landed.
    /// The next partial rollback of any attacked domain must take the
    /// fail-closed path to full recovery.
    pub fn chaos_force_domain_spill(&mut self) -> bool {
        self.ledger.chaos_force_spill()
    }

    /// Exact extra memory held by the retained checkpoints, in pages.
    ///
    /// Counts the distinct page storages reachable from the snapshot
    /// ring (full clones and dedupe-store slots alike) that the live
    /// machine does *not* also reference. Thanks to copy-on-write
    /// sharing and cross-ring dedupe this stays far below
    /// `retained × mapped_pages` — which is why keeping checkpoints "for
    /// a short time ... and then discard" them in memory is feasible
    /// (paper §3.1), and the measurable cost of the retention-count
    /// design lever (DESIGN.md §6).
    ///
    /// One pass over sorted vectors: the ring's distinct store keys
    /// (sorted, deduplicated) each resolve to one slot pointer, full
    /// clones contribute their page pointers, and each live page pointer
    /// marks the entry it matches in the sorted, deduplicated union.
    pub fn retained_unique_pages(&self, live: &Machine) -> usize {
        let mut keys: Vec<PageKey> = Vec::new();
        let mut held: Vec<usize> = Vec::new();
        for c in &self.ring {
            match &c.repr {
                Repr::Full(m) => held.extend(m.mem.page_storage_ids()),
                // Runs of never-written pages share one key: skip
                // repeats before the sort.
                Repr::Delta(d) => {
                    for &(_, key, _) in d.pages() {
                        if keys.last() != Some(&key) {
                            keys.push(key);
                        }
                    }
                }
            }
        }
        keys.sort_unstable();
        keys.dedup();
        held.extend(
            keys.into_iter()
                .filter_map(|key| self.store.get(key))
                .map(|page| Arc::as_ptr(page) as usize),
        );
        held.sort_unstable();
        held.dedup();
        let mut shared = vec![false; held.len()];
        for id in live.mem.page_storage_ids() {
            if let Ok(i) = held.binary_search(&id) {
                shared[i] = true;
            }
        }
        shared.iter().filter(|&&s| !s).count()
    }

    /// Export checkpointing counters into an [`obs::MetricsRegistry`]
    /// under the `checkpoint.` prefix: checkpoints taken, total/last
    /// page captures, charged overhead, pre-copy drain work, dedupe
    /// store activity, fail-closed reconstructions, ring occupancy, and
    /// (COW-aware) unique retained pages relative to `live`. Absolute
    /// mirrors — safe to re-export at any cadence.
    pub fn export_metrics(&self, live: &Machine, reg: &mut obs::MetricsRegistry) {
        reg.set_counter("checkpoint.taken_total", self.taken_total);
        reg.set_counter("checkpoint.pages_copied_total", self.pages_copied_total);
        reg.set_counter("checkpoint.overhead_cycles", self.overhead_cycles);
        reg.set_counter("checkpoint.pages_drained_total", self.pages_drained_total);
        reg.set_counter("checkpoint.precopy_cycles", self.precopy_cycles);
        let st = self.store.stats();
        reg.set_counter("checkpoint.dedupe_hits", st.dedup_hits);
        reg.set_counter("checkpoint.store_inserted", st.inserted);
        reg.set_counter("checkpoint.store_compacted", st.compacted);
        reg.set_counter(
            "checkpoint.materialize_failures",
            self.materialize_failures.get(),
        );
        reg.set_counter("checkpoint.domain_spills", self.ledger.spills);
        reg.set_counter("checkpoint.domain_rollbacks", self.domain_rollbacks);
        reg.set_counter(
            "checkpoint.domain_pages_restored",
            self.domain_pages_restored,
        );
        reg.gauge(
            "checkpoint.domain_pages_tracked",
            self.ledger.pages_tracked() as f64,
        );
        reg.gauge(
            "checkpoint.last_pages_copied",
            self.last_pages_copied as f64,
        );
        reg.gauge("checkpoint.ring_occupancy", self.ring.len() as f64);
        reg.gauge("checkpoint.ring_capacity", self.max_retained as f64);
        reg.gauge("checkpoint.store_pages", self.store.len() as f64);
        reg.gauge(
            "checkpoint.retained_unique_pages",
            self.retained_unique_pages(live) as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domains::DomainRefusal;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::{NopHook, Status};

    fn boot_counter() -> Machine {
        // Increments a data word forever; preemptible.
        let prog = assemble(
            ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
        )
        .expect("asm");
        Machine::boot(&prog, Aslr::off()).expect("boot")
    }

    #[test]
    fn interval_policy() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(1000, 4);
        assert!(mgr.due(&m), "first checkpoint is always due");
        mgr.take(&mut m);
        assert!(!mgr.due(&m));
        m.run(&mut NopHook, 2000);
        assert!(mgr.due(&m));
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 3);
        let ids: Vec<CkptId> = (0..5).map(|_| mgr.take(&mut m)).collect();
        assert_eq!(mgr.retained(), 3);
        assert!(mgr.get(ids[0]).is_none(), "oldest evicted");
        assert!(mgr.get(ids[4]).is_some());
        assert_eq!(mgr.oldest().map(|c| c.id), Some(ids[2]));
        assert_eq!(mgr.latest().map(|c| c.id), Some(ids[4]));
        assert_eq!(mgr.taken_total, 5);
    }

    #[test]
    fn rollback_restores_execution_state() {
        for engine in [Engine::Full, Engine::Incremental] {
            let mut m = boot_counter();
            let mut mgr = CheckpointManager::new(0, 8).with_engine(engine);
            m.run(&mut NopHook, 500);
            let v_addr = m.symbols.addr_of("v").expect("v");
            let id = mgr.take(&mut m);
            let v_at_ckpt = m.mem.read_u32(0, v_addr).expect("r");
            let cpu_at_ckpt = m.cpu.clone();
            m.run(&mut NopHook, 5000);
            let v_later = m.mem.read_u32(0, v_addr).expect("r");
            assert!(v_later > v_at_ckpt);
            let rb = mgr.rollback(id).expect("rollback");
            assert_eq!(rb.mem.read_u32(0, v_addr).expect("r"), v_at_ckpt);
            assert_eq!(rb.cpu, cpu_at_ckpt, "{engine:?}");
        }
    }

    #[test]
    fn replay_from_rollback_is_deterministic() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let id = mgr.take(&mut m);
        let v_addr = m.symbols.addr_of("v").expect("v");
        // Retire a fixed number of instructions on the live machine.
        let insns = 1234;
        for _ in 0..insns {
            assert!(matches!(m.step(), Status::Running));
        }
        let v_final = m.mem.read_u32(0, v_addr).expect("r");
        // Replay the same instruction count from the checkpoint.
        let mut rb = mgr.rollback(id).expect("rollback");
        for _ in 0..insns {
            assert!(matches!(rb.step(), Status::Running));
        }
        assert_eq!(
            rb.mem.read_u32(0, v_addr).expect("r"),
            v_final,
            "identical replay"
        );
        assert_eq!(rb.cpu, m.cpu, "register state identical");
    }

    #[test]
    fn rollback_starts_with_cold_decode_cache() {
        let mut m = boot_counter();
        assert!(m.decode_cache_enabled(), "cache on by default");
        let mut mgr = CheckpointManager::new(0, 8);
        let id = mgr.take(&mut m);
        // Warm the live machine's cache well past the checkpoint.
        m.run(&mut NopHook, 5000);
        assert!(m.icache_stats().hits > 0, "live cache warmed");
        let mut rb = mgr.rollback(id).expect("rollback");
        let cold = rb.icache_stats();
        assert_eq!(
            (cold.hits, cold.misses, cold.invalidations),
            (0, 0, 0),
            "no decode state survives rollback"
        );
        // Replay repopulates the cache from the restored memory image.
        rb.run(&mut NopHook, 1000);
        let warm = rb.icache_stats();
        assert!(warm.misses > 0 && warm.hits > 0, "replay re-decodes fresh");
    }

    #[test]
    fn latest_before_selects_pre_attack_checkpoint() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let a = mgr.take(&mut m);
        m.run(&mut NopHook, 1000);
        let mid_cycles = m.clock.cycles();
        m.run(&mut NopHook, 1000);
        let b = mgr.take(&mut m);
        assert_eq!(mgr.latest_before(mid_cycles).map(|c| c.id), Some(a));
        assert_eq!(mgr.latest_before(u64::MAX).map(|c| c.id), Some(b));
        let ckpt_a_cycles = mgr.get(a).expect("a").taken_at_cycles;
        assert!(mgr.latest_before(ckpt_a_cycles.saturating_sub(1)).is_none());
    }

    #[test]
    fn retained_memory_stays_bounded_by_cow() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        assert_eq!(mgr.retained_unique_pages(&m), 0, "no checkpoints yet");
        mgr.take(&mut m);
        // Immediately after a checkpoint, everything is shared.
        assert_eq!(mgr.retained_unique_pages(&m), 0);
        // Run: the counter loop dirties one data page; the snapshot now
        // privately owns exactly the old copy of that page.
        m.run(&mut NopHook, 5000);
        let unique = mgr.retained_unique_pages(&m);
        assert!(
            (1..=3).contains(&unique),
            "one-ish diverged page, not a full copy: {unique} of {}",
            m.mem.mapped_pages()
        );
        // Several checkpoints of near-identical states share storage.
        for _ in 0..5 {
            mgr.take(&mut m);
        }
        let total = mgr.retained_unique_pages(&m);
        assert!(
            total <= 4,
            "ring of similar snapshots dedups via COW: {total}"
        );
    }

    #[test]
    fn deque_ring_preserves_eviction_order_and_page_accounting() {
        // Regression guard for the Vec -> VecDeque ring switch: many
        // evictions must preserve FIFO order, `latest_before`/`get`
        // semantics, and the COW `retained_unique_pages` accounting.
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 4);
        let mut ids = Vec::new();
        let mut stamps = Vec::new();
        for _ in 0..12 {
            m.run(&mut NopHook, 700); // dirty the data page between snapshots
            ids.push(mgr.take(&mut m));
            stamps.push(m.clock.cycles());
        }
        assert_eq!(mgr.retained(), 4);
        // Exactly the last four survive, oldest-first.
        for id in &ids[..8] {
            assert!(mgr.get(*id).is_none(), "{id:?} must have been evicted");
        }
        let survivors: Vec<CkptId> = (0..4).map(|i| ids[8 + i]).collect();
        assert_eq!(mgr.oldest().map(|c| c.id), Some(survivors[0]));
        assert_eq!(mgr.latest().map(|c| c.id), Some(survivors[3]));
        // latest_before walks the ring newest-first and still honours stamps.
        assert_eq!(mgr.latest_before(stamps[9]).map(|c| c.id), Some(ids[9]));
        assert_eq!(
            mgr.latest_before(stamps[8].saturating_sub(1)).map(|c| c.id),
            None,
            "nothing retained before the oldest survivor"
        );
        // Page accounting: totals are monotone sums over all 12 takes,
        // and the COW-unique count only covers the 4 retained snapshots.
        assert_eq!(mgr.taken_total, 12);
        assert!(mgr.pages_copied_total >= mgr.last_pages_copied as u64);
        let unique = mgr.retained_unique_pages(&m);
        assert!(
            unique <= 4 * 3,
            "retained-unique pages bounded by the surviving ring: {unique}"
        );
        let mut reg = obs::MetricsRegistry::new();
        mgr.export_metrics(&m, &mut reg);
        assert_eq!(reg.counter("checkpoint.taken_total"), 12);
        assert_eq!(reg.gauge_value("checkpoint.ring_occupancy"), Some(4.0));
        assert_eq!(
            reg.gauge_value("checkpoint.retained_unique_pages"),
            Some(unique as f64)
        );
    }

    #[test]
    fn checkpoint_cost_scales_with_dirty_pages() {
        for engine in [Engine::Full, Engine::Incremental] {
            let mut m = boot_counter();
            let mut mgr = CheckpointManager::new(0, 8).with_engine(engine);
            mgr.take(&mut m);
            let first_cost = mgr.overhead_cycles;
            // Immediately re-checkpoint: almost no dirty pages.
            let before = mgr.overhead_cycles;
            mgr.take(&mut m);
            let second_cost = mgr.overhead_cycles - before;
            assert!(
                second_cost < first_cost,
                "{engine:?}: clean re-checkpoint is cheaper: {second_cost} vs {first_cost}"
            );
        }
    }

    #[test]
    fn incremental_take_is_cheaper_than_full_after_drain() {
        // The production property behind the <1% @ 200 ms gate: with a
        // pre-copy drain folding dirty pages between ticks, the snapshot
        // instant itself charges only CHECKPOINT_DELTA + fresh pages —
        // far below the full engine's fork-like CHECKPOINT_BASE.
        let mut full_m = boot_counter();
        let mut inc_m = boot_counter();
        let mut full = CheckpointManager::new(0, 8).with_engine(Engine::Full);
        let mut inc = CheckpointManager::new(0, 8).with_engine(Engine::Incremental);
        full.take(&mut full_m);
        inc.take(&mut inc_m);
        full_m.run(&mut NopHook, 5000);
        inc_m.run(&mut NopHook, 5000);
        let drained = inc.drain(&mut inc_m);
        assert!(drained > 0, "the counter loop dirtied at least one page");
        let before_full = full.overhead_cycles;
        let before_inc = inc.overhead_cycles;
        full.take(&mut full_m);
        inc.take(&mut inc_m);
        let full_cost = full.overhead_cycles - before_full;
        let inc_cost = inc.overhead_cycles - before_inc;
        assert!(
            inc_cost < full_cost / 5,
            "drained incremental take must be much cheaper: {inc_cost} vs {full_cost}"
        );
        assert_eq!(inc.last_pages_copied, 0, "drain pre-copied every page");
        assert_eq!(inc.pages_drained_total, drained as u64);
        assert!(inc.precopy_cycles > 0, "background work is accounted");
        // And both engines still roll back to identical guest state.
        let f = full.rollback(CkptId(1)).expect("full rollback");
        let i = inc.rollback(CkptId(1)).expect("incremental rollback");
        assert_eq!(f.cpu, i.cpu);
        assert_eq!(
            crate::incremental::mem_digest(&f.mem),
            crate::incremental::mem_digest(&i.mem)
        );
    }

    #[test]
    fn damaged_chains_fail_closed_and_are_counted() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let a = mgr.take(&mut m);
        m.run(&mut NopHook, 3000);
        mgr.drain(&mut m);
        m.run(&mut NopHook, 3000);
        let b = mgr.take(&mut m);
        assert!(mgr.materialize(a).is_some());
        assert!(mgr.materialize(b).is_some());
        assert_eq!(mgr.materialize_failures(), 0);
        // Delta-chain truncation: the damaged snapshot fails closed and
        // the refusal is counted.
        assert!(mgr.chaos_truncate_latest_delta(1) > 0);
        assert!(mgr.materialize(b).is_none(), "truncated chain fails closed");
        assert_eq!(mgr.materialize_failures(), 1);
        // Dedupe-store eviction race: the same degradation contract.
        // (Evict every slot — one eviction may hit a page snapshot `a`
        // does not reference.)
        while mgr.chaos_evict_store_page() {}
        assert!(mgr.materialize(a).is_none(), "evicted store fails closed");
        assert_eq!(mgr.materialize_failures(), 2);
        let mut reg = obs::MetricsRegistry::new();
        mgr.export_metrics(&m, &mut reg);
        assert_eq!(reg.counter("checkpoint.materialize_failures"), 2);
    }

    #[test]
    fn domain_rollback_restores_pre_attack_state_under_drain_coverage() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let id = mgr.take(&mut m);
        let v_addr = m.symbols.addr_of("v").expect("v");
        m.run(&mut NopHook, 1000);
        mgr.note_service(&mut m, 0); // benign connection 0 completed
        let v_boundary = m.mem.read_u32(0, v_addr).expect("r");
        let cpu_boundary = m.cpu.clone();
        assert_eq!(
            mgr.drain(&mut m),
            0,
            "note_service pre-copied domain 0's writes"
        );
        m.run(&mut NopHook, 1000); // the "attack" dirties the same page
        mgr.note_attack(&mut m, 1);
        assert!(m.mem.read_u32(0, v_addr).expect("r") > v_boundary);
        let rec = mgr.rollback_domain(id, &mut m, &[1]).expect("partial");
        assert!(rec.pages_restored >= 1);
        assert!(rec.pause_cycles > 0);
        assert_eq!(
            m.mem.read_u32(0, v_addr).expect("r"),
            v_boundary,
            "attack-owned page restored to the drained pre-attack content"
        );
        assert_eq!(m.cpu, cpu_boundary, "registers rewound to the boundary");
        assert_eq!(mgr.domain_rollbacks, 1);
        assert_eq!(mgr.domain_spills(), 0);
        // The machine resumes deterministically from the boundary.
        m.run(&mut NopHook, 500);
        assert!(m.mem.read_u32(0, v_addr).expect("r") > v_boundary);
    }

    #[test]
    fn note_service_is_the_one_walk_per_request() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        mgr.take(&mut m);
        m.run(&mut NopHook, 1000);
        mgr.note_service(&mut m, 0);
        let tracked = mgr.ledger().pages_tracked();
        assert!(tracked > 0, "the counter loop dirtied a page");
        assert_eq!(
            mgr.pages_drained_total, tracked as u64,
            "pre-copied in the walk"
        );
        assert_eq!(mgr.precopy_cycles, cost::PAGE_COPY * tracked as u64);
        assert_eq!(mgr.drain(&mut m), 0, "nothing left to drain");
        // The attack's walk credits its pages but captures nothing.
        m.run(&mut NopHook, 1000);
        mgr.note_attack(&mut m, 1);
        assert_eq!(mgr.pages_drained_total, tracked as u64);
        assert_eq!(mgr.domain_spills(), 0, "domain 0's page was covered");
        // Under the full engine the walk attributes without capturing.
        let mut m = boot_counter();
        let mut full = CheckpointManager::new(0, 8).with_engine(Engine::Full);
        full.take(&mut m);
        m.run(&mut NopHook, 1000);
        full.note_service(&mut m, 0);
        assert!(full.ledger().pages_tracked() > 0);
        assert_eq!(full.pages_drained_total, 0);
    }

    #[test]
    fn uncovered_spill_refuses_partial_rollback() {
        // The full engine pre-copies nothing, so a served domain's pages
        // stay uncovered: domain 1 overwrites uncovered domain-0 state.
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8).with_engine(Engine::Full);
        let id = mgr.take(&mut m);
        m.run(&mut NopHook, 1000);
        mgr.note_service(&mut m, 0);
        m.run(&mut NopHook, 1000);
        mgr.note_attack(&mut m, 1);
        assert_eq!(mgr.domain_spills(), 1);
        assert_eq!(
            mgr.rollback_domain(id, &mut m, &[1]),
            Err(DomainRefusal::Spilled)
        );
        assert_eq!(mgr.domain_rollbacks, 0);
    }

    #[test]
    fn ledger_corruption_and_forced_spill_fail_closed() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let id = mgr.take(&mut m);
        m.run(&mut NopHook, 1000);
        mgr.note_service(&mut m, 0);
        m.run(&mut NopHook, 1000);
        mgr.note_attack(&mut m, 1);
        // Tag corruption: detected by the checksum, refused.
        assert!(mgr.chaos_corrupt_domain_tag(3));
        assert_eq!(
            mgr.rollback_domain(id, &mut m, &[1]),
            Err(DomainRefusal::CorruptLedger)
        );
        // Forced spill on a fresh world: refused via the spill set.
        let mut m2 = boot_counter();
        let mut mgr2 = CheckpointManager::new(0, 8);
        let id2 = mgr2.take(&mut m2);
        m2.run(&mut NopHook, 1000);
        mgr2.note_service(&mut m2, 0);
        m2.run(&mut NopHook, 1000);
        mgr2.note_attack(&mut m2, 1);
        assert!(mgr2.chaos_force_domain_spill());
        let out = mgr2.rollback_domain(id2, &mut m2, &[1]);
        assert_eq!(out, Err(DomainRefusal::Spilled));
        assert!(out.unwrap_err().is_spill());
        assert!(mgr2.domain_spills() > 0);
    }

    #[test]
    fn stale_window_and_evicted_store_refuse_partial_rollback() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let old = mgr.take(&mut m);
        m.run(&mut NopHook, 500);
        mgr.take(&mut m); // opens a fresh window
        m.run(&mut NopHook, 500);
        mgr.note_attack(&mut m, 1);
        assert_eq!(
            mgr.rollback_domain(old, &mut m, &[1]),
            Err(DomainRefusal::StaleWindow)
        );
        // An attack-only page has no pending copy, so its pre-attack
        // content comes from the checkpoint image; evicted dedupe slots
        // make that image, and so the restore source, vanish.
        let mut m2 = boot_counter();
        let mut mgr2 = CheckpointManager::new(0, 8);
        let id2 = mgr2.take(&mut m2);
        m2.run(&mut NopHook, 1000);
        mgr2.note_attack(&mut m2, 1);
        assert!(
            mgr2.pending.is_empty(),
            "the attack's walk captures nothing"
        );
        while mgr2.chaos_evict_store_page() {}
        assert_eq!(
            mgr2.rollback_domain(id2, &mut m2, &[1]),
            Err(DomainRefusal::PageUnavailable)
        );
        assert_eq!(mgr2.materialize_failures(), 1);
    }

    #[test]
    fn pending_restore_matches_full_rollback_and_replay() {
        // Domain 0 is served and pre-copied; the attack (domain 1) then
        // rewrites the same page, so domain rollback restores it from
        // the pending page itself, not from the store.
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        let id = mgr.take(&mut m);
        m.run(&mut NopHook, 1000);
        mgr.note_service(&mut m, 0);
        let benign_insns = m.insns_retired;
        m.run(&mut NopHook, 1000);
        mgr.note_attack(&mut m, 1);
        let owned = mgr.ledger().owned_pages(&[1]);
        assert!(!owned.is_empty());
        assert!(owned.iter().all(|p| mgr.pending.contains_key(p)));
        // The store holds no pending page: evicting it all leaves the
        // pending restore sources intact.
        while mgr.chaos_evict_store_page() {}
        mgr.rollback_domain(id, &mut m, &[1]).expect("partial");
        // The reference: full rollback, then replay the benign work.
        let mut full = CheckpointManager::new(0, 8);
        let mut r = boot_counter();
        let rid = full.take(&mut r);
        r.run(&mut NopHook, 1000);
        let mut replay = full.rollback(rid).expect("rollback");
        while replay.insns_retired < benign_insns {
            replay.step();
        }
        assert_eq!(
            crate::domains::recovery_digest(&m),
            crate::domains::recovery_digest(&replay)
        );
    }

    #[test]
    fn walks_visit_only_the_pages_written() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 8);
        mgr.take(&mut m);
        for domain in 0..20 {
            m.run(&mut NopHook, 1000);
            let (visited, drained) = (mgr.walk_entries_visited, mgr.pages_drained_total);
            mgr.note_service(&mut m, domain);
            assert_eq!(mgr.walk_entries_visited - visited, 1);
            assert_eq!(mgr.pages_drained_total - drained, 1, "one data page");
        }
        // After a discard the watermark is older than the mark: one full
        // scan, then the write set again.
        mgr.discard_pending();
        m.run(&mut NopHook, 1000);
        let visited = mgr.walk_entries_visited;
        mgr.drain(&mut m);
        assert!(mgr.walk_entries_visited - visited >= m.mem.mapped_pages() as u64);
        m.run(&mut NopHook, 1000);
        let visited = mgr.walk_entries_visited;
        assert_eq!(mgr.drain(&mut m), 1);
        assert_eq!(mgr.walk_entries_visited - visited, 1);
    }

    #[test]
    fn eviction_compacts_the_dedupe_store() {
        let mut m = boot_counter();
        let mut mgr = CheckpointManager::new(0, 2);
        mgr.take(&mut m);
        for _ in 0..6 {
            m.run(&mut NopHook, 900);
            mgr.take(&mut m);
        }
        let retained_pages = mgr.store_pages();
        // The store holds the base image plus per-snapshot dirty pages
        // for the *retained* ring only — eviction released the rest.
        assert!(
            retained_pages <= m.mem.mapped_pages() + 2 * mgr.max_retained,
            "store stays bounded by the ring: {retained_pages}"
        );
        let st_compacted = {
            let mut reg = obs::MetricsRegistry::new();
            mgr.export_metrics(&m, &mut reg);
            reg.counter("checkpoint.store_compacted")
        };
        assert!(st_compacted > 0, "eviction compacted unreferenced pages");
    }
}
