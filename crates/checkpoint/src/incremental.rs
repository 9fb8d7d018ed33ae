//! The incremental checkpoint representation: dirty-page delta records
//! over a content-hash deduplicating page store.
//!
//! A full-copy checkpoint clones the whole `Machine` (O(mapped pages)
//! `Arc` bumps). The incremental engine instead *interns* only the pages
//! whose write generation advanced since the previous capture into a
//! [`DedupeStore`] — identical page contents anywhere across the ring
//! share one store slot — and records a cumulative `page -> (slot, gen)`
//! table per snapshot (an ascending vector, 24 bytes per page, no
//! data). Reconstruction
//! ([`DeltaRecord::materialize`]) rebuilds a `Machine` from the record's
//! machine skeleton plus the store, verifies the full-image digest
//! captured at take time, and is bit-identical to a full clone — a
//! property the `checkpoint_incremental` proptests and `tables
//! ckptparity` check against fingerprints recorded at take time.
//!
//! Every page hash — dedupe keys, the full-image digest taken at every
//! snapshot and verified at every materialize, and
//! [`crate::recovery_digest`] — goes through one [`page_digest`]. A
//! capture hashes only the pages it interns, in the common case: every
//! store slot keeps its content's digest, and an inherited page that
//! still shares its slot's storage contributes that digest to the image
//! digest unhashed. [`page_digest`] runs four
//! independent lanes over a page's little-endian `u64` words (each lane
//! an xor-multiply-rotate chain), folded into one `u64`. A never-written
//! page skips the loop: its digest is the compile-time lane hash of
//! 4,096 zero bytes, so it still dedupes with a written all-zero page.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use svm::mem::{Mem, Page};
use svm::Machine;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Independent hash lanes in [`page_digest`]: word `i` of a page feeds
/// lane `i % LANES`, so the four multiply chains overlap in the CPU.
const LANES: usize = 4;

/// Little-endian `u64` words per page.
const PAGE_WORDS: usize = svm::mem::PAGE_SIZE / 8;

/// One hash step: FNV-style xor-multiply, then a rotate so the high
/// bits the multiply produces feed back into the low ones.
const fn mix(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME).rotate_left(29)
}

/// Distinct starting states, so equal words in different lanes do not
/// contribute equally.
const LANE_SEEDS: [u64; LANES] = {
    let mut seeds = [0; LANES];
    let mut i = 0;
    while i < LANES {
        seeds[i] = mix(FNV_OFFSET, i as u64);
        i += 1;
    }
    seeds
};

/// Fold the lanes, in lane order, into one digest.
const fn finish(lanes: [u64; LANES]) -> u64 {
    let mut h = FNV_OFFSET;
    let mut i = 0;
    while i < LANES {
        h = mix(h, lanes[i]);
        i += 1;
    }
    h
}

/// The lane hash of `PAGE_SIZE` zero bytes, computed at compile time by
/// the lane loop [`page_digest`] runs over a written page: a
/// never-written page digests, and dedupes, like a written all-zero one.
const ZERO_PAGE_DIGEST: u64 = {
    let mut lanes = LANE_SEEDS;
    let mut i = 0;
    while i < PAGE_WORDS {
        lanes[i % LANES] = mix(lanes[i % LANES], 0);
        i += 1;
    }
    finish(lanes)
};

/// The lane hash of a page's bytes, 32 bytes (one word per lane) at a
/// time.
fn lane_digest(bytes: &[u8; svm::mem::PAGE_SIZE]) -> u64 {
    let mut lanes = LANE_SEEDS;
    let (words, _) = bytes.as_chunks::<8>();
    for chunk in words.chunks_exact(LANES) {
        for (lane, word) in lanes.iter_mut().zip(chunk) {
            *lane = mix(*lane, u64::from_le_bytes(*word));
        }
    }
    finish(lanes)
}

/// Content digest of one page: four independent lanes over its
/// little-endian words, folded into one `u64`. Never-written pages and
/// written all-zero pages have the same digest, `ZERO_PAGE_DIGEST`,
/// which the former get without reading a byte.
pub fn page_digest(page: &Page) -> u64 {
    if page.is_written() {
        lane_digest(page.bytes())
    } else {
        ZERO_PAGE_DIGEST
    }
}

/// Fold one word into FNV state `h` (the workspace's standard offline
/// hash starts at `FNV_OFFSET`), whole rather than byte by byte.
fn fold_word(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(FNV_PRIME)
}

/// Fold one page into FNV state `h` as the single word
/// [`page_digest`].
pub(crate) fn fold_page(h: u64, page: &Page) -> u64 {
    fold_word(h, page_digest(page))
}

/// Deterministic digest of a full address-space image: page numbers,
/// per-page write generations and contents, the global write watermark
/// and the NX flag, each folded as one word. Two `Mem`s with equal
/// digests are observably identical to the guest *and* to the
/// generation-keyed caches above it.
pub fn mem_digest(mem: &Mem) -> u64 {
    let mut h = FNV_OFFSET;
    for (pno, gen, page) in mem.pages() {
        h = fold_image_page(h, pno, gen, page_digest(page));
    }
    fold_image_tail(h, mem)
}

/// One page's words in [`mem_digest`]: number, generation, content digest.
fn fold_image_page(h: u64, pno: u32, gen: u64, digest: u64) -> u64 {
    fold_word(fold_word(fold_word(h, pno as u64), gen), digest)
}

/// The last words of [`mem_digest`]: the write watermark and NX flag.
fn fold_image_tail(h: u64, mem: &Mem) -> u64 {
    fold_word(fold_word(h, mem.write_seq()), mem.nx as u64)
}

/// A key into the [`DedupeStore`] (derived from the page's content hash,
/// probed past collisions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageKey(u64);

struct StoreSlot {
    data: Arc<Page>,
    /// Content digest of `data` (collision verification, and the page's
    /// word in the image digest of every capture that references it).
    digest: u64,
    /// How many delta-record entries reference this slot; the slot is
    /// compacted away when the count returns to zero.
    refs: u64,
}

/// Hashes a slot key as itself: keys are content digests (or digests
/// re-probed by an odd constant), already uniform, so a keyed hash over
/// them buys nothing. Fixed, not seeded per process. Guest input reaches
/// page contents, so keys could be crafted to share buckets; the worst
/// that buys is longer probes over a store that holds at most the
/// distinct pages of the retained ring.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// Running statistics of a [`DedupeStore`] (all monotone counters, safe
/// to export as absolute metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Pages interned that created a fresh slot.
    pub inserted: u64,
    /// Pages interned that deduplicated against a live slot.
    pub dedup_hits: u64,
    /// Slots compacted after their last reference was released.
    pub compacted: u64,
    /// Slots forcibly evicted by the chaos seam.
    pub force_evicted: u64,
}

/// Content-addressed, reference-counted page storage shared by every
/// incremental snapshot in a manager's ring.
///
/// Memory stays bounded: the store holds at most one copy of each
/// *distinct* page content referenced by a retained snapshot, and
/// compaction drops a slot the moment the last referencing snapshot is
/// evicted.
#[derive(Default)]
pub struct DedupeStore {
    slots: HashMap<u64, StoreSlot, BuildHasherDefault<KeyHasher>>,
    stats: StoreStats,
}

impl DedupeStore {
    /// An empty store.
    pub fn new() -> DedupeStore {
        DedupeStore::default()
    }

    /// Intern a captured page: returns the key of the slot holding this
    /// exact content, bumping its reference count. Hash collisions are
    /// verified byte-for-byte and resolved by quadratic-free re-probing
    /// (key + odd constant), so two different contents never share a
    /// slot. Never-written and written all-zero pages are the same
    /// content and share one slot; two never-written pages match without
    /// a byte compare.
    pub fn intern(&mut self, data: Arc<Page>) -> PageKey {
        let digest = page_digest(&data);
        self.intern_digested(data, digest)
    }

    /// [`DedupeStore::intern`] for a page whose [`page_digest`] the
    /// caller already holds.
    fn intern_digested(&mut self, data: Arc<Page>, digest: u64) -> PageKey {
        let mut key = digest;
        loop {
            match self.slots.get_mut(&key) {
                Some(slot) if slot.digest == digest && *slot.data == *data => {
                    slot.refs += 1;
                    self.stats.dedup_hits += 1;
                    return PageKey(key);
                }
                Some(_) => key = key.wrapping_add(0x9e37_79b9_7f4a_7c15),
                None => {
                    self.slots.insert(
                        key,
                        StoreSlot {
                            data,
                            digest,
                            refs: 1,
                        },
                    );
                    self.stats.inserted += 1;
                    return PageKey(key);
                }
            }
        }
    }

    /// The page behind `key`, if the slot is still live.
    pub fn get(&self, key: PageKey) -> Option<&Arc<Page>> {
        self.slots.get(&key.0).map(|s| &s.data)
    }

    /// Take one more reference to `key` for an entry inherited from a
    /// previous table, and return the [`page_digest`] of `live`, the
    /// page the entry stands for: the slot's stored digest when the slot
    /// holds `live`'s very storage, else a hash of `live`'s bytes (the
    /// slot is shared by equal content from another page, or the chaos
    /// seam evicted it).
    fn bump(&mut self, key: PageKey, live: &Arc<Page>) -> u64 {
        if let Some(slot) = self.slots.get_mut(&key.0) {
            slot.refs += 1;
            if Arc::ptr_eq(&slot.data, live) {
                return slot.digest;
            }
        }
        page_digest(live)
    }

    /// Release one reference to `key`, compacting the slot when the last
    /// reference drops.
    pub fn release(&mut self, key: PageKey) {
        if let Some(slot) = self.slots.get_mut(&key.0) {
            slot.refs = slot.refs.saturating_sub(1);
            if slot.refs == 0 {
                self.slots.remove(&key.0);
                self.stats.compacted += 1;
            }
        }
    }

    /// Number of live slots (distinct page contents retained).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the store holds no pages.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Chaos seam: forcibly evict one live slot *despite outstanding
    /// references* — the dedupe-store eviction race. Any snapshot whose
    /// delta chain references the evicted content can no longer be
    /// materialized (its digest verification fails closed), which must
    /// degrade to a restart, never a panic or a silently-wrong rollback.
    /// Evicts the smallest live key for determinism; returns it.
    pub fn chaos_evict_one(&mut self) -> Option<PageKey> {
        let key = *self.slots.keys().min()?;
        self.slots.remove(&key);
        self.stats.force_evicted += 1;
        Some(PageKey(key))
    }
}

/// One entry of a snapshot's page table: page number, store key, write
/// generation.
pub type PageEntry = (u32, PageKey, u64);

/// One incremental snapshot: a machine skeleton (cpu, heap, net, clock,
/// layout — everything but the page table) plus a cumulative
/// `page -> (store key, write gen)` table and the full-image digest for
/// verification at reconstruction time.
pub struct DeltaRecord {
    /// The checkpointed machine with `mem` reduced to its skeleton
    /// (permissions, regions, NX, `write_seq` — an empty page table).
    meta: Machine,
    /// Cumulative page table: every mapped page, referenced by store
    /// key, in strictly ascending page order.
    pages: Vec<PageEntry>,
    /// Pages newly interned by this snapshot (the delta; the rest of
    /// `pages` was inherited from the previous record or the drain).
    pub delta_len: usize,
    /// `mem_digest` of the captured image, verified on materialize.
    image_digest: u64,
}

impl DeltaRecord {
    /// Capture `m` incrementally: `prev` is the previous record's
    /// cumulative table (empty for the base snapshot) and `pending` the
    /// pre-copy drain's already-interned dirty pages. Only pages whose
    /// generation advanced past both are interned now — the snapshot
    /// instant is O(changed-since-drain) in hashing, one ordered walk of
    /// the three tables otherwise.
    ///
    /// The image digest is [`mem_digest`] of `m`, folded as the table is
    /// built: a fresh page is hashed once, for the store and the image
    /// alike, and an inherited entry whose slot holds the live page's own
    /// storage (the same `Arc`, so the same bytes) contributes the digest
    /// its slot keeps. Any other inherited page is hashed from its live
    /// bytes, so an entry reused against the write-gen ladder contract
    /// still leaves a digest its materialization fails to match.
    pub fn capture(
        m: &Machine,
        store: &mut DedupeStore,
        prev: &[PageEntry],
        pending: &BTreeMap<u32, (PageKey, u64)>,
    ) -> DeltaRecord {
        let mut pages = Vec::with_capacity(prev.len());
        let mut delta_len = 0usize;
        let mut image = FNV_OFFSET;
        let mut prev = prev.iter().peekable();
        let mut pending = pending.iter().peekable();
        for (pno, gen, data) in m.mem.pages() {
            while prev.next_if(|e| e.0 < pno).is_some() {}
            while pending.next_if(|e| *e.0 < pno).is_some() {}
            let drained = pending.next_if(|e| *e.0 == pno).map(|e| *e.1);
            let inherited = prev.next_if(|e| e.0 == pno).map(|e| (e.1, e.2));
            // Prefer, in order: a pending drained capture at the live
            // generation, the previous record's entry at the live
            // generation, else intern fresh. Equal generations guarantee
            // identical bytes (the write-gen ladder contract).
            let reuse = [drained, inherited]
                .into_iter()
                .flatten()
                .find(|&(_, g)| g == gen)
                .map(|(key, _)| key);
            let (key, digest) = match reuse {
                Some(key) => (key, store.bump(key, data)),
                None => {
                    delta_len += 1;
                    let digest = page_digest(data);
                    (store.intern_digested(Arc::clone(data), digest), digest)
                }
            };
            image = fold_image_page(image, pno, gen, digest);
            pages.push((pno, key, gen));
        }
        let image_digest = fold_image_tail(image, &m.mem);
        debug_assert_eq!(image_digest, mem_digest(&m.mem));
        DeltaRecord {
            meta: m.clone_with_mem(m.mem.skeleton()),
            pages,
            delta_len,
            image_digest,
        }
    }

    /// The cumulative page table, strictly ascending by page number (for
    /// chaining the next capture).
    pub fn pages(&self) -> &[PageEntry] {
        &self.pages
    }

    /// The stored full-image digest.
    pub fn image_digest(&self) -> u64 {
        self.image_digest
    }

    /// Connection count and clock live on the meta machine if needed.
    pub fn meta(&self) -> &Machine {
        &self.meta
    }

    /// Reconstruct the checkpointed machine from the skeleton plus the
    /// store, verifying the full-image digest captured at take time.
    /// Returns `None` — fail closed, caller degrades to restart — when
    /// any referenced slot vanished (dedupe-store eviction race) or the
    /// rebuilt image's digest disagrees (delta-chain truncation or any
    /// other corruption).
    pub fn materialize(&self, store: &DedupeStore) -> Option<Machine> {
        let mut m = self.meta.clone();
        for &(pno, key, gen) in &self.pages {
            m.mem.restore_page(pno, Arc::clone(store.get(key)?), gen);
        }
        if mem_digest(&m.mem) != self.image_digest {
            return None;
        }
        Some(m)
    }

    /// Release every store reference this record holds (eviction path).
    pub fn release(&self, store: &mut DedupeStore) {
        for &(_, key, _) in &self.pages {
            store.release(key);
        }
    }

    /// Chaos seam: truncate the delta chain by dropping the record's
    /// highest-numbered page entries (modelling a lost delta segment).
    /// Returns how many entries were dropped. Materialization afterwards
    /// fails its digest verification and degrades to a restart.
    pub fn chaos_truncate(&mut self, store: &mut DedupeStore, drop_pages: usize) -> usize {
        let keep = self.pages.len().saturating_sub(drop_pages);
        let dropped = self.pages.len() - keep;
        for (_, key, _) in self.pages.drain(keep..).rev() {
            store.release(key);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use svm::mem::PAGE_SIZE;

    fn page_with(b: u8) -> Arc<Page> {
        let mut p = Page::zeroed();
        p.bytes_mut()[0] = b;
        p.bytes_mut()[PAGE_SIZE - 1] = b.wrapping_mul(3);
        Arc::new(p)
    }

    #[test]
    fn store_dedupes_identical_content_and_compacts() {
        let mut store = DedupeStore::new();
        let a = store.intern(page_with(1));
        let b = store.intern(page_with(1));
        let c = store.intern(page_with(2));
        assert_eq!(a, b, "identical contents share a slot");
        assert_ne!(a, c);
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().dedup_hits, 1);
        assert_eq!(store.stats().inserted, 2);
        store.release(a);
        assert_eq!(store.len(), 2, "one reference still outstanding");
        store.release(b);
        assert_eq!(store.len(), 1, "last release compacts the slot");
        assert!(store.get(a).is_none());
        assert!(store.get(c).is_some());
        assert_eq!(store.stats().compacted, 1);
    }

    /// The lane hash written out the plain way: one word at a time,
    /// word `i` into lane `i % LANES`.
    fn reference_digest(bytes: &[u8; PAGE_SIZE]) -> u64 {
        let mut lanes = LANE_SEEDS;
        for (i, word) in bytes.chunks_exact(8).enumerate() {
            let w = u64::from_le_bytes(word.try_into().expect("8 bytes"));
            lanes[i % LANES] = mix(lanes[i % LANES], w);
        }
        finish(lanes)
    }

    /// Bytes `i as u8 ^ (i >> 8) as u8`: no two adjacent words equal.
    fn patterned() -> Page {
        let mut p = Page::zeroed();
        for (i, b) in p.bytes_mut().iter_mut().enumerate() {
            *b = i as u8 ^ (i >> 8) as u8;
        }
        p
    }

    #[test]
    fn never_written_page_folds_like_zero_bytes() {
        let zeros = [0u8; PAGE_SIZE];
        let lazy = Page::zeroed();
        assert_eq!(page_digest(&lazy), lane_digest(&zeros));
        assert_eq!(page_digest(&lazy), reference_digest(&zeros));
        for h in [1, 0xdead_beef, u64::MAX] {
            let folded = (h ^ lane_digest(&zeros)).wrapping_mul(FNV_PRIME);
            assert_eq!(fold_page(h, &lazy), folded);
        }
    }

    #[test]
    fn page_digest_sees_every_word() {
        let base = patterned();
        let d0 = page_digest(&base);
        assert_eq!(d0, reference_digest(base.bytes()));
        // Bits 0 and 63 of every word, and every bit index somewhere.
        let mut p = base.clone();
        for word in 0..PAGE_WORDS {
            for bit in [0, word % 64, 63] {
                let (byte, mask) = (word * 8 + bit / 8, 1 << (bit % 8));
                p.bytes_mut()[byte] ^= mask;
                assert_ne!(page_digest(&p), d0, "word {word} bit {bit}");
                p.bytes_mut()[byte] ^= mask;
            }
        }
        for (a, b) in [(0, 1), (0, 4), (3, 7), (5, 511), (100, 356), (510, 511)] {
            let mut p = base.clone();
            let (lo, hi) = p.bytes_mut().split_at_mut(b * 8);
            let (wa, wb) = (&mut lo[a * 8..a * 8 + 8], &mut hi[..8]);
            assert_ne!(wa, wb);
            wa.swap_with_slice(wb);
            assert_ne!(page_digest(&p), d0, "swap words {a} and {b}");
        }
    }

    #[test]
    fn page_digests_are_pinned() {
        // Little-endian word loads make these the same on every host; a
        // change to either value is a deliberate change to the hash.
        assert_eq!(ZERO_PAGE_DIGEST, 0x7f77_259f_6773_f632);
        assert_eq!(page_digest(&patterned()), 0x266d_fba5_df3b_a898);
    }

    #[test]
    fn never_written_and_rezeroed_pages_share_a_slot() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(".text\nmain:\n halt\n").expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let heap = m
            .mem
            .regions()
            .iter()
            .find(|r| r.name == "heap")
            .expect("heap")
            .start;
        let (rezeroed, fresh) = (heap / PAGE_SIZE as u32, heap / PAGE_SIZE as u32 + 1);
        m.mem.write_bytes_host(heap + 9, &[7]).expect("w");
        m.mem.write_bytes_host(heap + 9, &[0]).expect("w");
        let page = |pno| m.mem.pages().find(|(p, _, _)| *p == pno).expect("mapped").2;
        assert!(page(rezeroed).is_written() && !page(fresh).is_written());
        assert_eq!(page_digest(page(rezeroed)), page_digest(page(fresh)));
        let mut store = DedupeStore::new();
        let rec = DeltaRecord::capture(&m, &mut store, &[], &BTreeMap::new());
        let key = |pno| rec.pages().iter().find(|e| e.0 == pno).expect("mapped").1;
        assert_eq!(key(rezeroed), key(fresh), "one slot");
        let rebuilt = rec.materialize(&store).expect("materializes");
        assert_eq!(mem_digest(&rebuilt.mem), mem_digest(&m.mem));
        for pno in [rezeroed, fresh] {
            assert_eq!(rebuilt.mem.page_bytes(pno), m.mem.page_bytes(pno));
            assert_eq!(rebuilt.mem.page_gen(pno), m.mem.page_gen(pno));
        }
    }

    #[test]
    fn forced_eviction_breaks_lookup_but_never_panics() {
        let mut store = DedupeStore::new();
        let a = store.intern(page_with(7));
        let evicted = store.chaos_evict_one().expect("one slot live");
        assert_eq!(evicted, a);
        assert!(store.get(a).is_none(), "evicted despite refs");
        store.release(a); // releasing a vanished key is a no-op
        assert_eq!(store.stats().force_evicted, 1);
        assert!(store.chaos_evict_one().is_none(), "empty store");
    }

    #[test]
    fn equal_gens_share_slots_across_records() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(
            ".text\nmain:\n movi r1, v\nloop:\n ld r0, [r1, 0]\n addi r0, r0, 1\n st [r1, 0], r0\n jmp loop\n.data\nv: .word 0\n",
        )
        .expect("asm");
        let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let base = DeltaRecord::capture(&m, &mut store, &[], &empty);
        assert_eq!(base.delta_len, m.mem.mapped_pages(), "base interns all");
        m.run(&mut svm::NopHook, 2000);
        let next = DeltaRecord::capture(&m, &mut store, base.pages(), &empty);
        assert!(
            next.delta_len < base.delta_len,
            "only dirtied pages re-interned: {} vs {}",
            next.delta_len,
            base.delta_len
        );
        // Both records materialize bit-identically to their captures.
        let rb = base.materialize(&store).expect("base materializes");
        assert_eq!(mem_digest(&rb.mem), base.image_digest());
        let rn = next.materialize(&store).expect("next materializes");
        assert_eq!(mem_digest(&rn.mem), next.image_digest());
        assert_eq!(rn.cpu, m.cpu);
        // Eviction of the base releases only its refs; next survives.
        base.release(&mut store);
        assert!(next.materialize(&store).is_some());
    }

    #[test]
    fn truncation_and_eviction_fail_materialize_closed() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(".text\nmain:\n halt\n").expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let rec = DeltaRecord::capture(&m, &mut store, &[], &empty);
        assert!(rec.materialize(&store).is_some());
        // Dedupe-store eviction race: a referenced slot vanishes.
        store.chaos_evict_one().expect("live slot");
        assert!(rec.materialize(&store).is_none(), "fails closed");
        // Delta-chain truncation on a fresh capture.
        let mut store2 = DedupeStore::new();
        let mut rec2 = DeltaRecord::capture(&m, &mut store2, &[], &empty);
        assert_eq!(rec2.chaos_truncate(&mut store2, 2), 2);
        assert!(rec2.materialize(&store2).is_none(), "fails closed");
    }

    #[test]
    fn capture_after_eviction_still_digests_the_live_image() {
        use svm::loader::Aslr;
        let prog = svm::asm::assemble(".text\nmain:\n halt\n").expect("asm");
        let m = Machine::boot(&prog, Aslr::off()).expect("boot");
        let mut store = DedupeStore::new();
        let empty = BTreeMap::new();
        let base = DeltaRecord::capture(&m, &mut store, &[], &empty);
        // The next capture inherits every entry, one of them from a slot
        // the chaos seam evicted: its digest comes from the live bytes.
        store.chaos_evict_one().expect("live slot");
        let next = DeltaRecord::capture(&m, &mut store, base.pages(), &empty);
        assert_eq!(next.delta_len, 0, "every entry inherited");
        assert_eq!(next.image_digest(), mem_digest(&m.mem));
        assert!(next.pages().windows(2).all(|w| w[0].0 < w[1].0));
    }
}
