//! Struct-of-arrays host state for the million-host community engine.
//!
//! The legacy §6 engine keeps one `Vec<bool>` per shard and scans *all*
//! of it every tick — O(shard size) per tick no matter how few hosts
//! are infected. At 20k hosts that is tolerable (~1.7k ticks/s,
//! BENCH_pr5); at the ROADMAP's 1M–10M hosts it is the whole bill.
//!
//! This module packs per-host membership into a word-level bitset
//! ([`HostBits`]) and pairs it with an **active queue**: a dense vector
//! of exactly the hosts that have pending scan activity
//! ([`SoaHosts`]). Generate phases walk the queue instead of the
//! address space, so a tick costs O(infected), not O(hosts) — the
//! sparse regime the contained runs live in.
//!
//! ## Why the queue order is free
//!
//! The queue appends hosts in *infection* order, which differs from the
//! legacy host-order scan. That cannot change outcomes: every random
//! draw is counter-based (a pure function of `(seed, host, tick,
//! attempt)`), and the coordinator canonically sorts each inbox by
//! `(src, attempt)` before the apply phase. Enumeration order therefore
//! never reaches the RNG or the merge — the event *multiset* is
//! identical, which the legacy↔SoA parity checks compare field by field
//! ([`crate::community::CommunityOutcome::without_wall_clock`]).

/// A fixed-size bitset over host indices, one bit per host.
///
/// Storage is `⌈len / 64⌉` words — 1M hosts fit in 128 KiB. Inserts
/// are idempotent (`insert` reports whether the bit was fresh), which
/// is exactly the infection-mark semantics of the community engine and
/// the membership semantics of the failure estimator's shared pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostBits {
    words: Vec<u64>,
    len: u64,
}

impl HostBits {
    /// An empty set over `[0, len)`.
    pub fn new(len: u64) -> HostBits {
        HostBits {
            words: vec![0; len.div_ceil(64) as usize],
            len,
        }
    }

    /// Capacity of the set (number of addressable indices).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the set addresses no indices at all.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `i` a member?
    pub fn contains(&self, i: u64) -> bool {
        debug_assert!(i < self.len, "index {i} out of {}", self.len);
        self.words[(i / 64) as usize] & (1u64 << (i % 64)) != 0
    }

    /// Insert `i`; returns `true` when the bit was not already set.
    pub fn insert(&mut self, i: u64) -> bool {
        debug_assert!(i < self.len, "index {i} out of {}", self.len);
        let word = &mut self.words[(i / 64) as usize];
        let bit = 1u64 << (i % 64);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Number of members (popcount over the words).
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }
}

/// The contact-state backend the community engine is generic over.
///
/// `off` is always a *shard-local* offset (`host - shard.lo`). The two
/// implementations are the legacy dense scan (the parity reference,
/// in `community.rs`) and [`SoaHosts`] below; the engine itself is one
/// shared code path, so the backends cannot drift semantically.
pub trait HostSet: Send {
    /// An empty set able to address offsets `[0, len)`.
    fn with_capacity(len: u64) -> Self;
    /// Is `off` a member?
    fn contains(&self, off: u64) -> bool;
    /// Idempotently insert `off`; returns `true` when newly inserted.
    fn insert(&mut self, off: u64) -> bool;
    /// Number of members.
    fn count(&self) -> u64;
    /// Visit every member once. **Order is implementation-defined** —
    /// callers must not depend on it (the engine's canonical inbox
    /// sort guarantees they don't).
    fn for_each_member(&self, f: impl FnMut(u64));
}

/// Bitset membership plus an append-only active queue: O(1) insert,
/// O(members) iteration — the struct-of-arrays backend.
#[derive(Debug, Clone)]
pub struct SoaHosts {
    bits: HostBits,
    /// Members in insertion order. `u32` offsets keep the queue at
    /// 4 bytes/host (shards past 2³² hosts are rejected at build).
    active: Vec<u32>,
}

impl HostSet for SoaHosts {
    fn with_capacity(len: u64) -> SoaHosts {
        assert!(
            len <= u64::from(u32::MAX) + 1,
            "SoA shard too large for u32 offsets: {len}"
        );
        SoaHosts {
            bits: HostBits::new(len),
            active: Vec::new(),
        }
    }

    #[inline]
    fn contains(&self, off: u64) -> bool {
        self.bits.contains(off)
    }

    #[inline]
    fn insert(&mut self, off: u64) -> bool {
        if self.bits.insert(off) {
            self.active.push(off as u32);
            true
        } else {
            false
        }
    }

    fn count(&self) -> u64 {
        self.active.len() as u64
    }

    #[inline]
    fn for_each_member(&self, mut f: impl FnMut(u64)) {
        for &off in &self.active {
            f(u64::from(off));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_insert_is_idempotent_and_counted() {
        let mut b = HostBits::new(130);
        assert!(b.insert(0));
        assert!(b.insert(64));
        assert!(b.insert(129));
        assert!(!b.insert(64), "second insert reports not-fresh");
        assert_eq!(b.count(), 3);
        assert!(b.contains(129));
        assert!(!b.contains(1));
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
    }

    #[test]
    fn soa_queue_visits_each_member_once_in_insertion_order() {
        let mut s = SoaHosts::with_capacity(100);
        for off in [7u64, 3, 7, 99, 3, 0] {
            s.insert(off);
        }
        let mut seen = Vec::new();
        s.for_each_member(|off| seen.push(off));
        assert_eq!(seen, vec![7, 3, 99, 0], "dups dropped, order = insertion");
        assert_eq!(s.count(), 4);
        assert!(s.contains(99) && !s.contains(98));
    }

    #[test]
    fn backends_agree_on_membership() {
        // The dense reference lives in community.rs; here just pin the
        // SoA side against a straightforward model.
        let mut s = SoaHosts::with_capacity(512);
        let mut model = vec![false; 512];
        for i in 0..512u64 {
            let off = (i * 97) % 512;
            assert_eq!(s.insert(off), !model[off as usize]);
            model[off as usize] = true;
        }
        for off in 0..512u64 {
            assert_eq!(s.contains(off), model[off as usize]);
        }
        assert_eq!(s.count(), model.iter().filter(|m| **m).count() as u64);
    }
}
