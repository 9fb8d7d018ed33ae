//! Struct-of-arrays host state for the million-host community engine.
//!
//! The dense reference backend keeps one `Vec<bool>` per shard and
//! scans *all* of it every tick — O(shard size) per tick no matter how
//! few hosts are infected. At 20k hosts that is tolerable (~1.7k
//! ticks/s, BENCH_pr5); at 1M hosts it is the whole bill.
//!
//! This module packs per-host membership into a word-level bitset
//! ([`HostBits`]) and, for the community engine's infected sets, adds
//! two summary levels above it ([`SoaHosts`]): a `mid` bit per
//! non-empty word and a `top` bit per non-empty `mid` word. Generate
//! phases walk `top`, then only the words each level marks, so a tick
//! costs O(hosts/2¹⁸ + infected): at 1M hosts the walk reads 4 `top`
//! words, then at most one `mid` word and one word of `bits` per
//! infected host, and the per-member work — the contact draws — is the
//! rest.
//!
//! ## Why members are visited in ascending order
//!
//! Every random draw is counter-based (a pure function of `(seed, host,
//! tick, attempt)`), but the *apply* phase is not order-free: which
//! contact infects a host decides which throttle draws are taken and
//! which contacts become failure records. The engine therefore applies
//! contacts in canonical `(src, attempt)` order. Walking members in
//! ascending offset order makes every shard emit its outbox rows
//! already in that order, and shard ranges are contiguous, so the apply
//! phase reads them in shard order with no merge, copy or sort. Both backends visit in the same
//! order, which the dense↔SoA parity checks compare field by field
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

    /// Bytes of heap the set holds.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
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
/// implementations are [`SoaHosts`] and the dense reference scan
/// `DenseHosts` (built only for tests and the `oracle` feature), both
/// below; the engine itself is one shared code path, so the backends
/// cannot drift semantically.
pub trait HostSet: Send {
    /// An empty set able to address offsets `[0, len)`.
    fn with_capacity(len: u64) -> Self;
    /// Is `off` a member?
    fn contains(&self, off: u64) -> bool;
    /// Idempotently insert `off`; returns `true` when newly inserted.
    fn insert(&mut self, off: u64) -> bool;
    /// Number of members.
    fn count(&self) -> u64;
    /// Visit every member once, in **ascending offset order**. The
    /// engine relies on it: a shard's outbox rows come out sorted by
    /// `(src, attempt)` only because its sources are visited in order.
    fn for_each_member(&self, f: impl FnMut(u64));
}

/// Three-level bitset membership plus a member counter: O(1) insert
/// and count, an ascending O(len/2¹⁸ + members) walk — the
/// struct-of-arrays backend.
#[derive(Debug, Clone)]
pub struct SoaHosts {
    bits: HostBits,
    /// Bit `w` is set when word `w` of `bits` has a member, so the walk
    /// skips empty 64-host blocks without reading them.
    mid: Vec<u64>,
    /// Bit `m` is set when word `m` of `mid` is non-zero, so the walk
    /// skips empty 4,096-host blocks too.
    top: Vec<u64>,
    /// Number of set bits, so `count` need not popcount every word.
    members: u64,
}

/// Call `f(base * 64 + bit)` for each set bit of `word`, lowest first.
#[inline(always)]
fn for_each_bit(word: u64, base: u64, mut f: impl FnMut(u64)) {
    let mut w = word;
    while w != 0 {
        f(base * 64 + u64::from(w.trailing_zeros()));
        w &= w - 1;
    }
}

impl HostSet for SoaHosts {
    fn with_capacity(len: u64) -> SoaHosts {
        SoaHosts {
            bits: HostBits::new(len),
            mid: vec![0; len.div_ceil(1 << 12) as usize],
            top: vec![0; len.div_ceil(1 << 18) as usize],
            members: 0,
        }
    }

    #[inline]
    fn contains(&self, off: u64) -> bool {
        self.bits.contains(off)
    }

    #[inline]
    fn insert(&mut self, off: u64) -> bool {
        let fresh = self.bits.insert(off);
        let (word, mid) = (off / 64, off / (1 << 12));
        self.mid[mid as usize] |= 1u64 << (word % 64);
        self.top[(mid / 64) as usize] |= 1u64 << (mid % 64);
        self.members += u64::from(fresh);
        fresh
    }

    fn count(&self) -> u64 {
        self.members
    }

    /// Lowest set bit first at every level: one read per `top` word,
    /// then one per word a level above marks, then one step per member.
    #[inline]
    fn for_each_member(&self, mut f: impl FnMut(u64)) {
        for (ti, &top) in self.top.iter().enumerate() {
            for_each_bit(top, ti as u64, |mi| {
                for_each_bit(self.mid[mi as usize], mi, |wi| {
                    for_each_bit(self.bits.words[wi as usize], wi, &mut f);
                });
            });
        }
    }
}

/// The dense reference backend: one bool per host, visited by a full
/// scan in offset order — O(len) per walk regardless of membership.
/// The reference [`SoaHosts`] is compared against (chaos invariant I11);
/// built only for tests and under the `oracle` feature.
#[cfg(any(test, feature = "oracle"))]
#[derive(Debug, Clone)]
pub struct DenseHosts(Vec<bool>);

#[cfg(any(test, feature = "oracle"))]
impl HostSet for DenseHosts {
    fn with_capacity(len: u64) -> DenseHosts {
        DenseHosts(vec![false; len as usize])
    }

    fn contains(&self, off: u64) -> bool {
        self.0[off as usize]
    }

    fn insert(&mut self, off: u64) -> bool {
        let slot = &mut self.0[off as usize];
        let fresh = !*slot;
        *slot = true;
        fresh
    }

    fn count(&self) -> u64 {
        self.0.iter().filter(|f| **f).count() as u64
    }

    fn for_each_member(&self, mut f: impl FnMut(u64)) {
        for (off, flag) in self.0.iter().enumerate() {
            if *flag {
                f(off as u64);
            }
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
    fn soa_walk_visits_each_member_once_in_ascending_order() {
        // The block boundaries of all three levels (63/64, 4095/4096,
        // 2¹⁸ - 1/2¹⁸), with a partial last word at every level.
        let mut s = SoaHosts::with_capacity(270_000);
        for off in [
            7u64, 4096, 3, 262_144, 64, 7, 269_999, 129, 63, 4095, 3, 262_143, 0,
        ] {
            s.insert(off);
        }
        let mut seen = Vec::new();
        s.for_each_member(|off| seen.push(off));
        assert_eq!(
            seen,
            vec![0, 3, 7, 63, 64, 129, 4095, 4096, 262_143, 262_144, 269_999],
            "dups dropped, ascending"
        );
        assert_eq!(s.count(), 11);
        assert!(s.contains(269_999) && !s.contains(269_998));
    }

    #[test]
    fn backends_agree_on_membership() {
        let mut s = SoaHosts::with_capacity(512);
        let mut dense = DenseHosts::with_capacity(512);
        for i in 0..300u64 {
            let off = (i * 97) % 512;
            assert_eq!(s.insert(off), dense.insert(off));
        }
        for off in 0..512u64 {
            assert_eq!(s.contains(off), dense.contains(off));
        }
        assert_eq!(s.count(), dense.count());
        let (mut a, mut b) = (Vec::new(), Vec::new());
        s.for_each_member(|off| a.push(off));
        dense.for_each_member(|off| b.push(off));
        assert_eq!(a, b);
    }
}
