//! The deterministic virtual-clock reactor: a sharded priority queue of
//! timestamped per-host events with a total order that is independent
//! of the shard count.
//!
//! Each shard owns a contiguous range of hosts and a `BinaryHeap` of
//! that range's future events; popping takes the global minimum across
//! shard heads. Determinism rests on the ordering key being a **pure
//! function of the event's identity**, never of heap internals or
//! insertion order:
//!
//! ```text
//! (at_cycles, tie, host, seq)
//! ```
//!
//! where `seq` is the host's monotone event counter and `tie` is a
//! counter-PRNG draw keyed by `(host, seq)` ([`epidemic::rng::draw`]).
//! Events stamped at the same virtual cycle are therefore interleaved
//! in a seeded pseudo-random order — no host systematically goes first
//! at clock collisions, which are the *common* case with thousands of
//! hosts on one virtual clock — and because `(host, seq)` pairs are
//! unique, the order is strict. Re-partitioning hosts across any
//! number of shards permutes heap internals but never the pop
//! sequence, which is what lets the chaos harness demand bit-equal
//! fleet digests at 1 vs N shards (invariant I10).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use epidemic::rng::draw;

/// Domain tag for same-cycle tie-break draws (`"rtie"`).
pub const DOMAIN_TIE: u64 = 0x7274_6965;

/// A scheduled event handed back by [`Reactor::pop`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fired<T> {
    /// Virtual-clock stamp the event fired at.
    pub at_cycles: u64,
    /// The host the event belongs to.
    pub host: u32,
    /// The scheduled payload.
    pub payload: T,
}

/// Heap entry: ordered by `(at, tie, host, seq)` only — the payload
/// never participates in the order.
#[derive(Debug)]
struct Entry<T> {
    at: u64,
    tie: u64,
    host: u32,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (u64, u64, u32, u64) {
        (self.at, self.tie, self.host, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<T> Eq for Entry<T> {}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// The sharded deterministic event queue.
#[derive(Debug)]
pub struct Reactor<T> {
    seed: u64,
    hosts: u32,
    shards: Vec<BinaryHeap<Reverse<Entry<T>>>>,
    /// Per-host monotone event sequence numbers (the `seq` of the key).
    seqs: Vec<u64>,
    len: usize,
    now: u64,
}

impl<T> Reactor<T> {
    /// A reactor for `hosts` hosts partitioned over `shards` heaps
    /// (clamped to `1..=hosts`), with tie-break draws keyed by `seed`.
    pub fn new(hosts: u32, shards: usize, seed: u64) -> Reactor<T> {
        let hosts = hosts.max(1);
        let shards = shards.clamp(1, hosts as usize);
        Reactor {
            seed,
            hosts,
            shards: (0..shards).map(|_| BinaryHeap::new()).collect(),
            seqs: vec![0; hosts as usize],
            len: 0,
            now: 0,
        }
    }

    /// The contiguous-range shard owning `host`.
    fn shard_of(&self, host: u32) -> usize {
        (host as usize * self.shards.len()) / self.hosts as usize
    }

    /// Schedule `payload` for `host` at virtual cycle `at_cycles`
    /// (clamped forward to the reactor's current time, so the queue
    /// never runs backwards).
    ///
    /// The event's position among same-cycle events is decided *here*,
    /// from `(host, seq)` — not from insertion order — so any schedule
    /// call sequence that assigns the same per-host event numbers
    /// produces the same pop order.
    pub fn schedule(&mut self, at_cycles: u64, host: u32, payload: T) {
        assert!(host < self.hosts, "host {host} out of range");
        let seq = self.seqs[host as usize];
        self.seqs[host as usize] += 1;
        let tie = draw(
            self.seed,
            DOMAIN_TIE,
            (u64::from(host) << 32) | (seq & 0xffff_ffff),
        );
        let entry = Entry {
            at: at_cycles.max(self.now),
            tie,
            host,
            seq,
            payload,
        };
        let shard = self.shard_of(host);
        self.shards[shard].push(Reverse(entry));
        self.len += 1;
    }

    /// Pop the globally earliest event and advance the reactor clock to
    /// its stamp. `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Fired<T>> {
        let best = self
            .shards
            .iter()
            .enumerate()
            .filter_map(|(i, h)| h.peek().map(|Reverse(e)| (e.key(), i)))
            .min()?
            .1;
        let Reverse(entry) = self.shards[best].pop().expect("peeked");
        self.len -= 1;
        self.now = self.now.max(entry.at);
        Some(Fired {
            at_cycles: entry.at,
            host: entry.host,
            payload: entry.payload,
        })
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The reactor clock: the stamp of the latest popped event.
    pub fn now(&self) -> u64 {
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drain a reactor pre-loaded by `fill`, returning the pop order.
    fn drain(hosts: u32, shards: usize, fill: impl Fn(&mut Reactor<u32>)) -> Vec<(u64, u32, u32)> {
        let mut r = Reactor::new(hosts, shards, 0x5eed);
        fill(&mut r);
        let mut out = Vec::new();
        while let Some(f) = r.pop() {
            out.push((f.at_cycles, f.host, f.payload));
        }
        out
    }

    #[test]
    fn pop_order_is_time_ordered_and_shard_invariant() {
        let fill = |r: &mut Reactor<u32>| {
            // Many same-stamp collisions across hosts, plus distinct
            // stamps, scheduled in a scrambled order.
            for host in 0..16u32 {
                r.schedule(100, host, host);
                r.schedule(50 + u64::from(host % 3), host, 1000 + host);
                r.schedule(100, host, 2000 + host);
            }
        };
        let serial = drain(16, 1, fill);
        assert_eq!(serial.len(), 48);
        let mut stamps: Vec<u64> = serial.iter().map(|&(at, _, _)| at).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "pops are time-ordered");
        stamps.dedup();
        assert!(stamps.len() < serial.len(), "stamp collisions occurred");
        for shards in [2, 3, 4, 7, 16] {
            assert_eq!(serial, drain(16, shards, fill), "shards={shards}");
        }
    }

    #[test]
    fn same_cycle_ties_are_seeded_not_host_ordered() {
        // At a full clock collision the interleave must come from the
        // tie draw: host 0 must not always pop first.
        let mut r = Reactor::new(8, 1, 7);
        for host in 0..8u32 {
            r.schedule(10, host, host);
        }
        let order: Vec<u32> = std::iter::from_fn(|| r.pop().map(|f| f.host)).collect();
        assert_ne!(
            order,
            (0..8).collect::<Vec<_>>(),
            "tie-break is not host index"
        );
        // A different seed draws a different interleave.
        let mut r2 = Reactor::new(8, 1, 8);
        for host in 0..8u32 {
            r2.schedule(10, host, host);
        }
        let order2: Vec<u32> = std::iter::from_fn(|| r2.pop().map(|f| f.host)).collect();
        assert_ne!(order, order2, "tie order is seeded");
    }

    #[test]
    fn clock_is_monotone_and_late_schedules_clamp_forward() {
        let mut r = Reactor::new(2, 2, 1);
        r.schedule(100, 0, 0);
        assert_eq!(r.pop().expect("pop").at_cycles, 100);
        assert_eq!(r.now(), 100);
        // Scheduling "in the past" fires at the current clock instead.
        r.schedule(10, 1, 1);
        let f = r.pop().expect("pop");
        assert_eq!((f.at_cycles, f.host), (100, 1));
        assert!(r.is_empty());
        assert_eq!(r.len(), 0);
    }
}
