//! The deterministic virtual-clock reactor: one priority queue of
//! timestamped per-host events with a total order.
//!
//! Determinism rests on the ordering key being a **pure function of the
//! event's identity**, never of heap internals or insertion order:
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
//! unique, the order is strict. A repeat run of the same schedule
//! therefore pops the same sequence, which is what lets the chaos
//! harness demand bit-equal fleet digests across repeat runs
//! (invariant I10).

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

/// The deterministic event queue.
#[derive(Debug)]
pub struct Reactor<T> {
    seed: u64,
    hosts: u32,
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// Per-host monotone event sequence numbers (the `seq` of the key).
    seqs: Vec<u64>,
    now: u64,
}

impl<T> Reactor<T> {
    /// A reactor for `hosts` hosts, with tie-break draws keyed by
    /// `seed`. `_shards` is inert: it is kept only so the `benchmark`
    /// package builds, and ROADMAP item 3 deletes it with its caller.
    pub fn new(hosts: u32, _shards: usize, seed: u64) -> Reactor<T> {
        let hosts = hosts.max(1);
        Reactor {
            seed,
            hosts,
            heap: BinaryHeap::new(),
            seqs: vec![0; hosts as usize],
            now: 0,
        }
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
        self.heap.push(Reverse(entry));
    }

    /// Pop the earliest event and advance the reactor clock to its
    /// stamp. `None` when the queue is empty.
    pub fn pop(&mut self) -> Option<Fired<T>> {
        let Reverse(entry) = self.heap.pop()?;
        self.now = self.now.max(entry.at);
        Some(Fired {
            at_cycles: entry.at,
            host: entry.host,
            payload: entry.payload,
        })
    }

    /// Events currently queued.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
    fn drain(hosts: u32, fill: impl Fn(&mut Reactor<u32>)) -> Vec<(u64, u32, u32)> {
        let mut r = Reactor::new(hosts, 1, 0x5eed);
        fill(&mut r);
        let mut out = Vec::new();
        while let Some(f) = r.pop() {
            out.push((f.at_cycles, f.host, f.payload));
        }
        out
    }

    #[test]
    fn pop_order_is_time_ordered_and_insertion_order_free() {
        let fill = |r: &mut Reactor<u32>| {
            // Many same-stamp collisions across hosts, plus distinct
            // stamps, scheduled in a scrambled order.
            for host in 0..16u32 {
                r.schedule(100, host, host);
                r.schedule(50 + u64::from(host % 3), host, 1000 + host);
                r.schedule(100, host, 2000 + host);
            }
        };
        let order = drain(16, fill);
        assert_eq!(order.len(), 48);
        let mut stamps: Vec<u64> = order.iter().map(|&(at, _, _)| at).collect();
        let mut sorted = stamps.clone();
        sorted.sort_unstable();
        assert_eq!(stamps, sorted, "pops are time-ordered");
        stamps.dedup();
        assert!(stamps.len() < order.len(), "stamp collisions occurred");
        // Scheduling the same per-host events with the hosts visited in
        // reverse pops the same sequence: the key, not insertion order,
        // decides.
        let reversed = drain(16, |r| {
            for host in (0..16u32).rev() {
                r.schedule(100, host, host);
                r.schedule(50 + u64::from(host % 3), host, 1000 + host);
                r.schedule(100, host, 2000 + host);
            }
        });
        assert_eq!(order, reversed);
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
