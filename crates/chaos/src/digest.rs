//! Stable outcome fingerprints for the differential fuzzer.
//!
//! Two runs are "bit-equal" when their digests match. The digest covers
//! everything semantically observable — CPU state, retired instructions,
//! virtual cycles, connection outputs, the timeline, and the metrics
//! counters — and deliberately excludes what is *allowed* to differ
//! between legs:
//!
//! - wall-clock values (`*wall*` gauges, span `ms` is virtual and kept);
//! - execution-tier internals (`svm.icache.*` counters differ by
//!   construction between the tier legs);
//! - shard-topology counters (`epidemic.events_cross_shard` legitimately
//!   depends on K; gauges are excluded wholesale because the parity
//!   contract of the community engine is defined over counters).

use epidemic::community::CommunityOutcome;
use sweeper::Sweeper;

/// FNV-1a 64-bit folding hasher: tiny, dependency-free, deterministic
/// across platforms.
#[derive(Debug, Clone, Copy)]
pub struct Hasher(u64);

impl Default for Hasher {
    fn default() -> Hasher {
        Hasher::new()
    }
}

impl Hasher {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Hasher {
        Hasher(0xcbf2_9ce4_8422_2325)
    }

    /// Fold raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Hasher {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold a u64 (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Hasher {
        self.bytes(&v.to_le_bytes())
    }

    /// Fold a string.
    pub fn str(&mut self, s: &str) -> &mut Hasher {
        self.bytes(s.as_bytes())
    }

    /// The accumulated digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Whether a metric name is excluded from digests (see module docs).
fn excluded(name: &str) -> bool {
    name.contains("icache") || name.contains("wall") || name == "epidemic.events_cross_shard"
}

/// Fold the digest-relevant counters of a registry.
fn fold_metrics(h: &mut Hasher, reg: &obs::MetricsRegistry) {
    for (name, value) in reg.counters() {
        if !excluded(name) {
            h.str(name).u64(value);
        }
    }
}

/// Digest everything semantically observable about a finished Sweeper
/// host: machine state, connection outputs, the event timeline, and the
/// full (filtered) metrics export.
pub fn digest_sweeper(s: &Sweeper) -> u64 {
    let mut h = Hasher::new();
    let m = &s.machine;
    h.u64(u64::from(m.cpu.pc));
    for r in m.cpu.regs {
        h.u64(u64::from(r));
    }
    h.u64(m.insns_retired);
    h.u64(m.clock.cycles());
    h.str(&format!("{:?}", m.status()));
    for c in m.net.conns() {
        h.bytes(&c.output);
    }
    for ev in s.timeline.events() {
        h.u64(ev.at_cycles);
        h.str(&format!("{:?}", ev.event));
    }
    h.u64(s.requests_served);
    h.u64(s.attacks_detected);
    h.u64(s.deployed_vsefs() as u64);
    fold_metrics(&mut h, &s.export_metrics());
    h.finish()
}

/// Digest the shard-count-invariant core of a community run: the
/// infection curve plus the parity-checked counters.
pub fn digest_community(o: &CommunityOutcome) -> u64 {
    let mut h = Hasher::new();
    h.u64(o.t0_tick.map_or(u64::MAX, |t| t));
    h.u64(o.infected);
    h.u64(o.ticks);
    for &c in &o.curve {
        h.u64(c);
    }
    fold_metrics(&mut h, &o.metrics());
    h.finish()
}

/// Digest only the *epidemic-core* observables of a community run: the
/// essence (t0, infected, curve, ticks) plus the `epidemic.*` counters.
///
/// This is the cross-model comparator for the PR-5 zero-fault anchor: a
/// distnet-enabled run legitimately carries `distnet.*` counters the
/// legacy-clock run lacks, but its epidemic core must be bit-identical
/// to the legacy run when the wire is perfect.
pub fn digest_community_epidemic(o: &CommunityOutcome) -> u64 {
    let mut h = Hasher::new();
    h.u64(o.t0_tick.map_or(u64::MAX, |t| t));
    h.u64(o.infected);
    h.u64(o.ticks);
    for &c in &o.curve {
        h.u64(c);
    }
    for (name, value) in o.metrics().counters() {
        if name.starts_with("epidemic.") && !excluded(name) {
            h.str(name).u64(value);
        }
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_is_order_sensitive_and_deterministic() {
        let a = Hasher::new().u64(1).u64(2).finish();
        let b = Hasher::new().u64(1).u64(2).finish();
        let c = Hasher::new().u64(2).u64(1).finish();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn exclusions_cover_the_leg_dependent_metrics() {
        assert!(excluded("svm.icache.hits"));
        assert!(excluded("epidemic.events_cross_shard"));
        assert!(excluded("epidemic.generate_wall_ms"));
        assert!(!excluded("svm.insns_retired"));
        assert!(!excluded("recovery.restarts"));
    }

    #[test]
    fn metric_digest_ignores_excluded_counters_only() {
        let mut a = obs::MetricsRegistry::new();
        a.inc("x.real", 3);
        a.inc("svm.icache.hits", 100);
        let mut b = obs::MetricsRegistry::new();
        b.inc("x.real", 3);
        b.inc("svm.icache.hits", 999);
        let mut ha = Hasher::new();
        fold_metrics(&mut ha, &a);
        let mut hb = Hasher::new();
        fold_metrics(&mut hb, &b);
        assert_eq!(ha.finish(), hb.finish());
        b.inc("x.real", 1);
        let mut hc = Hasher::new();
        fold_metrics(&mut hc, &b);
        assert_ne!(ha.finish(), hc.finish());
    }
}
