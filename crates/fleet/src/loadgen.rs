//! Open-loop Poisson load generation for the fleet reactor.
//!
//! Each host receives an independent Poisson stream of benign client
//! requests: inter-arrival gaps are exponentially distributed with the
//! configured mean rate, drawn from the counter PRNG keyed by
//! `(host, arrival-index)` so the whole arrival schedule is a pure
//! function of the fleet seed, independent of processing order.
//! Open-loop matters for tail latency: clients do not wait for
//! responses, so a host stalled in attack analysis keeps accumulating
//! queue depth and the stall surfaces in p99/p999 instead of silently
//! throttling offered load.

use epidemic::rng::draw_unit;

/// Domain tag for arrival inter-arrival gaps (`"lgwt"`).
pub const DOMAIN_LOADGEN_WAIT: u64 = 0x6c67_7774;

/// The deterministic open-loop arrival process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadGen {
    /// Fleet RNG seed (domain-separated from other consumers).
    pub seed: u64,
    /// Mean per-host arrival rate, requests per virtual second.
    pub rate_per_sec: f64,
}

impl LoadGen {
    /// The exponentially distributed gap (virtual seconds) between
    /// arrival `k-1` and arrival `k` on `host` (`k = 0` is the gap from
    /// time zero to the first arrival).
    pub fn gap_secs(&self, host: u32, k: u64) -> f64 {
        let counter = (u64::from(host) << 32) | (k & 0xffff_ffff);
        let u = draw_unit(self.seed, DOMAIN_LOADGEN_WAIT, counter);
        -(1.0f64 - u).ln() / self.rate_per_sec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaps_are_pure_and_distinct_per_host_and_index() {
        let g = LoadGen {
            seed: 9,
            rate_per_sec: 2.0,
        };
        assert_eq!(g.gap_secs(3, 5), g.gap_secs(3, 5));
        assert_ne!(g.gap_secs(3, 5), g.gap_secs(3, 6));
        assert_ne!(g.gap_secs(3, 5), g.gap_secs(4, 5));
    }

    #[test]
    fn gaps_have_the_configured_mean() {
        let g = LoadGen {
            seed: 1,
            rate_per_sec: 4.0,
        };
        let n = 8000u64;
        let total: f64 = (0..n).map(|k| g.gap_secs(0, k)).sum();
        let mean = total / n as f64;
        assert!((mean - 0.25).abs() < 0.025, "mean {mean}");
    }
}
