//! A fixed machine-speed probe, timed in the same process as every
//! repetition.
//!
//! On a shared host the CPU speed one process gets drifts by tens of
//! percent over minutes, which no number of repetitions inside one run
//! can average out. Each repetition therefore also times this probe — a
//! register-only integer loop, so that page placement and cache state
//! do not add noise of their own — just before and just after the
//! measured call, and the wall times are rescaled to the speed at which
//! the probe takes [`REFERENCE_S`]. The probe is benchmark code only, so
//! no change to the program under test can speed it up or slow it down.

use std::hint::black_box;
use std::time::Instant;

/// The probe's median wall time on the host the committed baselines
/// were measured on (2-core x86-64 VM). Rescaled times read as seconds
/// on that host at that speed.
pub const REFERENCE_S: f64 = 0.028;

/// Probes run on each side of a measured call.
const PER_SIDE: usize = 4;

const ROUNDS: u64 = 1 << 23;

/// Wall seconds of one probe.
fn once() -> f64 {
    let start = Instant::now();
    let mut x: u64 = black_box(0x9e37_79b9_7f4a_7c15);
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_mul(0x2545_f491_4f6c_dd1d);
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// Run `f` between two sets of probes; returns its result and every
/// probe's wall seconds.
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, Vec<f64>) {
    let mut probes: Vec<f64> = (0..PER_SIDE).map(|_| once()).collect();
    let out = f();
    probes.extend((0..PER_SIDE).map(|_| once()));
    (out, probes)
}
