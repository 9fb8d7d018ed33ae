//! Virtual time: a deterministic cycle counter with a cost model.
//!
//! The paper reports wall-clock numbers from a 2.4 GHz Pentium 4. Our
//! substrate is an interpreter, so absolute times are meaningless; instead
//! every guest-visible cost (instructions, syscalls, checkpoint copies,
//! instrumentation) is charged in *virtual cycles* and converted to seconds
//! at 2.4 GHz. This makes throughput/overhead experiments (Figures 4 and 5)
//! deterministic and lets instrumentation overheads be modelled with the
//! paper's reported multipliers (20x-1000x).

/// Virtual clock rate, matching the paper's 2.4 GHz Pentium 4.
pub const CYCLES_PER_SEC: u64 = 2_400_000_000;

/// Cost model constants (virtual cycles).
pub mod cost {
    /// Base cost of one interpreted instruction.
    pub const INSN: u64 = 1;
    /// Extra cost of a memory access instruction.
    pub const MEM: u64 = 2;
    /// Fixed syscall entry cost.
    pub const SYSCALL: u64 = 400;
    /// Per-byte cost of `read`/`write` syscalls.
    pub const IO_BYTE: u64 = 4;
    /// Cost of an `alloc`/`free` runtime call (list walk excluded).
    pub const ALLOC: u64 = 120;
    /// Cost of copying one page on checkpoint COW or snapshot.
    pub const PAGE_COPY: u64 = 3000;
    /// Fixed cost of taking a checkpoint — the `fork()`-like page-table
    /// copy of a production-sized server. Calibrated to the paper's
    /// Figure 4: ~5% throughput loss at a 30 ms interval and ~0.9% at
    /// 200 ms implies roughly 1.5 ms of work per checkpoint.
    pub const CHECKPOINT_BASE: u64 = 2_400_000;
    /// Fixed cost of taking an *incremental* checkpoint: stamping the
    /// delta record and folding the pre-copy drain's pending pages —
    /// no page-table walk, no full `fork()`-like copy. Calibrated so a
    /// 200 ms cadence costs ~0.05% of the service path before page
    /// copies, an order of magnitude under [`CHECKPOINT_BASE`].
    pub const CHECKPOINT_DELTA: u64 = 240_000;
    /// Fixed cost of a rollback (context-switch-like reinstatement).
    pub const ROLLBACK: u64 = 30_000;
    /// Per-connection network round-trip latency charged by the proxy.
    pub const NET_RTT: u64 = 240_000; // 100 microseconds.
}

/// A monotone virtual cycle counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Clock {
    cycles: u64,
}

impl Clock {
    /// A clock at time zero.
    pub fn new() -> Clock {
        Clock { cycles: 0 }
    }

    /// Advance by `c` cycles.
    pub fn tick(&mut self, c: u64) {
        self.cycles = self.cycles.saturating_add(c);
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Elapsed virtual time in seconds.
    pub fn seconds(&self) -> f64 {
        self.cycles as f64 / CYCLES_PER_SEC as f64
    }

    /// Elapsed virtual time in milliseconds.
    pub fn millis(&self) -> f64 {
        self.seconds() * 1e3
    }

    /// Elapsed virtual time in whole microseconds (guest `time` syscall).
    pub fn micros(&self) -> u64 {
        self.cycles / (CYCLES_PER_SEC / 1_000_000)
    }
}

/// Convert cycles to seconds at the model clock rate.
pub fn cycles_to_secs(c: u64) -> f64 {
    c as f64 / CYCLES_PER_SEC as f64
}

/// Convert seconds to cycles at the model clock rate.
pub fn secs_to_cycles(s: f64) -> u64 {
    (s * CYCLES_PER_SEC as f64) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticking_accumulates() {
        let mut c = Clock::new();
        c.tick(100);
        c.tick(CYCLES_PER_SEC);
        assert_eq!(c.cycles(), CYCLES_PER_SEC + 100);
        assert!((c.seconds() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn saturates_instead_of_wrapping() {
        let mut c = Clock::new();
        c.tick(u64::MAX);
        c.tick(10);
        assert_eq!(c.cycles(), u64::MAX);
    }

    #[test]
    fn conversions_roundtrip() {
        let cyc = secs_to_cycles(0.25);
        assert!((cycles_to_secs(cyc) - 0.25).abs() < 1e-9);
        let mut c = Clock::new();
        c.tick(CYCLES_PER_SEC / 1000);
        assert_eq!(c.micros(), 1000);
        assert!((c.millis() - 1.0).abs() < 1e-9);
    }
}
