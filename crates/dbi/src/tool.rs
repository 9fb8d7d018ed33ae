//! The instrumentation-tool abstraction (PIN "pintool" analogue).
//!
//! A [`Tool`] receives the same events as an [`svm::Hook`] plus metadata
//! the [`Instrumenter`](crate::instr::Instrumenter) uses for selective
//! instrumentation and overhead accounting:
//!
//! - [`Tool::watches`] restricts instruction events to a pc set. This is
//!   the mechanism behind the paper's VSEF cost argument: a full analysis
//!   tool watches *every* pc (20x-1000x overhead), while a VSEF watches a
//!   handful (negligible overhead).
//! - [`Tool::insn_cost`] is the virtual-cycle price charged for each
//!   delivered instruction event, modelling the instrumentation slowdown.

use std::any::Any;

use svm::alloc::FreeKind;
use svm::isa::{Op, Syscall};
use svm::Machine;

/// Which program counters a tool wants instruction events for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Watch {
    /// Deliver every instruction (full-program analysis tools).
    All,
    /// Deliver only these pcs (VSEFs and other pinpoint filters). Sorted
    /// and deduplicated: build it with [`Watch::pcs`].
    Pcs(Box<[u32]>),
    /// Deliver no instruction events (tools driven by other events only).
    None,
}

impl Watch {
    /// Watch exactly `pcs`, in any order and with repeats.
    pub fn pcs(pcs: impl IntoIterator<Item = u32>) -> Watch {
        let mut v: Vec<u32> = pcs.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        Watch::Pcs(v.into_boxed_slice())
    }

    /// Whether `pc` is covered.
    pub fn covers(&self, pc: u32) -> bool {
        match self {
            Watch::All => true,
            Watch::Pcs(pcs) => pcs.binary_search(&pc).is_ok(),
            Watch::None => false,
        }
    }

    /// Number of watched sites (`None` for `All`).
    pub fn site_count(&self) -> Option<usize> {
        match self {
            Watch::All => None,
            Watch::Pcs(pcs) => Some(pcs.len()),
            Watch::None => Some(0),
        }
    }
}

/// A dynamic-instrumentation tool.
///
/// All event methods default to no-ops; implement only what the tool
/// needs. Event methods mirror [`svm::Hook`] exactly.
#[allow(unused_variables)]
pub trait Tool: Any {
    /// Short human-readable tool name (appears in reports).
    fn name(&self) -> &str;

    /// Which pcs this tool's instruction instrumentation covers.
    fn watches(&self) -> Watch {
        Watch::All
    }

    /// Virtual cycles charged per delivered instruction event.
    ///
    /// Defaults reflect the paper's overhead bands: a heavyweight tool
    /// overrides this with a large value (taint ~40, slicing ~500), a
    /// VSEF keeps a small one.
    fn insn_cost(&self) -> u64 {
        10
    }

    /// Called before each watched instruction executes.
    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {}

    /// Called before a data read completes.
    fn on_mem_read(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {}

    /// Called before a data write is performed.
    fn on_mem_write(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {}

    /// Called on `call`/`callr`.
    fn on_call(&mut self, m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {}

    /// Called on `ret`.
    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {}

    /// Called after a successful guest allocation.
    fn on_alloc(&mut self, m: &Machine, pc: u32, size: u32, ptr: u32) {}

    /// Called after a guest free.
    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {}

    /// Called after a syscall completes.
    fn on_syscall(&mut self, m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {}

    /// Called after input bytes were delivered to the guest.
    fn on_input(&mut self, m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {}

    /// Upcast for retrieval from an [`Instrumenter`](crate::instr::Instrumenter).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn watch_covers() {
        assert!(Watch::All.covers(5));
        assert!(!Watch::None.covers(5));
        let w = Watch::pcs([16, 8, 16]);
        assert_eq!(w, Watch::Pcs(Box::new([8, 16])), "sorted, deduplicated");
        assert!(w.covers(8) && w.covers(16));
        assert!(!w.covers(9) && !w.covers(0) && !w.covers(20));
        assert_eq!(w.site_count(), Some(2));
        assert_eq!(Watch::All.site_count(), None);
    }
}
