//! Execution hooks — the attachment points for dynamic instrumentation.
//!
//! The machine calls into a [`Hook`] at well-defined points *before* state
//! mutation, so tools observe the pre-state (values about to be
//! overwritten, the stack before a `ret` pops it, and so on). The `dbi`
//! crate builds PIN-style tool multiplexing, mid-execution attach, and
//! overhead accounting on top of this trait; keeping the trait here lets
//! `svm` stay dependency-free.
//!
//! # Interest
//!
//! A hook says up front which events it wants ([`Hook::interest`]), and
//! the machine skips every call the hook would have ignored. Events fall
//! into two groups:
//!
//! - *instruction events*: [`Hook::on_insn`] plus the
//!   [`Hook::on_mem_read`]/[`Hook::on_mem_write`] of that instruction,
//!   wanted for no pc, every pc, or a sorted set of pcs;
//! - *other events*: call/ret, alloc/free, syscall and input, wanted or
//!   not as one group.
//!
//! [`Machine::run`](crate::machine::Machine::run) and
//! [`Machine::step_hooked`](crate::machine::Machine::step_hooked) each
//! ask once, on entry, and never keep the answer across calls, so an
//! attach between calls (or on a fresh clone) is seen by the very next
//! instruction. An interest is a promise that the hook ignores every
//! event outside it; the machine may still deliver more (for the rest of
//! a run during which the hook's interest narrowed), never less. A hook
//! must therefore not widen its interest while a run is under way.

use crate::alloc::FreeKind;
use crate::isa::{Op, Syscall};
use crate::machine::Machine;

/// The events a hook wants delivered during one run or step (see the
/// [module docs](self)). Built by adding to an empty interest, so the
/// union of several hooks' interests is just each one adding in turn.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Interest {
    /// Instruction events at every pc (`pcs` is then empty).
    all: bool,
    /// Sorted, deduplicated pcs whose instruction events are wanted.
    pcs: Vec<u32>,
    /// Call/ret, alloc/free, syscall and input events.
    other: bool,
}

/// The instruction events an [`Interest`] asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Insns<'a> {
    /// None at all.
    None,
    /// Every instruction's.
    All,
    /// Those of the instructions at these pcs (sorted, deduplicated,
    /// never empty).
    Pcs(&'a [u32]),
}

impl Interest {
    /// Forget everything added so far, keeping the buffer.
    pub fn clear(&mut self) {
        self.all = false;
        self.pcs.clear();
        self.other = false;
    }

    /// Ask for every event.
    pub fn add_everything(&mut self) {
        self.add_all_insns();
        self.add_other();
    }

    /// Ask for the instruction events of every pc.
    pub fn add_all_insns(&mut self) {
        self.all = true;
        self.pcs.clear();
    }

    /// Ask for the instruction events of `pcs` (in any order). Merging
    /// into the existing buffer allocates only when it must grow.
    pub fn add_insn_pcs(&mut self, pcs: &[u32]) {
        if self.all || pcs.is_empty() {
            return;
        }
        self.pcs.extend_from_slice(pcs);
        if !self.pcs.is_sorted_by(|a, b| a < b) {
            self.pcs.sort_unstable();
            self.pcs.dedup();
        }
    }

    /// Ask for the other events: call/ret, alloc/free, syscall, input.
    pub fn add_other(&mut self) {
        self.other = true;
    }

    /// The instruction events asked for.
    pub fn insns(&self) -> Insns<'_> {
        if self.all {
            Insns::All
        } else if self.pcs.is_empty() {
            Insns::None
        } else {
            Insns::Pcs(&self.pcs)
        }
    }

    /// Whether the other events are asked for.
    pub fn other(&self) -> bool {
        self.other
    }

    /// Whether the instruction events at `pc` are asked for.
    #[inline]
    pub fn watches(&self, pc: u32) -> bool {
        self.all || self.pcs.binary_search(&pc).is_ok()
    }

    /// Whether nothing at all is asked for.
    pub fn is_empty(&self) -> bool {
        !self.all && self.pcs.is_empty() && !self.other
    }
}

/// Receiver for execution events.
///
/// All event methods default to no-ops so tools implement only what they
/// need, and [`Hook::interest`] defaults to everything, so such a hook
/// sees every event. The `&Machine` argument exposes the full pre-event
/// architectural state.
pub trait Hook {
    /// Add the events this hook wants to `out`. The machine clears `out`
    /// and asks once on entry to each
    /// [`Machine::run`](crate::machine::Machine::run) and
    /// [`Machine::step_hooked`](crate::machine::Machine::step_hooked);
    /// see the [module docs](self) for the contract.
    fn interest(&self, out: &mut Interest) {
        out.add_everything();
    }

    /// Called before each instruction executes. `op` is already decoded.
    fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {}

    /// Called before a data read of `size` bytes at `addr` completes;
    /// `val` is the value being read (zero-extended).
    fn on_mem_read(&mut self, _m: &Machine, _pc: u32, _addr: u32, _size: u8, _val: u32) {}

    /// Called before a data write of `size` bytes at `addr`; `val` is the
    /// value about to be written (the old value is still readable).
    fn on_mem_write(&mut self, _m: &Machine, _pc: u32, _addr: u32, _size: u8, _val: u32) {}

    /// Called when a `call`/`callr` transfers control. `ret_addr` is the
    /// return address that was pushed; `sp` is the stack pointer *after*
    /// the push (i.e. the slot holding the return address).
    fn on_call(&mut self, _m: &Machine, _pc: u32, _target: u32, _ret_addr: u32, _sp: u32) {}

    /// Called when a `ret` is about to pop `ret_target` from slot `sp`.
    fn on_ret(&mut self, _m: &Machine, _pc: u32, _ret_target: u32, _sp: u32) {}

    /// Called after a successful guest `alloc` of `size` bytes at `ptr`.
    fn on_alloc(&mut self, _m: &Machine, _pc: u32, _size: u32, _ptr: u32) {}

    /// Called after a guest `free` of `ptr` (with its double-free verdict).
    fn on_free(&mut self, _m: &Machine, _pc: u32, _ptr: u32, _kind: FreeKind) {}

    /// Called after a syscall completes; `ret` is the value placed in r0.
    fn on_syscall(&mut self, _m: &Machine, _pc: u32, _sc: Syscall, _args: [u32; 4], _ret: u32) {}

    /// Called after a `read` syscall delivered input bytes: `stream_off`
    /// is the offset of `data[0]` within connection `conn`'s input stream,
    /// and `addr` is the guest buffer it was copied to. This is the taint
    /// source event.
    fn on_input(&mut self, _m: &Machine, _conn: u32, _stream_off: u32, _addr: u32, _data: &[u8]) {}
}

/// A hook that ignores everything (plain, uninstrumented execution).
#[derive(Debug, Default, Clone, Copy)]
pub struct NopHook;

impl Hook for NopHook {
    fn interest(&self, _out: &mut Interest) {}
}

/// Chain two hooks, delivering every event to both (first, then second).
/// Its interest is the union of theirs.
pub struct Pair<'a, A: Hook + ?Sized, B: Hook + ?Sized>(pub &'a mut A, pub &'a mut B);

impl<A: Hook + ?Sized, B: Hook + ?Sized> Hook for Pair<'_, A, B> {
    fn interest(&self, out: &mut Interest) {
        self.0.interest(out);
        self.1.interest(out);
    }
    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        self.0.on_insn(m, pc, op);
        self.1.on_insn(m, pc, op);
    }
    fn on_mem_read(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_read(m, pc, addr, size, val);
        self.1.on_mem_read(m, pc, addr, size, val);
    }
    fn on_mem_write(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.0.on_mem_write(m, pc, addr, size, val);
        self.1.on_mem_write(m, pc, addr, size, val);
    }
    fn on_call(&mut self, m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.0.on_call(m, pc, target, ret_addr, sp);
        self.1.on_call(m, pc, target, ret_addr, sp);
    }
    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.0.on_ret(m, pc, ret_target, sp);
        self.1.on_ret(m, pc, ret_target, sp);
    }
    fn on_alloc(&mut self, m: &Machine, pc: u32, size: u32, ptr: u32) {
        self.0.on_alloc(m, pc, size, ptr);
        self.1.on_alloc(m, pc, size, ptr);
    }
    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        self.0.on_free(m, pc, ptr, kind);
        self.1.on_free(m, pc, ptr, kind);
    }
    fn on_syscall(&mut self, m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.0.on_syscall(m, pc, sc, args, ret);
        self.1.on_syscall(m, pc, sc, args, ret);
    }
    fn on_input(&mut self, m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        self.0.on_input(m, conn, stream_off, addr, data);
        self.1.on_input(m, conn, stream_off, addr, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interest_unions_pcs_sorted_and_all_absorbs_them() {
        let mut i = Interest::default();
        assert!(i.is_empty());
        assert_eq!(i.insns(), Insns::None);
        i.add_insn_pcs(&[]);
        assert!(i.is_empty(), "an empty pc set adds nothing");
        i.add_insn_pcs(&[40, 8]);
        i.add_insn_pcs(&[16, 8]);
        assert_eq!(i.insns(), Insns::Pcs(&[8, 16, 40]));
        assert!(i.watches(16) && !i.watches(12));
        assert!(!i.other() && !i.is_empty());
        i.add_other();
        i.add_all_insns();
        i.add_insn_pcs(&[4]);
        assert_eq!(i.insns(), Insns::All);
        assert!(i.watches(12));
        assert!(i.other());
        i.clear();
        assert!(i.is_empty());
    }

    #[test]
    fn pair_takes_the_union_and_nop_asks_for_nothing() {
        struct Pcs(&'static [u32]);
        impl Hook for Pcs {
            fn interest(&self, out: &mut Interest) {
                out.add_insn_pcs(self.0);
            }
        }
        let mut out = Interest::default();
        NopHook.interest(&mut out);
        assert!(out.is_empty());
        let (mut a, mut b) = (Pcs(&[12, 4]), NopHook);
        Pair(&mut a, &mut b).interest(&mut out);
        assert_eq!(out.insns(), Insns::Pcs(&[4, 12]));
        assert!(!out.other());
        struct Everything;
        impl Hook for Everything {}
        let mut c = Everything;
        out.clear();
        Pair(&mut a, &mut c).interest(&mut out);
        assert_eq!(out.insns(), Insns::All);
        assert!(out.other());
    }
}
