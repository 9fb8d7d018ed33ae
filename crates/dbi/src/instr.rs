//! The instrumenter: dynamic attach/detach and event multiplexing.
//!
//! This is the PIN analogue: tools can be attached to an *already running*
//! process (the property Sweeper exploits to defer heavyweight analysis
//! until after an attack), receive filtered events, and are charged
//! virtual-cycle overhead per delivered event so that instrumentation cost
//! is visible in the experiments.

use svm::alloc::FreeKind;
use svm::isa::{Op, Syscall};
use svm::{Hook, Interest, Machine};

use crate::tool::{Tool, Watch};

/// Identifier of an attached tool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ToolId(usize);

struct Slot {
    tool: Box<dyn Tool>,
    watch: Watch,
    insn_cost: u64,
    events: u64,
    /// Auto-detach the tool once `events` reaches this limit (chaos
    /// fault injection: a mid-replay DBI detach). `None` = never.
    detach_after: Option<u64>,
}

/// Multiplexes events from a [`Machine`] to attached [`Tool`]s.
///
/// Implements [`svm::Hook`], so it is passed to `Machine::run`. Overhead
/// cycles accumulate internally, one share per tool; call
/// [`Instrumenter::charge`] to transfer them to a machine's virtual clock
/// (done by the drivers that model instrumented execution time), or
/// [`Instrumenter::take_overhead_of`] to account one tool's share alone.
#[derive(Default)]
pub struct Instrumenter {
    slots: Vec<Option<Slot>>,
    /// Uncharged overhead cycles per slot. A share outlives its tool's
    /// detach (armed or explicit) until it is taken or charged.
    shares: Vec<u64>,
    /// Attached tools with an armed `detach_after` limit; the
    /// per-instruction detach sweep runs only while this is nonzero, and
    /// meanwhile the instrumenter asks for every instruction.
    armed: usize,
    /// Lifetime total of overhead cycles charged onto a machine's clock.
    charged_total: u64,
    /// Lifetime total of overhead cycles taken (accounted out-of-band).
    taken_total: u64,
    /// Tools forcibly detached by a `detach_after` event limit.
    auto_detached_total: u64,
}

impl Instrumenter {
    /// An instrumenter with no tools.
    pub fn new() -> Instrumenter {
        Instrumenter::default()
    }

    /// Attach a tool (mid-execution attach is the point of this API).
    pub fn attach(&mut self, tool: Box<dyn Tool>) -> ToolId {
        let watch = tool.watches();
        let insn_cost = tool.insn_cost();
        let slot = Slot {
            tool,
            watch,
            insn_cost,
            events: 0,
            detach_after: None,
        };
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.is_none() {
                *s = Some(slot);
                return ToolId(i);
            }
        }
        self.slots.push(Some(slot));
        self.shares.push(0);
        ToolId(self.slots.len() - 1)
    }

    /// Detach a tool, returning it (e.g. to read out its findings).
    pub fn detach(&mut self, id: ToolId) -> Option<Box<dyn Tool>> {
        let slot = self.slots.get_mut(id.0)?.take()?;
        if slot.detach_after.is_some() {
            self.armed -= 1;
        }
        Some(slot.tool)
    }

    /// Arm a mid-execution detach: once the tool has received `events`
    /// instruction events, it is silently detached (its findings are
    /// discarded), exactly as if the DBI runtime died mid-replay.
    ///
    /// This is the chaos harness' `DbiDetach` fault family: Sweeper's
    /// analysis pipeline must tolerate a tool vanishing between attach
    /// and read-out by degrading its report, never by panicking. A limit
    /// of 0 detaches before the next event is delivered.
    pub fn set_detach_after(&mut self, id: ToolId, events: u64) {
        if let Some(Some(s)) = self.slots.get_mut(id.0) {
            if s.detach_after.replace(events).is_none() {
                self.armed += 1;
            }
        }
    }

    /// How many tools have been forcibly removed by a
    /// [`Instrumenter::set_detach_after`] limit so far.
    pub fn auto_detached_total(&self) -> u64 {
        self.auto_detached_total
    }

    /// Re-read a tool's watch set and cost (after reconfiguring it).
    pub fn refresh(&mut self, id: ToolId) {
        if let Some(Some(s)) = self.slots.get_mut(id.0) {
            s.watch = s.tool.watches();
            s.insn_cost = s.tool.insn_cost();
        }
    }

    /// Borrow an attached tool by id and concrete type.
    pub fn get<T: Tool>(&self, id: ToolId) -> Option<&T> {
        self.slots
            .get(id.0)?
            .as_ref()?
            .tool
            .as_any()
            .downcast_ref::<T>()
    }

    /// Mutably borrow an attached tool by id and concrete type.
    pub fn get_mut<T: Tool>(&mut self, id: ToolId) -> Option<&mut T> {
        self.slots
            .get_mut(id.0)?
            .as_mut()?
            .tool
            .as_any_mut()
            .downcast_mut::<T>()
    }

    /// Number of currently attached tools.
    pub fn tool_count(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// Events delivered to a tool so far.
    pub fn events_of(&self, id: ToolId) -> u64 {
        self.slots
            .get(id.0)
            .and_then(|s| s.as_ref())
            .map(|s| s.events)
            .unwrap_or(0)
    }

    /// Accumulated (uncharged) instrumentation overhead in cycles: the
    /// sum of every tool's share.
    pub fn pending_overhead(&self) -> u64 {
        self.shares.iter().sum()
    }

    /// Transfer accumulated overhead onto `m`'s virtual clock.
    pub fn charge(&mut self, m: &mut Machine) {
        let overhead: u64 = self.shares.iter_mut().map(std::mem::take).sum();
        m.clock.tick(overhead);
        self.charged_total += overhead;
    }

    /// Take one tool's share of the accumulated overhead without charging
    /// it (sandboxed replays whose time is accounted separately): what
    /// its delivered events cost, also after an armed limit detached it.
    /// Several tools sharing one replay are each accounted this way. A
    /// reused [`ToolId`] continues its slot's share.
    pub fn take_overhead_of(&mut self, id: ToolId) -> u64 {
        let taken = self.shares.get_mut(id.0).map_or(0, std::mem::take);
        self.taken_total += taken;
        taken
    }

    /// Export instrumentation counters into an [`obs::MetricsRegistry`]
    /// under the `dbi.` prefix: per-tool delivered-event counts
    /// (`dbi.tool.<name>.events`) plus the pending / charged / taken
    /// overhead totals in cycles. Absolute mirrors — safe to re-export.
    pub fn export_metrics(&self, reg: &mut obs::MetricsRegistry) {
        reg.set_counter("dbi.overhead.pending_cycles", self.pending_overhead());
        reg.set_counter("dbi.overhead.charged_cycles", self.charged_total);
        reg.set_counter("dbi.overhead.taken_cycles", self.taken_total);
        reg.set_counter("dbi.auto_detached_total", self.auto_detached_total);
        reg.gauge("dbi.tools_attached", self.tool_count() as f64);
        for s in self.slots.iter().flatten() {
            reg.set_counter(&format!("dbi.tool.{}.events", s.tool.name()), s.events);
        }
    }

    fn each<F: FnMut(&mut Slot)>(&mut self, mut f: F) {
        for s in self.slots.iter_mut().flatten() {
            f(s);
        }
    }
}

impl Hook for Instrumenter {
    /// The union of the attached tools' [`Watch`]es, and the other
    /// events whenever any tool is attached (the VSEF runtime's shadow
    /// stack and taint sources need them even when it watches no pc).
    /// While a `detach_after` limit is armed it asks for every
    /// instruction, so the detach sweep in `on_insn` fires at exactly
    /// the instruction it always did. With no tool attached it asks for
    /// nothing and the machine runs unhooked. The machine asks on entry
    /// to every run and step, so an attach between them is seen by the
    /// very next instruction; delivery still filters per tool, so the
    /// events a run delivers after an armed detach narrowed the
    /// interest reach no tool that did not ask for them.
    fn interest(&self, out: &mut Interest) {
        let mut attached = false;
        for s in self.slots.iter().flatten() {
            attached = true;
            match &s.watch {
                Watch::All => out.add_all_insns(),
                Watch::Pcs(pcs) => out.add_insn_pcs(pcs),
                Watch::None => {}
            }
        }
        if attached {
            out.add_other();
        }
        if self.armed > 0 {
            out.add_all_insns();
        }
    }

    fn on_insn(&mut self, m: &Machine, pc: u32, op: &Op) {
        // Sweep armed detach limits *before* delivering: a tool whose
        // event budget is spent vanishes exactly as if the DBI runtime
        // detached it mid-flight (findings discarded, share kept).
        if self.armed > 0 {
            for s in self.slots.iter_mut() {
                if s.as_ref()
                    .is_some_and(|slot| slot.detach_after.is_some_and(|n| slot.events >= n))
                {
                    *s = None;
                    self.armed -= 1;
                    self.auto_detached_total += 1;
                }
            }
        }
        for (s, share) in self.slots.iter_mut().zip(&mut self.shares) {
            if let Some(s) = s {
                if s.watch.covers(pc) {
                    s.tool.on_insn(m, pc, op);
                    s.events += 1;
                    *share += s.insn_cost;
                }
            }
        }
    }

    fn on_mem_read(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.each(|s| {
            if s.watch.covers(pc) {
                s.tool.on_mem_read(m, pc, addr, size, val);
            }
        });
    }

    fn on_mem_write(&mut self, m: &Machine, pc: u32, addr: u32, size: u8, val: u32) {
        self.each(|s| {
            if s.watch.covers(pc) {
                s.tool.on_mem_write(m, pc, addr, size, val);
            }
        });
    }

    fn on_call(&mut self, m: &Machine, pc: u32, target: u32, ret_addr: u32, sp: u32) {
        self.each(|s| s.tool.on_call(m, pc, target, ret_addr, sp));
    }

    fn on_ret(&mut self, m: &Machine, pc: u32, ret_target: u32, sp: u32) {
        self.each(|s| s.tool.on_ret(m, pc, ret_target, sp));
    }

    fn on_alloc(&mut self, m: &Machine, pc: u32, size: u32, ptr: u32) {
        self.each(|s| s.tool.on_alloc(m, pc, size, ptr));
    }

    fn on_free(&mut self, m: &Machine, pc: u32, ptr: u32, kind: FreeKind) {
        self.each(|s| s.tool.on_free(m, pc, ptr, kind));
    }

    fn on_syscall(&mut self, m: &Machine, pc: u32, sc: Syscall, args: [u32; 4], ret: u32) {
        self.each(|s| s.tool.on_syscall(m, pc, sc, args, ret));
    }

    fn on_input(&mut self, m: &Machine, conn: u32, stream_off: u32, addr: u32, data: &[u8]) {
        self.each(|s| s.tool.on_input(m, conn, stream_off, addr, data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tool::Watch;
    use std::any::Any;
    use svm::asm::assemble;
    use svm::loader::Aslr;
    use svm::{Insns, Status};

    struct Counter {
        name: String,
        watch: Watch,
        cost: u64,
        insns: u64,
        allocs: u64,
    }

    impl Counter {
        fn new(watch: Watch, cost: u64) -> Counter {
            Counter {
                name: "counter".into(),
                watch,
                cost,
                insns: 0,
                allocs: 0,
            }
        }
    }

    impl Tool for Counter {
        fn name(&self) -> &str {
            &self.name
        }
        fn watches(&self) -> Watch {
            self.watch.clone()
        }
        fn insn_cost(&self) -> u64 {
            self.cost
        }
        fn on_insn(&mut self, _m: &Machine, _pc: u32, _op: &Op) {
            self.insns += 1;
        }
        fn on_alloc(&mut self, _m: &Machine, _pc: u32, _size: u32, _ptr: u32) {
            self.allocs += 1;
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn boot(src: &str) -> Machine {
        Machine::boot(&assemble(src).expect("asm"), Aslr::off()).expect("boot")
    }

    #[test]
    fn full_watch_sees_every_instruction() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n halt\n");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(Counter::new(Watch::All, 7)));
        assert!(matches!(m.run(&mut ins, 1_000_000), Status::Halted(_)));
        assert_eq!(ins.get::<Counter>(id).expect("tool").insns, 3);
        assert_eq!(ins.pending_overhead(), 21);
        let before = m.clock.cycles();
        ins.charge(&mut m);
        assert_eq!(m.clock.cycles(), before + 21);
        assert_eq!(ins.pending_overhead(), 0);
    }

    #[test]
    fn pc_filter_restricts_delivery_and_cost() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n movi r0, 3\n halt\n");
        let entry = m.cpu.pc;
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(Counter::new(Watch::pcs([entry + 8]), 100)));
        m.run(&mut ins, 1_000_000);
        assert_eq!(
            ins.get::<Counter>(id).expect("t").insns,
            1,
            "only the watched pc"
        );
        assert_eq!(ins.pending_overhead(), 100);
    }

    #[test]
    fn mid_execution_attach() {
        let mut m =
            boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n movi r0, 3\n movi r0, 4\n halt\n");
        let mut ins = Instrumenter::new();
        // Run two instructions uninstrumented.
        m.step_hooked(&mut ins);
        m.step_hooked(&mut ins);
        // Attach mid-flight — the Sweeper move.
        let id = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        while m.step_hooked(&mut ins).is_running() {}
        assert_eq!(
            ins.get::<Counter>(id).expect("t").insns,
            3,
            "saw only the tail"
        );
    }

    fn interest_of(ins: &Instrumenter) -> Interest {
        let mut out = Interest::default();
        ins.interest(&mut out);
        out
    }

    #[test]
    fn passivity_tracks_attached_tools() {
        let mut ins = Instrumenter::new();
        assert!(
            interest_of(&ins).is_empty(),
            "empty instrumenter observes nothing"
        );
        let id = ins.attach(Box::new(Counter::new(Watch::None, 1)));
        let i = interest_of(&ins);
        assert_eq!(i.insns(), Insns::None, "a Watch::None tool wants no pc");
        assert!(
            i.other(),
            "but any attached tool wants the other events (call/ret, \
             alloc/free, syscall, input)"
        );
        ins.detach(id);
        assert!(
            interest_of(&ins).is_empty(),
            "detaching the last tool restores it"
        );
    }

    #[test]
    fn interest_is_the_union_of_watches_and_every_pc_while_armed() {
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::pcs([24, 8]), 1)));
        ins.attach(Box::new(Counter::new(Watch::pcs([16, 8]), 1)));
        assert_eq!(interest_of(&ins).insns(), Insns::Pcs(&[8, 16, 24]));
        ins.set_detach_after(a, 5);
        assert_eq!(
            interest_of(&ins).insns(),
            Insns::All,
            "an armed limit asks for every instruction"
        );
        ins.detach(a);
        assert_eq!(interest_of(&ins).insns(), Insns::Pcs(&[8, 16]));
        ins.attach(Box::new(Counter::new(Watch::All, 1)));
        assert_eq!(interest_of(&ins).insns(), Insns::All);
    }

    #[test]
    fn mid_attach_with_warm_decode_cache() {
        // A loop long enough that the decode cache is hot (pure hits)
        // before the tool attaches; the tool must still see every
        // subsequent instruction even though no decode work happens.
        let mut m = boot(
            ".text\nmain:\n movi r1, 6\nloop:\n subi r1, r1, 1\n cmpi r1, 0\n jnz loop\n halt\n",
        );
        assert!(m.decode_cache_enabled());
        let mut ins = Instrumenter::new();
        // Two warm-up iterations with nothing attached.
        for _ in 0..6 {
            assert!(m.step_hooked(&mut ins).is_running());
        }
        let warmed = m.icache_stats();
        assert!(warmed.hits > 0, "cache is hot before attach");
        let id = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        while m.step_hooked(&mut ins).is_running() {}
        let seen = ins.get::<Counter>(id).expect("tool").insns;
        // 20 insns total (movi + 6 iterations x 3 + halt); 6 ran pre-attach.
        assert_eq!(seen, 14, "tool saw exactly the post-attach tail");
        assert!(
            m.icache_stats().hits > warmed.hits,
            "hooked path still serves decoded ops from the cache"
        );
    }

    #[test]
    fn detach_returns_tool_with_findings() {
        let mut m = boot(".text\nmain:\n movi r0, 64\n sys alloc\n halt\n");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        m.run(&mut ins, 1_000_000);
        let tool = ins.detach(id).expect("detach");
        let c = tool.as_any().downcast_ref::<Counter>().expect("downcast");
        assert_eq!(c.allocs, 1);
        assert_eq!(ins.tool_count(), 0);
        assert!(ins.detach(id).is_none(), "double detach is None");
    }

    #[test]
    fn multiple_tools_all_receive_events() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n halt\n");
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::All, 2)));
        let b = ins.attach(Box::new(Counter::new(Watch::All, 3)));
        m.run(&mut ins, 1_000_000);
        assert_eq!(ins.get::<Counter>(a).expect("a").insns, 2);
        assert_eq!(ins.get::<Counter>(b).expect("b").insns, 2);
        assert_eq!(ins.pending_overhead(), 2 * (2 + 3));
        assert_eq!(ins.events_of(a), 2);
    }

    #[test]
    fn export_metrics_names_tools_and_tracks_charged_overhead() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n halt\n");
        let mut ins = Instrumenter::new();
        ins.attach(Box::new(Counter::new(Watch::All, 7)));
        m.run(&mut ins, 1_000_000);
        let mut reg = obs::MetricsRegistry::new();
        ins.export_metrics(&mut reg);
        assert_eq!(reg.counter("dbi.tool.counter.events"), 3);
        assert_eq!(reg.counter("dbi.overhead.pending_cycles"), 21);
        assert_eq!(reg.counter("dbi.overhead.charged_cycles"), 0);
        ins.charge(&mut m);
        ins.export_metrics(&mut reg);
        assert_eq!(reg.counter("dbi.overhead.pending_cycles"), 0);
        assert_eq!(reg.counter("dbi.overhead.charged_cycles"), 21);
    }

    #[test]
    fn armed_detach_removes_tool_mid_run() {
        let mut m =
            boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n movi r0, 3\n movi r0, 4\n halt\n");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        ins.set_detach_after(id, 2);
        m.run(&mut ins, 1_000_000);
        assert!(
            ins.get::<Counter>(id).is_none(),
            "tool is gone after its event budget"
        );
        assert_eq!(ins.tool_count(), 0);
        assert_eq!(ins.auto_detached_total(), 1);
        assert_eq!(
            ins.pending_overhead(),
            2,
            "only the delivered events were charged"
        );
        assert!(
            interest_of(&ins).is_empty(),
            "the next run asks for nothing"
        );
    }

    #[test]
    fn detach_after_zero_blocks_all_delivery() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n halt\n");
        let mut ins = Instrumenter::new();
        let id = ins.attach(Box::new(Counter::new(Watch::All, 5)));
        ins.set_detach_after(id, 0);
        m.run(&mut ins, 1_000_000);
        assert!(ins.get::<Counter>(id).is_none());
        assert_eq!(ins.pending_overhead(), 0, "no event was ever delivered");
        assert_eq!(ins.auto_detached_total(), 1);
    }

    #[test]
    fn per_tool_shares_sum_to_the_total_and_survive_an_armed_detach() {
        let mut m =
            boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n movi r0, 3\n movi r0, 4\n halt\n");
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::All, 3)));
        let b = ins.attach(Box::new(Counter::new(Watch::All, 100)));
        // Re-arming keeps one armed limit: the count must not underflow
        // when the limit fires.
        ins.set_detach_after(b, 4);
        ins.set_detach_after(b, 2);
        m.run(&mut ins, 1_000_000);
        assert!(ins.get::<Counter>(b).is_none(), "b detached after 2 events");
        assert_eq!(ins.auto_detached_total(), 1);
        let total = ins.pending_overhead();
        assert_eq!(total, 5 * 3 + 2 * 100);
        assert_eq!(
            ins.take_overhead_of(b),
            200,
            "the detached tool keeps its share"
        );
        assert_eq!(ins.take_overhead_of(b), 0, "a share is taken once");
        assert_eq!(ins.pending_overhead(), 15);
        assert_eq!(ins.take_overhead_of(a), 15);
        assert_eq!(ins.pending_overhead(), 0);
        assert_eq!(ins.get::<Counter>(a).expect("a").insns, 5);
    }

    #[test]
    fn charge_clears_every_share() {
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n halt\n");
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::All, 2)));
        let b = ins.attach(Box::new(Counter::new(Watch::All, 5)));
        m.run(&mut ins, 1_000_000);
        let before = m.clock.cycles();
        ins.charge(&mut m);
        assert_eq!(m.clock.cycles(), before + 3 * (2 + 5));
        assert_eq!(ins.take_overhead_of(a), 0);
        assert_eq!(ins.take_overhead_of(b), 0);
        assert_eq!(ins.pending_overhead(), 0);
    }

    #[test]
    fn explicit_detach_disarms_its_limit() {
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        ins.set_detach_after(a, 1);
        ins.detach(a);
        // The reused slot carries no limit: the new tool sees every
        // instruction and nothing is auto-detached.
        let b = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        let mut m = boot(".text\nmain:\n movi r0, 1\n movi r0, 2\n halt\n");
        m.run(&mut ins, 1_000_000);
        assert_eq!(ins.get::<Counter>(b).expect("b").insns, 3);
        assert_eq!(ins.auto_detached_total(), 0);
    }

    #[test]
    fn slot_reuse_after_detach() {
        let mut ins = Instrumenter::new();
        let a = ins.attach(Box::new(Counter::new(Watch::All, 1)));
        ins.detach(a);
        let b = ins.attach(Box::new(Counter::new(Watch::None, 1)));
        assert_eq!(a, b, "slot is reused");
        assert_eq!(ins.tool_count(), 1);
    }
}
