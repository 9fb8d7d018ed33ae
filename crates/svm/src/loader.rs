//! Program loading, address-space layout, and randomization.
//!
//! The loader assigns each segment (code, lib, data, heap, stack) a base
//! address, applies relocations, and produces a symbol map used by the
//! analysis tools to render results like the paper's
//! "`0x4f0f0907` in `strcat`, called by `0x804ee82` (`ftpBuildTitleUrl`)".
//!
//! Address-space randomization — Sweeper's default lightweight monitor —
//! slides each base by an independent random page count drawn from
//! `entropy_bits` of entropy. Exploits carry addresses computed for some
//! concrete layout; under a different layout they miss and the guest
//! faults, which *is* the detection signal.

use std::collections::HashMap;

use crate::asm::{Program, Seg};
use crate::error::SvmError;
use crate::mem::{Mem, Perm, PAGE_SIZE};
use crate::rng::XorShift64;

/// Default (unrandomized) code base, echoing 2003-era Linux `0x08xxxxxx`.
pub const CODE_BASE: u32 = 0x0804_0000;
/// Default library base, echoing the paper's `0x4fxxxxxx` libc addresses.
pub const LIB_BASE: u32 = 0x4f0e_0000;
/// Default data base. Bases are spaced further apart than the maximum
/// randomization slide (2^12 pages = 16.8 MiB) so independently slid
/// segments can never collide; base bytes avoid `\n`/space/NUL because
/// exploit payloads carry absolute addresses through byte-sensitive
/// parsers.
pub const DATA_BASE: u32 = 0x0b10_0000;
/// Default heap base.
pub const HEAP_BASE: u32 = 0x0d00_0000;
/// Default stack top (stack grows down from here).
pub const STACK_TOP: u32 = 0xbfff_0000;
/// Default heap size.
pub const HEAP_SIZE: u32 = 0x0010_0000;
/// Default stack size.
pub const STACK_SIZE: u32 = 0x0002_0000;

/// Address-space randomization policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aslr {
    /// Whether randomization is applied at all.
    pub enabled: bool,
    /// Bits of page-granularity entropy per segment. The paper (citing
    /// Shacham et al.) uses a per-attempt bypass probability of 2^-12, so
    /// 12 bits is the default.
    pub entropy_bits: u8,
    /// Seed for the layout draw.
    pub seed: u64,
}

impl Aslr {
    /// Randomization disabled (the attacker's assumed layout).
    pub fn off() -> Aslr {
        Aslr {
            enabled: false,
            entropy_bits: 0,
            seed: 0,
        }
    }

    /// Standard 12-bit randomization with the given seed.
    pub fn on(seed: u64) -> Aslr {
        Aslr {
            enabled: true,
            entropy_bits: 12,
            seed,
        }
    }

    /// The policy for the `n`-th post-attack re-randomization of this
    /// process (n = 1, 2, ...).
    ///
    /// The seed is derived with a splitmix64-style finalizer over
    /// `(seed, n)` — a bijective mix, so distinct `n` values can never
    /// collapse onto the same derived seed the way the old
    /// `seed.wrapping_add(attacks_detected)` did (which could re-derive
    /// a previously used layout after repeated rollback cycles, or
    /// collide with a neighbouring host's boot seed `seed + k`).
    pub fn rerandomize(&self, n: u64) -> Aslr {
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(n));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        Aslr { seed: z, ..*self }
    }
}

/// The concrete address-space layout chosen for a process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layout {
    /// Base of the `.text` segment.
    pub code_base: u32,
    /// Base of the `.lib` segment.
    pub lib_base: u32,
    /// Base of the `.data` segment.
    pub data_base: u32,
    /// Base of the heap region.
    pub heap_base: u32,
    /// Size of the heap region in bytes.
    pub heap_size: u32,
    /// Top of the stack (initial `sp` is just below).
    pub stack_top: u32,
    /// Size of the stack region in bytes.
    pub stack_size: u32,
}

impl Layout {
    /// The deterministic layout used when ASLR is off — the layout worms
    /// compute their hard-coded addresses against.
    pub fn nominal() -> Layout {
        Layout {
            code_base: CODE_BASE,
            lib_base: LIB_BASE,
            data_base: DATA_BASE,
            heap_base: HEAP_BASE,
            heap_size: HEAP_SIZE,
            stack_top: STACK_TOP,
            stack_size: STACK_SIZE,
        }
    }

    /// Draw a layout under the given randomization policy.
    pub fn randomized(aslr: Aslr) -> Layout {
        if !aslr.enabled || aslr.entropy_bits == 0 {
            return Layout::nominal();
        }
        let mut rng = XorShift64::new(aslr.seed);
        let mask = (1u32 << aslr.entropy_bits.min(16)) - 1;
        let page = PAGE_SIZE as u32;
        let mut slide = || (rng.next_u32() & mask) * page;
        let mut l = Layout::nominal();
        l.code_base += slide();
        l.lib_base += slide();
        l.data_base += slide();
        l.heap_base += slide();
        l.stack_top -= slide();
        l
    }

    /// Base address of an assembler segment under this layout.
    pub fn seg_base(&self, seg: Seg) -> u32 {
        match seg {
            Seg::Text => self.code_base,
            Seg::Lib => self.lib_base,
            Seg::Data => self.data_base,
        }
    }
}

/// One entry of the loaded symbol map.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Final virtual address.
    pub addr: u32,
    /// Symbol name.
    pub name: String,
    /// Segment of definition.
    pub seg: Seg,
}

/// Address-to-name resolution for analysis output.
#[derive(Debug, Clone, Default)]
pub struct SymbolMap {
    sorted: Vec<Symbol>,
    /// Half-open `[start, end)` ranges of the loaded segments; addresses
    /// outside them resolve to `None` (a wild jump target prints `?`).
    ranges: Vec<(u32, u32)>,
}

impl SymbolMap {
    /// Build from final symbol addresses, unbounded (all addresses
    /// considered resolvable). Prefer [`SymbolMap::with_bounds`].
    pub fn new(mut syms: Vec<Symbol>) -> SymbolMap {
        syms.sort_by_key(|s| s.addr);
        SymbolMap {
            sorted: syms,
            ranges: Vec::new(),
        }
    }

    /// Build with explicit segment ranges.
    pub fn with_bounds(syms: Vec<Symbol>, ranges: Vec<(u32, u32)>) -> SymbolMap {
        let mut map = SymbolMap::new(syms);
        map.ranges = ranges;
        map
    }

    /// Whether `addr` falls inside a loaded segment.
    pub fn in_bounds(&self, addr: u32) -> bool {
        self.ranges.is_empty() || self.ranges.iter().any(|&(s, e)| addr >= s && addr < e)
    }

    /// The symbol at or immediately below `addr` — i.e. the function (or
    /// data object) containing `addr`. `None` for out-of-segment
    /// addresses such as wild jump targets.
    pub fn resolve(&self, addr: u32) -> Option<&Symbol> {
        if !self.in_bounds(addr) {
            return None;
        }
        let idx = self.sorted.partition_point(|s| s.addr <= addr);
        // Walk down past data labels to the nearest enclosing entry.
        self.sorted[..idx].last()
    }

    /// The exact symbol with the given name, if defined.
    pub fn addr_of(&self, name: &str) -> Option<u32> {
        self.sorted.iter().find(|s| s.name == name).map(|s| s.addr)
    }

    /// Render an address as `0xADDR (name+off)` for reports.
    pub fn render(&self, addr: u32) -> String {
        match self.resolve(addr) {
            Some(s) if addr >= s.addr => {
                let off = addr - s.addr;
                if off == 0 {
                    format!("{addr:#010x} ({})", s.name)
                } else {
                    format!("{addr:#010x} ({}+{off:#x})", s.name)
                }
            }
            _ => format!("{addr:#010x} (?)"),
        }
    }

    /// All symbols, sorted by address.
    pub fn all(&self) -> &[Symbol] {
        &self.sorted
    }
}

/// Result of loading: initialized memory, entry point, layout, symbols.
pub struct Image {
    /// Fully initialized guest memory.
    pub mem: Mem,
    /// Entry program counter.
    pub entry: u32,
    /// Initial stack pointer.
    pub initial_sp: u32,
    /// The chosen layout.
    pub layout: Layout,
    /// Symbol map for diagnostics.
    pub symbols: SymbolMap,
}

fn page_round_up(n: u32) -> u32 {
    let p = PAGE_SIZE as u32;
    n.div_ceil(p) * p
}

/// Load an assembled program under the given layout.
pub fn load(prog: &Program, layout: Layout) -> Result<Image, SvmError> {
    let mut mem = Mem::new();
    let lay_err = |e: String| SvmError::Layout(e);

    let text_len = page_round_up(prog.text.len().max(1) as u32);
    let lib_len = page_round_up(prog.lib.len().max(1) as u32);
    let data_len = page_round_up((prog.data.len() as u32).max(1) + PAGE_SIZE as u32);
    mem.map(layout.code_base, text_len, Perm::RX, "code")
        .map_err(lay_err)?;
    mem.map(layout.lib_base, lib_len, Perm::RX, "lib")
        .map_err(lay_err)?;
    mem.map(layout.data_base, data_len, Perm::RW, "data")
        .map_err(lay_err)?;
    mem.map(layout.heap_base, layout.heap_size, Perm::RW, "heap")
        .map_err(lay_err)?;
    let stack_base = layout.stack_top - layout.stack_size;
    mem.map(stack_base, layout.stack_size, Perm::RW, "stack")
        .map_err(lay_err)?;

    // Resolve final symbol addresses.
    let mut final_addr: HashMap<&str, u32> = HashMap::new();
    let mut symbols = Vec::new();
    for (name, sym) in &prog.symbols {
        let addr = layout.seg_base(sym.seg) + sym.off;
        final_addr.insert(name.as_str(), addr);
        symbols.push(Symbol {
            addr,
            name: name.clone(),
            seg: sym.seg,
        });
    }

    // Copy segment bytes, then patch relocations.
    let mut text = prog.text.clone();
    let mut lib = prog.lib.clone();
    let mut data = prog.data.clone();
    for r in &prog.relocs {
        let target = *final_addr
            .get(r.symbol.as_str())
            .ok_or_else(|| SvmError::Layout(format!("undefined symbol {}", r.symbol)))?;
        let value = (target as i64 + r.addend) as u32;
        let buf = match r.seg {
            Seg::Text => &mut text,
            Seg::Lib => &mut lib,
            Seg::Data => &mut data,
        };
        let slot = r.slot as usize;
        if slot + 4 > buf.len() {
            return Err(SvmError::Layout(format!("reloc slot {slot} out of range")));
        }
        buf[slot..slot + 4].copy_from_slice(&value.to_le_bytes());
    }
    let werr = |_| SvmError::Layout("segment write failed".into());
    mem.write_bytes_host(layout.code_base, &text)
        .map_err(werr)?;
    mem.write_bytes_host(layout.lib_base, &lib).map_err(werr)?;
    mem.write_bytes_host(layout.data_base, &data)
        .map_err(werr)?;

    let entry = *final_addr
        .get(prog.entry.as_str())
        .ok_or_else(|| SvmError::Layout(format!("entry `{}` missing", prog.entry)))?;
    let ranges = vec![
        (layout.code_base, layout.code_base + text_len),
        (layout.lib_base, layout.lib_base + lib_len),
        (layout.data_base, layout.data_base + data_len),
    ];
    Ok(Image {
        mem,
        entry,
        initial_sp: layout.stack_top - 16,
        layout,
        symbols: SymbolMap::with_bounds(symbols, ranges),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn prog() -> Program {
        assemble(
            ".text\nmain:\n movi r0, msg\n call f\n halt\nf:\n ret\n.lib\nlf:\n ret\n.data\nmsg: .string \"x\"\n",
        )
        .expect("asm")
    }

    #[test]
    fn load_patches_relocations() {
        let img = load(&prog(), Layout::nominal()).expect("load");
        // First instruction: movi r0, <addr of msg in data seg>.
        let imm = img.mem.read_u32(0, CODE_BASE + 4).expect("read");
        assert_eq!(imm, DATA_BASE);
        // Call target is f = code base + 3*8.
        let call_imm = img.mem.read_u32(0, CODE_BASE + 8 + 4).expect("read");
        assert_eq!(call_imm, CODE_BASE + 24);
        assert_eq!(img.entry, CODE_BASE);
    }

    #[test]
    fn aslr_slides_segments_independently() {
        let a = Layout::randomized(Aslr::on(1));
        let b = Layout::randomized(Aslr::on(2));
        assert_ne!(a.lib_base, b.lib_base);
        assert_ne!(a, Layout::nominal());
        assert_eq!(a.code_base % PAGE_SIZE as u32, 0);
        // Same seed -> same layout (determinism for replay).
        assert_eq!(Layout::randomized(Aslr::on(1)), a);
        // Disabled -> nominal.
        assert_eq!(Layout::randomized(Aslr::off()), Layout::nominal());
    }

    #[test]
    fn randomized_layouts_differ_from_nominal() {
        for seed in 1..16u64 {
            let l = Layout::randomized(Aslr::on(seed));
            assert_ne!(l, Layout::nominal(), "seed {seed} drew the nominal layout");
            assert_eq!(l, Layout::randomized(Aslr::on(seed)));
        }
    }

    #[test]
    fn rerandomize_never_repeats_a_layout() {
        // Regression for the post-attack reseed: N consecutive
        // re-randomizations of the same base policy must yield N distinct
        // layouts, none equal to the boot layout, and must not collide
        // with a neighbouring host's boot seed (the old `seed + k`
        // arithmetic collided with both).
        let base = Aslr::on(17);
        let mut seen = vec![Layout::randomized(base)];
        for n in 1..=64u64 {
            let re = base.rerandomize(n);
            assert!(re.enabled);
            assert_eq!(re.entropy_bits, base.entropy_bits);
            let layout = Layout::randomized(re);
            assert!(
                !seen.contains(&layout),
                "re-randomization #{n} repeated an earlier layout"
            );
            seen.push(layout);
            // Old bug: seed + n equals the boot seed of host 17 + n.
            assert_ne!(
                re.seed,
                base.seed + n,
                "derived seed must not collide with a neighbour's boot seed"
            );
        }
    }

    #[test]
    fn aslr_entropy_respects_bits() {
        for seed in 0..32 {
            let l = Layout::randomized(Aslr {
                enabled: true,
                entropy_bits: 4,
                seed,
            });
            let max_slide = 16 * PAGE_SIZE as u32;
            assert!(l.code_base - CODE_BASE < max_slide);
            assert!(l.lib_base - LIB_BASE < max_slide);
            assert!(STACK_TOP - l.stack_top < max_slide);
        }
    }

    #[test]
    fn symbol_map_resolution_and_rendering() {
        let img = load(&prog(), Layout::nominal()).expect("load");
        let f_addr = img.symbols.addr_of("f").expect("f");
        assert_eq!(f_addr, CODE_BASE + 24);
        let inside = img.symbols.resolve(f_addr + 4).expect("resolve");
        assert_eq!(inside.name, "f");
        assert!(img.symbols.render(f_addr).contains("(f)"));
        assert!(img.symbols.render(f_addr + 4).contains("f+0x4"));
        let lf = img.symbols.addr_of("lf").expect("lf");
        assert_eq!(lf, LIB_BASE);
    }

    #[test]
    fn regions_are_named() {
        let img = load(&prog(), Layout::nominal()).expect("load");
        let names: Vec<&str> = img.mem.regions().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["code", "lib", "data", "heap", "stack"]);
        assert!(img
            .mem
            .region_of(img.initial_sp)
            .map(|r| r.name == "stack")
            .unwrap_or(false));
    }
}
