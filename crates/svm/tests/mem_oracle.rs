//! Differential test: `svm::mem::Mem` against a byte-at-a-time oracle.
//!
//! `Mem` checks a page's permission once per page an access touches and
//! copies whole words and page chunks. [`ByteMem`] is the reference
//! model it must agree with: every byte is checked and moved on its
//! own, against a permission table kept beside the page table. Random
//! op sequences over RW, R, RX and RWX pages, an unmapped hole,
//! page-crossing and wrapping addresses, with NX on and off, must give
//! equal results, equal fault payloads, equal `write_seq`, equal
//! per-page generations, equal bytes and equal `dirty_pages_since`
//! answers after every op, with write-set marks (`mark_clean`) among
//! the ops. Named cases pin
//! the partial-write-then-fault behaviour of a word store across a page
//! boundary (into a read-only page and into a hole) and of a `read`
//! syscall whose buffer runs into an unmapped page.
//!
//! A second oracle works at the level of the page table: random `map`s,
//! skeletons, page restores in random order (a page outside every
//! region and a restore into an occupied slot among them), write-set
//! marks and held snapshots, against a `BTreeMap` reference. Both must agree on which
//! maps are refused, and after every op on the page count, generations,
//! executability, sharing and storage identities, and on the full
//! `pages()`, `page_table()` and `dirty_pages_since` sequences in
//! ascending page order.

use std::collections::BTreeMap;
use std::sync::{Arc, Weak};

use proptest::collection::vec;
use proptest::prelude::*;
use svm::isa::Reg;
use svm::loader::Aslr;
use svm::mem::{Mem, Page, Perm, PAGE_SIZE};
use svm::{Access, Fault, Machine, NopHook, Status};

/// Byte-at-a-time reference model of guest memory.
struct ByteMem {
    pages: BTreeMap<u32, ([u8; PAGE_SIZE], u64)>,
    perms: BTreeMap<u32, Perm>,
    write_seq: u64,
    nx: bool,
}

impl ByteMem {
    fn new() -> ByteMem {
        ByteMem {
            pages: BTreeMap::new(),
            perms: BTreeMap::new(),
            write_seq: 0,
            nx: false,
        }
    }

    fn map(&mut self, start: u32, len: u32, perm: Perm) {
        for pno in start / PAGE_SIZE as u32..(start + len) / PAGE_SIZE as u32 {
            self.pages.insert(pno, ([0; PAGE_SIZE], 0));
            self.perms.insert(pno, perm);
        }
    }

    fn check(&self, pc: u32, addr: u32, access: Access) -> Result<(u32, usize), Fault> {
        let pno = addr / PAGE_SIZE as u32;
        let Some(perm) = self.perms.get(&pno) else {
            return Err(Fault::Unmapped { pc, addr, access });
        };
        let allowed = match access {
            Access::Read => perm.r,
            Access::Write => perm.w,
            Access::Exec if self.nx => perm.x,
            Access::Exec => perm.r,
        };
        if !allowed {
            return Err(Fault::Protection { pc, addr, access });
        }
        Ok((pno, (addr % PAGE_SIZE as u32) as usize))
    }

    fn poke(&mut self, pno: u32, off: usize, val: u8) {
        let page = self.pages.get_mut(&pno).expect("checked page");
        page.0[off] = val;
        self.write_seq += 1;
        page.1 = self.write_seq;
    }

    fn read_u8(&self, pc: u32, addr: u32) -> Result<u8, Fault> {
        let (pno, off) = self.check(pc, addr, Access::Read)?;
        Ok(self.pages[&pno].0[off])
    }

    fn write_u8(&mut self, pc: u32, addr: u32, val: u8) -> Result<(), Fault> {
        let (pno, off) = self.check(pc, addr, Access::Write)?;
        self.poke(pno, off, val);
        Ok(())
    }

    fn read_u32(&self, pc: u32, addr: u32) -> Result<u32, Fault> {
        let mut b = [0u8; 4];
        for (i, out) in b.iter_mut().enumerate() {
            *out = self.read_u8(pc, addr.wrapping_add(i as u32))?;
        }
        Ok(u32::from_le_bytes(b))
    }

    fn write_u32(&mut self, pc: u32, addr: u32, val: u32) -> Result<(), Fault> {
        self.write_bytes(pc, addr, &val.to_le_bytes())
    }

    fn fetch(&self, pc: u32) -> Result<[u8; 8], Fault> {
        let mut b = [0u8; 8];
        for (i, out) in b.iter_mut().enumerate() {
            let (pno, off) = self.check(pc, pc.wrapping_add(i as u32), Access::Exec)?;
            *out = self.pages[&pno].0[off];
        }
        Ok(b)
    }

    fn read_bytes(&self, addr: u32, len: u32) -> Result<Vec<u8>, Fault> {
        (0..len)
            .map(|i| self.read_u8(0, addr.wrapping_add(i)))
            .collect()
    }

    fn write_bytes(&mut self, pc: u32, addr: u32, data: &[u8]) -> Result<(), Fault> {
        for (i, b) in data.iter().enumerate() {
            self.write_u8(pc, addr.wrapping_add(i as u32), *b)?;
        }
        Ok(())
    }

    fn write_bytes_host(&mut self, addr: u32, data: &[u8]) -> Result<(), Fault> {
        for (i, b) in data.iter().enumerate() {
            let a = addr.wrapping_add(i as u32);
            let pno = a / PAGE_SIZE as u32;
            if !self.pages.contains_key(&pno) {
                return Err(Fault::Unmapped {
                    pc: 0,
                    addr: a,
                    access: Access::Write,
                });
            }
            self.poke(pno, (a % PAGE_SIZE as u32) as usize, *b);
        }
        Ok(())
    }

    fn read_cstr(&self, addr: u32, max: u32) -> Result<Vec<u8>, Fault> {
        let mut v = Vec::new();
        for i in 0..max {
            let b = self.read_u8(0, addr.wrapping_add(i))?;
            if b == 0 {
                break;
            }
            v.push(b);
        }
        Ok(v)
    }
}

/// RW, R, RX, a hole, two RW pages, RWX, then nothing up to the top of
/// the address space (whose last page cannot be mapped, so wrapping
/// accesses fault there).
const LAYOUT: [(u32, u32, Perm); 5] = [
    (0x1000, 0x1000, Perm::RW),
    (0x2000, 0x1000, Perm::R),
    (0x3000, 0x1000, Perm::RX),
    (0x5000, 0x2000, Perm::RW),
    (0x7000, 0x1000, Perm::RWX),
];

/// Page numbers whose state is compared after every op.
const WATCHED: [u32; 11] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xfffff];

fn both(nx: bool) -> (Mem, ByteMem) {
    let (mut mem, mut oracle) = (Mem::new(), ByteMem::new());
    for (start, len, perm) in LAYOUT {
        mem.map(start, len, perm, "t").expect("map");
        oracle.map(start, len, perm);
    }
    mem.nx = nx;
    oracle.nx = nx;
    (mem, oracle)
}

/// One memory operation, applied to both models.
#[derive(Debug, Clone)]
enum MemOp {
    ReadU8 {
        pc: u32,
        addr: u32,
    },
    ReadU32 {
        pc: u32,
        addr: u32,
    },
    WriteU8 {
        pc: u32,
        addr: u32,
        val: u8,
    },
    WriteU32 {
        pc: u32,
        addr: u32,
        val: u32,
    },
    Fetch {
        pc: u32,
    },
    ReadBytes {
        addr: u32,
        len: u32,
    },
    ReadCstr {
        addr: u32,
        max: u32,
    },
    WriteBytes {
        pc: u32,
        addr: u32,
        data: Vec<u8>,
    },
    WriteBytesHost {
        addr: u32,
        data: Vec<u8>,
    },
    /// Rebuild `Mem` from its skeleton and captured pages (the
    /// incremental checkpoint path); the oracle is untouched, so every
    /// later op also checks the rebuilt permissions.
    Rebuild,
    /// Start a new write set ([`Mem::mark_clean`]); the oracle has none.
    MarkClean,
}

/// Addresses near the interesting places: every page boundary of the
/// layout and the top of the address space, or anywhere below 0x9000.
fn arb_addr() -> impl Strategy<Value = u32> {
    prop_oneof![
        (0u32..9, 0u32..24).prop_map(|(k, d)| {
            let base = if k == 8 { 0 } else { (k + 1) * 0x1000 };
            base.wrapping_sub(12).wrapping_add(d)
        }),
        0u32..0x9000,
    ]
}

/// Short lengths mostly, and some that span a whole page or two.
fn arb_len() -> impl Strategy<Value = u32> {
    prop_oneof![0u32..40, 4090u32..8200]
}

fn arb_data() -> impl Strategy<Value = Vec<u8>> {
    prop_oneof![
        vec(any::<u8>(), 0..40),
        // Long non-zero runs, so that strings cross pages.
        (1u8..=255, arb_len()).prop_map(|(b, n)| vec![b; n as usize]),
    ]
}

fn arb_op() -> impl Strategy<Value = MemOp> {
    prop_oneof![
        (any::<u32>(), arb_addr()).prop_map(|(pc, addr)| MemOp::ReadU8 { pc, addr }),
        (any::<u32>(), arb_addr()).prop_map(|(pc, addr)| MemOp::ReadU32 { pc, addr }),
        (any::<u32>(), arb_addr(), any::<u8>()).prop_map(|(pc, addr, val)| MemOp::WriteU8 {
            pc,
            addr,
            val
        }),
        (any::<u32>(), arb_addr(), any::<u32>()).prop_map(|(pc, addr, val)| MemOp::WriteU32 {
            pc,
            addr,
            val
        }),
        arb_addr().prop_map(|pc| MemOp::Fetch { pc }),
        (arb_addr(), arb_len()).prop_map(|(addr, len)| MemOp::ReadBytes { addr, len }),
        (arb_addr(), arb_len()).prop_map(|(addr, max)| MemOp::ReadCstr { addr, max }),
        (any::<u32>(), arb_addr(), arb_data()).prop_map(|(pc, addr, data)| MemOp::WriteBytes {
            pc,
            addr,
            data
        }),
        (arb_addr(), arb_data()).prop_map(|(addr, data)| MemOp::WriteBytesHost { addr, data }),
        Just(MemOp::Rebuild),
        Just(MemOp::MarkClean),
    ]
}

/// Every op's value as bytes, so one type carries all results.
type Outcome = Result<Vec<u8>, Fault>;

fn apply(mem: &mut Mem, op: &MemOp) -> Outcome {
    match op {
        MemOp::ReadU8 { pc, addr } => mem.read_u8(*pc, *addr).map(|b| vec![b]),
        MemOp::ReadU32 { pc, addr } => mem.read_u32(*pc, *addr).map(|w| w.to_le_bytes().to_vec()),
        MemOp::WriteU8 { pc, addr, val } => mem.write_u8(*pc, *addr, *val).map(|()| Vec::new()),
        MemOp::WriteU32 { pc, addr, val } => mem.write_u32(*pc, *addr, *val).map(|()| Vec::new()),
        MemOp::Fetch { pc } => mem.fetch(*pc).map(|b| b.to_vec()),
        MemOp::ReadBytes { addr, len } => mem.read_bytes(*addr, *len),
        MemOp::ReadCstr { addr, max } => mem.read_cstr(*addr, *max),
        MemOp::WriteBytes { pc, addr, data } => {
            mem.write_bytes(*pc, *addr, data).map(|()| Vec::new())
        }
        MemOp::WriteBytesHost { addr, data } => {
            mem.write_bytes_host(*addr, data).map(|()| Vec::new())
        }
        MemOp::Rebuild => {
            let mut rebuilt = mem.skeleton();
            for (pno, _) in mem.page_table() {
                let (data, gen) = mem.page_arc(pno).expect("mapped");
                rebuilt.restore_page(pno, data, gen);
            }
            *mem = rebuilt;
            Ok(Vec::new())
        }
        MemOp::MarkClean => {
            mem.mark_clean();
            Ok(Vec::new())
        }
    }
}

fn apply_oracle(oracle: &mut ByteMem, op: &MemOp) -> Outcome {
    match op {
        MemOp::ReadU8 { pc, addr } => oracle.read_u8(*pc, *addr).map(|b| vec![b]),
        MemOp::ReadU32 { pc, addr } => oracle
            .read_u32(*pc, *addr)
            .map(|w| w.to_le_bytes().to_vec()),
        MemOp::WriteU8 { pc, addr, val } => oracle.write_u8(*pc, *addr, *val).map(|()| Vec::new()),
        MemOp::WriteU32 { pc, addr, val } => {
            oracle.write_u32(*pc, *addr, *val).map(|()| Vec::new())
        }
        MemOp::Fetch { pc } => oracle.fetch(*pc).map(|b| b.to_vec()),
        MemOp::ReadBytes { addr, len } => oracle.read_bytes(*addr, *len),
        MemOp::ReadCstr { addr, max } => oracle.read_cstr(*addr, *max),
        MemOp::WriteBytes { pc, addr, data } => {
            oracle.write_bytes(*pc, *addr, data).map(|()| Vec::new())
        }
        MemOp::WriteBytesHost { addr, data } => {
            oracle.write_bytes_host(*addr, data).map(|()| Vec::new())
        }
        MemOp::Rebuild | MemOp::MarkClean => Ok(Vec::new()),
    }
}

/// First difference in `write_seq`, a watched page's generation or a
/// watched page's bytes, if any.
fn state_diff(mem: &Mem, oracle: &ByteMem) -> Option<String> {
    if mem.write_seq() != oracle.write_seq {
        return Some(format!(
            "write_seq {} vs oracle {}",
            mem.write_seq(),
            oracle.write_seq
        ));
    }
    for pno in WATCHED {
        let want = oracle.pages.get(&pno);
        let gen = want.map_or(0, |p| p.1);
        if mem.page_gen(pno) != gen {
            return Some(format!(
                "page {pno:#x} gen {} vs oracle {gen}",
                mem.page_gen(pno)
            ));
        }
        if mem.page_bytes(pno) != want.map(|p| &p.0) {
            return Some(format!("page {pno:#x} bytes differ"));
        }
    }
    let seq = oracle.write_seq;
    for g in [0, seq / 2, seq.saturating_sub(3), seq] {
        let dirty: Vec<u32> = mem.dirty_pages_since(g).map(|(p, _, _)| p).collect();
        let want: Vec<u32> = oracle
            .pages
            .iter()
            .filter(|(_, p)| p.1 > g)
            .map(|(&pno, _)| pno)
            .collect();
        if dirty != want {
            return Some(format!("dirty_pages_since({g}) {dirty:?} vs {want:?}"));
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every op of a random sequence, `Mem` and the byte oracle
    /// agree on the result or fault, `write_seq`, every generation and
    /// every byte.
    #[test]
    fn mem_matches_the_byte_at_a_time_oracle(
        nx in any::<bool>(),
        ops in vec(arb_op(), 1..48),
    ) {
        let (mut mem, mut oracle) = both(nx);
        for (i, op) in ops.iter().enumerate() {
            let got = apply(&mut mem, op);
            let want = apply_oracle(&mut oracle, op);
            prop_assert_eq!(&got, &want, "op {} = {:?}", i, op);
            let diff = state_diff(&mem, &oracle);
            prop_assert!(diff.is_none(), "after op {} = {:?}: {:?}", i, op, diff);
        }
    }
}

/// Apply one op to both models, check they agree, and return `Mem`'s
/// result.
fn agree(mem: &mut Mem, oracle: &mut ByteMem, op: MemOp) -> Outcome {
    let got = apply(mem, &op);
    assert_eq!(got, apply_oracle(oracle, &op), "{op:?}");
    assert_eq!(state_diff(mem, oracle), None, "{op:?}");
    got
}

#[test]
fn word_store_across_rw_into_r_writes_its_first_bytes_then_faults() {
    let (mut mem, mut oracle) = both(false);
    let op = MemOp::WriteU32 {
        pc: 0x3010,
        addr: 0x1ffe,
        val: 0xa1b2_c3d4,
    };
    assert_eq!(
        agree(&mut mem, &mut oracle, op),
        Err(Fault::Protection {
            pc: 0x3010,
            addr: 0x2000,
            access: Access::Write,
        })
    );
    assert_eq!(mem.read_bytes(0x1ffe, 2), Ok(vec![0xd4, 0xc3]));
    assert_eq!(mem.write_seq(), 2, "the two landed bytes count");
    assert_eq!((mem.page_gen(1), mem.page_gen(2)), (2, 0));
}

#[test]
fn word_store_into_a_hole_writes_its_first_bytes_then_faults() {
    let (mut mem, mut oracle) = both(false);
    // From a read-only page, nothing lands: the first byte faults.
    let op = MemOp::WriteU32 {
        pc: 0x3010,
        addr: 0x3ffd,
        val: 0x0102_0304,
    };
    assert!(matches!(
        agree(&mut mem, &mut oracle, op),
        Err(Fault::Protection { addr: 0x3ffd, .. })
    ));
    // From a writable page, its one byte lands before the hole faults.
    let op = MemOp::WriteU32 {
        pc: 0x3010,
        addr: 0x7fff,
        val: 0x0102_0304,
    };
    assert_eq!(
        agree(&mut mem, &mut oracle, op),
        Err(Fault::Unmapped {
            pc: 0x3010,
            addr: 0x8000,
            access: Access::Write,
        })
    );
    assert_eq!(mem.read_u8(0, 0x7fff), Ok(0x04));
    assert_eq!(mem.write_seq(), 1);
    assert_eq!(mem.page_gen(7), 1);
}

#[test]
fn read_syscall_into_an_unmapped_page_lands_the_prefix_then_faults() {
    let prog = svm::asm::assemble(
        ".text\nmain:\n sys accept\n movi r2, 16\n sys read\n halt\n.data\nbuf: .space 8\n",
    )
    .expect("asm");
    let mut m = Machine::boot(&prog, Aslr::off()).expect("boot");
    let data_end = m
        .mem
        .region_of(m.layout.data_base)
        .expect("data region")
        .end();
    assert!(m.mem.region_of(data_end).is_none(), "a hole follows .data");
    // The buffer's last three bytes fit; the fourth is unmapped.
    m.cpu.set(Reg::R1, data_end - 3);
    m.net.push_connection(b"0123456789abcdef".to_vec());
    let seq = m.mem.write_seq();
    let status = m.run(&mut NopHook, 10_000_000);
    let Status::Faulted(Fault::Unmapped { pc, addr, access }) = status else {
        panic!("expected an unmapped write fault, got {status:?}");
    };
    assert_eq!((addr, access), (data_end, Access::Write));
    assert_eq!(pc, m.cpu.pc, "the fault names the read syscall");
    assert_eq!(m.mem.read_bytes(data_end - 3, 3), Ok(b"012".to_vec()));
    assert_eq!(m.mem.write_seq(), seq + 3, "one count per landed byte");
    assert_eq!(m.mem.page_gen((data_end - 1) / PAGE_SIZE as u32), seq + 3);
}

/// One page of the table reference: its storage (held weakly, so the
/// reference leaves sharing counts alone), generation and permission.
struct RefSlot {
    data: Weak<Page>,
    gen: u64,
    perm: Perm,
}

/// `BTreeMap` reference of a page table: slots by page number, plus the
/// regions in creation order as `(first page, page count, permission)`.
#[derive(Default)]
struct RefTable {
    slots: BTreeMap<u32, RefSlot>,
    regions: Vec<(u32, u32, Perm)>,
}

impl RefTable {
    fn perm_of(&self, pno: u32) -> Perm {
        let covers = |&&(first, count, _): &&(u32, u32, Perm)| pno >= first && pno - first < count;
        self.regions.iter().find(covers).map_or(
            Perm {
                r: false,
                w: false,
                x: false,
            },
            |r| r.2,
        )
    }
}

/// One table-level operation.
#[derive(Debug, Clone)]
enum TableOp {
    /// Map `count` pages from page `first`.
    Map { first: u32, count: u32, perm: u8 },
    /// Replace the table by its skeleton, keeping the old one as the
    /// source of later restores.
    Skeleton,
    /// Restore the `sel`-th page of the latest source at a random
    /// generation.
    RestoreFromSource { sel: usize, gen: u64 },
    /// Restore a fresh page at `pno` (maybe outside every region, maybe
    /// over an occupied slot).
    RestoreFresh { pno: u32, gen: u64 },
    /// Hold a snapshot, so the pages it shares count as shared.
    Hold,
    /// Drop the oldest held snapshot.
    Release,
    /// Start a new write set ([`Mem::mark_clean`]).
    MarkClean,
}

const PERMS: [Perm; 4] = [Perm::R, Perm::RW, Perm::RX, Perm::RWX];

fn arb_table_op() -> impl Strategy<Value = TableOp> {
    prop_oneof![
        (0u32..48, 1u32..8, 0u8..4).prop_map(|(first, count, perm)| TableOp::Map {
            first,
            count,
            perm
        }),
        Just(TableOp::Skeleton),
        (any::<usize>(), 0u64..64).prop_map(|(sel, gen)| TableOp::RestoreFromSource { sel, gen }),
        (any::<usize>(), 0u64..64).prop_map(|(sel, gen)| TableOp::RestoreFromSource { sel, gen }),
        (
            prop_oneof![0u32..64, Just(0xfffff), Just(u32::MAX)],
            0u64..64
        )
            .prop_map(|(pno, gen)| TableOp::RestoreFresh { pno, gen }),
        Just(TableOp::Hold),
        Just(TableOp::Release),
        Just(TableOp::MarkClean),
    ]
}

/// The table under test, its reference, the source of restores and the
/// held snapshots.
struct Tables {
    mem: Mem,
    reference: RefTable,
    source: Option<Mem>,
    held: Vec<Mem>,
}

impl Tables {
    fn apply(&mut self, op: &TableOp) -> Result<(), String> {
        match *op {
            TableOp::Map { first, count, perm } => {
                let perm = PERMS[perm as usize];
                let start = first * PAGE_SIZE as u32;
                let got = self.mem.map(start, count * PAGE_SIZE as u32, perm, "t");
                let overlaps =
                    (first..first + count).any(|p| self.reference.slots.contains_key(&p));
                if got.is_ok() == overlaps {
                    return Err(format!("map {first}+{count}: {got:?}, overlap {overlaps}"));
                }
                if got.is_ok() {
                    self.reference.regions.push((first, count, perm));
                    for pno in first..first + count {
                        let (data, gen) = self.mem.page_arc(pno).expect("just mapped");
                        let data = Arc::downgrade(&data);
                        self.reference
                            .slots
                            .insert(pno, RefSlot { data, gen, perm });
                    }
                }
            }
            TableOp::Skeleton => {
                let skeleton = self.mem.skeleton();
                self.source = Some(std::mem::replace(&mut self.mem, skeleton));
                self.reference.slots.clear();
            }
            TableOp::RestoreFromSource { sel, gen } => {
                let Some(src) = &self.source else {
                    return Ok(());
                };
                let pages: Vec<(u32, Arc<Page>)> =
                    src.pages().map(|(p, _, d)| (p, d.clone())).collect();
                if pages.is_empty() {
                    return Ok(());
                }
                let (pno, data) = pages[sel % pages.len()].clone();
                self.restore(pno, data, gen);
            }
            TableOp::RestoreFresh { pno, gen } => {
                self.restore(pno, Arc::new(Page::zeroed()), gen);
            }
            TableOp::Hold => self.held.push(self.mem.snapshot()),
            TableOp::Release => {
                if !self.held.is_empty() {
                    self.held.remove(0);
                }
            }
            TableOp::MarkClean => self.mem.mark_clean(),
        }
        Ok(())
    }

    fn restore(&mut self, pno: u32, data: Arc<Page>, gen: u64) {
        let weak = Arc::downgrade(&data);
        self.mem.restore_page(pno, data, gen);
        let perm = match self.reference.slots.get(&pno) {
            Some(old) => old.perm,
            None => self.reference.perm_of(pno),
        };
        self.reference.slots.insert(
            pno,
            RefSlot {
                data: weak,
                gen,
                perm,
            },
        );
    }

    /// The first disagreement between the table and its reference.
    fn diff(&self) -> Option<String> {
        let (mem, r) = (&self.mem, &self.reference);
        if mem.mapped_pages() != r.slots.len() {
            return Some(format!(
                "mapped {} vs {}",
                mem.mapped_pages(),
                r.slots.len()
            ));
        }
        let want: Vec<(u32, u64, usize)> = r
            .slots
            .iter()
            .map(|(&p, s)| (p, s.gen, s.data.as_ptr() as usize))
            .collect();
        let got: Vec<(u32, u64, usize)> = mem
            .pages()
            .map(|(p, g, d)| (p, g, Arc::as_ptr(d) as usize))
            .collect();
        if got != want {
            return Some(format!("pages() {got:x?} vs {want:x?}"));
        }
        let table: Vec<(u32, u64)> = mem.page_table().collect();
        if table != want.iter().map(|&(p, g, _)| (p, g)).collect::<Vec<_>>() {
            return Some(format!("page_table() {table:?}"));
        }
        let ids: Vec<usize> = mem.page_storage_ids().collect();
        if ids != want.iter().map(|w| w.2).collect::<Vec<_>>() {
            return Some("page_storage_ids() order".to_string());
        }
        for g in [0, 1, 17, 32, 63, u64::MAX] {
            let dirty: Vec<u32> = mem.dirty_pages_since(g).map(|(p, _, _)| p).collect();
            let want: Vec<u32> = want.iter().filter(|w| w.1 > g).map(|w| w.0).collect();
            if dirty != want {
                return Some(format!("dirty_pages_since({g}) {dirty:?} vs {want:?}"));
            }
        }
        let shared = r
            .slots
            .values()
            .filter(|s| s.data.strong_count() > 1)
            .count();
        if mem.shared_pages() != shared {
            return Some(format!("shared {} vs {shared}", mem.shared_pages()));
        }
        let probes = (0u32..72).chain([0xfffff, u32::MAX]);
        for pno in probes {
            let slot = r.slots.get(&pno);
            if mem.page_gen(pno) != slot.map_or(0, |s| s.gen) {
                return Some(format!("page_gen({pno:#x})"));
            }
            let exec = slot.is_some_and(|s| if mem.nx { s.perm.x } else { s.perm.r });
            if mem.page_exec_ok(pno) != exec {
                return Some(format!("page_exec_ok({pno:#x})"));
            }
            if mem.page_bytes(pno).is_some() != slot.is_some() {
                return Some(format!("page_bytes({pno:#x})"));
            }
        }
        None
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every op of a random map / skeleton / restore / snapshot
    /// sequence, the page table agrees with the `BTreeMap` reference.
    #[test]
    fn page_table_matches_the_btreemap_reference(
        nx in any::<bool>(),
        ops in vec(arb_table_op(), 1..40),
    ) {
        let mut mem = Mem::new();
        mem.nx = nx;
        let mut t = Tables { mem, reference: RefTable::default(), source: None, held: Vec::new() };
        for (i, op) in ops.iter().enumerate() {
            let applied = t.apply(op);
            prop_assert!(applied.is_ok(), "op {} = {:?}: {:?}", i, op, applied);
            let diff = t.diff();
            prop_assert!(diff.is_none(), "after op {} = {:?}: {:?}", i, op, diff);
        }
    }
}

/// A skeleton holds no pages until restored, and gets them back in
/// ascending order whatever order they are restored in; a page outside
/// every region comes back with no access at all.
#[test]
fn skeleton_restores_in_any_order_read_back_ascending() {
    let mut m = Mem::new();
    m.map(0x8000, 0x3000, Perm::RW, "heap").expect("map");
    m.map(0x1000, 0x2000, Perm::RX, "code").expect("map");
    m.write_bytes_host(0x9000, b"x").expect("w");
    let mut rebuilt = m.skeleton();
    assert_eq!((rebuilt.mapped_pages(), rebuilt.pages().count()), (0, 0));
    for pno in [9, 2, 8, 1, 10] {
        let (data, gen) = m.page_arc(pno).expect("mapped");
        rebuilt.restore_page(pno, data, gen);
    }
    rebuilt.restore_page(0x40, Arc::new(Page::zeroed()), 3);
    let order: Vec<u32> = rebuilt.page_table().map(|(p, _)| p).collect();
    assert_eq!(order, [1, 2, 8, 9, 10, 0x40]);
    assert_eq!(rebuilt.read_bytes(0x9000, 1), Ok(b"x".to_vec()));
    assert!(rebuilt.page_exec_ok(1) && !rebuilt.page_exec_ok(0x40));
    assert!(matches!(
        rebuilt.read_u8(0, 0x40_000),
        Err(Fault::Protection { .. })
    ));
    // A region's pages that were never restored stay unmapped, and a
    // later `map` over them is accepted, as over any unmapped page.
    let mut partial = m.skeleton();
    let (data, gen) = m.page_arc(9).expect("mapped");
    partial.restore_page(9, data, gen);
    assert!(partial.read_u8(0, 0x8000).is_err());
    assert!(partial.map(0x8000, 0x1000, Perm::R, "again").is_ok());
    assert!(partial.map(0x9000, 0x1000, Perm::R, "again").is_err());
    assert_eq!(
        partial.page_table().map(|(p, _)| p).collect::<Vec<_>>(),
        [8, 9]
    );
}
