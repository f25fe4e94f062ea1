//! Model-based test of the memory layer: random sequences of allocation,
//! reads, the three write paths, pinning, cache modes and power-cycle
//! resets run against a `BTreeMap` reference of every byte ever written.
//! A byte the reference does not hold must read as zero, so reads of
//! never-written pages are checked on every sequence. Unit tests below pin
//! the checkpoint image of untouched pages and the layer's panic messages.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use shrimp_mem::addr::page_chunks;
use shrimp_mem::{AddressSpace, CacheMode, NodeMem, Paddr, Vaddr, PAGE_SIZE};
use shrimp_testkit::prop::*;
use shrimp_testkit::{prop_assert, prop_assert_eq, props};

/// First virtual page an [`AddressSpace`] hands out.
const FIRST_VIRT_PAGE: u64 = 16;

/// A byte range, resolved against the allocated pages when it runs:
/// page `page % allocated`, starting at `offset`, `len` bytes long
/// (clamped to the end of allocated memory).
#[derive(Debug, Clone, Copy)]
struct Span {
    page: u64,
    offset: usize,
    len: usize,
}

#[derive(Debug, Clone)]
enum Op {
    Alloc(usize),
    Read(Span),
    ReadVirtual(Span),
    WriteRaw(Span, u8),
    CpuStore(Span, u8),
    DmaWrite(Span, u8),
    Pin(u64),
    Unpin(u64),
    SetCacheMode(u64, CacheMode),
    Reset,
}

fn span() -> Gen<Span> {
    // Half the spans start in a page's last 64 bytes, so many cross pages.
    let offset = one_of(vec![
        usize_in(0..PAGE_SIZE),
        usize_in(PAGE_SIZE - 64..PAGE_SIZE),
    ]);
    let len = one_of(vec![usize_in(1..128), usize_in(1..3 * PAGE_SIZE)]);
    zip3(u64_in(0..64), offset, len).map(|(page, offset, len)| Span { page, offset, len })
}

fn op() -> Gen<Op> {
    let mode = select(vec![
        CacheMode::WriteBack,
        CacheMode::WriteThrough,
        CacheMode::Uncached,
    ]);
    one_of(vec![
        usize_in(1..5).map(Op::Alloc),
        span().map(Op::Read),
        span().map(Op::ReadVirtual),
        zip(span(), any_u8()).map(|(s, b)| Op::WriteRaw(s, b)),
        zip(span(), any_u8()).map(|(s, b)| Op::CpuStore(s, b)),
        zip(span(), any_u8()).map(|(s, b)| Op::DmaWrite(s, b)),
        u64_in(0..64).map(Op::Pin),
        u64_in(0..64).map(Op::Unpin),
        zip(u64_in(0..64), mode).map(|(p, m)| Op::SetCacheMode(p, m)),
        just(Op::Reset),
    ])
}

/// The reference: what the memory layer must be observationally.
#[derive(Default)]
struct Model {
    pages: u64,
    bytes: BTreeMap<u64, u8>,
    modes: BTreeMap<u64, CacheMode>,
    pins: BTreeMap<u64, u32>,
}

impl Model {
    /// Physical page of allocated page number `sel` (modulo the count).
    fn page(&self, sel: u64) -> u64 {
        1 + sel % self.pages
    }

    /// The physical address and clamped length of `s`.
    fn resolve(&self, s: Span) -> (u64, usize) {
        let start = self.page(s.page) * PAGE_SIZE as u64 + s.offset as u64;
        let end = (self.pages + 1) * PAGE_SIZE as u64;
        (start, s.len.min((end - start) as usize))
    }

    fn read(&self, addr: u64, len: usize) -> Vec<u8> {
        (addr..addr + len as u64)
            .map(|a| self.bytes.get(&a).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, addr: u64, data: &[u8]) {
        for (a, &b) in (addr..).zip(data) {
            self.bytes.insert(a, b);
        }
    }

    fn mode(&self, page: u64) -> CacheMode {
        self.modes.get(&page).copied().unwrap_or_default()
    }

    /// The whole memory image, page by page.
    fn image(&self) -> Vec<(u64, Vec<u8>)> {
        (1..=self.pages)
            .map(|p| (p, self.read(p * PAGE_SIZE as u64, PAGE_SIZE)))
            .collect()
    }
}

/// Distinct bytes per written position, so a misplaced byte shows.
fn pattern(seed: u8, len: usize) -> Vec<u8> {
    (0..len).map(|i| seed.wrapping_add(i as u8 | 1)).collect()
}

props! {
    cases = 64;

    /// NodeMem and AddressSpace behave exactly like the byte-map model
    /// across arbitrary operation sequences, resets included.
    fn memory_matches_byte_map_model(ops in vec_of(op(), 1..40)) {
        let mem = NodeMem::new();
        let space = AddressSpace::new(mem.clone());
        let snooped: Rc<RefCell<Vec<(u64, usize)>>> = Rc::default();
        let log = snooped.clone();
        mem.set_snoop(move |a, d| log.borrow_mut().push((a.0, d.len())));
        let mut model = Model::default();

        for op in ops {
            let needs_pages = !matches!(op, Op::Alloc(_) | Op::Reset);
            if needs_pages && model.pages == 0 {
                continue;
            }
            match op {
                Op::Alloc(n) => {
                    let v = space.alloc(n);
                    prop_assert_eq!(v.page(), FIRST_VIRT_PAGE + model.pages);
                    prop_assert_eq!(space.translate(v).page(), model.pages + 1);
                    model.pages += n as u64;
                }
                Op::Read(s) => {
                    let (addr, len) = model.resolve(s);
                    let mut buf = vec![0xEE; len];
                    mem.read(Paddr(addr), &mut buf);
                    prop_assert_eq!(buf, model.read(addr, len));
                }
                Op::ReadVirtual(s) => {
                    // One space over the memory: virtual page 16 + k maps to
                    // physical page 1 + k.
                    let (addr, len) = model.resolve(s);
                    let v = Vaddr(addr + (FIRST_VIRT_PAGE - 1) * PAGE_SIZE as u64);
                    prop_assert_eq!(space.translate(v), Paddr(addr));
                    let mut buf = vec![0xEE; len];
                    space.read(v, &mut buf);
                    prop_assert_eq!(buf, model.read(addr, len));
                }
                Op::WriteRaw(s, seed) | Op::DmaWrite(s, seed) | Op::CpuStore(s, seed) => {
                    let (addr, len) = model.resolve(s);
                    let data = pattern(seed, len);
                    snooped.borrow_mut().clear();
                    match op {
                        Op::WriteRaw(..) => mem.write_raw(Paddr(addr), &data),
                        Op::DmaWrite(..) => mem.dma_write(Paddr(addr), &data),
                        _ => mem.cpu_store(Paddr(addr), &data),
                    }
                    // Only CPU stores to non-write-back pages reach the bus.
                    let want: Vec<(u64, usize)> = match op {
                        Op::CpuStore(..) => page_chunks(addr, len)
                            .filter(|&(p, _, _)| model.mode(p) != CacheMode::WriteBack)
                            .map(|(p, off, n)| (p * PAGE_SIZE as u64 + off as u64, n))
                            .collect(),
                        _ => Vec::new(),
                    };
                    prop_assert_eq!(snooped.borrow().clone(), want);
                    model.write(addr, &data);
                }
                Op::Pin(sel) => {
                    let p = model.page(sel);
                    mem.pin(p);
                    *model.pins.entry(p).or_default() += 1;
                }
                Op::Unpin(sel) => {
                    let p = model.page(sel);
                    if let Some(c) = model.pins.get_mut(&p) {
                        mem.unpin(p);
                        *c -= 1;
                        if *c == 0 {
                            model.pins.remove(&p);
                        }
                    }
                }
                Op::SetCacheMode(sel, m) => {
                    let p = model.page(sel);
                    mem.set_cache_mode(p, m);
                    model.modes.insert(p, m);
                }
                Op::Reset => {
                    mem.reset();
                    space.reset();
                    model = Model::default();
                }
            }
            prop_assert_eq!(mem.allocated_pages() as u64, model.pages);
            prop_assert_eq!(mem.next_phys_page(), model.pages + 1);
            for p in 1..=model.pages {
                prop_assert_eq!(mem.cache_mode_of(p), model.mode(p));
                prop_assert_eq!(mem.is_pinned(p), model.pins.contains_key(&p));
            }
        }
        let dump = mem.dump_pages();
        prop_assert!(dump == model.image(), "checkpoint image differs from the model");
    }
}

#[test]
fn untouched_pages_dump_as_zeros_in_page_order() {
    let mem = NodeMem::new();
    let first = mem.alloc_pages(4);
    assert_eq!(first, 1);
    mem.write_raw(Paddr::from_parts(3, 7), &[9, 9]);
    let dump = mem.dump_pages();
    let pages: Vec<u64> = dump.iter().map(|(p, _)| *p).collect();
    assert_eq!(pages, vec![1, 2, 3, 4]);
    for (p, data) in &dump {
        assert_eq!(data.len(), PAGE_SIZE);
        let mut want = vec![0u8; PAGE_SIZE];
        if *p == 3 {
            want[7..9].copy_from_slice(&[9, 9]);
        }
        assert_eq!(data, &want, "page {p}");
    }
}

#[test]
fn reads_of_never_written_pages_are_zero() {
    let mem = NodeMem::new();
    let space = AddressSpace::new(mem.clone());
    let v = space.alloc(3);
    space.store_u32(v.add(PAGE_SIZE as u64 * 2), 0xFFFF_FFFF);
    let mut buf = vec![0xAA; 2 * PAGE_SIZE];
    space.read(v.add(10), &mut buf);
    assert!(buf[..2 * PAGE_SIZE - 10].iter().all(|&b| b == 0));
    assert_eq!(
        &buf[2 * PAGE_SIZE - 10..],
        &[0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0]
    );
    assert_eq!(mem.read_u64(Paddr::from_parts(1, 0)), 0);
}

#[test]
#[should_panic(expected = "access to unallocated physical page 0")]
fn access_to_page_zero_panics() {
    let mem = NodeMem::new();
    mem.alloc_pages(1);
    mem.read_u32(Paddr(8));
}

#[test]
#[should_panic(expected = "access to unallocated physical page 3")]
fn write_past_the_end_panics() {
    let mem = NodeMem::new();
    mem.alloc_pages(2);
    // Starts on the last allocated page and runs off its end.
    mem.write_raw(Paddr::from_parts(2, PAGE_SIZE - 2), &[1; 4]);
}

#[test]
#[should_panic(expected = "access to unallocated physical page 1")]
fn access_after_reset_panics() {
    let mem = NodeMem::new();
    mem.alloc_pages(1);
    mem.reset();
    mem.read_u32(Paddr::from_parts(1, 0));
}

#[test]
#[should_panic(expected = "unmapped virtual page 0xf")]
fn virtual_page_below_the_guard_gap_panics() {
    let space = AddressSpace::new(NodeMem::new());
    space.alloc(1);
    space.read_u32(Vaddr::from_parts(FIRST_VIRT_PAGE - 1, 0));
}

#[test]
#[should_panic(expected = "unmapped virtual page 0x12")]
fn virtual_page_past_the_end_panics() {
    let space = AddressSpace::new(NodeMem::new());
    space.alloc(2);
    space.translate(Vaddr::from_parts(FIRST_VIRT_PAGE + 2, 0));
}

#[test]
#[should_panic(expected = "unpin of unpinned page")]
fn unpin_of_unpinned_page_panics() {
    let mem = NodeMem::new();
    let p = mem.alloc_pages(1);
    mem.pin(p);
    mem.unpin(p);
    mem.unpin(p);
}
