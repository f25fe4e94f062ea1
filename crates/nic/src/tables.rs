//! The Outgoing and Incoming Page Tables.
//!
//! §2.3: the OPT keeps a one-to-one mapping between physical page numbers
//! and OPT entries, so a snooped write can index the OPT directly with its
//! page number. Imports for deliberate update also allocate OPT entries,
//! addressed through proxy indices allocated from a high range (mirroring
//! the single physical OPT RAM of the real board). Both index spaces are
//! dense, so each is a plain vector indexed directly, as on the board.

use std::cell::RefCell;

use shrimp_net::NodeId;

/// First OPT index used for proxy (import) entries, far above any physical
/// page number a node can own.
pub const PROXY_INDEX_BASE: u64 = 1 << 40;

/// One Outgoing Page Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptEntry {
    /// Destination node of the mapped remote page.
    pub dst_node: NodeId,
    /// Destination physical page number.
    pub dst_page: u64,
    /// Automatic update enabled for this entry (snooped writes to the
    /// corresponding physical page become packets).
    pub au_enable: bool,
    /// Combining enabled for this binding (§4.5.1; per-page bit).
    pub combine: bool,
    /// Interrupt-request bit attached to automatic-update packets from this
    /// page (§2.3: the AU interrupt bit is stored in the OPT).
    pub interrupt: bool,
}

/// One Incoming Page Table entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IptEntry {
    /// Packets to this page are accepted (the page is an exported,
    /// pinned receive-buffer page).
    pub accept: bool,
    /// Receiver-side interrupt-enable bit: an arriving packet interrupts the
    /// host iff this and the packet's header bit are both set (§2.3).
    pub interrupt_enable: bool,
    /// Which exported buffer this page belongs to; routes notifications.
    pub buffer_id: u32,
}

/// The two page tables of one NIC.
#[derive(Debug, Default)]
pub struct PageTables {
    /// OPT entries of the node's own physical pages, indexed by page.
    own: RefCell<Vec<Option<OptEntry>>>,
    /// OPT entries of allocated proxy indices, at `index - PROXY_INDEX_BASE`;
    /// the proxy allocator's cursor is the vector's end.
    proxies: RefCell<Vec<Option<OptEntry>>>,
    /// IPT entries, indexed by physical page.
    ipt: RefCell<Vec<Option<IptEntry>>>,
}

/// Stores `entry` at `index`, growing `table` as needed.
fn store<T>(table: &RefCell<Vec<Option<T>>>, index: u64, entry: Option<T>) {
    let mut t = table.borrow_mut();
    let i = index as usize;
    if t.len() <= i && entry.is_some() {
        t.resize_with(i + 1, || None);
    }
    if let Some(slot) = t.get_mut(i) {
        *slot = entry;
    }
}

fn load<T: Copy>(table: &RefCell<Vec<Option<T>>>, index: u64) -> Option<T> {
    table.borrow().get(index as usize).copied().flatten()
}

/// Every present entry with its index, in index order.
fn entries<T: Copy>(table: &[Option<T>], base: u64) -> impl Iterator<Item = (u64, T)> + '_ {
    (base..).zip(table).filter_map(|(i, e)| Some((i, (*e)?)))
}

impl PageTables {
    /// Creates empty tables.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops every OPT/IPT entry and rewinds the proxy allocator — the
    /// board's RAM after a power cycle. A restarted node re-running the same
    /// export/import sequence reallocates the same proxy indices.
    pub fn clear(&self) {
        self.own.borrow_mut().clear();
        self.proxies.borrow_mut().clear();
        self.ipt.borrow_mut().clear();
    }

    /// Allocates `n` consecutive proxy OPT indices (for an import) and
    /// returns the first.
    pub fn alloc_proxy_range(&self, n: usize) -> u64 {
        let first = self.next_proxy();
        let mut proxies = self.proxies.borrow_mut();
        let len = proxies.len() + n;
        proxies.resize_with(len, || None);
        first
    }

    /// Installs or replaces an OPT entry.
    ///
    /// # Panics
    ///
    /// Panics on a proxy index the allocator has not handed out.
    pub fn opt_set(&self, index: u64, entry: OptEntry) {
        self.opt_store(index, Some(entry));
    }

    /// Removes an OPT entry.
    pub fn opt_clear(&self, index: u64) {
        self.opt_store(index, None);
    }

    fn opt_store(&self, index: u64, entry: Option<OptEntry>) {
        match index.checked_sub(PROXY_INDEX_BASE) {
            None => store(&self.own, index, entry),
            Some(i) => {
                assert!(
                    entry.is_none() || index < self.next_proxy(),
                    "OPT proxy index {index:#x} was never allocated"
                );
                store(&self.proxies, i, entry);
            }
        }
    }

    /// Looks up an OPT entry.
    pub fn opt_get(&self, index: u64) -> Option<OptEntry> {
        match index.checked_sub(PROXY_INDEX_BASE) {
            None => load(&self.own, index),
            Some(i) => load(&self.proxies, i),
        }
    }

    /// Installs or replaces an IPT entry.
    pub fn ipt_set(&self, page: u64, entry: IptEntry) {
        store(&self.ipt, page, Some(entry));
    }

    /// Removes an IPT entry.
    pub fn ipt_clear(&self, page: u64) {
        store(&self.ipt, page, None);
    }

    /// Looks up an IPT entry.
    pub fn ipt_get(&self, page: u64) -> Option<IptEntry> {
        load(&self.ipt, page)
    }

    /// Flips the receiver-side interrupt-enable bit on every page of a
    /// buffer (used by notification enable/disable).
    pub fn ipt_set_interrupt_for_buffer(&self, buffer_id: u32, enable: bool) {
        for e in self.ipt.borrow_mut().iter_mut().flatten() {
            if e.buffer_id == buffer_id {
                e.interrupt_enable = enable;
            }
        }
    }

    /// The next proxy index the allocator will hand out. Checkpoint restore
    /// verifies this against the captured value after replaying the
    /// import/export preamble.
    pub fn next_proxy(&self) -> u64 {
        PROXY_INDEX_BASE + self.proxies.borrow().len() as u64
    }

    /// Every OPT entry in index order (own pages, then proxies) — the
    /// deterministic table image a checkpoint stores.
    pub fn opt_entries(&self) -> Vec<(u64, OptEntry)> {
        let (own, proxies) = (self.own.borrow(), self.proxies.borrow());
        entries(&own, 0)
            .chain(entries(&proxies, PROXY_INDEX_BASE))
            .collect()
    }

    /// Every IPT entry in page order — the deterministic table image a
    /// checkpoint stores.
    pub fn ipt_entries(&self) -> Vec<(u64, IptEntry)> {
        entries(&self.ipt.borrow(), 0).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(node: usize) -> OptEntry {
        OptEntry {
            dst_node: NodeId(node),
            dst_page: 42,
            au_enable: false,
            combine: false,
            interrupt: false,
        }
    }

    #[test]
    fn opt_set_get_clear() {
        let t = PageTables::new();
        assert_eq!(t.opt_get(3), None);
        t.opt_set(3, entry(1));
        assert_eq!(t.opt_get(3).unwrap().dst_node, NodeId(1));
        t.opt_clear(3);
        assert_eq!(t.opt_get(3), None);
    }

    #[test]
    fn entries_list_own_pages_then_proxies_in_index_order() {
        let t = PageTables::new();
        let proxy = t.alloc_proxy_range(3);
        t.opt_set(proxy + 2, entry(5));
        t.opt_set(9, entry(2));
        t.opt_set(proxy, entry(4));
        t.opt_set(1, entry(1));
        t.opt_set(4, entry(3));
        t.opt_clear(4);
        let got: Vec<(u64, usize)> = t
            .opt_entries()
            .into_iter()
            .map(|(i, e)| (i, e.dst_node.0))
            .collect();
        assert_eq!(got, vec![(1, 1), (9, 2), (proxy, 4), (proxy + 2, 5)]);

        let ipt = |buffer_id| IptEntry {
            accept: true,
            interrupt_enable: false,
            buffer_id,
        };
        t.ipt_set(7, ipt(0));
        t.ipt_set(2, ipt(1));
        let pages: Vec<u64> = t.ipt_entries().into_iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![2, 7]);

        t.clear();
        assert!(t.opt_entries().is_empty() && t.ipt_entries().is_empty());
        assert_eq!(t.next_proxy(), PROXY_INDEX_BASE);
    }

    #[test]
    fn lookups_out_of_range_miss() {
        let t = PageTables::new();
        t.opt_set(2, entry(1));
        assert_eq!(t.opt_get(3), None);
        assert_eq!(t.opt_get(PROXY_INDEX_BASE), None);
        assert_eq!(t.ipt_get(u64::MAX), None);
    }

    #[test]
    #[should_panic(expected = "never allocated")]
    fn opt_set_on_unallocated_proxy_panics() {
        let t = PageTables::new();
        t.opt_set(t.alloc_proxy_range(1) + 1, entry(1));
    }

    #[test]
    fn proxy_ranges_are_disjoint_and_above_phys() {
        let t = PageTables::new();
        let a = t.alloc_proxy_range(4);
        let b = t.alloc_proxy_range(2);
        assert!(a >= PROXY_INDEX_BASE);
        assert_eq!(b, a + 4);
    }

    #[test]
    fn ipt_buffer_interrupt_toggle() {
        let t = PageTables::new();
        for p in 0..4 {
            t.ipt_set(
                p,
                IptEntry {
                    accept: true,
                    interrupt_enable: false,
                    buffer_id: (p % 2) as u32,
                },
            );
        }
        t.ipt_set_interrupt_for_buffer(0, true);
        assert!(t.ipt_get(0).unwrap().interrupt_enable);
        assert!(!t.ipt_get(1).unwrap().interrupt_enable);
        assert!(t.ipt_get(2).unwrap().interrupt_enable);
    }
}
