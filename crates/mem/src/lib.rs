//! Node memory system model for the SHRIMP reproduction.
//!
//! Each SHRIMP node is a DEC 560ST PC whose memory system has three
//! properties the paper's results hinge on (§2.1):
//!
//! 1. the caches snoop the memory bus and stay consistent with all main
//!    memory transactions, including the network interface's;
//! 2. caching policy is selectable **per page** (write-back, write-through,
//!    or uncached) — automatic-update bindings need write-through pages so
//!    every store appears on the bus where the NIC snoops it;
//! 3. the memory bus does **not cycle-share** between the CPU and any other
//!    master — the fact behind two of the paper's "surprise" results
//!    (deliberate-update queueing §4.5.3 and outgoing-FIFO sizing §4.5.2).
//!
//! This crate provides physical memory with real byte contents (so data
//! transferred through the simulated NIC is checked end-to-end), per-node
//! virtual address spaces with page pinning, the per-page cache mode, a
//! snoop hook for the NIC's memory-bus board, and the exclusively-arbitrated
//! memory bus.
//!
//! Physical pages are handed out densely from page 1 and virtual pages from
//! page 16, so page state and translations live in `Vec`s indexed by page
//! number: an access costs a bounds-checked load, not a hash probe. A page's
//! bytes are allocated on its first write; a never-written page reads (and
//! checkpoints) as zeros without occupying host memory.

#![warn(missing_docs)]

pub mod addr;
pub mod bus;
pub mod node;
pub mod space;

pub use addr::{Paddr, Vaddr, PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, WORD_BYTES};
pub use bus::MemBus;
pub use node::{CacheMode, NodeMem};
pub use space::AddressSpace;
