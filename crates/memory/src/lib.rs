//! # rh-memory — the machine memory substrate
//!
//! Models the physical RAM of the consolidated server that RootHammer-RS's
//! VMM manages, with exactly the structures the warm-VM reboot relies on
//! (paper §4.1):
//!
//! * [`frame`] — machine/pseudo-physical frame numbers and extents,
//! * [`machine`] — a deterministic extent allocator over machine frames,
//!   including the `reserve_exact` primitive quick reload uses to re-claim
//!   frozen domain memory,
//! * [`contents`] — per-frame content signatures, so "memory preserved
//!   across the reboot" is a verifiable digest equality,
//! * [`p2m`] — the P2M-mapping table (2 MB per GB of pseudo-physical
//!   memory) that survives the reboot and drives re-reservation,
//! * [`heap`] — the 16 MB VMM heap with leak (software aging) accounting,
//! * [`layout`] — placement of the preserved metadata regions (VMM image,
//!   P2M tables, execution-state slots),
//! * [`balloon`] — the one ballooning mechanism
//!   ([`balloon::inflate`]/[`balloon::deflate`]) that lets
//!   pseudo-physical memory exceed machine memory, used by the VMM and by
//!   the [`balloon::BalloonController`] policy layer
//!   (reclaim-under-pressure, bounded deflate-on-demand) the serverless
//!   cell builds on.
//!
//! ## Example: freeze, reboot, verify
//!
//! ```
//! use rh_memory::contents::{DigestBuilder, FrameContents};
//! use rh_memory::frame::{FrameRange, Mfn, Pfn};
//! use rh_memory::machine::MachineMemory;
//! use rh_memory::p2m::P2mTable;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ram = MachineMemory::new(1 << 20);
//! let mut mem = FrameContents::new();
//!
//! // A domain gets frames; its contents are initialized.
//! let frames = ram.allocate(4096)?;
//! let mut p2m = P2mTable::new();
//! p2m.map_contiguous(Pfn(0), &frames)?;
//! for (i, r) in frames.iter().enumerate() {
//!     mem.fill_pattern(*r, 0x1234 + i as u64);
//! }
//!
//! // Digest the domain's memory in pseudo-physical order.
//! let digest = |mem: &FrameContents, p2m: &P2mTable| {
//!     let mut d = DigestBuilder::new();
//!     for (pfn, mfn) in p2m.iter_pages() {
//!         d.add(pfn.0, mem.read(mfn));
//!     }
//!     d.finish()
//! };
//! let before = digest(&mem, &p2m);
//!
//! // Quick reload: allocator state is rebuilt, then the preserved P2M
//! // table re-reserves the domain's frames. Contents were never touched.
//! ram.hardware_reset(); // (the allocator metadata, not the DRAM cells)
//! for r in p2m.machine_ranges() {
//!     ram.reserve_exact(r)?;
//! }
//! assert_eq!(digest(&mem, &p2m), before);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod balloon;
pub mod contents;
pub mod frame;
pub mod heap;
pub mod layout;
pub mod machine;
pub mod p2m;

pub use balloon::{BalloonController, BalloonError};
pub use contents::{DigestBuilder, FrameContents};
pub use frame::{FrameRange, Mfn, Pfn, FRAMES_PER_GIB, PAGE_SIZE};
pub use heap::{HeapExhausted, VmmHeap};
pub use layout::{MemoryLayout, Region, RegionPurpose};
pub use machine::{MachineMemory, MemoryError};
pub use p2m::{P2mError, P2mTable};
