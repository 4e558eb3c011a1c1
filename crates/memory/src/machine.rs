//! The machine memory allocator.
//!
//! [`MachineMemory`] models the host's physical RAM as a set of frames with
//! a deterministic first-fit extent allocator. It supports the two
//! operations the warm-VM reboot depends on:
//!
//! * `allocate` / `release` — ordinary frame allocation for domains and VMM
//!   structures,
//! * `reserve_exact` — claiming *specific* frames: after a quick reload the
//!   new VMM instance walks the preserved P2M-mapping table and re-reserves
//!   exactly the frames each frozen domain owns, *before* its own allocator
//!   hands them out to anything else (paper §4.3).
//!
//! A hardware reset (cold path) calls [`MachineMemory::hardware_reset`],
//! which frees everything — modelling that a reset does not guarantee memory
//! preservation.

use std::collections::BTreeMap;
use std::fmt;

use crate::frame::{total_frames, FrameRange, Mfn};

/// Error returned when an allocation or reservation cannot be satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// Not enough free frames to satisfy an allocation of `requested`.
    OutOfFrames {
        /// Frames requested.
        requested: u64,
        /// Frames currently free.
        free: u64,
    },
    /// A `reserve_exact` target is (partially) already allocated.
    AlreadyAllocated(FrameRange),
    /// A range lies (partially) outside machine memory.
    OutOfBounds(FrameRange),
    /// A release covered frames that were not allocated.
    NotAllocated(FrameRange),
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfFrames { requested, free } => {
                write!(
                    f,
                    "out of machine frames: requested {requested}, free {free}"
                )
            }
            MemoryError::AlreadyAllocated(r) => {
                write!(f, "range {r} is already allocated")
            }
            MemoryError::OutOfBounds(r) => write!(f, "range {r} is outside machine memory"),
            MemoryError::NotAllocated(r) => write!(f, "range {r} was not allocated"),
        }
    }
}

impl std::error::Error for MemoryError {}

/// Physical RAM: a deterministic first-fit extent allocator over machine
/// frames.
///
/// # Examples
///
/// ```
/// use rh_memory::machine::MachineMemory;
/// use rh_memory::frame::FRAMES_PER_GIB;
///
/// let mut ram = MachineMemory::new(12 * FRAMES_PER_GIB); // a 12 GiB host
/// let domain = ram.allocate(FRAMES_PER_GIB)?;            // a 1 GiB domain
/// assert_eq!(ram.allocated_frames(), FRAMES_PER_GIB);
/// ram.release(&domain)?;
/// assert_eq!(ram.allocated_frames(), 0);
/// # Ok::<(), rh_memory::machine::MemoryError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MachineMemory {
    total: u64,
    /// Free extents, keyed by start frame, coalesced and non-overlapping.
    free: BTreeMap<u64, u64>,
    /// Sum of the free extents' lengths.
    free_count: u64,
}

impl MachineMemory {
    /// Creates machine memory with `total_frames` frames, all free.
    ///
    /// # Panics
    ///
    /// Panics if `total_frames` is zero.
    pub fn new(total_frames: u64) -> Self {
        assert!(
            total_frames > 0,
            "machine memory must have at least one frame"
        );
        let mut free = BTreeMap::new();
        free.insert(0, total_frames);
        MachineMemory {
            total: total_frames,
            free,
            free_count: total_frames,
        }
    }

    /// Total frames installed.
    pub fn total_frames(&self) -> u64 {
        self.total
    }

    /// Frames currently free. O(1): the count is kept as extents change.
    pub fn free_frames(&self) -> u64 {
        self.free_count
    }

    /// Frames currently allocated.
    pub fn allocated_frames(&self) -> u64 {
        self.total - self.free_frames()
    }

    /// Number of free extents (fragmentation indicator).
    pub fn free_extents(&self) -> usize {
        self.free.len()
    }

    /// True if every frame in `range` is currently free.
    pub fn is_free(&self, range: &FrameRange) -> bool {
        let mut covered = range.start.0;
        let end = range.end().0;
        // Find the extent containing `covered`, repeatedly.
        while covered < end {
            let ext = self
                .free
                .range(..=covered)
                .next_back()
                .map(|(&s, &c)| (s, c));
            match ext {
                Some((s, c)) if s <= covered && covered < s + c => {
                    covered = s + c;
                }
                _ => return false,
            }
        }
        true
    }

    /// Counts how many frames of `range` are currently free.
    ///
    /// Zero means the whole range is allocated — the form the warm-reboot
    /// invariant takes: after a quick reload, every frame of a frozen
    /// domain must have been re-reserved, so none of its ranges may show
    /// up as free. The protocol checker (`rh-lint protocol`) calls this on
    /// every explored state.
    pub fn count_free_in(&self, range: &FrameRange) -> u64 {
        let end = range.end().0;
        let mut free = 0;
        // The extent covering the range start, if any…
        if let Some((&s, &c)) = self.free.range(..=range.start.0).next_back() {
            let lo = range.start.0.max(s);
            let hi = end.min(s + c);
            if lo < hi {
                free += hi - lo;
            }
        }
        // …plus every extent starting inside the range.
        for (&s, &c) in self.free.range(range.start.0 + 1..end) {
            free += (s + c).min(end) - s;
        }
        free
    }

    /// Allocates `count` frames first-fit, possibly split across several
    /// extents. The result is deterministic: lowest-addressed free extents
    /// are used first.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfFrames`] if fewer than `count` frames are
    /// free (no partial allocation happens).
    pub fn allocate(&mut self, count: u64) -> Result<Vec<FrameRange>, MemoryError> {
        if count == 0 {
            return Ok(Vec::new());
        }
        let free = self.free_frames();
        if free < count {
            return Err(MemoryError::OutOfFrames {
                requested: count,
                free,
            });
        }
        let mut remaining = count;
        let mut out = Vec::new();
        // The free-count check above guarantees the pool cannot run dry before
        // `remaining` does; the loop form keeps that panic-free.
        while remaining > 0 {
            let Some((&start, &len)) = self.free.iter().next() else {
                break;
            };
            let take = len.min(remaining);
            self.free.remove(&start);
            if take < len {
                self.free.insert(start + take, len - take);
            }
            out.push(FrameRange::new(Mfn(start), take));
            self.free_count -= take;
            remaining -= take;
        }
        Ok(out)
    }

    /// Claims exactly `range`, which must be entirely free.
    ///
    /// This is the quick-reload re-reservation primitive: the new VMM
    /// instance replays the preserved P2M table through this method.
    ///
    /// # Errors
    ///
    /// [`MemoryError::OutOfBounds`] if the range exceeds installed memory;
    /// [`MemoryError::AlreadyAllocated`] if any frame in it is not free.
    pub fn reserve_exact(&mut self, range: FrameRange) -> Result<(), MemoryError> {
        if range.end().0 > self.total {
            return Err(MemoryError::OutOfBounds(range));
        }
        if !self.is_free(&range) {
            return Err(MemoryError::AlreadyAllocated(range));
        }
        // Carve the range out of the free extents that cover it.
        let mut cursor = range.start.0;
        let end = range.end().0;
        while cursor < end {
            // `is_free` verified full coverage, so an extent containing
            // `cursor` always exists; bail out rather than panic if not.
            let Some((&s, &c)) = self.free.range(..=cursor).next_back() else {
                break;
            };
            debug_assert!(s <= cursor && cursor < s + c);
            self.free.remove(&s);
            if s < cursor {
                self.free.insert(s, cursor - s);
            }
            let ext_end = s + c;
            let take_end = ext_end.min(end);
            if take_end < ext_end {
                self.free.insert(take_end, ext_end - take_end);
            }
            self.free_count -= take_end - cursor;
            cursor = take_end;
        }
        Ok(())
    }

    /// Returns `ranges` to the free pool, coalescing neighbours.
    ///
    /// # Errors
    ///
    /// [`MemoryError::NotAllocated`] if any freed frame is already free
    /// (double free) and [`MemoryError::OutOfBounds`] if outside memory. The
    /// operation is atomic: on error nothing is freed.
    pub fn release(&mut self, ranges: &[FrameRange]) -> Result<(), MemoryError> {
        for r in ranges {
            if r.end().0 > self.total {
                return Err(MemoryError::OutOfBounds(*r));
            }
            // Reject a release overlapping any free extent.
            let overlapping = self
                .free
                .range(..r.end().0)
                .next_back()
                .is_some_and(|(&s, &c)| s + c > r.start.0);
            if overlapping {
                return Err(MemoryError::NotAllocated(*r));
            }
        }
        // Also reject overlap among the ranges themselves.
        for (i, a) in ranges.iter().enumerate() {
            for b in &ranges[i + 1..] {
                if a.overlaps(b) {
                    return Err(MemoryError::NotAllocated(*b));
                }
            }
        }
        for r in ranges {
            self.insert_free(r.start.0, r.count);
        }
        Ok(())
    }

    fn insert_free(&mut self, start: u64, count: u64) {
        self.free_count += count;
        let mut start = start;
        let mut count = count;
        // Coalesce with predecessor.
        if let Some((&ps, &pc)) = self.free.range(..start).next_back() {
            if ps + pc == start {
                self.free.remove(&ps);
                start = ps;
                count += pc;
            }
        }
        // Coalesce with successor.
        if let Some((&ns, &nc)) = self.free.range(start + count..).next() {
            if start + count == ns {
                self.free.remove(&ns);
                count += nc;
            }
        }
        self.free.insert(start, count);
    }

    /// A hardware reset: every frame becomes free again. Contents are lost
    /// separately (see [`crate::contents::FrameContents::scrub_all`]).
    pub fn hardware_reset(&mut self) {
        self.free.clear();
        self.free.insert(0, self.total);
        self.free_count = self.total;
    }

    /// Verifies internal consistency (free extents sorted, coalesced, in
    /// bounds, non-overlapping). Used by property tests.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut prev_end: Option<u64> = None;
        for (&s, &c) in &self.free {
            if c == 0 {
                return Err(format!("zero-length free extent at {s}"));
            }
            if s + c > self.total {
                return Err(format!("free extent [{s}, {}) out of bounds", s + c));
            }
            if let Some(pe) = prev_end {
                if s < pe {
                    return Err(format!("overlapping free extents at {s}"));
                }
                if s == pe {
                    return Err(format!("uncoalesced free extents at {s}"));
                }
            }
            prev_end = Some(s + c);
        }
        let sum: u64 = self.free.values().sum();
        if sum != self.free_count {
            return Err(format!(
                "free count {} disagrees with the extents' {sum}",
                self.free_count
            ));
        }
        Ok(())
    }
}

/// Sums the frames covered by an allocation result.
pub fn allocation_frames(ranges: &[FrameRange]) -> u64 {
    total_frames(ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FRAMES_PER_GIB;

    #[test]
    fn fresh_memory_is_all_free() {
        let ram = MachineMemory::new(1000);
        assert_eq!(ram.total_frames(), 1000);
        assert_eq!(ram.free_frames(), 1000);
        assert_eq!(ram.allocated_frames(), 0);
        assert_eq!(ram.free_extents(), 1);
        ram.check_invariants().unwrap();
    }

    #[test]
    fn allocate_and_release_round_trip() {
        let mut ram = MachineMemory::new(1000);
        let a = ram.allocate(300).unwrap();
        assert_eq!(allocation_frames(&a), 300);
        assert_eq!(ram.allocated_frames(), 300);
        ram.release(&a).unwrap();
        assert_eq!(ram.allocated_frames(), 0);
        assert_eq!(ram.free_extents(), 1, "release must coalesce");
        ram.check_invariants().unwrap();
    }

    #[test]
    fn allocation_is_first_fit_deterministic() {
        let mut ram = MachineMemory::new(1000);
        let a = ram.allocate(100).unwrap();
        assert_eq!(a, vec![FrameRange::new(Mfn(0), 100)]);
        let b = ram.allocate(100).unwrap();
        assert_eq!(b, vec![FrameRange::new(Mfn(100), 100)]);
        // Free the first, reallocate: gets the low hole again.
        ram.release(&a).unwrap();
        let c = ram.allocate(50).unwrap();
        assert_eq!(c, vec![FrameRange::new(Mfn(0), 50)]);
    }

    #[test]
    fn fragmented_allocation_spans_extents() {
        let mut ram = MachineMemory::new(300);
        let a = ram.allocate(100).unwrap(); // [0,100)
        let b = ram.allocate(100).unwrap(); // [100,200)
        let _c = ram.allocate(100).unwrap(); // [200,300)
        ram.release(&a).unwrap();
        ram.release(&b).unwrap();
        // Now free: [0,200). Allocate 150 -> single extent [0,150).
        let d = ram.allocate(150).unwrap();
        assert_eq!(d, vec![FrameRange::new(Mfn(0), 150)]);
        ram.check_invariants().unwrap();
    }

    #[test]
    fn allocation_spanning_two_holes() {
        let mut ram = MachineMemory::new(300);
        let a = ram.allocate(100).unwrap(); // [0,100)
        let _b = ram.allocate(100).unwrap(); // [100,200) kept
        let c = ram.allocate(100).unwrap(); // [200,300)
        ram.release(&a).unwrap();
        ram.release(&c).unwrap();
        // Free: [0,100) and [200,300). Ask for 150.
        let d = ram.allocate(150).unwrap();
        assert_eq!(
            d,
            vec![FrameRange::new(Mfn(0), 100), FrameRange::new(Mfn(200), 50)]
        );
        ram.check_invariants().unwrap();
    }

    #[test]
    fn out_of_frames_is_reported_without_partial_allocation() {
        let mut ram = MachineMemory::new(100);
        let _a = ram.allocate(90).unwrap();
        let err = ram.allocate(20).unwrap_err();
        assert_eq!(
            err,
            MemoryError::OutOfFrames {
                requested: 20,
                free: 10
            }
        );
        assert_eq!(ram.free_frames(), 10);
    }

    #[test]
    fn reserve_exact_claims_specific_frames() {
        let mut ram = MachineMemory::new(1000);
        let r = FrameRange::new(Mfn(500), 100);
        ram.reserve_exact(r).unwrap();
        assert_eq!(ram.allocated_frames(), 100);
        assert!(!ram.is_free(&r));
        // Ordinary allocation must now avoid the reserved range.
        let a = ram.allocate(600).unwrap();
        for got in &a {
            assert!(!got.overlaps(&r), "{got} overlaps reservation {r}");
        }
        ram.check_invariants().unwrap();
    }

    #[test]
    fn reserve_exact_rejects_allocated_frames() {
        let mut ram = MachineMemory::new(1000);
        let a = ram.allocate(100).unwrap();
        let err = ram.reserve_exact(a[0]).unwrap_err();
        assert!(matches!(err, MemoryError::AlreadyAllocated(_)));
    }

    #[test]
    fn reserve_exact_rejects_out_of_bounds() {
        let mut ram = MachineMemory::new(100);
        let err = ram.reserve_exact(FrameRange::new(Mfn(90), 20)).unwrap_err();
        assert!(matches!(err, MemoryError::OutOfBounds(_)));
    }

    #[test]
    fn reserve_exact_middle_of_extent_splits_it() {
        let mut ram = MachineMemory::new(100);
        ram.reserve_exact(FrameRange::new(Mfn(40), 20)).unwrap();
        assert_eq!(ram.free_extents(), 2);
        assert!(ram.is_free(&FrameRange::new(Mfn(0), 40)));
        assert!(ram.is_free(&FrameRange::new(Mfn(60), 40)));
        ram.check_invariants().unwrap();
    }

    #[test]
    fn double_free_rejected() {
        let mut ram = MachineMemory::new(100);
        let a = ram.allocate(10).unwrap();
        ram.release(&a).unwrap();
        let err = ram.release(&a).unwrap_err();
        assert!(matches!(err, MemoryError::NotAllocated(_)));
    }

    #[test]
    fn release_rejects_self_overlapping_input() {
        let mut ram = MachineMemory::new(100);
        let _a = ram.allocate(20).unwrap();
        let dup = vec![FrameRange::new(Mfn(0), 10), FrameRange::new(Mfn(5), 10)];
        let err = ram.release(&dup).unwrap_err();
        assert!(matches!(err, MemoryError::NotAllocated(_)));
        // Atomic: nothing was freed.
        assert_eq!(ram.allocated_frames(), 20);
    }

    #[test]
    fn hardware_reset_frees_everything() {
        let mut ram = MachineMemory::new(12 * FRAMES_PER_GIB);
        let _a = ram.allocate(FRAMES_PER_GIB).unwrap();
        let _b = ram.allocate(2 * FRAMES_PER_GIB).unwrap();
        ram.hardware_reset();
        assert_eq!(ram.free_frames(), 12 * FRAMES_PER_GIB);
        assert_eq!(ram.free_extents(), 1);
        ram.check_invariants().unwrap();
    }

    #[test]
    fn is_free_handles_partial_coverage() {
        let mut ram = MachineMemory::new(100);
        ram.reserve_exact(FrameRange::new(Mfn(50), 10)).unwrap();
        assert!(ram.is_free(&FrameRange::new(Mfn(0), 50)));
        assert!(!ram.is_free(&FrameRange::new(Mfn(45), 10)));
        assert!(!ram.is_free(&FrameRange::new(Mfn(55), 10)));
        assert!(ram.is_free(&FrameRange::new(Mfn(60), 40)));
    }

    #[test]
    fn zero_allocation_is_empty() {
        let mut ram = MachineMemory::new(10);
        assert_eq!(ram.allocate(0).unwrap(), Vec::new());
    }

    #[test]
    fn gigabyte_scale_allocations_stay_compact() {
        // An 11 GiB domain on a 12 GiB host is a handful of extents, not
        // millions of entries.
        let mut ram = MachineMemory::new(12 * FRAMES_PER_GIB);
        let a = ram.allocate(11 * FRAMES_PER_GIB).unwrap();
        assert_eq!(a.len(), 1);
        assert_eq!(allocation_frames(&a), 11 * FRAMES_PER_GIB);
    }
}
