//! Saved memory images — the **saved-VM reboot** baseline's data path.
//!
//! Xen's classic `xm save` walks a domain's memory and writes the whole
//! image to a disk file; `xm restore` reads it back into freshly allocated
//! frames (paper §3.1 calls this the ACPI-S4 "hibernation" analogue). The
//! paper's point is that this is *memory-size-proportional* and slow; the
//! warm-VM reboot never touches the image at all.
//!
//! [`MemoryImage`] captures a domain's logical (pseudo-physical) contents
//! extent-wise, and restores them onto a *different* machine-frame mapping
//! with bit-identical logical contents — verified via
//! [`logical_digest`]. [`ImageStore`] models the on-disk save files.

use std::collections::BTreeMap;
use std::fmt;

use rh_memory::contents::{DigestBuilder, FrameContents};
use rh_memory::frame::{FrameRange, Mfn, Pfn, PAGE_SIZE};
use rh_memory::p2m::P2mTable;

/// A pattern run in pseudo-physical space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LogicalRun {
    pfn: u64,
    count: u64,
    salt: u64,
    base: u64,
}

/// Error returned when a restore target does not match the image geometry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreMismatch {
    /// Pages in the image.
    pub image_pages: u64,
    /// Pages mapped in the target P2M table.
    pub target_pages: u64,
}

impl fmt::Display for RestoreMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "restore target has {} pages but image holds {}",
            self.target_pages, self.image_pages
        )
    }
}

impl std::error::Error for RestoreMismatch {}

/// A captured domain memory image in canonical form, addressed by PFN.
///
/// The form is canonical: the mapped PFN space as merged extents, the
/// pattern runs in PFN order with every pair that continues (adjacent
/// PFNs, adjacent logical bases, same salt) merged into one, and the
/// explicit writes in PFN order. It does not depend on how the machine
/// frames under the domain are fragmented, so an image restored onto
/// other frames captures equal to the one saved. Equal images hold equal
/// `(pfn, value)` pages, so [`digest`](Self::digest) is a function of the
/// image alone.
///
/// # Examples
///
/// ```
/// use rh_memory::{FrameContents, MachineMemory, P2mTable, Pfn};
/// use rh_storage::image::{logical_digest, MemoryImage};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ram = MachineMemory::new(1 << 16);
/// let mut mem = FrameContents::new();
/// let frames = ram.allocate(1024)?;
/// let mut p2m = P2mTable::new();
/// p2m.map_contiguous(Pfn(0), &frames)?;
/// for r in &frames { mem.fill_pattern(*r, 0xAB); }
///
/// let image = MemoryImage::capture(&p2m, &mem);
/// let before = logical_digest(&p2m, &mem);
/// assert_eq!(image.digest(), before);
///
/// // Restore onto different machine frames.
/// let frames2 = ram.allocate(1024)?;
/// let mut p2m2 = P2mTable::new();
/// p2m2.map_contiguous(Pfn(0), &frames2)?;
/// image.restore(&p2m2, &mut mem)?;
/// assert_eq!(MemoryImage::capture(&p2m2, &mem), image);
/// assert_eq!(logical_digest(&p2m2, &mem), before);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryImage {
    /// Mapped `(pfn, count)` extents, ascending, adjacent ones merged.
    extents: Vec<(u64, u64)>,
    runs: Vec<LogicalRun>,
    writes: Vec<(u64, u64)>,
}

impl MemoryImage {
    /// Captures the logical contents of the domain described by `p2m`,
    /// in canonical form. O(extents + pattern runs + writes).
    pub fn capture(p2m: &P2mTable, contents: &FrameContents) -> MemoryImage {
        let mut image = MemoryImage {
            extents: Vec::new(),
            runs: Vec::new(),
            writes: Vec::new(),
        };
        // P2M extents iterate in PFN order and each maps its machine range
        // in order, so runs and writes come out sorted by PFN.
        for (pfn, mrange) in p2m.iter_extents() {
            let to_pfn = |mfn: u64| pfn.0 + (mfn - mrange.start.0);
            match image.extents.last_mut() {
                Some((start, count)) if *start + *count == pfn.0 => *count += mrange.count,
                _ => image.extents.push((pfn.0, mrange.count)),
            }
            for (sub, salt, base) in contents.pattern_runs(mrange) {
                let run = LogicalRun {
                    pfn: to_pfn(sub.start.0),
                    count: sub.count,
                    salt,
                    base,
                };
                match image.runs.last_mut() {
                    Some(last)
                        if last.pfn + last.count == run.pfn
                            && last.base + last.count == run.base
                            && last.salt == run.salt =>
                    {
                        last.count += run.count
                    }
                    _ => image.runs.push(run),
                }
            }
            for (mfn, value) in contents.explicit_in(mrange) {
                image.writes.push((to_pfn(mfn.0), value));
            }
        }
        image
    }

    /// The image's digest: every mapped page's `(pfn, value)` folded in
    /// PFN order, whole runs at a time. O(pages); equal to
    /// [`logical_digest`] of any mapping this image was captured from.
    pub fn digest(&self) -> u64 {
        let mut d = DigestBuilder::new();
        let mut runs = self.runs.iter().peekable();
        let mut writes = self.writes.as_slice();
        for &(lo, count) in &self.extents {
            let hi = lo + count;
            let mut cursor = lo;
            while let Some(run) = runs.next_if(|r| r.pfn < hi) {
                fold_span(&mut d, &mut writes, cursor, run.pfn, None);
                let end = run.pfn + run.count;
                fold_span(
                    &mut d,
                    &mut writes,
                    run.pfn,
                    end,
                    Some((run.salt, run.base)),
                );
                cursor = end;
            }
            fold_span(&mut d, &mut writes, cursor, hi, None);
        }
        d.finish()
    }

    /// Pages the image describes.
    pub fn pages(&self) -> u64 {
        self.extents.iter().map(|&(_, count)| count).sum()
    }

    /// Bytes this image occupies on disk (the whole memory image, as Xen's
    /// unoptimized save writes it).
    pub fn size_bytes(&self) -> u64 {
        self.pages() * PAGE_SIZE
    }

    /// Writes the image's logical contents into the machine frames of the
    /// (possibly different) mapping `target`.
    ///
    /// # Errors
    ///
    /// [`RestoreMismatch`] if the target maps a different number of pages.
    pub fn restore(
        &self,
        target: &P2mTable,
        contents: &mut FrameContents,
    ) -> Result<(), RestoreMismatch> {
        let pages = self.pages();
        if target.total_pages() != pages {
            return Err(RestoreMismatch {
                image_pages: pages,
                target_pages: target.total_pages(),
            });
        }
        // Scrub the target frames first so unwritten pages read None.
        for mrange in target.machine_ranges() {
            contents.scrub(mrange);
        }
        for run in &self.runs {
            let machine = target
                .resolve_range(Pfn(run.pfn), run.count)
                // lint:allow(unwrap-panic): page counts verified equal above; capture came from a valid table
                .expect("page counts verified equal; capture came from a valid table");
            let mut offset = 0;
            for sub in machine {
                contents.fill_pattern_with_base(sub, run.salt, run.base + offset);
                offset += sub.count;
            }
        }
        for &(pfn, value) in &self.writes {
            let mfn = target
                .lookup(Pfn(pfn))
                // lint:allow(unwrap-panic): page counts verified equal above; capture came from a valid table
                .expect("page counts verified equal; capture came from a valid table");
            contents.write(mfn, value);
        }
        Ok(())
    }
}

/// Granularity of dirty-extent accounting for incremental saves, in
/// pages (64 pages = 256 KiB with 4 KiB pages — the unit a background
/// delta snapshot reads, diffs and writes).
pub const SNAPSHOT_EXTENT_PAGES: u64 = 64;

/// Bytes of `p2m`'s mapped memory that may have changed since
/// `since_epoch` of `contents`, rounded up to whole
/// [`SNAPSHOT_EXTENT_PAGES`] extents.
///
/// Sound but conservative, exactly like
/// [`FrameContents::unchanged_since`] per extent: an extent only counts
/// as clean when every mutation since `since_epoch` is on record and
/// none intersected it. Once the dirty log has wrapped past the
/// observation, *everything* counts dirty — an incremental save then
/// degenerates to a full one rather than silently losing writes.
pub fn dirty_extent_bytes(p2m: &P2mTable, contents: &FrameContents, since_epoch: u64) -> u64 {
    let mut dirty_pages = 0u64;
    for mrange in p2m.machine_ranges() {
        let mut off = 0;
        while off < mrange.count {
            let n = SNAPSHOT_EXTENT_PAGES.min(mrange.count - off);
            let sub = FrameRange::new(Mfn(mrange.start.0 + off), n);
            if !contents.unchanged_since(since_epoch, &[sub]) {
                dirty_pages += n;
            }
            off += n;
        }
    }
    dirty_pages * PAGE_SIZE
}

/// The on-disk state of one domain under the incremental strategy: a
/// consolidated [`MemoryImage`] (base plus every delta already applied)
/// and the byte ledger of what each write actually cost.
///
/// The simulation keeps the *consolidated* image rather than replaying
/// a chain at restore time — what the strategy buys is smaller
/// *writes*, and that is what the ledger records; restore reads the
/// consolidated size either way (COW extents share the base file).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaChain {
    image: MemoryImage,
    base_bytes: u64,
    delta_bytes: Vec<u64>,
    contents_epoch: u64,
    p2m_epoch: u64,
}

impl DeltaChain {
    /// Starts a chain from a full base snapshot taken at the given
    /// contents/P2M epochs.
    pub fn new(image: MemoryImage, contents_epoch: u64, p2m_epoch: u64) -> DeltaChain {
        let base_bytes = image.size_bytes();
        DeltaChain {
            image,
            base_bytes,
            delta_bytes: Vec::new(),
            contents_epoch,
            p2m_epoch,
        }
    }

    /// Records one delta: `image` is the new consolidated state, `bytes`
    /// what the snapshot actually wrote (dirty extents only).
    pub fn record_delta(
        &mut self,
        image: MemoryImage,
        bytes: u64,
        contents_epoch: u64,
        p2m_epoch: u64,
    ) {
        self.image = image;
        self.delta_bytes.push(bytes);
        self.contents_epoch = contents_epoch;
        self.p2m_epoch = p2m_epoch;
    }

    /// Advances the chain's epochs without a write (a tick that found
    /// zero dirty extents: the consolidated image is provably current).
    pub fn mark_current(&mut self, contents_epoch: u64, p2m_epoch: u64) {
        self.contents_epoch = contents_epoch;
        self.p2m_epoch = p2m_epoch;
    }

    /// The consolidated image (base + all recorded deltas).
    pub fn image(&self) -> &MemoryImage {
        &self.image
    }

    /// Contents epoch the consolidated image is current as of.
    pub fn contents_epoch(&self) -> u64 {
        self.contents_epoch
    }

    /// P2M epoch the consolidated image is current as of.
    pub fn p2m_epoch(&self) -> u64 {
        self.p2m_epoch
    }

    /// Bytes the full base snapshot wrote.
    pub fn base_bytes(&self) -> u64 {
        self.base_bytes
    }

    /// Bytes each recorded delta wrote, in order.
    pub fn delta_bytes(&self) -> &[u64] {
        &self.delta_bytes
    }

    /// Number of deltas recorded on top of the base.
    pub fn len(&self) -> usize {
        self.delta_bytes.len()
    }

    /// True when no delta has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.delta_bytes.is_empty()
    }

    /// Total bytes ever written for this chain (base + every delta).
    pub fn total_written(&self) -> u64 {
        self.base_bytes + self.delta_bytes.iter().sum::<u64>()
    }
}

/// Digest of a domain's memory in pseudo-physical page order.
///
/// Two mappings with identical logical contents produce equal digests even
/// when their machine frames differ — this is the invariant every reboot
/// strategy is checked against.
///
/// This is [`MemoryImage::capture`] followed by [`MemoryImage::digest`]:
/// one walk over the P2M extents, then whole pattern and scrubbed runs
/// mixed via [`DigestBuilder::add_pattern_run`] /
/// [`DigestBuilder::add_absent_run`] instead of two B-tree probes per page
/// ([`logical_digest_paged`], the reference implementation). The digest
/// value is identical — `corebench digest/*` measures the difference
/// (roughly an order of magnitude on pattern-dominated memory, see
/// `PERFORMANCE.md`).
pub fn logical_digest(p2m: &P2mTable, contents: &FrameContents) -> u64 {
    MemoryImage::capture(p2m, contents).digest()
}

/// Mixes pages `[from, to)` into `d`, splitting around explicit writes
/// (which override any pattern). `pat` carries the covering pattern's
/// `(salt, logical base at from)`, or `None` for a scrubbed gap. `writes`
/// must start at the first unconsumed write with `pfn >= from`.
fn fold_span(
    d: &mut DigestBuilder,
    writes: &mut &[(u64, u64)],
    mut from: u64,
    to: u64,
    mut pat: Option<(u64, u64)>,
) {
    while from < to {
        let next = writes.split_first().filter(|(&(pfn, _), _)| pfn < to);
        let seg_end = next.map_or(to, |(&(pfn, _), _)| pfn);
        let n = seg_end - from;
        if n > 0 {
            match &mut pat {
                Some((salt, base)) => {
                    d.add_pattern_run(from, *salt, *base, n);
                    *base += n;
                }
                None => d.add_absent_run(from, n),
            }
        }
        from = seg_end;
        if let Some((&(pfn, value), rest)) = next {
            d.add(pfn, Some(value));
            *writes = rest;
            from = pfn + 1;
            if let Some((_, base)) = &mut pat {
                *base += 1;
            }
        }
    }
}

/// The per-page reference implementation of [`logical_digest`]: one
/// [`FrameContents::read`] per mapped page.
///
/// O(pages × log frames) and therefore slow on real domain sizes; kept as
/// the executable specification the extent-walking fast path is proven
/// against (see the `digest_fast_path_matches_paged_reference` tests).
pub fn logical_digest_paged(p2m: &P2mTable, contents: &FrameContents) -> u64 {
    let mut d = DigestBuilder::new();
    for (pfn, mfn) in p2m.iter_pages() {
        d.add(pfn.0, contents.read(mfn));
    }
    d.finish()
}

/// The save files on disk, keyed by a caller-chosen domain identifier.
///
/// Holds the memory image plus the small execution-state record that a
/// suspend writes alongside it (16 KB in the paper, §4.2).
#[derive(Debug, Clone, Default)]
pub struct ImageStore {
    images: BTreeMap<u32, (MemoryImage, u64)>,
}

impl ImageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ImageStore::default()
    }

    /// Stores an image and its execution-state size, replacing any previous
    /// image for `key`.
    pub fn put(&mut self, key: u32, image: MemoryImage, exec_state_bytes: u64) {
        self.images.insert(key, (image, exec_state_bytes));
    }

    /// Retrieves the image for `key`.
    pub fn get(&self, key: u32) -> Option<&MemoryImage> {
        self.images.get(&key).map(|(i, _)| i)
    }

    /// Removes and returns the image for `key` (a restore consumes the
    /// file).
    pub fn take(&mut self, key: u32) -> Option<(MemoryImage, u64)> {
        self.images.remove(&key)
    }

    /// Number of stored images.
    pub fn len(&self) -> usize {
        self.images.len()
    }

    /// True if no images are stored.
    pub fn is_empty(&self) -> bool {
        self.images.is_empty()
    }

    /// Total bytes occupied on disk (images + execution states).
    pub fn total_bytes(&self) -> u64 {
        self.images
            .values()
            .map(|(i, ex)| i.size_bytes() + ex)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rh_memory::frame::{FrameRange, Mfn};
    use rh_memory::machine::MachineMemory;

    fn mapped_domain(
        ram: &mut MachineMemory,
        mem: &mut FrameContents,
        pages: u64,
        salt: u64,
    ) -> P2mTable {
        let frames = ram.allocate(pages).unwrap();
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &frames).unwrap();
        for r in &frames {
            mem.fill_pattern(*r, salt);
        }
        p2m
    }

    #[test]
    fn capture_restore_round_trip_same_mapping() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 512, 0xFEED);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);
        assert_eq!(image.pages(), 512);
        assert_eq!(image.size_bytes(), 512 * PAGE_SIZE);
        // Scrub (hardware reset) then restore onto the same mapping.
        mem.scrub_all();
        assert_ne!(logical_digest(&p2m, &mem), before);
        image.restore(&p2m, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m, &mem), before);
    }

    #[test]
    fn restore_onto_different_frames_preserves_logical_view() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 300, 0xCAFE);
        // Make it interesting: explicit dirty pages on top of the pattern.
        let dirty_mfn = p2m.lookup(Pfn(123)).unwrap();
        mem.write(dirty_mfn, 0x1234_5678);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);

        // New allocation lands elsewhere and fragmented.
        let hole = ram.allocate(57).unwrap(); // shift subsequent allocations
        let frames2 = ram.allocate(300).unwrap();
        ram.release(&hole).unwrap();
        let mut p2m2 = P2mTable::new();
        p2m2.map_contiguous(Pfn(0), &frames2).unwrap();
        assert_ne!(p2m.machine_ranges(), p2m2.machine_ranges());

        image.restore(&p2m2, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m2, &mem), before);
        assert_eq!(mem.read(p2m2.lookup(Pfn(123)).unwrap()), Some(0x1234_5678));
    }

    #[test]
    fn restore_rejects_mismatched_geometry() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 100, 1);
        let image = MemoryImage::capture(&p2m, &mem);
        let frames2 = ram.allocate(50).unwrap();
        let mut small = P2mTable::new();
        small.map_contiguous(Pfn(0), &frames2).unwrap();
        let err = image.restore(&small, &mut mem).unwrap_err();
        assert_eq!(err.image_pages, 100);
        assert_eq!(err.target_pages, 50);
    }

    #[test]
    fn scrubbed_pages_stay_scrubbed_after_restore() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let frames = ram.allocate(100).unwrap();
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &frames).unwrap();
        // Only half the domain has content; the rest is uninitialized.
        mem.fill_pattern(FrameRange::new(frames[0].start, 50), 9);
        let before = logical_digest(&p2m, &mem);
        let image = MemoryImage::capture(&p2m, &mem);
        // Restore to fresh frames pre-filled with garbage: restore must
        // scrub what the image does not cover.
        let frames2 = ram.allocate(100).unwrap();
        let mut p2m2 = P2mTable::new();
        p2m2.map_contiguous(Pfn(0), &frames2).unwrap();
        for r in &frames2 {
            mem.fill_pattern(*r, 0xBAD);
        }
        image.restore(&p2m2, &mut mem).unwrap();
        assert_eq!(logical_digest(&p2m2, &mem), before);
        assert_eq!(mem.read(p2m2.lookup(Pfn(75)).unwrap()), None);
    }

    #[test]
    fn image_store_lifecycle() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 64, 2);
        let image = MemoryImage::capture(&p2m, &mem);
        let mut store = ImageStore::new();
        assert!(store.is_empty());
        store.put(3, image.clone(), 16 * 1024);
        assert_eq!(store.len(), 1);
        assert_eq!(store.total_bytes(), 64 * PAGE_SIZE + 16 * 1024);
        assert_eq!(store.get(3), Some(&image));
        let (taken, exec) = store.take(3).unwrap();
        assert_eq!(taken, image);
        assert_eq!(exec, 16 * 1024);
        assert!(store.take(3).is_none());
    }

    #[test]
    fn digest_differs_for_different_contents() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m_a = mapped_domain(&mut ram, &mut mem, 64, 111);
        let p2m_b = mapped_domain(&mut ram, &mut mem, 64, 222);
        assert_ne!(logical_digest(&p2m_a, &mem), logical_digest(&p2m_b, &mem));
    }

    #[test]
    fn capture_is_pure() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 128, 5);
        let d0 = logical_digest(&p2m, &mem);
        let _image = MemoryImage::capture(&p2m, &mem);
        assert_eq!(logical_digest(&p2m, &mem), d0);
    }

    #[test]
    fn digest_fast_path_matches_paged_reference() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 300, 0xABCD);
        // Punch holes, overlay writes (including at span boundaries), and
        // leave scrubbed gaps — every digest_span shape at once.
        mem.scrub(FrameRange::new(p2m.lookup(Pfn(40)).unwrap(), 25));
        mem.write(p2m.lookup(Pfn(0)).unwrap(), 1); // first frame of extent
        mem.write(p2m.lookup(Pfn(39)).unwrap(), 2); // last before gap
        mem.write(p2m.lookup(Pfn(40)).unwrap(), 3); // first inside gap
        mem.write(p2m.lookup(Pfn(64)).unwrap(), 4); // last inside gap
        mem.write(p2m.lookup(Pfn(65)).unwrap(), 5); // first after gap
        mem.write(p2m.lookup(Pfn(299)).unwrap(), 6); // final frame
        assert_eq!(logical_digest(&p2m, &mem), logical_digest_paged(&p2m, &mem));
    }

    /// Maps every extent of `p2m` at the same PFNs onto fresh frames cut
    /// into chunks of at most `chunk` pages, with an allocated one-frame
    /// hole after each chunk so no two chunks are machine-adjacent.
    fn fragmented_copy(ram: &mut MachineMemory, p2m: &P2mTable, chunk: u64) -> P2mTable {
        let mut copy = P2mTable::new();
        for (pfn, mrange) in p2m.iter_extents() {
            let mut done = 0;
            while done < mrange.count {
                let n = chunk.min(mrange.count - done);
                let frames = ram.allocate(n).unwrap();
                copy.map_contiguous(Pfn(pfn.0 + done), &frames).unwrap();
                ram.allocate(1).unwrap();
                done += n;
            }
        }
        copy
    }

    #[test]
    fn canonical_image_property() {
        use rh_sim::testkit::{check, Config, Gen};

        check(
            "canonical_image_property",
            &Config::default(),
            |g: &mut Gen| {
                let mut ram = MachineMemory::new(1 << 15);
                let mut mem = FrameContents::new();
                let mut p2m = P2mTable::new();
                let mut next_pfn = 0u64;
                for _ in 0..g.usize_in(1, 40) {
                    let total = p2m.total_pages();
                    // Map more memory (sometimes past a PFN hole), or mutate
                    // a random span of what is mapped.
                    if total == 0 || g.u32_in(0, 7) == 0 {
                        let pages = g.u64_in(1, 400);
                        let frames = ram
                            .allocate(pages)
                            .map_err(|e| format!("allocation failed: {e}"))?;
                        for r in &frames {
                            mem.fill_pattern(*r, g.any_u64());
                        }
                        next_pfn += g.u64_in(0, 2) * g.u64_in(1, 50);
                        p2m.map_contiguous(Pfn(next_pfn), &frames)
                            .map_err(|e| format!("map failed: {e}"))?;
                        next_pfn += pages;
                        continue;
                    }
                    // A random mapped page, and a span from it to at most the
                    // end of its machine extent.
                    let mut at = g.u64_in(0, total);
                    let mut picked = None;
                    for (_, mrange) in p2m.iter_extents() {
                        if at < mrange.count {
                            picked = Some((Mfn(mrange.start.0 + at), mrange.count - at));
                            break;
                        }
                        at -= mrange.count;
                    }
                    let (mfn, room) = picked.ok_or("page index past the mapping")?;
                    let span = FrameRange::new(mfn, g.u64_in(1, room.min(64) + 1));
                    let one = Mfn(mfn.0 + g.u64_in(0, span.count));
                    // Few salts, and bases that often continue the
                    // extent's page index, so neighbouring runs often
                    // continue each other but for the salt.
                    let base = if g.any_bool() { at } else { g.u64_in(0, 1000) };
                    match g.u32_in(0, 5) {
                        0 => mem.fill_pattern(span, g.any_u64()),
                        1 => mem.fill_pattern_with_base(span, g.u64_in(0, 3), base),
                        2 => mem.scrub(span),
                        3 => mem.write(one, g.any_u64()),
                        _ => {
                            mem.corrupt(one, g.any_u64());
                        }
                    }
                }
                let paged = logical_digest_paged(&p2m, &mem);
                let image = MemoryImage::capture(&p2m, &mem);
                let fast = image.digest();
                if fast != paged {
                    return Err(format!(
                        "digest divergence: fast={fast:#x} paged={paged:#x}"
                    ));
                }
                // Restored onto differently fragmented frames, the same
                // logical memory captures the equal image, whose digest the
                // per-page reference confirms.
                let copy = fragmented_copy(&mut ram, &p2m, g.u64_in(1, 97));
                image
                    .restore(&copy, &mut mem)
                    .map_err(|e| format!("restore failed: {e}"))?;
                let restored = MemoryImage::capture(&copy, &mem);
                if restored != image {
                    return Err(format!("restored image differs:\n{image:?}\n{restored:?}"));
                }
                if logical_digest_paged(&copy, &mem) != paged {
                    return Err("equal captures, different paged digests".into());
                }
                Ok(())
            },
        );
    }

    #[test]
    fn dirty_extent_bytes_counts_only_touched_extents() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 4 * SNAPSHOT_EXTENT_PAGES, 0xD1);
        let epoch = mem.epoch();
        assert_eq!(dirty_extent_bytes(&p2m, &mem, epoch), 0);

        // One write dirties exactly its covering 64-page extent.
        mem.write(p2m.lookup(Pfn(3)).unwrap(), 9);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );

        // A second write in the same extent adds nothing; one in another
        // extent adds one more extent.
        mem.write(p2m.lookup(Pfn(5)).unwrap(), 9);
        mem.write(p2m.lookup(Pfn(3 * SNAPSHOT_EXTENT_PAGES)).unwrap(), 9);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            2 * SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );

        // Mutations outside the domain leave it clean.
        let epoch2 = mem.epoch();
        mem.write(Mfn(1 << 20), 1);
        assert_eq!(dirty_extent_bytes(&p2m, &mem, epoch2), 0);
    }

    #[test]
    fn dirty_extent_bytes_goes_conservative_after_log_wrap() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 2 * SNAPSHOT_EXTENT_PAGES, 0xD2);
        let epoch = mem.epoch();
        // Churn far away until the dirty log forgets the observation.
        for i in 0..4096 {
            mem.write(Mfn((1 << 20) + i), i);
        }
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            2 * SNAPSHOT_EXTENT_PAGES * PAGE_SIZE
        );
    }

    #[test]
    fn dirty_extent_bytes_rounds_trailing_partial_extent() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        // 1.5 extents: the tail extent is only half-sized.
        let pages = SNAPSHOT_EXTENT_PAGES + SNAPSHOT_EXTENT_PAGES / 2;
        let p2m = mapped_domain(&mut ram, &mut mem, pages, 0xD3);
        let epoch = mem.epoch();
        mem.write(p2m.lookup(Pfn(pages - 1)).unwrap(), 7);
        assert_eq!(
            dirty_extent_bytes(&p2m, &mem, epoch),
            (SNAPSHOT_EXTENT_PAGES / 2) * PAGE_SIZE
        );
    }

    #[test]
    fn delta_chain_ledger() {
        let mut ram = MachineMemory::new(1 << 16);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 256, 0xDC);
        let base = MemoryImage::capture(&p2m, &mem);
        let mut chain = DeltaChain::new(base.clone(), mem.epoch(), 1);
        assert!(chain.is_empty());
        assert_eq!(chain.base_bytes(), 256 * PAGE_SIZE);
        assert_eq!(chain.total_written(), 256 * PAGE_SIZE);
        assert_eq!(chain.image(), &base);

        mem.write(p2m.lookup(Pfn(0)).unwrap(), 3);
        let updated = MemoryImage::capture(&p2m, &mem);
        chain.record_delta(updated.clone(), 64 * PAGE_SIZE, mem.epoch(), 1);
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.delta_bytes(), &[64 * PAGE_SIZE]);
        assert_eq!(chain.total_written(), (256 + 64) * PAGE_SIZE);
        assert_eq!(chain.image(), &updated);
        assert_eq!(chain.contents_epoch(), mem.epoch());

        // A zero-dirty tick advances the epochs without a write.
        mem.write(Mfn(1 << 20), 1);
        chain.mark_current(mem.epoch(), 1);
        assert_eq!(chain.contents_epoch(), mem.epoch());
        assert_eq!(chain.len(), 1);
        assert_eq!(chain.total_written(), (256 + 64) * PAGE_SIZE);
    }

    #[test]
    fn mfn_type_is_exercised() {
        // Silence the "unused import" trap: Mfn round-trip via lookup.
        let mut ram = MachineMemory::new(256);
        let mut mem = FrameContents::new();
        let p2m = mapped_domain(&mut ram, &mut mem, 16, 3);
        let mfn: Mfn = p2m.lookup(Pfn(0)).unwrap();
        assert!(mem.read(mfn).is_some());
    }
}
