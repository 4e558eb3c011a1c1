//! Property tests for `rh_memory::balloon`: arbitrary SimRng-driven
//! interleavings of reclaim / deflate / freeze / thaw
//! across several domains sharing one machine, checking after every step
//! that
//!
//! 1. **P2M injectivity** — no machine frame is mapped by two domains at
//!    once (each table is machine-disjoint and the tables are pairwise
//!    disjoint), and
//! 2. **total-frame accounting** — mapped pages plus free frames equals
//!    the machine size exactly (no frame leaked, none double-counted).
//!
//! The doc-level claims in `balloon.rs` (paper §4.1: the P2M table "can
//! maintain the mapping properly" under ballooning) become executable
//! here.

use rh_memory::balloon::BalloonController;
use rh_memory::frame::Pfn;
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::{prop_ensure, prop_ensure_eq};

/// One domain under test: its table and its controller.
struct Dom {
    p2m: P2mTable,
    ctl: BalloonController,
}

/// Builds `n` domains of `pages` pages each on a machine sized so that
/// the last domain barely fits — ballooning has to do real work.
fn build(ram: &mut MachineMemory, n: usize, pages: u64, floor: u64) -> Result<Vec<Dom>, String> {
    let mut doms = Vec::new();
    for i in 0..n {
        let ranges = ram
            .allocate(pages)
            .map_err(|e| format!("setup alloc for dom {i}: {e}"))?;
        let mut p2m = P2mTable::new();
        p2m.map_contiguous(Pfn(0), &ranges)
            .map_err(|e| format!("setup map for dom {i}: {e}"))?;
        doms.push(Dom {
            p2m,
            ctl: BalloonController::new(floor),
        });
    }
    Ok(doms)
}

/// The two properties, checked against the whole machine.
fn check_invariants(ram: &MachineMemory, doms: &[Dom], total: u64) -> Result<(), String> {
    // Injectivity: every table internally disjoint, and pairwise disjoint.
    let mut all = Vec::new();
    for (i, d) in doms.iter().enumerate() {
        d.p2m
            .check_machine_disjoint()
            .map_err(|e| format!("dom {i} table not disjoint: {e}"))?;
        all.extend(d.p2m.machine_ranges());
    }
    all.sort_by_key(|r| r.start);
    for w in all.windows(2) {
        prop_ensure!(
            !w[0].overlaps(&w[1]),
            "two domains map overlapping machine ranges {:?} and {:?}",
            w[0],
            w[1]
        );
    }
    ram.check_invariants()
        .map_err(|e| format!("allocator invariants: {e}"))?;
    // Accounting: mapped + free == machine total, and the allocator's
    // ledger agrees with the tables' page counts.
    let mapped: u64 = doms.iter().map(|d| d.p2m.total_pages()).sum();
    prop_ensure_eq!(
        mapped + ram.free_frames(),
        total,
        "frames leaked or double-counted"
    );
    prop_ensure_eq!(ram.allocated_frames(), mapped, "allocator ledger drifted");
    Ok(())
}

#[test]
fn interleaved_balloon_ops_preserve_injectivity_and_accounting() {
    check(
        "balloon_injectivity_accounting",
        &Config::default(),
        |g: &mut Gen| {
            let n = g.usize_in(2, 5);
            let pages = g.u64_in(32, 256);
            let floor = g.u64_in(1, pages / 2);
            // Between "every domain fits" and "exactly one fits".
            let total = g.u64_in(pages + 8, n as u64 * pages + 8);
            let mut ram = MachineMemory::new(total);
            let fit = (total / pages).min(n as u64) as usize;
            let mut doms = build(&mut ram, fit, pages, floor)?;
            let steps = g.usize_in(1, 64);
            for step in 0..steps {
                let d = g.usize_in(0, doms.len());
                let dom = &mut doms[d];
                match g.u32_in(0, 4) {
                    0 => {
                        let want = g.u64_in(1, pages);
                        dom.ctl
                            .reclaim_under_pressure(&mut dom.p2m, &mut ram, want)
                            .map_err(|e| format!("step {step}: reclaim: {e}"))?;
                    }
                    1 => {
                        let want = g.u64_in(1, pages);
                        if !dom.ctl.is_frozen() {
                            dom.ctl
                                .deflate_on_demand(&mut dom.p2m, &mut ram, want)
                                .map_err(|e| format!("step {step}: deflate: {e}"))?;
                        }
                    }
                    2 => dom.ctl.freeze(),
                    _ => dom.ctl.thaw(),
                }
                check_invariants(&ram, &doms, total)?;
            }
            Ok(())
        },
    );
}

#[test]
fn inflate_deflate_round_trip_restores_every_domain() {
    check(
        "balloon_round_trip",
        &Config::with_cases(48),
        |g: &mut Gen| {
            let n = g.usize_in(2, 4);
            let pages = g.u64_in(64, 256);
            let total = n as u64 * pages + g.u64_in(1, 64);
            let mut ram = MachineMemory::new(total);
            let mut doms = build(&mut ram, n, pages, 1)?;
            // Squeeze every domain by a random amount, in a random order...
            let mut squeezed = vec![0u64; n];
            for (i, s) in squeezed.iter_mut().enumerate() {
                let want = g.u64_in(0, pages - 1);
                let dom = &mut doms[i];
                *s = dom
                    .ctl
                    .reclaim_under_pressure(&mut dom.p2m, &mut ram, want)
                    .map_err(|e| format!("reclaim dom {i}: {e}"))?;
            }
            check_invariants(&ram, &doms, total)?;
            // ...then give it all back. Every domain ends at its spec size.
            for i in 0..n {
                let mut back = 0;
                while back < squeezed[i] {
                    let dom = &mut doms[i];
                    let got = dom
                        .ctl
                        .deflate_on_demand(&mut dom.p2m, &mut ram, squeezed[i] - back)
                        .map_err(|e| format!("deflate dom {i}: {e}"))?;
                    prop_ensure!(got > 0, "deflate starved with {} free", ram.free_frames());
                    back += got;
                }
                prop_ensure_eq!(doms[i].p2m.total_pages(), pages, "dom {i} size drifted");
            }
            check_invariants(&ram, &doms, total)
        },
    );
}

#[test]
fn frozen_domains_never_lose_frames_under_pressure() {
    check(
        "balloon_freeze_fence",
        &Config::with_cases(48),
        |g: &mut Gen| {
            let pages = g.u64_in(32, 128);
            let total = 3 * pages;
            let mut ram = MachineMemory::new(total);
            let mut doms = build(&mut ram, 3, pages, 1)?;
            let frozen = g.usize_in(0, 3);
            doms[frozen].ctl.freeze();
            let before = doms[frozen].p2m.machine_ranges();
            // Hammer the whole cell with reclaim requests.
            for _ in 0..g.usize_in(1, 32) {
                let d = g.usize_in(0, 3);
                let want = g.u64_in(1, pages);
                let dom = &mut doms[d];
                dom.ctl
                    .reclaim_under_pressure(&mut dom.p2m, &mut ram, want)
                    .map_err(|e| format!("reclaim: {e}"))?;
            }
            // The frozen domain's mapping is bit-for-bit untouched (I8's
            // mechanism half), while the others may have shrunk.
            prop_ensure_eq!(
                doms[frozen].p2m.machine_ranges(),
                before,
                "frozen mapping changed under pressure"
            );
            check_invariants(&ram, &doms, total)
        },
    );
}
