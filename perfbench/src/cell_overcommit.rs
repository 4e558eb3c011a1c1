//! `cell-overcommit`: one serverless cell at 2× overcommit with balloon
//! reclaim, offered 105 % of its physical capacity, over a 12,000 s
//! horizon. One op is one whole `CellSimulation::run` with its own seed.
//!
//! Why: it drives `rh-memory` for writes (allocate, map, release,
//! reclaim, deflate) where `host-reboot` only reads it (digests), and it
//! pays `rh-obs` `Event::note` formatting at every VM lifecycle step.
//! The long horizon makes each op ~40k events, so op times are steady.

use std::time::Instant;

use rh_cell::{CellConfig, CellReport, CellSimulation, ProvisionStrategy};
use rh_memory::{BalloonController, MachineMemory, P2mTable, Pfn};
use rh_obs::{Event, EventLog};
use rh_sim::time::{SimDuration, SimTime};

use crate::harness::{ensure, median, ns_per_call, op_seed, ratio, Traced, Workload};

/// The full-size horizon.
pub const HORIZON: SimDuration = SimDuration::from_secs(12_000);

/// Offered load as a share of the VMs that physically fit.
const LOAD: f64 = 1.05;

/// Pseudo-physical overcommit ratio.
const OVERCOMMIT: f64 = 2.0;

/// The workload state: only its horizon and seed; each op builds its own
/// simulation.
#[derive(Debug)]
pub struct CellOvercommit {
    seed: u64,
    horizon: SimDuration,
}

/// Per-op work the report does not count, taken from the op's event log.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NoteCounts {
    /// Every `Event::note` the op emitted.
    pub notes: u64,
    /// Images whose frames went back to the allocator (departed or
    /// evicted).
    pub releases: u64,
    /// Reclaim episodes (`reclaim_under_pressure` rounds that freed pages).
    pub reclaims: u64,
}

impl CellOvercommit {
    /// A cell run over `horizon` of simulated time.
    pub fn new(seed: u64, horizon: SimDuration) -> CellOvercommit {
        CellOvercommit { seed, horizon }
    }

    /// The config op `index` runs.
    pub fn config(&self, index: u64) -> CellConfig {
        let mut cfg = CellConfig::steady(ProvisionStrategy::BalloonReclaim, OVERCOMMIT);
        let slots = (cfg.host_frames / cfg.vm_pages) as f64;
        cfg.workload.arrival_rate = slots * LOAD / cfg.workload.mean_lifetime.as_secs_f64();
        cfg.horizon = self.horizon;
        cfg.seed = op_seed(self.seed, index);
        cfg
    }

    fn run_op(&self, index: u64) -> Result<CellReport, String> {
        let report = CellSimulation::new(self.config(index))?.run()?;
        check_cell(&report)?;
        Ok(report)
    }

    /// Replays op `index` with an enabled event log and counts its notes.
    ///
    /// # Errors
    ///
    /// A failed run, or a replay whose report differs from `report`.
    pub fn count_notes(&self, index: u64, report: &CellReport) -> Result<NoteCounts, String> {
        let mut log = EventLog::new();
        let replay = CellSimulation::new(self.config(index))?.run_with_log(&mut log)?;
        ensure(replay == *report, || {
            format!("op {index}: a logged replay gave a different report")
        })?;
        let mut c = NoteCounts::default();
        for record in log.records() {
            let msg = record.event.message();
            c.notes += 1;
            c.releases += u64::from(msg.ends_with(" departed") || msg.starts_with("evicted "));
            c.reclaims += u64::from(msg.starts_with("reclaimed "));
        }
        Ok(c)
    }
}

/// The cell report's ledger: every provisioned VM booted warm or cold,
/// and every one of them completed.
///
/// # Errors
///
/// A message naming the first identity that fails.
pub fn check_cell(r: &CellReport) -> Result<(), String> {
    ensure(r.provisioned == r.warm_hits + r.cold_boots, || {
        format!(
            "provisioned {} != warm {} + cold {}",
            r.provisioned, r.warm_hits, r.cold_boots
        )
    })?;
    ensure(r.completed == r.provisioned, || {
        format!("completed {} != provisioned {}", r.completed, r.provisioned)
    })
}

impl Workload for CellOvercommit {
    fn op(&mut self, index: u64) -> Result<u64, String> {
        Ok(self.run_op(index)?.events)
    }

    fn traced(&mut self, first: u64, count: u64) -> Result<Traced, String> {
        let mut op_ns = 0.0;
        let mut sum = Sums::default();
        let mut notes = NoteCounts::default();
        for index in first..first + count {
            let t = Instant::now();
            let r = self.run_op(index)?;
            op_ns += t.elapsed().as_secs_f64() * 1e9;
            let c = self.count_notes(index, &r)?;
            notes.notes += c.notes;
            notes.releases += c.releases;
            notes.reclaims += c.reclaims;
            sum.add(&r);
        }
        let cfg = self.config(first);
        let n = count as f64;
        let (map, unmap) = vm_map_unmap_ns(&cfg);
        let per_reclaim = ratio(sum.reclaimed_pages as f64, notes.reclaims as f64);
        let (reclaim, deflate) = reclaim_deflate_ns(&cfg, per_reclaim.round() as u64);
        let note = event_note_ns();
        let op = op_ns / n;
        let per_op = |x: u64| x as f64 / n;
        let mut t = Traced {
            op_ns,
            ..Traced::default()
        };
        t.set("cell.events_per_op", per_op(sum.events));
        t.set("cell.cold_boots_per_op", per_op(sum.cold_boots));
        t.set("cell.reclaimed_pages_per_op", per_op(sum.reclaimed_pages));
        t.set("cell.deflated_pages_per_op", per_op(sum.deflated_pages));
        t.set("cell.evicted_per_op", per_op(sum.evicted));
        t.set(
            "cell.warm_hit_ratio",
            ratio(sum.warm_hits as f64, sum.provisioned as f64),
        );
        // Every event is an arrival or a departure, and every VM departs.
        let arrivals = sum.events - sum.completed;
        t.set(
            "cell.queued_ratio",
            ratio(sum.queued as f64, arrivals as f64),
        );
        t.set("memory.vm_unmaps_per_op", per_op(notes.releases));
        t.set("memory.reclaims_per_op", per_op(notes.reclaims));
        t.set("memory.vm_map_ns", map);
        t.set("memory.vm_unmap_ns", unmap);
        t.set("memory.reclaim_ns", reclaim);
        t.set("memory.deflate_ns_per_page", deflate);
        t.set("obs.event_notes_per_op", per_op(notes.notes));
        t.set("obs.event_note_ns", note);
        let memory = per_op(sum.cold_boots) * map
            + per_op(notes.releases) * unmap
            + per_op(notes.reclaims) * reclaim
            + per_op(sum.deflated_pages) * deflate;
        t.share("memory.share", memory, op);
        t.share("obs.share", per_op(notes.notes) * note, op);
        Ok(t)
    }
}

/// Report counts summed over ops.
#[derive(Debug, Default, Clone, Copy)]
struct Sums {
    events: u64,
    provisioned: u64,
    warm_hits: u64,
    cold_boots: u64,
    queued: u64,
    completed: u64,
    evicted: u64,
    reclaimed_pages: u64,
    deflated_pages: u64,
}

impl Sums {
    fn add(&mut self, r: &CellReport) {
        self.events += r.events;
        self.provisioned += r.provisioned;
        self.warm_hits += r.warm_hits;
        self.cold_boots += r.cold_boots;
        self.queued += r.queued;
        self.completed += r.completed;
        self.evicted += r.evicted;
        self.reclaimed_pages += r.reclaimed_pages;
        self.deflated_pages += r.deflated_pages;
    }
}

/// Timed batches per memory probe.
const BATCHES: usize = 101;

/// A host of the config's shape filled with full images, one balloon
/// controller each.
fn full_host(cfg: &CellConfig) -> (MachineMemory, Vec<(P2mTable, BalloonController)>) {
    let mut ram = MachineMemory::new(cfg.host_frames);
    let vms = (0..cfg.host_frames / cfg.vm_pages)
        .map(|_| map_image(&mut ram, cfg))
        .collect();
    (ram, vms)
}

/// What the cell does for a cold boot: allocate an image's frames, map
/// them and give the VM a balloon controller.
fn map_image(ram: &mut MachineMemory, cfg: &CellConfig) -> (P2mTable, BalloonController) {
    let ranges = ram.allocate(cfg.vm_pages).expect("the probe host has room");
    let mut p2m = P2mTable::new();
    p2m.map_contiguous(Pfn(0), &ranges)
        .expect("a fresh table maps");
    (p2m, BalloonController::new(cfg.min_resident))
}

/// Nanoseconds to map one VM image of the config's size (allocate +
/// `map_contiguous` + a fresh balloon controller) and to release one,
/// timed in batches that fill and then empty a host of the config's
/// shape.
pub fn vm_map_unmap_ns(cfg: &CellConfig) -> (f64, f64) {
    let per_host = (cfg.host_frames / cfg.vm_pages) as f64;
    let (mut maps, mut unmaps) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t = Instant::now();
        let (mut ram, vms) = full_host(cfg);
        maps.push(t.elapsed().as_secs_f64() * 1e9 / per_host);
        let t = Instant::now();
        for (p2m, _) in vms {
            ram.release(&p2m.machine_ranges())
                .expect("mapped frames release");
        }
        unmaps.push(t.elapsed().as_secs_f64() * 1e9 / per_host);
        std::hint::black_box(ram);
    }
    (median(&mut maps), median(&mut unmaps))
}

/// Nanoseconds per reclaim episode taking `want` pages, as the cell runs
/// one (`reclaim_under_pressure` on each resident VM in turn until
/// `want` pages are freed), and per page of `deflate_on_demand` giving
/// them back. Timed in batches that squeeze a full host of the config's
/// shape down to its floors and then deflate it again.
pub fn reclaim_deflate_ns(cfg: &CellConfig, want: u64) -> (f64, f64) {
    let want = want.max(1);
    let (mut ram, mut vms) = full_host(cfg);
    let (mut reclaims, mut deflates) = (Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let t = Instant::now();
        let mut episodes = 0u64;
        loop {
            let mut left = want;
            for (p2m, ctl) in vms.iter_mut() {
                if left == 0 {
                    break;
                }
                left -= ctl
                    .reclaim_under_pressure(p2m, &mut ram, left)
                    .expect("reclaim above the floor");
            }
            if left > 0 {
                break;
            }
            episodes += 1;
        }
        reclaims.push(ratio(t.elapsed().as_secs_f64() * 1e9, episodes as f64));
        let t = Instant::now();
        let mut pages = 0;
        for (p2m, ctl) in vms.iter_mut() {
            let back = cfg.vm_pages - p2m.total_pages();
            pages += ctl
                .deflate_on_demand(p2m, &mut ram, back)
                .expect("deflate back what was reclaimed");
        }
        deflates.push(ratio(t.elapsed().as_secs_f64() * 1e9, pages as f64));
    }
    (median(&mut reclaims), median(&mut deflates))
}

/// Nanoseconds per `Event::note(format!(..))` emitted into a disabled
/// `EventLog`, as the cell does at every lifecycle step.
pub fn event_note_ns() -> f64 {
    let mut log = EventLog::disabled();
    let mut id = 0u64;
    ns_per_call(7, 20_000, || {
        id += 1;
        log.emit(
            SimTime::ZERO,
            Event::note("cell", format!("vm{} departed", std::hint::black_box(id))),
        );
    })
}
