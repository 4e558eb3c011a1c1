//! Micro-benchmark suite behind the `corebench` binary.
//!
//! Where the `perfbench` workspace times end-to-end workloads, this module
//! times the *simulator substrate* — the DES hot path, the disk models and
//! the rh-memory digest machinery — and turns the timings into the
//! headline numbers tracked in `BENCH_core.json` (see PERFORMANCE.md):
//!
//! * `events_per_sec` / `ns_per_event` — self-scheduling event chain
//!   through the engine (binary-heap queue, slab slots);
//! * `digest_frames_per_sec` — full `logical_digest` rehash throughput;
//! * `digest_early_out_ops_per_sec` — the dirty-log check an incremental
//!   save makes per extent to skip clean memory;
//! * `peak_rss_bytes` — VmHWM of the benchmark process (context, not
//!   gated).
//!
//! Every workload runs at a **fixed size** regardless of profile; quick
//! and full runs differ only in sample count, so their per-op numbers are
//! directly comparable and the verify-time regression gate
//! ([`gate_against`]) can diff a `--quick` run against the committed
//! full-profile baseline. Each benchmark reports its **best** (minimum)
//! sample: with deterministic workloads, min-of-N is the least noisy
//! estimator of the true cost.
//!
//! # Examples
//!
//! ```
//! use rh_bench::core::{run_suite, to_json, bench_per_sec};
//!
//! let results = run_suite(1);
//! let json = to_json(&results, "quick", 1);
//! for r in &results {
//!     // The JSON rounds per_sec to one decimal place.
//!     let scanned = bench_per_sec(&json, &r.name).expect("bench row present");
//!     assert!((scanned - r.per_sec()).abs() < 0.1);
//! }
//! ```

use std::hint::black_box;
use std::time::Instant;

use rh_fleet::config::{CampaignConfig, FleetConfig};
use rh_fleet::placement::PlacementKind;
use rh_fleet::sim::FleetSimulation;
use rh_guest::services::ServiceKind;
use rh_memory::contents::FrameContents;
use rh_memory::frame::Pfn;
use rh_memory::machine::MachineMemory;
use rh_memory::p2m::P2mTable;
use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::queue::FifoResource;
use rh_sim::resource::PsResource;
use rh_sim::time::{SimDuration, SimTime};
use rh_storage::image::logical_digest;
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::harness::HostSim;

/// Events per chain workload.
const CHAIN_EVENTS: u64 = 200_000;
/// Events scheduled (half then cancelled) per churn workload.
const CHURN_EVENTS: u64 = 50_000;
/// Frames in the digest workload's guest (256 MiB at 4 KiB/frame).
const DIGEST_FRAMES: u64 = 65_536;
/// `unchanged_since` calls per early-out sample.
const EARLY_OUT_CALLS: u64 = 1_000_000;
/// Full digests per rehash sample (keeps each sample ≥ 1 ms so the
/// best-of-N estimate is stable against scheduler jitter).
const DIGEST_REPS: u64 = 8;
/// Concurrent 1 GiB transfers in the disk-model ablation (the paper's 11
/// guests saving or restoring at once).
const DISK_STREAMS: u64 = 11;
/// Full drains per disk-model sample (keeps each sample ≥ 1 ms).
const DISK_REPS: u64 = 2_500;
/// Bytes per disk-model transfer (one guest image).
const GIB: f64 = (1u64 << 30) as f64;
/// The paper testbed's disk bandwidth.
const DISK_BYTES_PER_SEC: f64 = 85.0e6;
/// Guests in the `host/paper_round` row (the paper's Fig. 6 testbed).
const PAPER_VMS: u32 = 11;
/// Hosts in the `fleet/steady` workload (~22k VM arrivals over its
/// horizon; event count measured by an untimed run).
const FLEET_HOSTS: u32 = 300;
/// Fleet sizes of the `fleet/scale` rows.
const SCALE_HOSTS: [u32; 2] = [3_000, 30_000];
/// Hosts × simulated seconds in each `fleet/scale` row. The datacenter
/// arrival rate grows with the fleet, so every size sees the same ~3.6k
/// arrivals and only the host count changes between rows.
const SCALE_HOST_SECONDS: u64 = 600_000;

/// One timed benchmark: its best sample and the work done per sample.
#[derive(Debug, Clone)]
pub struct CoreBenchResult {
    /// Benchmark name (`group/case`).
    pub name: String,
    /// Operations performed per sample (events fired, frames hashed, ...).
    pub ops: u64,
    /// What one operation is ("events", "frames", "ops").
    pub unit: &'static str,
    /// Fastest sample, in nanoseconds (floor 1 to keep rates finite).
    pub best_ns: u128,
    /// Samples taken.
    pub samples: u32,
}

impl CoreBenchResult {
    /// Operations per second, from the best sample.
    pub fn per_sec(&self) -> f64 {
        self.ops as f64 * 1e9 / self.best_ns as f64
    }

    /// Nanoseconds per operation, from the best sample.
    pub fn ns_per_op(&self) -> f64 {
        self.best_ns as f64 / self.ops as f64
    }
}

/// A self-scheduling chain through the general engine: the purest
/// back-to-back schedule→pop→dispatch loop the host world drives.
struct Chain {
    remaining: u64,
}

impl World for Chain {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _ev: ()) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

fn chain() -> u64 {
    let mut sim = Simulation::new(Chain {
        remaining: CHAIN_EVENTS,
    });
    sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
    sim.run_until_idle();
    sim.scheduler().fired()
}

/// Schedule-then-cancel churn: every second event is cancelled, so the
/// stale-entry skim and the slab free list both stay hot.
fn churn() -> u64 {
    let mut sim = Simulation::new(Chain { remaining: 0 });
    let handles: Vec<_> = (0..CHURN_EVENTS)
        .map(|i| {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_micros(i + 1), ())
        })
        .collect();
    for h in handles.iter().step_by(2) {
        sim.scheduler_mut().cancel(*h);
    }
    sim.run_until_idle();
    sim.scheduler().fired()
}

/// Drains [`DISK_STREAMS`] concurrent 1 GiB transfers through the
/// processor-sharing disk (the paper-calibrated model, with its
/// contention penalty); returns the makespan in microseconds.
fn ps_streams() -> u64 {
    let mut disk = PsResource::new(DISK_BYTES_PER_SEC).with_contention_penalty(0.0518);
    let mut now = SimTime::ZERO;
    for _ in 0..DISK_STREAMS {
        disk.submit(now, GIB);
    }
    while let Some(next) = disk.next_completion(now) {
        now = next;
        disk.take_completed(now);
    }
    now.as_micros()
}

/// The FIFO ablation counterpart of [`ps_streams`]: one server, the same
/// transfers served one after another.
fn fifo_streams() -> u64 {
    let mut disk = FifoResource::new(1);
    let service = SimDuration::from_secs_f64(GIB / DISK_BYTES_PER_SEC);
    for _ in 0..DISK_STREAMS {
        disk.submit(SimTime::ZERO, service);
    }
    let mut last = SimTime::ZERO;
    while let Some(next) = disk.next_completion() {
        last = next;
        disk.take_completed(next);
    }
    last.as_micros()
}

/// A digest workload shaped like a real guest: mostly pattern-filled
/// extents with a sprinkling of explicit writes.
fn digest_fixture() -> (P2mTable, FrameContents) {
    let mut ram = MachineMemory::new(DIGEST_FRAMES + 4096);
    let mut contents = FrameContents::new();
    let mut p2m = P2mTable::new();
    // Allocate in chunks separated by holes so the table holds several
    // extents and the digest's extent walk is exercised, not just one run.
    let mut ranges = Vec::new();
    let mut holes = Vec::new();
    for _ in 0..8 {
        ranges.extend(ram.allocate(DIGEST_FRAMES / 8).unwrap_or_default());
        holes.extend(ram.allocate(64).unwrap_or_default());
    }
    let _ = ram.release(&holes);
    let mut pfn = 0u64;
    for r in &ranges {
        let _ = p2m.map_contiguous(Pfn(pfn), std::slice::from_ref(r));
        contents.fill_pattern(*r, 0xC0DE ^ pfn);
        pfn += r.count;
    }
    // Explicit writes every 1024th page, overriding the fill pattern.
    for i in (0..DIGEST_FRAMES).step_by(1024) {
        if let Some(mfn) = p2m.lookup(Pfn(i)) {
            contents.write(mfn, 0x5EED_0000 + i);
        }
    }
    (p2m, contents)
}

/// Runs the whole suite, `samples` timed samples per benchmark.
///
/// The workload sizes are fixed; only the sample count varies between
/// quick and full profiles.
pub fn run_suite(samples: u32) -> Vec<CoreBenchResult> {
    let samples = samples.max(1);
    let mut results = Vec::new();
    let mut timed = |name: &str, ops: u64, unit: &'static str, f: &mut dyn FnMut() -> u64| {
        // One untimed warmup settles allocator and cache state.
        black_box(f());
        let mut best = u128::MAX;
        for _ in 0..samples {
            let start = Instant::now();
            black_box(f());
            best = best.min(start.elapsed().as_nanos());
        }
        results.push(CoreBenchResult {
            name: name.to_string(),
            ops,
            unit,
            best_ns: best.max(1),
            samples,
        });
    };

    timed("engine/chain/heap", CHAIN_EVENTS, "events", &mut || chain());
    timed("engine/churn/heap", CHURN_EVENTS, "events", &mut || churn());

    // The disk-model ablation (EXPERIMENTS.md): processor sharing vs FIFO
    // over the same 11 concurrent transfers.
    let streams = DISK_STREAMS * DISK_REPS;
    timed("disk/ps_11_streams", streams, "xfers", &mut || {
        (0..DISK_REPS).map(|_| black_box(ps_streams())).sum()
    });
    timed("disk/fifo_11_streams", streams, "xfers", &mut || {
        (0..DISK_REPS).map(|_| black_box(fifo_streams())).sum()
    });

    let (p2m, contents) = digest_fixture();
    let frames = p2m.total_pages() * DIGEST_REPS;
    timed("digest/full_rehash", frames, "frames", &mut || {
        let mut acc = 0u64;
        for _ in 0..DIGEST_REPS {
            acc ^= black_box(logical_digest(&p2m, &contents));
        }
        acc
    });
    let ranges = p2m.machine_ranges();
    let epoch = contents.epoch();
    timed("digest/early_out", EARLY_OUT_CALLS, "ops", &mut || {
        let mut hits = 0u64;
        for _ in 0..EARLY_OUT_CALLS {
            if black_box(contents.unchanged_since(epoch, &ranges)) {
                hits += 1;
            }
        }
        hits
    });

    // The paper's headline (Fig. 6 at 11 VMs): a warm, a saved and a cold
    // reboot of one booted host with 11 x 1 GiB guests, tracing off. The
    // host time is the rh-vmm reboot pipeline's event handling and image
    // captures; the preservation checks compare images and fold no digest.
    let mut host = HostSim::new(
        HostConfig::paper_testbed()
            .with_vms(PAPER_VMS, ServiceKind::Ssh)
            .with_trace(false),
    );
    host.power_on_and_wait();
    timed("host/paper_round", 1, "rounds", &mut || {
        paper_round(&mut host)
    });

    // A steady-state fleet workload (arrivals, placements, departures,
    // aging crashes across FLEET_HOSTS cells) — the rh-fleet layer's
    // cost on top of the engine. One untimed run counts the events.
    let fleet_events = fleet_steady();
    timed("fleet/steady", fleet_events, "events", &mut || {
        fleet_steady()
    });

    // The same layer as the fleet grows tenfold, under the two policies
    // that must consider every host: placement cost per event should not
    // grow with the host count.
    for placement in [PlacementKind::BestFit, PlacementKind::AntiAffinity] {
        for hosts in SCALE_HOSTS {
            let cfg = fleet_scale(hosts, placement);
            let name = format!("fleet/scale/{placement}/{}k", hosts / 1000);
            let events = fleet_run(&cfg);
            timed(&name, events, "events", &mut || fleet_run(&cfg));
        }
    }

    // A steady-state serverless cell (function-VM arrivals on one
    // overcommitted host with balloon reclaim and a warm pool) — the
    // rh-cell layer's cost, dominated by real P2M map/unmap traffic.
    let cell_events = cell_steady();
    timed("cell/steady", cell_events, "events", &mut || cell_steady());
    results
}

/// One warm, one saved and one cold reboot of `sim`, in that order;
/// returns the events fired.
///
/// # Panics
///
/// Fails the row if a reboot reports a corrupted guest or the round folds
/// a digest: a clean round must be checked by image comparison alone.
fn paper_round(sim: &mut HostSim) -> u64 {
    let before = sim.simulation_mut().scheduler().fired();
    let folded = sim.host().stats.counter("digest.folded");
    for strategy in [
        RebootStrategy::Warm,
        RebootStrategy::Saved,
        RebootStrategy::Cold,
    ] {
        let report = black_box(sim.reboot_and_wait(strategy));
        assert!(
            report.corrupted.is_empty(),
            "host/paper_round: {strategy} reboot corrupted {:?}",
            report.corrupted
        );
    }
    assert_eq!(
        sim.host().stats.counter("digest.folded"),
        folded,
        "host/paper_round: a clean round folded a digest"
    );
    sim.simulation_mut().scheduler().fired() - before
}

/// One deterministic campaign-free fleet run; returns events fired.
fn fleet_steady() -> u64 {
    fleet_run(&FleetConfig::datacenter(FLEET_HOSTS))
}

/// A `fleet/scale` row's fleet: the datacenter preset at `hosts` under
/// `placement`, with an in-place warm campaign from time zero and a
/// horizon of [`SCALE_HOST_SECONDS`] / `hosts`. Aging is off: over so
/// short a horizon it would crash almost no host, yet seeding its crash
/// clocks costs one draw per host.
fn fleet_scale(hosts: u32, placement: PlacementKind) -> FleetConfig {
    let mut cfg = FleetConfig::datacenter(hosts)
        .with_placement(placement)
        .with_campaign(CampaignConfig::in_place(
            RebootStrategy::Warm,
            hosts,
            SimTime::ZERO,
        ));
    cfg.horizon = SimDuration::from_secs(SCALE_HOST_SECONDS / u64::from(hosts));
    cfg.aging = None;
    cfg
}

/// One deterministic run of a datacenter-preset fleet; returns events
/// fired.
fn fleet_run(cfg: &FleetConfig) -> u64 {
    let report = FleetSimulation::new(cfg.clone())
        // lint:allow(unwrap-panic): every caller builds on FleetConfig::datacenter, which always validates
        .expect("datacenter config is valid")
        .run();
    report.events
}

/// One deterministic cell run (balloon-reclaim at 1.5× overcommit);
/// returns events processed.
fn cell_steady() -> u64 {
    let cfg = rh_cell::CellConfig::steady(rh_cell::ProvisionStrategy::BalloonReclaim, 1.5);
    let report = rh_cell::CellSimulation::new(cfg)
        // lint:allow(unwrap-panic): the steady preset always validates
        .expect("steady cell config is valid")
        .run()
        // lint:allow(unwrap-panic): steady runs cannot fail mid-flight
        .expect("steady cell run completes");
    report.events
}

/// Reads this process's peak resident set size (VmHWM) in bytes.
///
/// Returns 0 when `/proc/self/status` is unavailable (non-Linux), so the
/// field is always present in the JSON but never meaningful off-Linux.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Renders the human-readable summary table.
pub fn render_table(results: &[CoreBenchResult]) -> String {
    let mut out = String::from("## corebench (best of N samples)\n");
    let name_w = results
        .iter()
        .map(|r| r.name.len())
        .chain(["benchmark".len()])
        .max()
        .unwrap_or(0);
    out.push_str(&format!(
        "{:<name_w$}  {:>12}  {:>14}  {:>12}\n",
        "benchmark", "ops", "per second", "ns/op"
    ));
    for r in results {
        out.push_str(&format!(
            "{:<name_w$}  {:>5} {:>6}  {:>14.0}  {:>12.1}\n",
            r.name,
            r.ops,
            r.unit,
            r.per_sec(),
            r.ns_per_op(),
        ));
    }
    out
}

/// Serializes the suite as the `BENCH_core.json` document (hand-rolled;
/// the schema is documented in PERFORMANCE.md).
pub fn to_json(results: &[CoreBenchResult], profile: &str, samples: u32) -> String {
    let find = |name: &str| results.iter().find(|r| r.name == name);
    let headline_events = find("engine/chain/heap");
    let headline_digest = find("digest/full_rehash");
    let headline_early = find("digest/early_out");
    let mut out = String::from("{\n");
    out.push_str("  \"schema\": \"rh-corebench/v1\",\n");
    out.push_str(&format!("  \"profile\": \"{profile}\",\n"));
    out.push_str(&format!("  \"samples\": {samples},\n"));
    out.push_str("  \"headline\": {\n");
    out.push_str(&format!(
        "    \"events_per_sec\": {:.1},\n",
        headline_events.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"ns_per_event\": {:.2},\n",
        headline_events.map(|r| r.ns_per_op()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"digest_frames_per_sec\": {:.1},\n",
        headline_digest.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!(
        "    \"digest_early_out_ops_per_sec\": {:.1},\n",
        headline_early.map(|r| r.per_sec()).unwrap_or(0.0)
    ));
    out.push_str(&format!("    \"peak_rss_bytes\": {}\n", peak_rss_bytes()));
    out.push_str("  },\n");
    out.push_str("  \"benches\": [\n");
    let rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"name\":\"{}\",\"unit\":\"{}\",\"ops\":{},\"best_ns\":{},\"samples\":{},\"per_sec\":{:.1},\"ns_per_op\":{:.2}}}",
                r.name, r.unit, r.ops, r.best_ns, r.samples, r.per_sec(), r.ns_per_op()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

/// Extracts one benchmark's `per_sec` from a corebench JSON document.
///
/// A minimal fixed-schema scanner, not a JSON parser: it relies on each
/// bench object carrying `"name"` before `"per_sec"`, which [`to_json`]
/// guarantees. Returns `None` if the name or the field is absent.
pub fn bench_per_sec(json: &str, name: &str) -> Option<f64> {
    let needle = format!("\"name\":\"{name}\"");
    let at = json.find(&needle)?;
    number_after(&json[at..], "\"per_sec\":")
}

/// Extracts a headline field (e.g. `events_per_sec`) from a corebench
/// JSON document.
pub fn headline_value(json: &str, field: &str) -> Option<f64> {
    number_after(json, &format!("\"{field}\": "))
}

fn number_after(s: &str, key: &str) -> Option<f64> {
    let at = s.find(key)?;
    let tail = &s[at + key.len()..];
    let end = tail
        .find(|c: char| !(c.is_ascii_digit() || "+-.eE".contains(c)))
        .unwrap_or(tail.len());
    tail[..end].parse().ok()
}

/// The names of every bench row in a corebench JSON document, in order.
fn bench_names(json: &str) -> impl Iterator<Item = &str> {
    json.split("\"name\":\"")
        .skip(1)
        .filter_map(|tail| tail.split('"').next())
}

/// The verdict of one gate comparison.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// The rendered delta table (one line per compared benchmark).
    pub table: String,
    /// Benchmarks whose throughput dropped more than the tolerance, and
    /// baseline benchmarks the current run no longer produces.
    pub regressions: Vec<String>,
}

impl GateReport {
    /// True when no benchmark regressed past the tolerance or vanished.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }
}

/// Compares `current` against a baseline `BENCH_core.json`, flagging any
/// benchmark whose throughput dropped by more than `tolerance_pct`.
///
/// Only throughput (`per_sec`) is gated — RSS varies with allocator and
/// kernel version and is tracked as context only. Benchmarks absent from
/// the baseline are reported as `new` and never fail the gate, so adding
/// a benchmark does not require regenerating the baseline in the same
/// commit. Baseline benchmarks the current run does not produce are
/// reported as `missing` and fail the gate, so renaming or dropping a row
/// cannot slip past it.
pub fn gate_against(
    current: &[CoreBenchResult],
    baseline_json: &str,
    tolerance_pct: f64,
) -> GateReport {
    let mut table = format!(
        "{:<30}  {:>14}  {:>14}  {:>8}  status\n",
        "benchmark", "baseline/s", "current/s", "delta"
    );
    let mut regressions = Vec::new();
    for r in current {
        let cur = r.per_sec();
        match bench_per_sec(baseline_json, &r.name) {
            Some(base) if base > 0.0 => {
                let delta = (cur - base) / base * 100.0;
                let status = if delta < -tolerance_pct {
                    regressions.push(r.name.clone());
                    "FAIL"
                } else {
                    "ok"
                };
                table.push_str(&format!(
                    "{:<30}  {:>14.0}  {:>14.0}  {:>+7.1}%  {}\n",
                    r.name, base, cur, delta, status
                ));
            }
            _ => {
                table.push_str(&format!(
                    "{:<30}  {:>14}  {:>14.0}  {:>8}  new\n",
                    r.name, "-", cur, "-"
                ));
            }
        }
    }
    for name in bench_names(baseline_json) {
        if current.iter().all(|r| r.name != name) {
            let base = bench_per_sec(baseline_json, name).unwrap_or(0.0);
            table.push_str(&format!(
                "{:<30}  {:>14.0}  {:>14}  {:>8}  missing\n",
                name, base, "-", "-"
            ));
            regressions.push(name.to_string());
        }
    }
    GateReport { table, regressions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_results() -> Vec<CoreBenchResult> {
        vec![
            CoreBenchResult {
                name: "engine/chain/heap".into(),
                ops: 1000,
                unit: "events",
                best_ns: 1_000_000,
                samples: 2,
            },
            CoreBenchResult {
                name: "digest/full_rehash".into(),
                ops: 4096,
                unit: "frames",
                best_ns: 2_000_000,
                samples: 2,
            },
        ]
    }

    #[test]
    fn per_sec_and_ns_per_op_are_consistent() {
        let r = &tiny_results()[0];
        // 1000 ops in 1 ms → 1M ops/s, 1000 ns/op.
        assert!((r.per_sec() - 1_000_000.0).abs() < 1e-6);
        assert!((r.ns_per_op() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn json_roundtrips_through_the_scanner() {
        let results = tiny_results();
        let json = to_json(&results, "full", 2);
        for r in &results {
            let got = bench_per_sec(&json, &r.name).expect("bench present");
            assert!((got - r.per_sec()).abs() / r.per_sec() < 1e-3);
        }
        assert!(headline_value(&json, "events_per_sec").is_some());
        assert!(headline_value(&json, "digest_frames_per_sec").is_some());
        assert!(headline_value(&json, "peak_rss_bytes").is_some());
        assert_eq!(bench_per_sec(&json, "no/such/bench"), None);
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let baseline = to_json(&tiny_results(), "full", 2);
        // Identical run: passes.
        let same = gate_against(&tiny_results(), &baseline, 15.0);
        assert!(same.passed(), "{}", same.table);
        // 10% slower: still passes at 15% tolerance.
        let mut slower = tiny_results();
        slower[0].best_ns = slower[0].best_ns * 110 / 100;
        let ok = gate_against(&slower, &baseline, 15.0);
        assert!(ok.passed(), "{}", ok.table);
        // 30% slower: fails, and names the offender.
        let mut bad = tiny_results();
        bad[0].best_ns = bad[0].best_ns * 143 / 100;
        let fail = gate_against(&bad, &baseline, 15.0);
        assert!(!fail.passed());
        assert_eq!(fail.regressions, vec!["engine/chain/heap".to_string()]);
        assert!(fail.table.contains("FAIL"), "{}", fail.table);
    }

    #[test]
    fn unknown_benchmarks_never_fail_the_gate() {
        let baseline = to_json(&tiny_results(), "full", 2);
        let mut with_new = tiny_results();
        with_new.push(CoreBenchResult {
            name: "brand/new".into(),
            ops: 10,
            unit: "ops",
            best_ns: 10,
            samples: 1,
        });
        let report = gate_against(&with_new, &baseline, 15.0);
        assert!(report.passed(), "{}", report.table);
        assert!(report.table.contains("new"));
    }

    #[test]
    fn vanished_benchmarks_fail_the_gate() {
        let baseline = to_json(&tiny_results(), "full", 2);
        let mut dropped = tiny_results();
        dropped.retain(|r| r.name != "digest/full_rehash");
        let report = gate_against(&dropped, &baseline, 15.0);
        assert!(!report.passed(), "{}", report.table);
        assert_eq!(report.regressions, vec!["digest/full_rehash".to_string()]);
        assert!(report.table.contains("missing"), "{}", report.table);
    }

    #[test]
    fn suite_runs_at_minimum_size() {
        // Smoke: one sample of every workload completes and fires the
        // advertised number of operations.
        let results = run_suite(1);
        let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
        assert!(names.contains(&"engine/chain/heap"));
        assert!(names.contains(&"engine/churn/heap"));
        assert!(names.contains(&"disk/ps_11_streams"));
        assert!(names.contains(&"disk/fifo_11_streams"));
        assert!(names.contains(&"digest/full_rehash"));
        assert!(names.contains(&"digest/early_out"));
        assert!(names.contains(&"host/paper_round"));
        for policy in ["best-fit", "anti-affinity"] {
            for size in ["3k", "30k"] {
                let row = format!("fleet/scale/{policy}/{size}");
                assert!(names.contains(&row.as_str()), "{row}");
            }
        }
        for r in &results {
            assert!(r.best_ns >= 1, "{}: zero-time sample", r.name);
            assert!(r.ops > 0, "{}: no work recorded", r.name);
        }
        let table = render_table(&results);
        assert!(table.contains("digest/early_out"));
    }

    #[test]
    fn digest_fixture_is_digestible_and_stable() {
        let (p2m, contents) = digest_fixture();
        assert_eq!(p2m.total_pages(), DIGEST_FRAMES);
        let a = logical_digest(&p2m, &contents);
        let b = logical_digest(&p2m, &contents);
        assert_eq!(a, b, "digest must be deterministic");
        // The untouched fixture always early-outs at its own epoch.
        assert!(contents.unchanged_since(contents.epoch(), &p2m.machine_ranges()));
    }
}
