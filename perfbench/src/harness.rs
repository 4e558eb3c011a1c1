//! The closed-loop harness every workload shares.
//!
//! One process runs one workload on one thread. Each op starts when the
//! previous one ends. A run sets the workload up [`SETUPS`] times (each
//! set-up ends with one untimed warm-up op) and keeps the last instance;
//! then either
//!
//! * the **untraced run** (`--trace 0`) loops ops for `--seconds` and
//!   reports the end-to-end metrics, or
//! * the **traced run** (`--trace 1`) times a fixed list of ops twice,
//!   once plain and once through the workload's tracing path, and reports
//!   the per-layer metrics.
//!
//! Every op checks its own simulated output; a failed check or a panic
//! counts the op as failed, and any failure makes the run incorrect.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 5;

const MIB: f64 = (1u64 << 20) as f64;

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("sim_events_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with units. A
/// workload that does not drive a layer reports 0 for that layer's rows.
pub const PER_LAYER: [(&str, &str); 46] = [
    // host-reboot
    ("vmm.suspend_ms", "ms"),
    ("vmm.save_ms", "ms"),
    ("vmm.restore_ms", "ms"),
    ("vmm.resume_ms", "ms"),
    ("vmm.other_ms", "ms"),
    ("memory.digest_ns_per_frame", "ns"),
    ("memory.digests_per_op", "count"),
    ("memory.early_out_ratio", "ratio"),
    ("sim.host_events_per_op", "count"),
    ("sim.engine_ns_per_event", "ns"),
    // fleet-campaign
    ("fleet.events_per_op", "count"),
    ("fleet.placements_per_op", "count"),
    ("fleet.hosts_scanned_per_placement", "count"),
    ("fleet.choose_ns", "ns"),
    ("fleet.rejected_ratio", "ratio"),
    ("obs.metrics_calls_per_op", "count"),
    ("obs.metrics_call_ns", "ns"),
    ("sim.flat_ns_per_event", "ns"),
    // cell-overcommit
    ("cell.events_per_op", "count"),
    ("cell.cold_boots_per_op", "count"),
    ("cell.reclaimed_pages_per_op", "count"),
    ("cell.deflated_pages_per_op", "count"),
    ("cell.evicted_per_op", "count"),
    ("cell.warm_hit_ratio", "ratio"),
    ("cell.queued_ratio", "ratio"),
    ("memory.vm_unmaps_per_op", "count"),
    ("memory.reclaims_per_op", "count"),
    ("memory.vm_map_ns", "ns"),
    ("memory.vm_unmap_ns", "ns"),
    ("memory.reclaim_ns", "ns"),
    ("memory.deflate_ns_per_page", "ns"),
    ("obs.event_notes_per_op", "count"),
    ("obs.event_note_ns", "ns"),
    // lint-postcopy
    ("lint.states", "count"),
    ("lint.transitions", "count"),
    ("lint.states_per_s", "1/s"),
    ("lint.bytes_per_state", "B"),
    // every workload: op time = sum of layer shares + residual
    ("sim.share", "frac"),
    ("memory.share", "frac"),
    ("vmm.share", "frac"),
    ("fleet.share", "frac"),
    ("obs.share", "frac"),
    ("lint.share", "frac"),
    ("residual_share", "frac"),
    ("trace.op_ms", "ms"),
    ("trace.overhead_pct", "%"),
];

/// One workload: seeded state plus a checked op.
pub trait Workload {
    /// Runs op `index` and checks its output. Returns the simulated
    /// events the op fired (explored transitions for a model checker).
    ///
    /// # Errors
    ///
    /// A message naming the check that failed.
    fn op(&mut self, index: u64) -> Result<u64, String>;

    /// Runs ops `first..first + count` through the tracing path and
    /// measures each layer's per-call cost at the workload's shape.
    ///
    /// # Errors
    ///
    /// A message naming the check that failed.
    fn traced(&mut self, first: u64, count: u64) -> Result<Traced, String>;

    /// End-to-end figures beyond [`END_TO_END`] that only this workload
    /// has, printed as report lines (name, value, unit).
    fn extra_lines(&self) -> Vec<(&'static str, f64, &'static str)> {
        Vec::new()
    }
}

/// What a traced pass measured.
#[derive(Debug, Default, Clone)]
pub struct Traced {
    /// Host nanoseconds spent in the traced ops, in total.
    pub op_ns: f64,
    /// Per-layer metric values by [`PER_LAYER`] name.
    pub values: Vec<(&'static str, f64)>,
    /// Each layer's share of op time: its per-op count × per-call cost
    /// (or measured self time) ÷ op time, by `<layer>.share` name.
    pub shares: Vec<(&'static str, f64)>,
}

impl Traced {
    /// Records one per-layer value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    /// Records one layer's share, given its per-op time in nanoseconds
    /// and the mean op time.
    pub fn share(&mut self, name: &'static str, layer_ns_per_op: f64, op_ns: f64) {
        self.shares.push((name, ratio(layer_ns_per_op, op_ns)));
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The command line: `--workload NAME --seed N --seconds S --trace 0|1`.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the run measures.
    pub seconds: f64,
    /// Traced run instead of untraced.
    pub trace: bool,
}

/// The seed the workloads were sized with; also the default.
pub const DEFAULT_SEED: u64 = 1;

impl Args {
    /// Parses the command line (without the program name).
    ///
    /// # Errors
    ///
    /// A usage message for a missing workload, an unknown flag or a bad
    /// number.
    pub fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = DEFAULT_SEED;
        let mut seconds = 20.0;
        let mut trace = false;
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || {
                it.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .cloned()
            };
            match flag.as_str() {
                "--workload" => workload = Some(value()?),
                "--seed" => {
                    let v = value()?;
                    seed = v.parse().map_err(|_| format!("--seed {v}: not a u64"))?;
                }
                "--seconds" => {
                    let v = value()?;
                    seconds = v
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or_else(|| format!("--seconds {v}: not a positive number"))?;
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other}: expected 0 or 1")),
                    };
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// The outcome of one run: the report lines and the result object.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Ops attempted (timed ones; the warm-up ops are part of set-up).
    pub attempted: u64,
    /// Ops whose check failed or that panicked.
    pub failed: u64,
    /// Metrics by name, value and unit, in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable lines printed before the result object.
    pub lines: Vec<String>,
}

impl RunResult {
    /// True when every op passed its checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The one-line result object: `correct`, `attempted`, `failed` and
    /// `metrics`, each metric as `{"value": v, "unit": u}`.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Runs one op, turning a panic into a failed check.
fn checked_op<W: Workload>(w: &mut W, index: u64) -> Result<u64, String> {
    match catch_unwind(AssertUnwindSafe(|| w.op(index))) {
        Ok(r) => r,
        Err(panic) => Err(panic_message(&panic)),
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

/// Builds the workload [`SETUPS`] times, each followed by the untimed
/// warm-up op 0, and returns the last instance with the median set-up
/// time in seconds.
///
/// # Errors
///
/// The first warm-up failure.
pub fn set_up<W: Workload>(build: &dyn Fn() -> W) -> Result<(W, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let start = Instant::now();
        let mut w = build();
        checked_op(&mut w, 0).map_err(|e| format!("warm-up op: {e}"))?;
        times.push(start.elapsed().as_secs_f64());
        kept = Some(w);
    }
    let w = kept.ok_or("no set-up ran")?;
    Ok((w, median(&mut times)))
}

/// The median of `xs` (sorts in place); 0 for an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` in (0, 1] of `xs` (sorts in place); 0
/// for an empty slice.
pub fn percentile(xs: &mut [f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// The untraced run: loops ops `1, 2, ...` for `seconds` (at least one)
/// and reports the end-to-end metrics.
///
/// `peak_rss_mb` is read before the loop, after set-up and its warm-up
/// ops: the host workload keeps every reboot report, so a reading at the
/// end would grow with the number of ops the loop fits, i.e. with speed.
pub fn run_untraced<W: Workload>(mut w: W, setup_s: f64, seconds: f64) -> RunResult {
    let setup_rss_mb = peak_rss_bytes() as f64 / MIB;
    let mut op_ms = Vec::new();
    let mut events = 0u64;
    let mut failed = 0u64;
    let mut lines = Vec::new();
    let start = Instant::now();
    let mut index = 1;
    while index == 1 || start.elapsed().as_secs_f64() < seconds {
        let t = Instant::now();
        let r = checked_op(&mut w, index);
        op_ms.push(t.elapsed().as_secs_f64() * 1e3);
        match r {
            Ok(n) => events += n,
            Err(e) => {
                failed += 1;
                lines.push(format!("op {index} FAILED: {e}"));
            }
        }
        index += 1;
    }
    let elapsed = start.elapsed().as_secs_f64();
    let attempted = op_ms.len() as u64;
    let passed = attempted - failed;
    let p50 = median(&mut op_ms);
    let p90 = percentile(&mut op_ms, 0.9);
    let values = [
        setup_s,
        passed as f64 / elapsed,
        events as f64 / elapsed,
        p50,
        setup_rss_mb,
    ];
    let metrics: Vec<(&'static str, f64, &'static str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect();
    let mut report = metrics.clone();
    report.push(("op_p90_ms", p90, "ms"));
    report.push((
        "failed_ops_frac",
        ratio(failed as f64, attempted as f64),
        "frac",
    ));
    report.push(("peak_rss_end_mb", peak_rss_bytes() as f64 / MIB, "MB"));
    report.extend(w.extra_lines());
    lines.push(format!("ops {attempted} in {elapsed:.3} s"));
    if attempted < 100 {
        lines.push("op_p90_ms has fewer than 10 ops above it".to_string());
    }
    lines.extend(render_lines(&report));
    RunResult {
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// Ops a traced run times in each of its two passes: `seconds` worth at
/// `nominal_ops_per_s` (this workload's rate on the sizing machine),
/// split between the passes and the probes; at least one.
pub fn trace_ops(seconds: f64, nominal_ops_per_s: f64) -> u64 {
    ((seconds * nominal_ops_per_s * 0.4) as u64).max(1)
}

/// The traced run: times ops `1..=count` plain, then the same ops
/// through the workload's tracing path, and reports every
/// [`PER_LAYER`] metric.
pub fn run_traced<W: Workload>(mut w: W, count: u64) -> RunResult {
    let mut failed = 0u64;
    let mut lines = Vec::new();
    let start = Instant::now();
    for index in 1..=count {
        if let Err(e) = checked_op(&mut w, index) {
            failed += 1;
            lines.push(format!("op {index} FAILED: {e}"));
        }
    }
    let untraced_ns = start.elapsed().as_secs_f64() * 1e9;
    let traced = match catch_unwind(AssertUnwindSafe(|| w.traced(1, count))) {
        Ok(Ok(t)) => t,
        Ok(Err(e)) => {
            lines.push(format!("traced pass FAILED: {e}"));
            failed += count;
            Traced::default()
        }
        Err(panic) => {
            lines.push(format!("traced pass FAILED: {}", panic_message(&panic)));
            failed += count;
            Traced::default()
        }
    };
    let n = count as f64;
    lines.push(format!(
        "ops {count} per pass; untraced {:.4} ms/op, traced {:.4} ms/op",
        untraced_ns / n / 1e6,
        traced.op_ns / n / 1e6
    ));
    let mut values: Vec<(&'static str, f64)> = traced.values.clone();
    let mut explained = 0.0;
    for &(name, share) in &traced.shares {
        explained += share;
        values.push((name, share));
    }
    values.push(("residual_share", 1.0 - explained));
    values.push(("trace.op_ms", traced.op_ns / n / 1e6));
    values.push((
        "trace.overhead_pct",
        (ratio(traced.op_ns, untraced_ns) - 1.0) * 100.0,
    ));
    let metrics: Vec<(&'static str, f64, &'static str)> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .rev()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |&(_, v)| v);
            (name, value, unit)
        })
        .collect();
    for (name, _) in &values {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "per-layer metric `{name}` is not in PER_LAYER"
        );
    }
    lines.extend(render_lines(&metrics));
    RunResult {
        attempted: count * 2,
        failed,
        metrics,
        lines,
    }
}

fn render_lines(metrics: &[(&str, f64, &str)]) -> Vec<String> {
    metrics
        .iter()
        .map(|(name, value, unit)| format!("  {name:<34} {value:>16.4} {unit}"))
        .collect()
}

/// Nanoseconds per call of `f`: the median over `batches` timed batches
/// of `calls` calls each (after one untimed batch).
pub fn ns_per_call(batches: usize, calls: u64, mut f: impl FnMut()) -> f64 {
    for _ in 0..calls {
        f();
    }
    let mut samples: Vec<f64> = (0..batches.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&mut samples)
}

/// This process's peak resident set size (VmHWM) in bytes; 0 where
/// `/proc/self/status` does not exist.
pub fn peak_rss_bytes() -> u64 {
    proc_status_kb("VmHWM:") * 1024
}

/// This process's resident set size (VmRSS) in bytes the first time
/// this is called; `main` calls it before any workload runs.
pub fn start_rss_bytes() -> u64 {
    static START: OnceLock<u64> = OnceLock::new();
    *START.get_or_init(|| proc_status_kb("VmRSS:") * 1024)
}

fn proc_status_kb(field: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// A per-op seed: op `index` of the workload seeded `seed` (SplitMix64
/// over the pair, so neighbouring seeds and indices decorrelate).
pub fn op_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fails with `msg` unless `cond` holds.
///
/// # Errors
///
/// `msg` when `cond` is false.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}
