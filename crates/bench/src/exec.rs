//! Deterministic parallel experiment executor.
//!
//! Every figure in the paper's evaluation is a sweep of **independent
//! deterministic simulations** — one fresh [`HostSim`](rh_vmm::harness::HostSim)
//! per sweep point, each built from a fixed-seed config. That makes sweeps
//! embarrassingly parallel *as long as three invariants hold*:
//!
//! 1. **Per-point seeding.** Each point gets its own [`SimRng`] stream via
//!    [`SimRng::split`]: stream `i` depends only on the sweep seed and the
//!    point's submission index, never on worker count or scheduling order.
//! 2. **Order-independent assembly.** Results are slotted into a vector
//!    indexed by submission order, so the output is byte-identical whether
//!    the points ran on 1 worker or N.
//! 3. **No shared mutable state.** A point closure owns everything it
//!    touches; the only shared structures are the work queue cursor and
//!    the result slots.
//!
//! Worker closures must also never take the whole run down: a panicking
//! point is caught ([`std::panic::catch_unwind`]) and reported as a failed
//! [`PointResult`] carrying the point's name, while every other point
//! completes normally.
//!
//! The executor runs on the shared deterministic worker pool
//! ([`rh_sim::pool`] — std-only `std::thread::scope`, no external crates,
//! README §"Hermetic build") and is the engine behind `--jobs N` in the
//! `all`/`fig4`/`fig5`/`fig6` binaries. See DESIGN.md §10 for the
//! determinism argument.
//!
//! # Examples
//!
//! ```
//! use rh_bench::exec::Sweep;
//!
//! let mut sweep = Sweep::new(42);
//! for n in 1..=4u64 {
//!     sweep.point(format!("square/{n}"), move |_rng| n * n);
//! }
//! let results = sweep.run(2);
//! let values: Vec<u64> = results.iter().filter_map(|r| r.value().copied()).collect();
//! assert_eq!(values, [1, 4, 9, 16]); // submission order, any worker count
//! ```

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rh_obs::WallProfile;
use rh_sim::rng::SimRng;

/// Default experiment seed for sweeps whose points ignore their RNG
/// (the paper sweeps: every point builds its own fixed-seed host).
pub const DEFAULT_SEED: u64 = 2007;

/// One named experiment point: a closure from an independent RNG stream to
/// a result.
struct Point<T> {
    name: String,
    run: Box<dyn FnOnce(SimRng) -> T + Send + 'static>,
}

/// Why a point failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointError {
    /// The point's closure panicked; the payload message is attached.
    Panicked(String),
    /// The point was never executed (executor invariant violation — should
    /// be unreachable, kept so assembly never has to panic itself).
    NotRun,
}

impl std::fmt::Display for PointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PointError::Panicked(msg) => write!(f, "panicked: {msg}"),
            PointError::NotRun => write!(f, "never executed"),
        }
    }
}

/// The outcome of one executed point.
#[derive(Debug, Clone)]
pub struct PointResult<T> {
    /// The point's name, as submitted.
    pub name: String,
    /// Wall-clock time the point took on its worker.
    pub wall: Duration,
    /// Per-phase wall-clock spans: `"wait"` (batch start to claim) and
    /// `"run"` (the closure itself). Nondeterministic — quarantined to
    /// `BENCH_repro.json`, never stdout (DESIGN.md §10).
    pub profile: WallProfile,
    /// The value, or why the point failed.
    pub outcome: Result<T, PointError>,
}

impl<T> PointResult<T> {
    /// The value, if the point succeeded.
    pub fn value(&self) -> Option<&T> {
        self.outcome.as_ref().ok()
    }

    /// Consumes the result, returning the value if the point succeeded.
    pub fn into_value(self) -> Option<T> {
        self.outcome.ok()
    }
}

/// A batch of named experiment points executed across `jobs` workers.
///
/// Points run in submission order on one worker, or work-stolen across N
/// workers; either way [`run`](Self::run) returns results in submission
/// order with byte-identical values.
pub struct Sweep<T> {
    seed: u64,
    points: Vec<Point<T>>,
}

impl<T> std::fmt::Debug for Sweep<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("seed", &self.seed)
            .field("points", &self.points.len())
            .finish()
    }
}

impl<T: Send + 'static> Sweep<T> {
    /// Creates an empty sweep whose per-point RNG streams derive from
    /// `seed`.
    pub fn new(seed: u64) -> Self {
        Sweep {
            seed,
            points: Vec::new(),
        }
    }

    /// Number of submitted points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no points have been submitted.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Submits a named point. `f` receives an independent [`SimRng`] stream
    /// derived from the sweep seed and this point's submission index
    /// (points that need no randomness simply ignore it).
    pub fn point(&mut self, name: impl Into<String>, f: impl FnOnce(SimRng) -> T + Send + 'static) {
        self.points.push(Point {
            name: name.into(),
            run: Box::new(f),
        });
    }

    /// Runs every point across `jobs` workers (clamped to at least 1) and
    /// returns the results in submission order.
    ///
    /// A panicking point becomes a [`PointError::Panicked`] result; it
    /// never poisons the other points or the executor itself.
    pub fn run(self, jobs: usize) -> Vec<PointResult<T>> {
        let n = self.points.len();
        // Names survive outside the task slots so assembly can label even a
        // point that (impossibly) never ran.
        let names: Vec<String> = self.points.iter().map(|p| p.name.clone()).collect();
        let rngs = SimRng::from_seed(self.seed).split(n);
        // Each slot owns (point, rng); the pool worker for index i takes the
        // slot's contents exactly once (`rh_sim::pool` handles the cursor,
        // scoped threads, and submission-order assembly).
        let tasks: Vec<Mutex<Option<(Point<T>, SimRng)>>> = self
            .points
            .into_iter()
            .zip(rngs)
            .map(|pair| Mutex::new(Some(pair)))
            .collect();
        let batch_start = Instant::now();

        rh_sim::pool::run_indexed(n, jobs, |i| {
            let Some((point, rng)) = lock_ok(&tasks[i]).take() else {
                return PointResult {
                    name: names[i].clone(),
                    wall: Duration::ZERO,
                    profile: WallProfile::new(),
                    outcome: Err(PointError::NotRun),
                };
            };
            let wait = batch_start.elapsed();
            let start = Instant::now();
            let outcome = catch_unwind(AssertUnwindSafe(|| (point.run)(rng)))
                .map_err(|payload| PointError::Panicked(panic_message(payload.as_ref())));
            let run = start.elapsed();
            let mut profile = WallProfile::new();
            profile.record("wait", wait);
            profile.record("run", run);
            PointResult {
                name: point.name,
                wall: run,
                profile,
                outcome,
            }
        })
    }

    /// Runs the sweep and returns only the successful values, in submission
    /// order, reporting each failed point on stderr. The convenience
    /// wrapper the sweep modules (`fig45`, `fig6`, `sec56`, `ablations`)
    /// use: a paper sweep with a failing point still renders every other
    /// row.
    pub fn run_values(self, jobs: usize) -> Vec<T> {
        self.run(jobs)
            .into_iter()
            .filter_map(|r| match r.outcome {
                Ok(v) => Some(v),
                Err(e) => {
                    eprintln!("sweep point {:?} failed: {e}", r.name);
                    None
                }
            })
            .collect()
    }
}

/// Locks a mutex, recovering the guard from a poisoned lock. Poisoning is
/// harmless here: every panic inside a worker is already confined to
/// `catch_unwind`, and a poisoned slot still holds valid data.
fn lock_ok<M>(mutex: &Mutex<M>) -> std::sync::MutexGuard<'_, M> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Extracts the human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The whole `main` of a grid-sweep binary (`fleetbench`, `cellbench`,
/// `frontier`): parses `--jobs N` (default 1, 0 = all CPUs), `--quick`
/// and `--json PATH` (`-` disables; default off), runs `sweep(quick)`,
/// prints each failed point and then `render` of the successful rows, and
/// writes the run record with `headline(rows)` when `--json` is given.
///
/// Stdout is byte-identical at any `--jobs`; wall times go only to the
/// run record. A usage error prints `bin: …` on stderr and exits with
/// status 2.
pub fn sweep_main<T: Send + 'static, R: std::fmt::Display>(
    bin: &str,
    sweep: impl FnOnce(bool) -> Sweep<T>,
    render: impl FnOnce(&[T]) -> R,
    headline: impl FnOnce(&[T]) -> Vec<(String, f64)>,
) {
    let usage = format!("usage: {bin} [--jobs N] [--quick] [--json PATH]");
    let mut jobs = 1;
    let mut quick = false;
    let mut json: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} requires a value; {usage}"))
        };
        let parsed = match arg.as_str() {
            "--jobs" => value("--jobs")
                .and_then(|v| rh_sim::pool::parse_jobs(&v))
                .map(|j| jobs = j),
            "--quick" => {
                quick = true;
                Ok(())
            }
            "--json" => value("--json").map(|path| {
                json = if path == "-" { None } else { Some(path) };
            }),
            other => Err(format!("unknown argument {other:?}; {usage}")),
        };
        if let Err(e) = parsed {
            eprintln!("{bin}: {e}");
            std::process::exit(2);
        }
    }

    let start = Instant::now();
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for r in sweep(quick).run(jobs) {
        points.push(crate::json::ReproPoint::of(&r));
        match r.outcome {
            Ok(row) => rows.push(row),
            Err(e) => println!("!! point {:?} failed: {e}\n", r.name),
        }
    }
    println!("{}", render(&rows));

    if let Some(path) = &json {
        let doc = crate::json::repro_document(
            &[("jobs", jobs.to_string()), ("quick", quick.to_string())],
            start.elapsed().as_secs_f64() * 1e3,
            &points,
            &headline(&rows),
        );
        if let Err(e) = std::fs::write(path, doc) {
            eprintln!("{bin}: failed to write {path}: {e}");
        }
    }
}

/// Parses the arguments of a figure binary that accepts only `--jobs N`
/// (default 1, 0 = all CPUs).
///
/// # Errors
///
/// Returns a usage message on an unknown flag or a malformed value.
pub fn jobs_from_args(args: impl Iterator<Item = String>) -> Result<usize, String> {
    let mut jobs = 1;
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args
                    .next()
                    .ok_or("--jobs requires a value; usage: --jobs N")?;
                jobs = rh_sim::pool::parse_jobs(&v)?;
            }
            other => return Err(format!("unknown argument {other:?}; usage: --jobs N")),
        }
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square_sweep(n: u64) -> Sweep<u64> {
        let mut sweep = Sweep::new(DEFAULT_SEED);
        for i in 1..=n {
            sweep.point(format!("square/{i}"), move |_rng| i * i);
        }
        sweep
    }

    #[test]
    fn results_come_back_in_submission_order() {
        for jobs in [1, 2, 4, 16] {
            let results = square_sweep(10).run(jobs);
            let values: Vec<u64> = results.iter().filter_map(|r| r.value().copied()).collect();
            assert_eq!(values, (1..=10).map(|i| i * i).collect::<Vec<_>>());
            let names: Vec<&str> = results.iter().map(|r| r.name.as_str()).collect();
            assert_eq!(names[0], "square/1");
            assert_eq!(names[9], "square/10");
        }
    }

    #[test]
    fn per_point_rng_is_independent_of_worker_count() {
        let draws = |jobs: usize| -> Vec<u64> {
            let mut sweep = Sweep::new(99);
            for i in 0..8 {
                sweep.point(format!("draw/{i}"), |mut rng: SimRng| rng.next_u64());
            }
            sweep.run_values(jobs)
        };
        let serial = draws(1);
        assert_eq!(serial, draws(4));
        assert_eq!(serial, draws(8));
        // And the streams really are distinct.
        let mut sorted = serial.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), serial.len());
    }

    #[test]
    fn panicking_point_is_reported_not_fatal() {
        let mut sweep = Sweep::new(0);
        sweep.point("ok/1", |_rng| 1u32);
        sweep.point("boom", |_rng| panic!("injected failure"));
        sweep.point("ok/2", |_rng| 2u32);
        let results = sweep.run(2);
        assert_eq!(results.len(), 3);
        assert_eq!(results[0].value(), Some(&1));
        assert_eq!(results[2].value(), Some(&2));
        assert_eq!(results[1].name, "boom");
        match &results[1].outcome {
            Err(PointError::Panicked(msg)) => assert!(msg.contains("injected failure")),
            other => panic!("expected a panicked point, got {other:?}"),
        }
    }

    #[test]
    fn run_values_drops_failures_keeps_order() {
        let mut sweep = Sweep::new(0);
        sweep.point("a", |_rng| 1u32);
        sweep.point("b", |_rng| panic!("nope"));
        sweep.point("c", |_rng| 3u32);
        assert_eq!(sweep.run_values(3), vec![1, 3]);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let sweep: Sweep<u8> = Sweep::new(1);
        assert!(sweep.is_empty());
        assert!(sweep.run(4).is_empty());
    }

    #[test]
    fn oversubscribed_jobs_are_clamped() {
        // More workers than points (and jobs=0 → cpu count) must not hang
        // or duplicate work.
        let results = square_sweep(3).run(64);
        assert_eq!(results.len(), 3);
        assert!(results.iter().all(|r| r.outcome.is_ok()));
    }

    #[test]
    fn jobs_from_args_parses_the_flag() {
        let argv = |args: &[&str]| args.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from_args(argv(&[]).into_iter()), Ok(1));
        assert_eq!(jobs_from_args(argv(&["--jobs", "4"]).into_iter()), Ok(4));
        assert!(jobs_from_args(argv(&["--jobs"]).into_iter()).is_err());
        assert!(jobs_from_args(argv(&["--bogus"]).into_iter()).is_err());
    }

    #[test]
    fn wall_time_is_recorded() {
        let mut sweep = Sweep::new(0);
        sweep.point("spin", |_rng| {
            let mut acc = 0u64;
            for i in 0..50_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        let results = sweep.run(1);
        assert!(results[0].wall > Duration::ZERO);
    }

    #[test]
    fn wall_profile_records_wait_and_run_spans() {
        let results = square_sweep(3).run(2);
        for r in &results {
            assert!(r.profile.duration_of("wait").is_some(), "{}", r.name);
            assert_eq!(r.profile.duration_of("run"), Some(r.wall), "{}", r.name);
        }
    }
}
