//! Serverless-cell sweep: arrival load × overcommit × provisioning
//! strategy, reporting cold-start percentiles and the memory ledger of
//! each combination (see `rh_bench::cell`).
//!
//! Flags:
//!
//! * `--jobs N` — sweep workers (default 1, 0 = all CPUs). Stdout is
//!   byte-identical for every worker count (the verify.sh gate).
//! * `--quick` — six-point smoke grid on a 600 s horizon.
//! * `--json PATH` — machine-readable run record (same hardened format as
//!   `BENCH_repro.json`); `-` disables. Default off.

use rh_bench::cell::{self, CellPoint};
use rh_bench::exec;
use rh_cell::ProvisionStrategy;

fn main() {
    exec::sweep_main(
        "cellbench",
        |quick| cell::sweep_points(&cell::grid(quick)),
        cell::render,
        headline,
    );
}

/// The acceptance contrast at the highest swept load: P99 cold-start of
/// cold re-provision vs balloon-reclaim at 1.5x overcommit (milliseconds).
fn headline(rows: &[CellPoint]) -> Vec<(String, f64)> {
    let load = rows.iter().map(|r| r.cell.load).fold(0.0, f64::max);
    rows.iter()
        .filter(|r| {
            // Grid cells carry exact literal constants, so a plain
            // equality on the 1.5x column would be sound — but the
            // float-eq lint is right that drift would be silent, so
            // match with a tolerance well under the grid spacing.
            r.cell.load == load
                && (r.cell.overcommit - 1.5).abs() < 0.01
                && (r.cell.strategy == ProvisionStrategy::Cold
                    || r.cell.strategy == ProvisionStrategy::BalloonReclaim)
        })
        .map(|r| {
            (
                format!("cell_1.5x_{}_p99_cold_start_ms", r.cell.strategy),
                r.p99.as_secs_f64() * 1e3,
            )
        })
        .collect()
}
