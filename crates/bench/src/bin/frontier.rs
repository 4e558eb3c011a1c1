//! Regenerates the five-strategy frontier (DESIGN.md §15): downtime vs
//! post-reboot degradation across memory size × disk bandwidth × locality.
//!
//! Flags:
//!
//! * `--jobs N` — sweep workers (default 1, 0 = all CPUs). Stdout is
//!   byte-identical for every worker count (the verify.sh gate).
//! * `--quick` — 1 GiB VMs only (smoke grid).
//! * `--json PATH` — machine-readable run record (same hardened format as
//!   `BENCH_repro.json`); `-` disables. Default off.

use rh_bench::exec;
use rh_bench::frontier::{self, FrontierPoint};
use rh_vmm::config::RebootStrategy;

fn main() {
    exec::sweep_main(
        "frontier",
        |quick| frontier::sweep_points(&frontier::grid(quick)),
        frontier::render,
        headline,
    );
}

/// Downtime of every strategy on 1 GiB VMs at 85 MB/s, one entry per
/// streamed locality.
fn headline(rows: &[FrontierPoint]) -> Vec<(String, f64)> {
    rows.iter()
        .filter(|r| r.cell.mem_gib == 1 && r.cell.disk_mbps == 85)
        .map(|r| {
            let suffix = if r.cell.strategy == RebootStrategy::Streamed {
                format!("_loc{:.2}", r.cell.locality)
            } else {
                String::new()
            };
            (
                format!("frontier_{}{suffix}_downtime_s", r.cell.strategy),
                r.downtime_s,
            )
        })
        .collect()
}
