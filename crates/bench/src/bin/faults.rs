//! Availability and MTTR vs VMM fault rate: ReHype-style micro-reboot
//! recovery against cold-reboot-on-failure, under Poisson crash
//! arrivals. Deterministic at any `--jobs` worker count.
//!
//! Usage: `faults [--jobs N] [--quick]`
use rh_bench::exec::DEFAULT_SEED;
use rh_bench::reliability::{fault_sweep, render_fault_sweep};
use rh_sim::time::SimDuration;

fn main() {
    let mut jobs = 1;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--jobs" => {
                let v = args.next().unwrap_or_default();
                match rh_sim::pool::parse_jobs(&v) {
                    Ok(n) => jobs = n,
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                }
            }
            "--quick" => quick = true,
            other => {
                eprintln!("unknown argument {other:?}; usage: faults [--jobs N] [--quick]");
                std::process::exit(2);
            }
        }
    }
    let (vms, rates, horizon): (u32, &[f64], SimDuration) = if quick {
        (3, &[1.0, 4.0], SimDuration::from_secs(2 * 3600))
    } else {
        (4, &[0.5, 1.0, 2.0, 4.0], SimDuration::from_secs(6 * 3600))
    };
    let points = fault_sweep(vms, rates, horizon, DEFAULT_SEED, jobs);
    print!("{}", render_fault_sweep(&points, vms, horizon));
}
