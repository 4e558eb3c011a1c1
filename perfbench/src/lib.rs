//! `rh-perfbench`: the repository's end-to-end benchmark.
//!
//! Four seeded, closed-loop workloads, each with one main layer (see
//! `README.md` in this directory for the why of each and the figures
//! measured when they were sized):
//!
//! * [`host_reboot`] — the paper's 11 × 1 GiB warm/saved/cold reboot
//!   round (`rh-vmm`, digests in `rh-memory`/`rh-storage`);
//! * [`fleet_campaign`] — a 1,000-host rolling warm campaign (`rh-fleet`
//!   placement, `rh-obs` metrics);
//! * [`cell_overcommit`] — a 2× overcommitted serverless cell (`rh-cell`,
//!   P2M traffic in `rh-memory`, `rh-obs` notes);
//! * [`lint_postcopy`] — the default `rh-lint` post-copy proof (state
//!   exploration).
//!
//! [`harness`] runs them and prints the metrics.

#![forbid(unsafe_code)]

pub mod cell_overcommit;
pub mod fleet_campaign;
pub mod harness;
pub mod host_reboot;
pub mod lint_postcopy;

use harness::{run_traced, run_untraced, set_up, trace_ops, Args, RunResult, Workload};

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "host-reboot",
    "fleet-campaign",
    "cell-overcommit",
    "lint-postcopy",
];

/// Runs one workload as the command line asks.
///
/// # Errors
///
/// An unknown workload name, or a failed warm-up op.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let seed = args.seed;
    // Nominal ops/s on the sizing machine set how many ops a traced run
    // times (see `trace_ops`).
    match args.workload.as_str() {
        "host-reboot" => go(args, 35.0, &|| {
            host_reboot::HostReboot::new(
                seed,
                host_reboot::PAPER_VMS,
                Some(host_reboot::EXPECTED_FIRST_ROUND_S),
                scale_proof(),
            )
        }),
        "fleet-campaign" => go(args, 10.0, &|| {
            fleet_campaign::FleetCampaign::new(seed, fleet_campaign::HOSTS, None)
        }),
        "cell-overcommit" => go(args, 110.0, &|| {
            cell_overcommit::CellOvercommit::new(seed, cell_overcommit::HORIZON)
        }),
        "lint-postcopy" => go(args, 25.0, &|| {
            lint_postcopy::LintPostcopy::new(
                lint_postcopy::Proof::new(lint_postcopy::DOMAINS, Some(lint_postcopy::EXPECTED)),
                scale_proof(),
            )
        }),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// The 3-domain post-copy proof the traced runs probe for `lint.*`.
fn scale_proof() -> lint_postcopy::Proof {
    lint_postcopy::Proof::new(
        lint_postcopy::SCALE_DOMAINS,
        Some(lint_postcopy::SCALE_EXPECTED),
    )
}

fn go<W: Workload>(
    args: &Args,
    nominal_ops_per_s: f64,
    build: &dyn Fn() -> W,
) -> Result<RunResult, String> {
    let (w, setup_s) = set_up(build)?;
    Ok(if args.trace {
        run_traced(w, trace_ops(args.seconds, nominal_ops_per_s))
    } else {
        run_untraced(w, setup_s, args.seconds)
    })
}
