//! Each workload at a tiny size passes its checks, repeats its exact
//! counts, and fails a check given a wrong expected value.

use rh_perfbench::cell_overcommit::{check_cell, CellOvercommit};
use rh_perfbench::fleet_campaign::{check_fleet, FleetCampaign};
use rh_perfbench::harness::{run_traced, run_untraced, set_up, Workload, END_TO_END, PER_LAYER};
use rh_perfbench::host_reboot::{check_first_round, HostReboot, EXPECTED_FIRST_ROUND_S};
use rh_perfbench::lint_postcopy::{check_proof, LintPostcopy, Proof, DOMAINS, EXPECTED};
use rh_sim::time::SimDuration;

/// The exact counts a traced run reports (every per-op count and ratio
/// derived from counts; never a time).
const COUNTS: [&str; 20] = [
    "memory.digests_per_op",
    "memory.early_out_ratio",
    "sim.host_events_per_op",
    "fleet.events_per_op",
    "fleet.placements_per_op",
    "fleet.hosts_scanned_per_placement",
    "fleet.rejected_ratio",
    "obs.metrics_calls_per_op",
    "cell.events_per_op",
    "cell.cold_boots_per_op",
    "cell.reclaimed_pages_per_op",
    "cell.deflated_pages_per_op",
    "cell.evicted_per_op",
    "cell.warm_hit_ratio",
    "cell.queued_ratio",
    "memory.vm_unmaps_per_op",
    "memory.reclaims_per_op",
    "obs.event_notes_per_op",
    "lint.states",
    "lint.transitions",
];

fn counts<W: Workload>(build: &dyn Fn() -> W) -> Vec<(&'static str, f64)> {
    let (w, _) = set_up(build).expect("tiny workload sets up");
    let result = run_traced(w, 2);
    assert!(result.correct(), "{:?}", result.lines);
    assert_eq!(result.metrics.len(), PER_LAYER.len());
    result
        .metrics
        .iter()
        .filter(|(name, _, _)| COUNTS.contains(name))
        .map(|&(name, value, _)| (name, value))
        .collect()
}

fn tiny_host() -> HostReboot {
    HostReboot::new(7, 2, None, Proof::new(1, None))
}

fn tiny_fleet() -> FleetCampaign {
    FleetCampaign::new(7, 50, Some(SimDuration::from_secs(6000)))
}

fn tiny_cell() -> CellOvercommit {
    CellOvercommit::new(7, SimDuration::from_secs(600))
}

fn tiny_lint() -> LintPostcopy {
    LintPostcopy::new(Proof::new(1, None), Proof::new(1, None))
}

#[test]
fn tiny_workloads_pass_their_checks() {
    let (w, setup_s) = set_up(&tiny_host).unwrap();
    let r = run_untraced(w, setup_s, 0.05);
    assert!(r.correct(), "{:?}", r.lines);
    let names: Vec<&str> = r.metrics.iter().map(|m| m.0).collect();
    let listed: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
    assert_eq!(names, listed);
    let (w, setup_s) = set_up(&tiny_fleet).unwrap();
    assert!(run_untraced(w, setup_s, 0.05).correct());
    let (w, setup_s) = set_up(&tiny_cell).unwrap();
    assert!(run_untraced(w, setup_s, 0.05).correct());
    let (w, setup_s) = set_up(&tiny_lint).unwrap();
    assert!(run_untraced(w, setup_s, 0.05).correct());
}

#[test]
fn exact_counts_repeat_across_runs() {
    for (name, first, second) in [
        ("host", counts(&tiny_host), counts(&tiny_host)),
        ("fleet", counts(&tiny_fleet), counts(&tiny_fleet)),
        ("cell", counts(&tiny_cell), counts(&tiny_cell)),
        ("lint", counts(&tiny_lint), counts(&tiny_lint)),
    ] {
        assert_eq!(first, second, "{name}");
        assert!(
            first.iter().any(|&(_, v)| v > 0.0),
            "{name}: nothing counted"
        );
    }
}

#[test]
fn ops_repeat_their_events() {
    let mut host = tiny_host();
    let events = host.op(0).unwrap();
    assert!(events > 0);
    assert_eq!(host.op(1).unwrap(), events, "rounds repeat exactly");
    let mut fleet = tiny_fleet();
    assert_eq!(fleet.op(3).unwrap(), fleet.op(3).unwrap());
    let mut cell = tiny_cell();
    assert_eq!(cell.op(3).unwrap(), cell.op(3).unwrap());
}

#[test]
fn the_paper_round_matches_and_a_wrong_expectation_fails() {
    let mut host = HostReboot::new(1, 11, Some(EXPECTED_FIRST_ROUND_S), Proof::new(1, None));
    host.op(0)
        .expect("first round gives the recorded downtimes");
    let err = host.paper_err_pct().unwrap();
    assert!((err - 9.654).abs() < 0.001, "paper error {err}");

    let mut wrong = EXPECTED_FIRST_ROUND_S;
    wrong[2] += 0.001;
    assert!(check_first_round(EXPECTED_FIRST_ROUND_S, wrong).is_err());
    let mut host = HostReboot::new(7, 2, Some([1.0, 2.0, 3.0]), Proof::new(1, None));
    assert!(host.op(0).is_err());
}

#[test]
fn fleet_checks_fail_on_a_wrong_expectation() {
    let fleet = tiny_fleet();
    let cfg = fleet.config(1);
    let report = rh_fleet::FleetSimulation::new(cfg.clone()).unwrap().run();
    check_fleet(&report, &cfg).unwrap();

    let mut small = cfg.clone();
    small.slots_per_host = report.max_used - 1;
    assert!(check_fleet(&report, &small).is_err());
    let mut bad = report.clone();
    bad.rejected += 1;
    assert!(check_fleet(&bad, &cfg).is_err());
    let mut bad = report.clone();
    bad.departures += 1;
    assert!(
        check_fleet(&bad, &cfg).is_err(),
        "registry must match the report"
    );
    let mut bad = report;
    bad.completed_hosts -= 1;
    assert!(check_fleet(&bad, &cfg).is_err());
}

#[test]
fn cell_checks_fail_on_a_wrong_expectation() {
    let cell = tiny_cell();
    let report = rh_cell::CellSimulation::new(cell.config(1))
        .unwrap()
        .run()
        .unwrap();
    check_cell(&report).unwrap();
    let notes = cell.count_notes(1, &report).unwrap();
    assert!(
        notes.notes >= report.events,
        "every event notes at least once"
    );

    let mut bad = report.clone();
    bad.warm_hits += 1;
    assert!(check_cell(&bad).is_err());
    let mut bad = report.clone();
    bad.completed -= 1;
    assert!(check_cell(&bad).is_err());
    let mut bad = report;
    bad.events += 1;
    assert!(
        cell.count_notes(1, &bad).is_err(),
        "replay must match the report"
    );
}

#[test]
fn lint_checks_fail_on_a_wrong_expectation() {
    let run = Proof::new(DOMAINS, Some(EXPECTED))
        .explore()
        .expect("the default proof gives its recorded counts");
    assert!(check_proof(&run, Some((run.states + 1, run.transitions))).is_err());
    assert!(check_proof(&run, Some((run.states, run.transitions + 1))).is_err());
    let wrong = Proof::new(1, Some((1, 1)));
    let mut lint = LintPostcopy::new(wrong.clone(), Proof::new(1, None));
    assert!(lint.op(0).is_err());
    let mut lint = LintPostcopy::new(Proof::new(1, None), wrong);
    assert!(lint.traced(1, 1).is_err(), "the scale proof is checked too");
}
