//! Golden `RebootReport`s: the `{:?}` of every report (per-domain
//! downtimes, `corrupted`, `cold_booted`) a 3-guest host logs across
//! warm, saved, streamed, incremental and cold reboots, and across the
//! fault plans of `recovery.rs` driven through `watch_and_recover`.
//!
//! The pins live in `golden/reboot_reports.txt`, one section per
//! scenario. Any change to reboot timing, to which domains a digest check
//! flags, or to which domains recovery cold-boots shows up here as a
//! line diff.

use rh_faults::plan::{FaultKind, FaultPlan, Trigger};
use rh_faults::recovery::{watch_and_recover, RecoveryConfig, RecoveryPolicy};
use rh_faults::Injector;
use rh_guest::services::ServiceKind;
use rh_sim::time::SimDuration;
use rh_vmm::config::HostConfig;
use rh_vmm::domain::DomainSpec;
use rh_vmm::harness::{booted_host, HostSim, DEFAULT_WAIT_CAP};
use rh_vmm::{DomainId, InjectPoint, RebootStrategy};

const GOLDEN: &str = include_str!("golden/reboot_reports.txt");

/// Appends a `== name` header and one `{:?}` line per logged report.
fn section(out: &mut String, name: &str, sim: &HostSim) {
    out.push_str(&format!("== {name}\n"));
    for r in sim.host().reports() {
        out.push_str(&format!("{r:?}\n"));
    }
}

/// Every strategy in turn on one host, so each reboot starts from the
/// memory the previous one left behind.
fn strategy_sequence() -> HostSim {
    let mut sim = booted_host(3, ServiceKind::Ssh);
    for strategy in [
        RebootStrategy::Warm,
        RebootStrategy::Saved,
        RebootStrategy::Streamed,
        RebootStrategy::Incremental,
        RebootStrategy::Cold,
        RebootStrategy::Warm,
        RebootStrategy::Saved,
    ] {
        sim.reboot_and_wait(strategy);
        let drained = sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty());
        assert!(drained, "stream-in never drained after {strategy}");
    }
    sim
}

/// A guest that keeps dirtying its memory while it runs between a warm
/// and a saved reboot.
fn dirty_writer_between_reboots() -> HostSim {
    let mut sim = booted_host(3, ServiceKind::Ssh);
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.start_dirty_writer(sched, DomainId(2), 8, SimDuration::from_secs(5));
    }
    sim.reboot_and_wait(RebootStrategy::Warm);
    sim.run_for(SimDuration::from_secs(60));
    sim.reboot_and_wait(RebootStrategy::Saved);
    sim.run_for(SimDuration::from_secs(60));
    sim.reboot_and_wait(RebootStrategy::Warm);
    sim.reboot_and_wait(RebootStrategy::Cold);
    sim
}

/// Arms `plan` on a booted `n`-guest host, commands `strategy` and drives
/// one recovery under `policy` (as `recovery.rs` does).
fn incident(n: u32, plan: &FaultPlan, strategy: RebootStrategy, policy: RecoveryPolicy) -> HostSim {
    let mut sim = booted_host(n, ServiceKind::Ssh);
    sim.host_mut().arm_fault_hook(Box::new(Injector::new(plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        match strategy {
            RebootStrategy::Streamed => host.streamed_reboot(sched),
            _ => host.warm_reboot(sched),
        }
    }
    watch_and_recover(&mut sim, &RecoveryConfig::new(policy)).expect("the fault is recovered");
    sim
}

fn crash_mid_delta_snapshot() -> HostSim {
    let cfg = HostConfig::paper_testbed()
        .with_domain(DomainSpec::standard("a", ServiceKind::Ssh))
        .with_domain(DomainSpec::standard("b", ServiceKind::Ssh))
        .with_snapshot_interval(Some(SimDuration::from_secs(30)));
    let mut sim = HostSim::new(cfg);
    sim.power_on_and_wait();
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.start_dirty_writer(sched, DomainId(1), 4, SimDuration::from_secs(10));
    }
    assert!(sim.run_until(SimDuration::from_secs(600), |h| h.snapshot_in_flight()));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.fault_vmm_crash(sched);
    }
    watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the mid-snapshot crash is recovered");
    assert!(sim.run_until(SimDuration::from_secs(600), |h| {
        h.stats.counter("snapshot.delta") >= 1
    }));
    sim.reboot_and_wait(RebootStrategy::Incremental);
    sim
}

fn ballooned_crash() -> HostSim {
    let mut sim = booted_host(3, ServiceKind::Ssh);
    let id = sim.host().domu_ids()[0];
    let squeeze = sim.host().domain(id).expect("exists").p2m.total_pages() / 4;
    sim.host_mut()
        .balloon(id, -(squeeze as i64))
        .expect("squeeze succeeds");
    let plan = FaultPlan::new(37).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&plan)));
    {
        let (host, sched) = sim.simulation_mut().parts_mut();
        host.warm_reboot(sched);
    }
    watch_and_recover(&mut sim, &RecoveryConfig::new(RecoveryPolicy::Microreboot))
        .expect("the crash is recovered");
    sim.host_mut()
        .balloon(id, squeeze as i64)
        .expect("deflate back to spec");
    sim.reboot_and_wait(RebootStrategy::Warm);
    sim
}

fn render() -> String {
    use RebootStrategy::{Streamed, Warm};
    use RecoveryPolicy::{ColdReboot, Microreboot};
    let mut out = String::new();
    section(&mut out, "strategy sequence", &strategy_sequence());
    section(&mut out, "dirty writer", &dirty_writer_between_reboots());

    let replay = FaultPlan::new(0xD5A1)
        .arm(
            InjectPoint::SuspendEnd,
            Trigger::Chance(0.7),
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::QuickReload,
            Trigger::Chance(0.5),
            FaultKind::FrameCorruption(DomainId(2)),
        );
    section(&mut out, "replay", &incident(4, &replay, Warm, Microreboot));

    let second_suspend = FaultPlan::new(7).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    section(
        &mut out,
        "crash at second suspend",
        &incident(4, &second_suspend, Warm, Microreboot),
    );

    let corrupted = FaultPlan::new(11)
        .arm(
            InjectPoint::SuspendEnd,
            Trigger::Nth(2),
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::QuickReload,
            Trigger::Always,
            FaultKind::FrameCorruption(DomainId(1)),
        );
    section(
        &mut out,
        "corrupted salvage",
        &incident(4, &corrupted, Warm, Microreboot),
    );

    let unrecovered = FaultPlan::new(23).arm(
        InjectPoint::QuickReload,
        Trigger::Always,
        FaultKind::FrameCorruption(DomainId(1)),
    );
    let mut sim = booted_host(3, ServiceKind::Ssh);
    sim.host_mut()
        .arm_fault_hook(Box::new(Injector::new(&unrecovered)));
    sim.reboot_and_wait(Warm);
    section(&mut out, "corruption without recovery", &sim);

    let resume_failure = FaultPlan::new(13)
        .arm(
            InjectPoint::StageImage,
            Trigger::Always,
            FaultKind::VmmCrash,
        )
        .arm(
            InjectPoint::ResumeStart,
            Trigger::Always,
            FaultKind::ResumeFailure(DomainId(2)),
        );
    section(
        &mut out,
        "resume failure",
        &incident(3, &resume_failure, Warm, Microreboot),
    );

    let xexec = FaultPlan::new(17).arm(
        InjectPoint::StageImage,
        Trigger::Always,
        FaultKind::XexecFailure,
    );
    section(
        &mut out,
        "corrupted staged image",
        &incident(3, &xexec, Warm, Microreboot),
    );

    let first_suspend = FaultPlan::new(19).arm(
        InjectPoint::SuspendEnd,
        Trigger::Nth(1),
        FaultKind::VmmCrash,
    );
    section(
        &mut out,
        "crash at first suspend, microreboot",
        &incident(3, &first_suspend, Warm, Microreboot),
    );
    section(
        &mut out,
        "crash at first suspend, cold",
        &incident(3, &first_suspend, Warm, ColdReboot),
    );

    let mid_stream = FaultPlan::new(29).arm(
        InjectPoint::ResumeStart,
        Trigger::Nth(2),
        FaultKind::VmmCrash,
    );
    let mut sim = incident(3, &mid_stream, Streamed, Microreboot);
    sim.reboot_and_wait(Streamed);
    assert!(sim.run_until(DEFAULT_WAIT_CAP, |h| h.streaming_domains().is_empty()));
    section(&mut out, "crash mid stream", &sim);

    section(
        &mut out,
        "crash mid delta snapshot",
        &crash_mid_delta_snapshot(),
    );
    section(&mut out, "ballooned crash", &ballooned_crash());
    out
}

#[test]
fn reboot_reports_are_golden() {
    let actual = render();
    for (i, (a, g)) in actual.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            a,
            g,
            "reboot report diverged from the golden at line {}",
            i + 1
        );
    }
    assert_eq!(
        actual.lines().count(),
        GOLDEN.lines().count(),
        "reboot report count diverged from the golden"
    );
}
