//! Registry golden for one small seeded fleet run: an evacuate-first
//! cold campaign under aging crashes and an arrival rate high enough to
//! reject some placements, so every fleet counter and timer is touched.
//! The pins hold every counter and gauge by name and value, and each
//! timer's full histogram (count, sum, min, max and buckets); any change
//! to how the fleet counts, times or names its metrics shows up here.

use rh_fleet::config::{CampaignConfig, CampaignMode, FleetAging, FleetConfig};
use rh_fleet::placement::PlacementKind;
use rh_fleet::{FleetReport, FleetSimulation};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

fn evacuate_with_aging() -> FleetReport {
    let mut cfg = FleetConfig::datacenter(12).with_placement(PlacementKind::FirstFit);
    let mut campaign = CampaignConfig::in_place(RebootStrategy::Cold, 12, SimTime::from_secs(800));
    campaign.mode = CampaignMode::Evacuate;
    cfg.campaign = Some(campaign);
    cfg.aging = Some(FleetAging::microreboot(20_000));
    cfg.workload.arrival_rate *= 1.6;
    cfg.horizon = SimDuration::from_secs(8_000);
    FleetSimulation::new(cfg).expect("config is valid").run()
}

/// One line per registry entry, in the registry's name order.
fn registry_lines(r: &FleetReport) -> String {
    let m = &r.metrics;
    let mut out = String::new();
    for (name, v) in m.counters() {
        out.push_str(&format!("counter {name} {v}\n"));
    }
    for (name, v) in m.gauges() {
        out.push_str(&format!("gauge {name} {v}\n"));
    }
    for (name, h) in m.timers() {
        out.push_str(&format!("timer {name} {h:?}\n"));
    }
    out
}

const REGISTRY: &str = "\
counter fleet.arrivals 938
counter fleet.crashes 6
counter fleet.departures 724
counter fleet.migrations 80
counter fleet.pair_losses 1
counter fleet.reboots.cold 12
counter fleet.rejected 121
counter fleet.sla_violation_us 214970000
gauge campaign.completed 12
gauge fleet.hosts 12
gauge fleet.vms 93
timer fleet.migration_total LatencyHistogram { buckets: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 92, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 92, sum_micros: 2285280644, min: Some(SimDuration(24.840007s)), max: Some(SimDuration(24.840007s)) }
timer fleet.reboot_downtime LatencyHistogram { buckets: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 12, sum_micros: 950400000, min: Some(SimDuration(79.200000s)), max: Some(SimDuration(79.200000s)) }
timer fleet.recovery_time LatencyHistogram { buckets: [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 6, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 6, sum_micros: 258900000, min: Some(SimDuration(42.970000s)), max: Some(SimDuration(43.930000s)) }
timer placement.latency LatencyHistogram { buckets: [0, 70, 129, 343, 488, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0], count: 1030, sum_micros: 7438, min: Some(SimDuration(0.000001s)), max: Some(SimDuration(0.000012s)) }
";

#[test]
fn evacuate_aging_registry_is_golden() {
    let r = evacuate_with_aging();
    let lines = registry_lines(&r);
    assert_eq!(lines, REGISTRY);
}
