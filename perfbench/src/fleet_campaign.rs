//! `fleet-campaign`: a 1,000-host datacenter under anti-affinity
//! placement with an in-place warm rejuvenation campaign from 1,000 s.
//! One op is one whole `FleetSimulation::run` with its own seed.
//!
//! Why: this is the fleetbench cell that holds the 97 % SLA floor, and
//! its host time goes to the O(hosts) placement scans in `rh-fleet` and
//! the string-keyed `rh_obs::Metrics` calls made per arrival. It does no
//! digesting and no P2M work.

use std::time::Instant;

use rh_cluster::HostPhase;
use rh_fleet::config::{default_max_down, CampaignConfig, FleetConfig};
use rh_fleet::placement::{PlacementAlgorithm, PlacementKind, PlacementQuery};
use rh_fleet::{FleetReport, FleetSimulation, PlacementStore};
use rh_obs::Metrics;
use rh_sim::flat::{FlatScheduler, FlatSimulation, FlatWorld};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::RebootStrategy;

use crate::harness::{ensure, ns_per_call, op_seed, ratio, Traced, Workload};

/// Hosts in the full-size workload.
pub const HOSTS: u32 = 1000;

/// When the campaign starts (after the fill-up transient).
const CAMPAIGN_START_S: u64 = 1000;

/// Events in the `sim.flat_ns_per_event` probe's chain.
const CHAIN_EVENTS: u64 = 200_000;

/// The workload state: only its shape and seed; each op builds its own
/// simulation.
#[derive(Debug)]
pub struct FleetCampaign {
    seed: u64,
    hosts: u32,
    horizon: Option<SimDuration>,
}

impl FleetCampaign {
    /// A campaign over `hosts` hosts; `horizon` overrides the preset's
    /// 15,000 s (tests use a shorter one).
    pub fn new(seed: u64, hosts: u32, horizon: Option<SimDuration>) -> FleetCampaign {
        FleetCampaign {
            seed,
            hosts,
            horizon,
        }
    }

    /// The config op `index` runs.
    pub fn config(&self, index: u64) -> FleetConfig {
        let mut cfg = FleetConfig::datacenter(self.hosts)
            .with_placement(PlacementKind::AntiAffinity)
            .with_campaign(CampaignConfig::in_place(
                RebootStrategy::Warm,
                self.hosts,
                SimTime::from_secs(CAMPAIGN_START_S),
            ));
        cfg.seed = op_seed(self.seed, index);
        if let Some(h) = self.horizon {
            cfg.horizon = h;
        }
        cfg
    }

    fn run_op(&self, index: u64) -> Result<(FleetConfig, FleetReport), String> {
        let cfg = self.config(index);
        let report = FleetSimulation::new(cfg.clone())?.run();
        check_fleet(&report, &cfg)?;
        Ok((cfg, report))
    }
}

/// The fleet report's invariants: no host over capacity, every arrival
/// placed or rejected, the registry agreeing with the report, and the
/// campaign finished on every host.
///
/// # Errors
///
/// A message naming the first invariant that fails.
pub fn check_fleet(r: &FleetReport, cfg: &FleetConfig) -> Result<(), String> {
    ensure(r.max_used <= cfg.slots_per_host, || {
        format!("max_used {} > {} slots", r.max_used, cfg.slots_per_host)
    })?;
    ensure(r.arrivals == r.placed + r.rejected, || {
        format!(
            "arrivals {} != placed {} + rejected {}",
            r.arrivals, r.placed, r.rejected
        )
    })?;
    let m = &r.metrics;
    let placements = m.timer("placement.latency").map_or(0, |t| t.count());
    for (name, counted, reported) in [
        ("fleet.arrivals", m.counter("fleet.arrivals"), r.arrivals),
        ("fleet.rejected", m.counter("fleet.rejected"), r.rejected),
        (
            "fleet.departures",
            m.counter("fleet.departures"),
            r.departures,
        ),
        ("fleet.crashes", m.counter("fleet.crashes"), r.crashes),
        (
            "fleet.migrations",
            m.counter("fleet.migrations"),
            r.migrations,
        ),
        (
            "fleet.pair_losses",
            m.counter("fleet.pair_losses"),
            r.pair_losses,
        ),
        // An in-place campaign migrates nothing: only arrivals are placed.
        ("placement.latency", placements, r.arrivals),
    ] {
        ensure(counted == reported, || {
            format!("registry {name} = {counted}, report says {reported}")
        })?;
    }
    ensure(r.completed_hosts == r.hosts, || {
        format!(
            "campaign finished {} of {} hosts",
            r.completed_hosts, r.hosts
        )
    })
}

/// `Metrics` calls one run made: one per `inc` and per `record`, plus the
/// one `add` per host taken down (`fleet.pair_losses`, whose value is a
/// sum of losses and not a call count).
pub fn metrics_calls(m: &Metrics) -> u64 {
    let counters: u64 = m
        .counters()
        .filter(|(name, _)| *name != "fleet.pair_losses")
        .map(|(_, v)| v)
        .sum();
    let downs: u64 = m
        .counters()
        .filter(|(name, _)| name.starts_with("fleet.reboots.") || *name == "fleet.crashes")
        .map(|(_, v)| v)
        .sum();
    let timers: u64 = m.timers().map(|(_, t)| t.count()).sum();
    counters + downs + timers
}

impl Workload for FleetCampaign {
    fn op(&mut self, index: u64) -> Result<u64, String> {
        Ok(self.run_op(index)?.1.events)
    }

    fn traced(&mut self, first: u64, count: u64) -> Result<Traced, String> {
        let mut op_ns = 0.0;
        let (mut events, mut placements, mut scanned, mut rejected, mut arrivals) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        let (mut calls, mut occupancy) = (0u64, 0.0);
        let mut registry = Metrics::new();
        let mut shape = self.config(first);
        for index in first..first + count {
            let t = Instant::now();
            let (cfg, r) = self.run_op(index)?;
            op_ns += t.elapsed().as_secs_f64() * 1e9;
            let latency = r.metrics.timer("placement.latency");
            let n = latency.map_or(0, |t| t.count());
            let mean_us = latency.and_then(|t| t.mean()).map_or(0, |d| d.as_micros());
            events += r.events;
            placements += n;
            scanned += mean_us * n;
            rejected += r.rejected;
            arrivals += r.arrivals;
            calls += metrics_calls(&r.metrics);
            // Little's law: mean live VMs = placements × lifetime / horizon.
            occupancy += r.placed as f64 * cfg.workload.mean_lifetime.as_secs_f64()
                / cfg.horizon.as_secs_f64();
            registry = r.metrics;
            shape = cfg;
        }
        let n = count as f64;
        let choose = choose_ns(&shape, occupancy / n);
        let metric_call = metrics_call_ns(registry);
        let flat = flat_ns_per_event();
        let op = op_ns / n;
        let mut t = Traced {
            op_ns,
            ..Traced::default()
        };
        t.set("fleet.events_per_op", events as f64 / n);
        t.set("fleet.placements_per_op", placements as f64 / n);
        t.set(
            "fleet.hosts_scanned_per_placement",
            ratio(scanned as f64, placements as f64),
        );
        t.set("fleet.choose_ns", choose);
        t.set(
            "fleet.rejected_ratio",
            ratio(rejected as f64, arrivals as f64),
        );
        t.set("obs.metrics_calls_per_op", calls as f64 / n);
        t.set("obs.metrics_call_ns", metric_call);
        t.set("sim.flat_ns_per_event", flat);
        t.share("fleet.share", placements as f64 / n * choose, op);
        t.share("obs.share", calls as f64 / n * metric_call, op);
        t.share("sim.share", events as f64 / n * flat, op);
        Ok(t)
    }
}

/// Nanoseconds per `PlacementAlgorithm::choose` of the config's policy on
/// a store of the config's shape holding `live` VMs spread evenly, with
/// the campaign halfway through and its window active.
pub fn choose_ns(cfg: &FleetConfig, live: f64) -> f64 {
    let hosts = cfg.hosts;
    let mut store = PlacementStore::new(hosts, cfg.slots_per_host);
    let live = (live.round() as u64).min(u64::from(hosts) * u64::from(cfg.slots_per_host));
    for i in 0..live {
        store.insert((i % u64::from(hosts)) as u32);
    }
    let phases = vec![HostPhase::Serving; hosts as usize];
    let cursor = hosts / 2;
    let completed: Vec<bool> = (0..hosts).map(|h| h < cursor).collect();
    let max_down = cfg.campaign.map_or(default_max_down(hosts), |c| c.max_down);
    let q = PlacementQuery {
        used: store.used(),
        capacity: store.capacity(),
        phases: &phases,
        completed: &completed,
        cursor,
        window: 2 * max_down,
        peer_host: None,
        pair_spacing: 2 * max_down,
    };
    let policy: Box<dyn PlacementAlgorithm> = cfg.placement.build();
    ns_per_call(7, 2000, || {
        std::hint::black_box(policy.choose(std::hint::black_box(&q)));
    })
}

/// Nanoseconds per `Metrics::inc` / `Metrics::record` call on a registry
/// that already holds the fleet's names.
pub fn metrics_call_ns(mut registry: Metrics) -> f64 {
    let latency = SimDuration::from_micros(1000);
    ns_per_call(7, 20_000, || {
        registry.inc(std::hint::black_box("fleet.arrivals"));
        registry.record(std::hint::black_box("placement.latency"), latency);
    }) / 2.0
}

/// A self-scheduling chain through the flat engine (the queue the fleet
/// simulation runs on).
struct FlatChain(u64);

impl FlatWorld for FlatChain {
    type Event = ();
    fn handle(&mut self, sched: &mut FlatScheduler<()>, _ev: ()) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

/// Host nanoseconds per event dispatched by `rh_sim::flat`.
pub fn flat_ns_per_event() -> f64 {
    ns_per_call(5, 1, || {
        let mut sim = FlatSimulation::new(FlatChain(CHAIN_EVENTS));
        sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
        sim.run_until_idle();
        std::hint::black_box(sim.scheduler().fired());
    }) / (CHAIN_EVENTS + 1) as f64
}
