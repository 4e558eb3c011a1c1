//! Placement property tests: the free-slot index picks exactly what the
//! linear reference scans pick, capacity is never exceeded, anti-affinity
//! never lets a campaign wave take down both halves of a replica pair,
//! and fleet runs are deterministic.

use rh_cluster::driver::HostPhase;
use rh_fleet::config::{CampaignConfig, CampaignMode, FleetConfig};
use rh_fleet::placement::{Constraints, PlacementKind};
use rh_fleet::sim::FleetSimulation;
use rh_fleet::store::{PlacementStore, VmState};
use rh_fleet::workload::{SyntheticWorkload, TraceWorkload};
use rh_sim::rng::SimRng;
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::SimTime;
use rh_vmm::config::RebootStrategy;

/// Every policy's index answer (host and modelled `scanned`) against its
/// linear reference scan on the store's current state.
fn agree(store: &PlacementStore, c: &Constraints) -> Result<(), String> {
    for kind in PlacementKind::ALL {
        let indexed = store.choose(kind, c);
        let linear = kind.build().choose(&store.query(c));
        if indexed != linear {
            return Err(format!(
                "{kind} under {c:?}: index {indexed:?}, linear {linear:?}\n\
                 used {:?}\nphases {:?}\ncompleted {:?}",
                store.used(),
                store.phases(),
                store.completed()
            ));
        }
    }
    Ok(())
}

/// A constraint set biased toward the edges: a cursor at or past the
/// end, a window covering the whole fleet, a peer at either edge, and a
/// pair spacing of 0, 1 or more than the fleet.
fn constraints(g: &mut Gen, hosts: u32) -> Constraints {
    let pick = |g: &mut Gen, options: &[u32]| options[g.usize_in(0, options.len())];
    let any = g.u32_in(0, hosts + 1);
    let cursor = pick(g, &[0, any, hosts, hosts + 3, u32::MAX]);
    let any = g.u32_in(0, hosts + 1);
    let window = pick(g, &[0, 1, any, hosts, u32::MAX]);
    let any = g.u32_in(0, hosts);
    let peer_host = [None, Some(0), Some(hosts - 1), Some(any)][g.usize_in(0, 4)];
    let any = g.u32_in(0, hosts + 1);
    let pair_spacing = pick(g, &[0, 1, 2, any, hosts + 1]);
    Constraints {
        cursor,
        window,
        peer_host,
        pair_spacing,
    }
}

/// Random store and phase updates keep the free-slot index in step with
/// the linear scans for all three policies.
#[test]
fn free_slot_index_matches_the_linear_scans() {
    check(
        "free_slot_index_matches_the_linear_scans",
        &Config::default(),
        |g| {
            let hosts = g.u32_in(1, 40);
            let capacity = g.u32_in(1, 5);
            let mut store = PlacementStore::new(hosts, capacity);
            let mut vms: Vec<u32> = Vec::new();
            let steps = g.usize_in(1, 300);
            for _ in 0..steps {
                let free: Vec<u32> = (0..hosts)
                    .filter(|&h| store.used()[h as usize] < capacity)
                    .collect();
                match g.usize_in(0, 6) {
                    0 | 1 if !free.is_empty() => {
                        vms.push(store.insert(free[g.usize_in(0, free.len())]));
                    }
                    2 if !vms.is_empty() => {
                        let vm = vms.swap_remove(g.usize_in(0, vms.len()));
                        store.remove(vm);
                    }
                    3 if !vms.is_empty() => {
                        let vm = vms[g.usize_in(0, vms.len())];
                        match store.state(vm) {
                            VmState::Migrating { .. } => store.finish_migration(vm),
                            VmState::Placed { host } => {
                                let targets: Vec<u32> =
                                    free.iter().copied().filter(|&h| h != host).collect();
                                if !targets.is_empty() {
                                    store
                                        .begin_migration(vm, targets[g.usize_in(0, targets.len())]);
                                }
                            }
                            VmState::Gone => return Err(format!("live VM {vm} is gone")),
                        }
                    }
                    _ => {
                        let host = g.u32_in(0, hosts);
                        let phase = [
                            HostPhase::Serving,
                            HostPhase::Serving,
                            HostPhase::Rebooting,
                            HostPhase::Recovering,
                        ][g.usize_in(0, 4)];
                        store.set_host(host, phase, g.any_bool());
                    }
                }
                for _ in 0..4 {
                    let c = constraints(g, hosts);
                    agree(&store, &c)?;
                }
            }
            Ok(())
        },
    );
}

/// The edges named one by one, on a fixed fleet: nothing fits, a window
/// over the whole fleet forces the fallback, a peer at either edge, and
/// a cursor at or past the end.
#[test]
fn free_slot_index_matches_the_linear_scans_at_the_edges() {
    let hosts = 8;
    let mut store = PlacementStore::new(hosts, 2);
    for h in [0, 0, 1, 3, 3, 5, 6, 7, 7] {
        store.insert(h);
    }
    store.set_host(2, HostPhase::Rebooting, false);
    store.set_host(6, HostPhase::Serving, true);
    let base = Constraints {
        cursor: 0,
        window: 0,
        peer_host: None,
        pair_spacing: 1,
    };
    let whole = Constraints {
        window: hosts,
        ..base
    };
    let d = store.choose(PlacementKind::AntiAffinity, &whole);
    assert_eq!(
        (d.host, d.scanned),
        (Some(6), hosts),
        "the completed host stays eligible inside the window"
    );
    for cursor in [0, 4, hosts - 1, hosts, hosts + 1, u32::MAX] {
        for window in [0, 1, 3, hosts, u32::MAX] {
            for peer_host in [None, Some(0), Some(hosts - 1), Some(4)] {
                for pair_spacing in [0, 1, 3, hosts + 1] {
                    let c = Constraints {
                        cursor,
                        window,
                        peer_host,
                        pair_spacing,
                    };
                    agree(&store, &c).unwrap();
                }
            }
        }
    }
    // With the completed host rebooting too, the whole-fleet window
    // leaves nothing but the fallback.
    store.set_host(6, HostPhase::Rebooting, true);
    let d = store.choose(PlacementKind::AntiAffinity, &whole);
    assert_eq!((d.host, d.scanned), (Some(4), 2 * hosts), "fallback pass");
    agree(&store, &whole).unwrap();
    // Nothing fits anywhere.
    for h in 0..hosts {
        store.set_host(h, HostPhase::Recovering, false);
    }
    for kind in PlacementKind::ALL {
        assert_eq!(store.choose(kind, &whole).host, None, "{kind}");
    }
    agree(&store, &whole).unwrap();
    agree(&store, &base).unwrap();
}

fn campaigned(hosts: u32, seed: u64, placement: PlacementKind, mode: CampaignMode) -> FleetConfig {
    let mut cfg = FleetConfig::datacenter(hosts).with_placement(placement);
    cfg.seed = seed;
    cfg.campaign = Some(CampaignConfig {
        strategy: RebootStrategy::Streamed,
        mode,
        start: SimTime::from_secs(800),
        ..CampaignConfig::in_place(RebootStrategy::Streamed, hosts, SimTime::from_secs(800))
    });
    cfg
}

/// No placement algorithm, under any mode (arrivals, evacuation
/// migrations, crashes), ever pushes a host past its slot capacity —
/// the store's reservation invariant, read back via the audit high-water
/// mark.
#[test]
fn no_placement_ever_exceeds_host_capacity() {
    for placement in PlacementKind::ALL {
        for mode in [CampaignMode::InPlace, CampaignMode::Evacuate] {
            for seed in [11, 2007, 90210] {
                let cfg = campaigned(40, seed, placement, mode);
                let slots = cfg.slots_per_host;
                let r = FleetSimulation::new(cfg).unwrap().run();
                assert!(
                    r.max_used <= slots,
                    "{placement}/{mode}/seed {seed}: max_used {} > {slots}",
                    r.max_used
                );
                assert!(r.placed > 0, "{placement}/{mode}/seed {seed}: empty run");
            }
        }
    }
}

/// Anti-affinity keeps replica pairs far enough apart that no campaign
/// wave (crash-free) ever holds both halves down; first-fit co-locates
/// pairs and loses them, which is the contrast that proves the property
/// is doing work rather than being vacuous.
#[test]
fn anti_affinity_never_strands_a_rejuvenating_pair() {
    for seed in [3, 2007, 424242] {
        let mut anti = campaigned(60, seed, PlacementKind::AntiAffinity, CampaignMode::InPlace);
        anti.aging = None; // crash-free: the wave is the only downtime source
        let r = FleetSimulation::new(anti).unwrap().run();
        assert_eq!(r.completed_hosts, 60, "seed {seed}: campaign unfinished");
        assert_eq!(
            r.pair_losses, 0,
            "seed {seed}: {} pairs lost",
            r.pair_losses
        );
    }
    let mut ff = campaigned(60, 2007, PlacementKind::FirstFit, CampaignMode::InPlace);
    ff.aging = None;
    let r = FleetSimulation::new(ff).unwrap().run();
    assert!(
        r.pair_losses > 0,
        "first-fit should co-locate and lose pairs"
    );
}

/// The same config produces byte-identical reports (including the full
/// metric registry) — the property `fleetbench` relies on for its
/// `--jobs 1` vs `--jobs N` comparison.
#[test]
fn identical_configs_replay_byte_identically() {
    for placement in PlacementKind::ALL {
        let cfg = campaigned(30, 77, placement, CampaignMode::Evacuate);
        let a = FleetSimulation::new(cfg.clone()).unwrap().run();
        let b = FleetSimulation::new(cfg).unwrap().run();
        assert_eq!(a, b, "{placement}");
    }
}

/// A recorded synthetic trace replayed through `with_workload` reproduces
/// the synthetic run exactly — the trace path and the live path are the
/// same simulation.
#[test]
fn trace_replay_matches_the_synthetic_run() {
    let cfg = campaigned(25, 5, PlacementKind::AntiAffinity, CampaignMode::InPlace);
    let live = FleetSimulation::new(cfg.clone()).unwrap().run();
    let mut synth = SyntheticWorkload::new(
        cfg.workload,
        cfg.horizon,
        SimRng::from_seed(cfg.seed).fork(1),
    );
    let trace = TraceWorkload::record(&mut synth);
    let replayed = FleetSimulation::with_workload(cfg, Box::new(trace))
        .unwrap()
        .run();
    assert_eq!(live, replayed);
}
