//! `host-reboot`: the paper's Fig. 6 testbed, one warm, one saved and one
//! cold reboot per op.
//!
//! Why: this is the paper's headline. Almost all of its host time is
//! `logical_digest` over frozen 1 GiB images (11 freeze digests per warm
//! reboot, 11 freeze and 11 restore digests per saved reboot), while it
//! fires only ~150 simulated events per round, so it is the workload
//! that moves when the digest path in `rh-memory`/`rh-storage` or the
//! reboot pipeline in `rh-vmm` changes.

use std::collections::BTreeMap;
use std::time::Instant;

use rh_guest::services::ServiceKind;
use rh_obs::Phase;
use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::time::{SimDuration, SimTime};
use rh_vmm::config::{HostConfig, RebootStrategy};
use rh_vmm::domain::DomainId;
use rh_vmm::harness::HostSim;

use crate::harness::{ensure, ns_per_call, ratio, Traced, Workload};
use crate::lint_postcopy::{scale_probe, Proof};

/// Guests on the paper's testbed (Fig. 6's largest point).
pub const PAPER_VMS: u32 = 11;

/// One round, in order.
pub const STRATEGIES: [RebootStrategy; 3] = [
    RebootStrategy::Warm,
    RebootStrategy::Saved,
    RebootStrategy::Cold,
];

/// The paper's Fig. 6 ssh downtimes at 11 VMs (warm, saved, cold), s.
pub const PAPER_SSH_S: [f64; 3] = [42.0, 429.0, 157.0];

/// The simulator's first-round mean downtimes at 11 VMs on the default
/// seed (warm, saved, cold), at the millisecond.
pub const EXPECTED_FIRST_ROUND_S: [f64; 3] = [39.451, 392.712, 141.843];

/// Simulated events any one reboot may take before it counts as stuck.
const STEP_CAP: u64 = 1_000_000;

/// Events in the `sim.engine_ns_per_event` probe's chain.
const CHAIN_EVENTS: u64 = 100_000;

/// The phases the traced run charges host time to; every other step is
/// `vmm.other_ms`.
const CHARGED: [(Phase, &str); 4] = [
    (Phase::Suspend, "vmm.suspend_ms"),
    (Phase::Save, "vmm.save_ms"),
    (Phase::Restore, "vmm.restore_ms"),
    (Phase::Resume, "vmm.resume_ms"),
];

/// Per-VM downtimes of one reboot.
type Downtimes = BTreeMap<DomainId, SimDuration>;

/// The workload state: one booted host that every op reboots three ways.
#[derive(Debug)]
pub struct HostReboot {
    sim: HostSim,
    /// When set, the first round's mean downtimes must equal these.
    expected_first: Option<[f64; 3]>,
    /// The first round's mean downtimes (warm, saved, cold), s.
    first_round: Option<[f64; 3]>,
    /// The previous round's per-VM downtimes, which every round repeats.
    last_round: Option<Vec<Downtimes>>,
    /// The `rh-lint` proof the traced run probes (see `lint_postcopy`).
    lint: Proof,
}

/// A recorded span: name, parent span and host time.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    parent: Option<usize>,
    ns: f64,
}

impl HostReboot {
    /// Boots `vms` 1 GiB ssh guests on the paper testbed seeded `seed`.
    /// `expected_first` pins the first round's mean downtimes; the traced
    /// run also explores `lint` once for the `lint.*` rows.
    pub fn new(seed: u64, vms: u32, expected_first: Option<[f64; 3]>, lint: Proof) -> HostReboot {
        let cfg = HostConfig::paper_testbed()
            .with_vms(vms, ServiceKind::Ssh)
            .with_seed(seed)
            .with_trace(false);
        let mut sim = HostSim::new(cfg);
        sim.power_on_and_wait();
        HostReboot {
            sim,
            expected_first,
            first_round: None,
            last_round: None,
            lint,
        }
    }

    /// The first round's largest relative error against the paper's
    /// Fig. 6 ssh downtimes, in percent.
    pub fn paper_err_pct(&self) -> Option<f64> {
        let first = self.first_round?;
        Some(
            first
                .iter()
                .zip(PAPER_SSH_S)
                .map(|(sim, paper)| (sim - paper).abs() / paper * 100.0)
                .fold(0.0, f64::max),
        )
    }

    fn fired(&mut self) -> u64 {
        self.sim.simulation_mut().scheduler().fired()
    }

    fn counter(&self, name: &str) -> u64 {
        self.sim.host().stats.counter(name)
    }

    /// Logical-digest calls so far: one per frozen guest, plus every
    /// resume-time check that could not early-out.
    fn digests(&self) -> u64 {
        self.counter("guest.suspended") + self.counter("digest.full_rehash")
    }

    /// Checks one round's reports and remembers its downtimes.
    fn check_round(
        &mut self,
        round: Vec<(RebootStrategy, Downtimes, Vec<DomainId>)>,
    ) -> Result<(), String> {
        for (strategy, _, corrupted) in &round {
            ensure(corrupted.is_empty(), || {
                format!("{strategy} reboot corrupted {corrupted:?}")
            })?;
        }
        let errors = self.sim.host().errors();
        ensure(errors.is_empty(), || format!("host errors: {errors:?}"))?;
        let downtimes: Vec<Downtimes> = round.into_iter().map(|(_, d, _)| d).collect();
        let means: Vec<f64> = downtimes.iter().map(mean_s).collect();
        let means = [means[0], means[1], means[2]];
        if self.first_round.is_none() {
            if let Some(expected) = self.expected_first {
                check_first_round(means, expected)?;
            }
            self.first_round = Some(means);
        }
        if let Some(last) = &self.last_round {
            ensure(*last == downtimes, || {
                format!("round downtimes {means:?} differ from the previous round's")
            })?;
        }
        self.last_round = Some(downtimes);
        Ok(())
    }

    /// One round through the tracing path: each reboot is commanded and
    /// then stepped one event at a time, every step recorded as a span
    /// under the reboot's span, named by the phase its event fell in.
    fn traced_round(&mut self, spans: &mut Vec<Span>) -> Result<u64, String> {
        let fired = self.fired();
        let op_start = Instant::now();
        let op = spans.len();
        spans.push(Span {
            name: "op",
            parent: None,
            ns: 0.0,
        });
        let mut round = Vec::new();
        for strategy in STRATEGIES {
            let reboot = spans.len();
            spans.push(Span {
                name: "reboot",
                parent: Some(op),
                ns: 0.0,
            });
            let reboot_start = Instant::now();
            let before = self.sim.host().reports().len();
            let t = Instant::now();
            {
                let (host, sched) = self.sim.simulation_mut().parts_mut();
                match strategy {
                    RebootStrategy::Warm => host.warm_reboot(sched),
                    RebootStrategy::Saved => host.saved_reboot(sched),
                    _ => host.cold_reboot(sched),
                }
            }
            spans.push(Span {
                name: "vmm.other_ms",
                parent: Some(reboot),
                ns: t.elapsed().as_secs_f64() * 1e9,
            });
            let mut steps: Vec<(SimTime, f64)> = Vec::new();
            while self.sim.host().reports().len() == before {
                ensure((steps.len() as u64) < STEP_CAP, || {
                    format!("{strategy} reboot did not complete")
                })?;
                let t = Instant::now();
                let stepped = self.sim.simulation_mut().step();
                let ns = t.elapsed().as_secs_f64() * 1e9;
                ensure(stepped, || format!("{strategy} reboot ran out of events"))?;
                steps.push((self.sim.now(), ns));
            }
            // Charge each step to the phase span of this reboot's timeline
            // that holds the step's simulated time.
            let phases = self.sim.host().metrics.spans().to_vec();
            for (at, ns) in steps {
                let name = CHARGED
                    .iter()
                    .find(|(phase, _)| {
                        phases.iter().any(|s| {
                            s.phase == *phase && s.start <= at && s.end.is_none_or(|e| at <= e)
                        })
                    })
                    .map_or("vmm.other_ms", |&(_, name)| name);
                spans.push(Span {
                    name,
                    parent: Some(reboot),
                    ns,
                });
            }
            spans[reboot].ns = reboot_start.elapsed().as_secs_f64() * 1e9;
            let report = self
                .sim
                .host()
                .last_report()
                .ok_or("no reboot report")?
                .clone();
            round.push((strategy, report.downtime, report.corrupted));
        }
        self.check_round(round)?;
        spans[op].ns = op_start.elapsed().as_secs_f64() * 1e9;
        Ok(self.fired() - fired)
    }
}

fn mean_s(downtimes: &Downtimes) -> f64 {
    let total: SimDuration = downtimes.values().copied().sum();
    ratio(total.as_secs_f64(), downtimes.len() as f64)
}

/// The first round must give `expected` mean downtimes at the
/// millisecond.
///
/// # Errors
///
/// A message naming both triples when any value differs.
pub fn check_first_round(means: [f64; 3], expected: [f64; 3]) -> Result<(), String> {
    let ms = |xs: [f64; 3]| xs.map(|x| (x * 1e3).round() as i64);
    ensure(ms(means) == ms(expected), || {
        format!("first round downtimes {means:?} s, expected {expected:?} s")
    })
}

impl Workload for HostReboot {
    fn op(&mut self, _index: u64) -> Result<u64, String> {
        let fired = self.fired();
        let round = STRATEGIES
            .iter()
            .map(|&s| {
                let r = self.sim.reboot_and_wait(s);
                (s, r.downtime, r.corrupted)
            })
            .collect();
        self.check_round(round)?;
        Ok(self.fired() - fired)
    }

    fn traced(&mut self, _first: u64, count: u64) -> Result<Traced, String> {
        let digests = self.digests();
        let early = self.counter("digest.early_out");
        let full = self.counter("digest.full_rehash");
        let mut spans = Vec::new();
        let mut events = 0;
        for _ in 0..count {
            events += self.traced_round(&mut spans)?;
        }
        let n = count as f64;
        let total =
            |name: &str| -> f64 { spans.iter().filter(|s| s.name == name).map(|s| s.ns).sum() };
        let op_ns = total("op");
        // vmm time is every span under a reboot span: the command call and
        // the steps (the reboot spans' own self time is loop overhead).
        let vmm_ns: f64 = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].name == "reboot"))
            .map(|s| s.ns)
            .sum();

        let id = *self.sim.host().domu_ids().first().ok_or("no guests")?;
        let frames = self
            .sim
            .host()
            .domain(id)
            .ok_or("guest vanished")?
            .p2m
            .total_pages() as f64;
        let host = self.sim.host();
        let digest_ns = ns_per_call(5, 4, || {
            std::hint::black_box(host.domain_digest(std::hint::black_box(id)));
        });
        let engine_ns = engine_ns_per_event();

        let digests = (self.digests() - digests) as f64 / n;
        let early = (self.counter("digest.early_out") - early) as f64;
        let full = (self.counter("digest.full_rehash") - full) as f64;
        let events = events as f64 / n;
        let op = op_ns / n;
        let mut t = Traced {
            op_ns,
            ..Traced::default()
        };
        for name in [
            "vmm.suspend_ms",
            "vmm.save_ms",
            "vmm.restore_ms",
            "vmm.resume_ms",
            "vmm.other_ms",
        ] {
            t.set(name, total(name) / n / 1e6);
        }
        t.set("memory.digest_ns_per_frame", digest_ns / frames);
        t.set("memory.digests_per_op", digests);
        t.set("memory.early_out_ratio", ratio(early, early + full));
        t.set("sim.host_events_per_op", events);
        t.set("sim.engine_ns_per_event", engine_ns);
        let memory = digests * digest_ns;
        let sim = events * engine_ns;
        t.share("memory.share", memory, op);
        t.share("sim.share", sim, op);
        t.share("vmm.share", vmm_ns / n - memory - sim, op);
        // `lint-postcopy` is too noisy to gate (see its module), so the
        // post-copy proof of the streamed reboot is probed here.
        scale_probe(&self.lint, &mut t)?;
        Ok(t)
    }

    fn extra_lines(&self) -> Vec<(&'static str, f64, &'static str)> {
        self.paper_err_pct()
            .map(|e| vec![("paper_err_pct", e, "%")])
            .unwrap_or_default()
    }
}

/// A self-scheduling chain through the general engine (the queue the
/// host simulation runs on).
struct Chain(u64);

impl World for Chain {
    type Event = ();
    fn handle(&mut self, sched: &mut Scheduler<()>, _ev: ()) {
        if self.0 > 0 {
            self.0 -= 1;
            sched.schedule_in(SimDuration::from_micros(1), ());
        }
    }
}

/// Host nanoseconds per event dispatched by `rh_sim::engine`.
pub fn engine_ns_per_event() -> f64 {
    ns_per_call(5, 1, || {
        let mut sim = Simulation::new(Chain(CHAIN_EVENTS));
        sim.scheduler_mut().schedule_in(SimDuration::ZERO, ());
        sim.run_until_idle();
        std::hint::black_box(sim.scheduler().fired());
    }) / (CHAIN_EVENTS + 1) as f64
}
