//! Property test: the scheduler fires events in `(time, insertion)` order.
//!
//! The determinism contract (DESIGN.md §10, `tests/determinism.rs`) rests
//! on the event queue's total order: ascending firing time, FIFO among
//! equal timestamps, and cancelled events never firing. This property
//! drives a [`Scheduler`] with random schedule/cancel histories and
//! compares what fires against a reference model — the script minus its
//! cancelled events, stably sorted by time.

use rh_sim::engine::{Scheduler, Simulation, World};
use rh_sim::testkit::{check, Config, Gen};
use rh_sim::time::{SimDuration, SimTime};
use rh_sim::{prop_ensure, prop_ensure_eq};

#[derive(Default)]
struct Recorder {
    seen: Vec<(SimTime, u32)>,
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, sched: &mut Scheduler<u32>, event: u32) {
        self.seen.push((sched.now(), event));
    }
}

#[test]
fn scheduler_matches_stable_sorted_reference() {
    check(
        "scheduler_matches_stable_sorted_reference",
        &Config::default(),
        |g: &mut Gen| {
            // A narrow horizon makes equal timestamps (FIFO ties) common;
            // a wide one spreads events out.
            let n = g.usize_in(0, 300);
            let spread = g.u32_in(1, 20);
            let horizon = g.u64_in(1, 1 << spread);
            let script: Vec<(SimTime, u32, bool)> = (0..n)
                .map(|i| {
                    let at = SimTime::from_micros(g.u64_in(0, horizon));
                    (at, i as u32, g.rng().chance(0.25))
                })
                .collect();

            let mut expected: Vec<(SimTime, u32)> = script
                .iter()
                .filter(|&&(_, _, cancel)| !cancel)
                .map(|&(at, id, _)| (at, id))
                .collect();
            expected.sort_by_key(|&(at, _)| at);

            let mut sim = Simulation::new(Recorder::default());
            let mut doomed = Vec::new();
            for &(at, id, cancel) in &script {
                let h = sim.scheduler_mut().schedule_at(at, id);
                if cancel {
                    doomed.push(h);
                }
            }
            for h in doomed {
                prop_ensure!(
                    sim.scheduler_mut().cancel(h).is_some(),
                    "a pending event refused cancellation"
                );
            }
            prop_ensure_eq!(sim.scheduler().pending(), expected.len());
            // Split the run so the deadline path interleaves with pops.
            sim.run_for(SimDuration::from_micros(horizon / 2));
            sim.run_until_idle();

            prop_ensure_eq!(&sim.world().seen, &expected, "fired sequence");
            prop_ensure_eq!(sim.scheduler().fired(), expected.len() as u64);
            prop_ensure_eq!(sim.scheduler().pending(), 0);
            Ok(())
        },
    );
}
