//! The discrete-event simulation engine.
//!
//! The engine is deliberately minimal and fully deterministic:
//!
//! * A [`Scheduler`] keeps a priority queue of pending events. Ties at the
//!   same instant are broken by insertion order (a monotonically increasing
//!   sequence number), so the firing order never depends on hash ordering or
//!   allocation addresses.
//! * Application state implements [`World`]; its single `handle` method
//!   receives each fired event together with mutable access to the scheduler
//!   so that it can schedule follow-up events or cancel pending ones.
//! * Events are plain values of the world's `Event` associated type — not
//!   closures — which keeps them inspectable, loggable and testable.
//!
//! # Examples
//!
//! A two-event ping/pong world:
//!
//! ```
//! use rh_sim::engine::{Scheduler, Simulation, World};
//! use rh_sim::time::SimDuration;
//!
//! #[derive(Debug)]
//! enum Ev { Ping, Pong }
//!
//! #[derive(Default)]
//! struct PingPong { pongs: u32 }
//!
//! impl World for PingPong {
//!     type Event = Ev;
//!     fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
//!         match event {
//!             Ev::Ping => {
//!                 sched.schedule_in(SimDuration::from_secs(1), Ev::Pong);
//!             }
//!             Ev::Pong => self.pongs += 1,
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(PingPong::default());
//! sim.scheduler_mut().schedule_in(SimDuration::ZERO, Ev::Ping);
//! sim.run_until_idle();
//! assert_eq!(sim.world().pongs, 1);
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::slab::{Slab, SlotKey};
use crate::time::{SimDuration, SimTime};

/// One pending event as the priority queue sees it: the ordering key plus
/// the slot coordinates of its payload in the scheduler's [`Slab`].
///
/// The derived order is lexicographic over the fields, so it is ascending
/// `(time, seq)`; `seq` is unique per scheduler, so `index`/`generation`
/// never decide a comparison and equal timestamps pop in insertion (FIFO)
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct QueueEntry {
    time: SimTime,
    seq: u64,
    index: u32,
    generation: u32,
}

/// A handle to a scheduled event, usable to [`cancel`](Scheduler::cancel) it
/// before it fires.
///
/// Handles are generation-checked: once the event fires or is cancelled, the
/// handle becomes stale and further `cancel` calls are harmless no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    key: SlotKey,
}

/// The event queue and clock of a simulation.
///
/// The scheduler is handed to [`World::handle`] so event handlers can query
/// the current time, schedule follow-ups, and cancel pending events.
///
/// Internally, payloads live in a generational [`Slab`] and only small
/// `Copy` keys move through a binary min-heap.
pub struct Scheduler<E> {
    now: SimTime,
    queue: BinaryHeap<Reverse<QueueEntry>>,
    slots: Slab<E>,
    seq: u64,
    fired: u64,
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at time zero.
    pub fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            queue: BinaryHeap::new(),
            slots: Slab::new(),
            seq: 0,
            fired: 0,
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The number of pending (scheduled, not yet fired or cancelled) events.
    /// O(1): the payload slab tracks its live count.
    pub fn pending(&self) -> usize {
        self.slots.len()
    }

    /// Total number of events fired so far.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time: the simulation never
    /// travels backwards.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} before now ({})",
            self.now
        );
        let key = self.slots.insert(event);
        self.seq += 1;
        self.queue.push(Reverse(QueueEntry {
            time: at,
            seq: self.seq,
            index: key.index(),
            generation: key.generation(),
        }));
        EventHandle { key }
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) -> EventHandle {
        self.schedule_at(self.now + delay, event)
    }

    /// Cancels a pending event, returning its payload if it had not yet
    /// fired. Cancelling an already-fired or already-cancelled event returns
    /// `None` and has no other effect.
    pub fn cancel(&mut self, handle: EventHandle) -> Option<E> {
        // The queue entry stays behind as a stale key; `skim_stale` drops it
        // when it reaches the front.
        self.slots.remove(handle.key)
    }

    /// True if the event behind `handle` is still pending.
    pub fn is_pending(&self, handle: EventHandle) -> bool {
        self.slots.contains(handle.key)
    }

    /// The firing time of the next pending event, if any.
    pub fn peek_next_time(&mut self) -> Option<SimTime> {
        self.skim_stale();
        self.queue.peek().map(|Reverse(e)| e.time)
    }

    /// Drops stale queue entries (cancelled events) from the front.
    fn skim_stale(&mut self) {
        while let Some(Reverse(e)) = self.queue.peek() {
            if self
                .slots
                .contains(SlotKey::from_parts(e.index, e.generation))
            {
                break;
            }
            self.queue.pop();
        }
    }

    /// Pops the next live event, advancing the clock to its firing time.
    fn pop(&mut self) -> Option<E> {
        self.skim_stale();
        let Reverse(entry) = self.queue.pop()?;
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        let payload = self
            .slots
            .remove(SlotKey::from_parts(entry.index, entry.generation))
            // lint:allow(unwrap-panic): skim_stale dropped every cancelled key before this pop
            .expect("skim_stale guarantees a live slot");
        self.fired += 1;
        Some(payload)
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for Scheduler<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scheduler")
            .field("now", &self.now)
            .field("pending", &self.pending())
            .field("fired", &self.fired)
            .finish()
    }
}

/// Application state driven by the simulation.
///
/// Implementors own all domain state; the engine owns only the clock and
/// the pending-event queue.
pub trait World: Sized {
    /// The event vocabulary of this world.
    type Event;

    /// Reacts to `event` firing at `sched.now()`.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// A world plus its scheduler: the complete simulation.
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
}

impl<W: World> Simulation<W> {
    /// Creates a simulation at time zero with the given world.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler::new(),
        }
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// Shared access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world.
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Shared access to the scheduler.
    pub fn scheduler(&self) -> &Scheduler<W::Event> {
        &self.sched
    }

    /// Mutable access to the scheduler (for seeding initial events).
    pub fn scheduler_mut(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Mutable access to both the world and the scheduler at once.
    ///
    /// Useful for driver code that must call world methods which themselves
    /// need the scheduler (the same shape as [`World::handle`]).
    pub fn parts_mut(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// Fires the single next event, if any. Returns `true` if one fired.
    pub fn step(&mut self) -> bool {
        match self.sched.pop() {
            Some(event) => {
                self.world.handle(&mut self.sched, event);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain, then returns the final time.
    ///
    /// A world that keeps scheduling follow-ups never goes idle, so this
    /// never returns for it; use [`run_until`](Self::run_until) to bound
    /// such runs explicitly.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.now()
    }

    /// Fires every event scheduled at or before `deadline`, then advances the
    /// clock to exactly `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.sched.peek_next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.sched.now < deadline {
            self.sched.now = deadline;
        }
    }

    /// Fires events for the next `span` of simulated time.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.now() + span;
        self.run_until(deadline);
    }

    /// Consumes the simulation, returning the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

impl<W: World + fmt::Debug> fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.now())
            .field("world", &self.world)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, Clone)]
    enum Ev {
        Mark(u32),
        Chain(u32),
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(SimTime, Ev)>,
    }

    impl World for Recorder {
        type Event = Ev;
        fn handle(&mut self, sched: &mut Scheduler<Ev>, event: Ev) {
            if let Ev::Chain(n) = event {
                if n > 0 {
                    sched.schedule_in(SimDuration::from_secs(1), Ev::Chain(n - 1));
                }
            }
            self.seen.push((sched.now(), event));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(3), Ev::Mark(3));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        sim.run_until_idle();
        let marks: Vec<u32> = sim
            .world()
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Mark(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(marks, vec![1, 2, 3]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut sim = Simulation::new(Recorder::default());
        for n in 0..10 {
            sim.scheduler_mut()
                .schedule_at(SimTime::from_secs(5), Ev::Mark(n));
        }
        sim.run_until_idle();
        let marks: Vec<u32> = sim
            .world()
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Mark(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(marks, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_to_event_time() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(7), Ev::Mark(0));
        sim.run_until_idle();
        assert_eq!(sim.now(), SimTime::from_secs(7));
        assert_eq!(sim.world().seen[0].0, SimTime::from_secs(7));
    }

    #[test]
    fn cancelled_events_never_fire() {
        let mut sim = Simulation::new(Recorder::default());
        let keep = sim
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        let drop = sim
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        assert_eq!(sim.scheduler_mut().cancel(drop), Some(Ev::Mark(2)));
        assert!(sim.scheduler().is_pending(keep));
        assert!(!sim.scheduler().is_pending(drop));
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 1);
    }

    #[test]
    fn cancel_is_idempotent_and_generation_safe() {
        let mut sim = Simulation::new(Recorder::default());
        let h = sim
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        assert!(sim.scheduler_mut().cancel(h).is_some());
        assert!(sim.scheduler_mut().cancel(h).is_none());
        // The slot is reused; the old handle must not cancel the new event.
        let h2 = sim
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        assert!(sim.scheduler_mut().cancel(h).is_none());
        assert!(sim.scheduler().is_pending(h2));
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 1);
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut sim = Simulation::new(Recorder::default());
        let h = sim
            .scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.run_until_idle();
        assert!(sim.scheduler_mut().cancel(h).is_none());
    }

    #[test]
    fn handlers_can_chain_events() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Chain(3));
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(10), Ev::Mark(10));
        sim.run_until(SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
        assert_eq!(sim.world().seen.len(), 1);
        sim.run_until_idle();
        assert_eq!(sim.world().seen.len(), 2);
    }

    #[test]
    fn run_for_advances_relative_span() {
        let mut sim = Simulation::new(Recorder::default());
        sim.run_for(SimDuration::from_secs(4));
        assert_eq!(sim.now(), SimTime::from_secs(4));
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(sim.now(), SimTime::from_secs(6));
    }

    #[test]
    #[should_panic(expected = "before now")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(5), Ev::Mark(0));
        sim.run_until_idle();
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
    }

    #[test]
    fn into_world_returns_state() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut().schedule_at(SimTime::ZERO, Ev::Mark(7));
        sim.run_until_idle();
        assert_eq!(sim.into_world().seen, vec![(SimTime::ZERO, Ev::Mark(7))]);
    }

    #[test]
    fn pending_and_fired_counters() {
        let mut sim = Simulation::new(Recorder::default());
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(1), Ev::Mark(1));
        sim.scheduler_mut()
            .schedule_at(SimTime::from_secs(2), Ev::Mark(2));
        assert_eq!(sim.scheduler().pending(), 2);
        sim.run_until_idle();
        assert_eq!(sim.scheduler().pending(), 0);
        assert_eq!(sim.scheduler().fired(), 2);
    }
}
