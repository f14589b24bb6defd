//! The event engine: a virtual clock plus a binary heap of typed events.
//!
//! The design keeps simulation *state* in the user's type (the `World`) and
//! *time* in the engine. An event is any user value `E`; handling an event
//! may schedule further events through the [`Scheduler`] handed to
//! [`Simulation::handle`]. Ties at equal timestamps are broken by scheduling
//! order, making every run a total order and therefore reproducible.
//!
//! The queue is a `std::collections::BinaryHeap` ordered by reversed
//! `(time, seq)`: the heap's top is the earliest event and, among equal
//! timestamps, the first one scheduled. No engine the product builds holds
//! more than 141 pending events (the OCC-Y fair share; the sharing gossip
//! peaks at 64, rack provisioning at 39), and at those depths a pop is a
//! few comparisons. Once the heap's `Vec` has grown to the working depth,
//! insert and pop allocate nothing (`tests/zero_alloc.rs`);
//! `tests/engine_order.rs` checks the pop order against a naive model.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimDuration, SimTime};

/// User-provided simulation logic over event type `Self::Event`.
///
/// ```
/// use osdc_sim::{Engine, Scheduler, SimDuration, SimTime, Simulation};
///
/// struct Counter(u32);
/// enum Ev { Tick }
///
/// impl Simulation for Counter {
///     type Event = Ev;
///     fn handle(&mut self, _now: SimTime, _ev: Ev, sched: &mut Scheduler<Ev>) {
///         self.0 += 1;
///         if self.0 < 5 {
///             sched.after(SimDuration::from_secs(1), Ev::Tick);
///         }
///     }
/// }
///
/// let mut engine = Engine::new();
/// engine.schedule(SimTime::ZERO, Ev::Tick);
/// let mut world = Counter(0);
/// let end = engine.run_to_completion(&mut world);
/// assert_eq!(world.0, 5);
/// assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(4));
/// ```
pub trait Simulation {
    type Event;

    /// Handle one event at virtual time `now`, possibly scheduling more.
    fn handle(&mut self, now: SimTime, event: Self::Event, sched: &mut Scheduler<Self::Event>);
}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    /// Reversed, so the max-heap's top is the earliest `(at, seq)`.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The queue half of the engine, exposed to event handlers so they can
/// schedule follow-up events without aliasing the world.
pub struct Scheduler<E> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry<E>>,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        let at = self.now + delay;
        self.at(at, event);
    }

    /// Schedule `event` at an absolute time. Scheduling in the past is a
    /// logic error; it is clamped to `now` in release builds and panics in
    /// debug builds.
    pub fn at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry { at, seq, event });
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Timestamp of the next pending event, if any.
    fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|e| e.at)
    }
}

/// The engine pairs a [`Scheduler`] with a run loop.
pub struct Engine<E> {
    sched: Scheduler<E>,
    events_processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Self {
        Engine {
            sched: Scheduler::new(),
            events_processed: 0,
        }
    }

    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Seed the queue before running.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        self.sched.at(at, event);
    }

    /// Run until the queue drains or `until` is reached (events scheduled at
    /// exactly `until` are processed). Returns the final virtual time.
    pub fn run_until<S>(&mut self, world: &mut S, until: SimTime) -> SimTime
    where
        S: Simulation<Event = E>,
    {
        while let Some(at) = self.sched.peek_time() {
            if at > until {
                self.sched.now = until;
                return until;
            }
            self.step(world);
        }
        // Queue drained before the horizon: clock stops at the last event.
        self.sched.now
    }

    /// Run until the queue drains completely.
    pub fn run_to_completion<S>(&mut self, world: &mut S) -> SimTime
    where
        S: Simulation<Event = E>,
    {
        self.run_until(world, SimTime::MAX)
    }

    /// Step a single event, returning its time, or `None` if the queue is
    /// empty. Useful for harnesses that interleave measurement with stepping.
    pub fn step<S>(&mut self, world: &mut S) -> Option<SimTime>
    where
        S: Simulation<Event = E>,
    {
        let Entry { at, event, .. } = self.sched.queue.pop()?;
        self.sched.now = at;
        self.events_processed += 1;
        world.handle(at, event, &mut self.sched);
        Some(at)
    }

    pub fn pending(&self) -> usize {
        self.sched.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(u64, Ev)>,
        relay: bool,
    }

    impl Simulation for Recorder {
        type Event = Ev;
        fn handle(&mut self, now: SimTime, event: Ev, sched: &mut Scheduler<Ev>) {
            if self.relay {
                if let Ev::Ping(n) = event {
                    if n < 5 {
                        sched.after(SimDuration::from_secs(1), Ev::Ping(n + 1));
                    }
                }
            }
            self.seen.push((now.as_nanos(), event));
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut eng = Engine::new();
        eng.schedule(SimTime(30), Ev::Ping(3));
        eng.schedule(SimTime(10), Ev::Ping(1));
        eng.schedule(SimTime(20), Ev::Ping(2));
        let mut w = Recorder::default();
        eng.run_to_completion(&mut w);
        let order: Vec<u32> = w
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Ping(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(eng.events_processed(), 3);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut eng = Engine::new();
        for n in 0..100 {
            eng.schedule(SimTime(5), Ev::Ping(n));
        }
        let mut w = Recorder::default();
        eng.run_to_completion(&mut w);
        let order: Vec<u32> = w
            .seen
            .iter()
            .map(|(_, e)| match e {
                Ev::Ping(n) => *n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<u32>>());
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut eng = Engine::new();
        eng.schedule(SimTime::ZERO, Ev::Ping(0));
        let mut w = Recorder {
            relay: true,
            ..Default::default()
        };
        let end = eng.run_to_completion(&mut w);
        assert_eq!(w.seen.len(), 6); // pings 0..=5
        assert_eq!(end, SimTime::ZERO + SimDuration::from_secs(5));
    }

    #[test]
    fn run_until_stops_at_horizon() {
        let mut eng = Engine::new();
        eng.schedule(SimTime(10), Ev::Ping(1));
        eng.schedule(SimTime(1000), Ev::Stop);
        let mut w = Recorder::default();
        let end = eng.run_until(&mut w, SimTime(500));
        assert_eq!(end, SimTime(500));
        assert_eq!(w.seen.len(), 1);
        assert_eq!(eng.pending(), 1);
        // Continue to completion afterwards.
        eng.run_to_completion(&mut w);
        assert_eq!(w.seen.len(), 2);
    }

    #[test]
    fn events_at_horizon_are_processed() {
        let mut eng = Engine::new();
        eng.schedule(SimTime(500), Ev::Ping(9));
        let mut w = Recorder::default();
        eng.run_until(&mut w, SimTime(500));
        assert_eq!(w.seen.len(), 1);
    }

    #[test]
    fn step_returns_none_when_empty() {
        let mut eng: Engine<Ev> = Engine::new();
        let mut w = Recorder::default();
        assert!(eng.step(&mut w).is_none());
    }

    #[test]
    fn clock_is_monotone() {
        let mut eng = Engine::new();
        let mut rng = crate::rng::SimRng::new(99);
        for i in 0..1000 {
            eng.schedule(SimTime(rng.below(10_000)), Ev::Ping(i));
        }
        let mut w = Recorder::default();
        eng.run_to_completion(&mut w);
        let times: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert!(times.windows(2).all(|p| p[0] <= p[1]));
    }

    #[test]
    fn resize_survives_growth_and_drain() {
        // Push enough to regrow the heap's backing `Vec` several times, with
        // timestamps spread over 2^40 ns, then drain. Order must stay exact
        // throughout.
        let mut eng: Engine<Ev> = Engine::new();
        let mut rng = crate::rng::SimRng::new(2012);
        let mut expected: Vec<u64> = Vec::new();
        for i in 0..5000 {
            let t = rng.below(1 << 40);
            expected.push(t);
            eng.schedule(SimTime(t), Ev::Ping(i));
        }
        expected.sort_unstable();
        let mut w = Recorder::default();
        eng.run_to_completion(&mut w);
        let seen: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn sparse_far_future_events_are_found() {
        // Timestamps spread across the whole `u64` range still pop in order.
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule(SimTime(1), Ev::Ping(0));
        eng.schedule(SimTime(u64::MAX / 2), Ev::Ping(1));
        eng.schedule(SimTime(u64::MAX - 1), Ev::Ping(2));
        let mut w = Recorder::default();
        eng.run_to_completion(&mut w);
        let times: Vec<u64> = w.seen.iter().map(|(t, _)| *t).collect();
        assert_eq!(times, vec![1, u64::MAX / 2, u64::MAX - 1]);
    }
}
