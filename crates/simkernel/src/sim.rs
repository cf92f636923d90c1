//! The event calendar and model-driven simulation loop.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

use crate::{SimDuration, SimRng, SimTime, TraceLog};

/// A simulated system: an event type plus a handler.
///
/// The kernel owns the clock and calendar; the model owns all domain state.
/// On each step the kernel pops the earliest event, advances the clock, and
/// calls [`Model::handle`], which may schedule further events through the
/// [`Context`].
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Reacts to one event at the current simulated time.
    fn handle(&mut self, event: Self::Event, ctx: &mut Context<'_, Self::Event>);
}

/// Scheduling and randomness facilities passed to [`Model::handle`].
///
/// Events scheduled here are merged into the calendar after the handler
/// returns. Ties in time are delivered in scheduling order (FIFO).
pub struct Context<'a, E> {
    now: SimTime,
    rng: &'a mut SimRng,
    trace: &'a mut TraceLog,
    /// The simulation's reusable scheduling buffer: empty on entry to the
    /// handler, drained into the calendar after it returns.
    pending: &'a mut Vec<(SimTime, E)>,
    halt: bool,
}

impl<E> fmt::Debug for Context<'_, E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now)
            .field("pending", &self.pending.len())
            .field("halt", &self.halt)
            .finish()
    }
}

impl<E> Context<'_, E> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.pending.push((self.now + delay, event));
    }

    /// Schedules `event` at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past: {at} < {}",
            self.now
        );
        self.pending.push((at, event));
    }

    /// The simulation's random source.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Appends a trace message (no-op if tracing is disabled).
    pub fn trace(&mut self, message: impl FnOnce() -> String) {
        self.trace.record(self.now, message);
    }

    /// Stops the simulation after this handler returns, discarding any
    /// remaining calendar entries. Used by models to signal a terminal
    /// failure such as an out-of-memory crash.
    pub fn halt(&mut self) {
        self.halt = true;
    }
}

/// A calendar entry. Ordered by time, then by insertion sequence so that
/// simultaneous events fire in FIFO order (keeps runs deterministic).
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A discrete-event simulation over a [`Model`].
///
/// See the [crate-level documentation](crate) for a complete example.
pub struct Simulation<M: Model> {
    model: M,
    clock: SimTime,
    queue: BinaryHeap<Scheduled<M::Event>>,
    /// Events scheduled by the running handler. Owned here and reused
    /// across steps so that a rescheduling event allocates nothing.
    pending: Vec<(SimTime, M::Event)>,
    seq: u64,
    rng: SimRng,
    trace: TraceLog,
    halted: bool,
    steps: u64,
}

impl<M: Model> fmt::Debug for Simulation<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Simulation")
            .field("clock", &self.clock)
            .field("queued", &self.queue.len())
            .field("steps", &self.steps)
            .field("halted", &self.halted)
            .finish()
    }
}

impl<M: Model> Simulation<M> {
    /// Creates a simulation at time zero with a seeded random source.
    pub fn new(model: M, seed: u64) -> Self {
        Simulation {
            model,
            clock: SimTime::ZERO,
            queue: BinaryHeap::new(),
            pending: Vec::new(),
            seq: 0,
            rng: SimRng::seed_from_u64(seed),
            trace: TraceLog::disabled(),
            halted: false,
            steps: 0,
        }
    }

    /// Enables event tracing with the given capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = TraceLog::with_capacity(capacity);
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Whether a model handler called [`Context::halt`].
    pub fn is_halted(&self) -> bool {
        self.halted
    }

    /// Number of events processed so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Shared view of the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable view of the model (e.g. to read out metric recorders).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the simulation, returning the model.
    pub fn into_model(self) -> M {
        self.model
    }

    /// The trace log (empty unless enabled via [`Simulation::with_trace`]).
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// Time of the next scheduled event, if any. Lets an embedding
    /// co-simulation pace its own calendar against this one without
    /// consuming the event ([`Simulation::step`] still owns delivery).
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|s| s.at)
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current clock.
    pub fn schedule_at(&mut self, at: SimTime, event: M::Event) {
        assert!(
            at >= self.clock,
            "cannot schedule into the past: {at} < {}",
            self.clock
        );
        self.seq += 1;
        self.queue.push(Scheduled {
            at,
            seq: self.seq,
            event,
        });
    }

    /// Schedules an event after a delay from the current clock.
    pub fn schedule_in(&mut self, delay: SimDuration, event: M::Event) {
        self.schedule_at(self.clock + delay, event);
    }

    /// Processes the next event, if any.
    ///
    /// Returns `false` when the calendar is empty or the simulation has
    /// halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        let Some(next) = self.queue.pop() else {
            return false;
        };
        debug_assert!(next.at >= self.clock, "calendar went backwards");
        self.clock = next.at;
        self.steps += 1;
        let mut ctx = Context {
            now: self.clock,
            rng: &mut self.rng,
            trace: &mut self.trace,
            pending: &mut self.pending,
            halt: false,
        };
        self.model.handle(next.event, &mut ctx);
        let halt = ctx.halt;
        for (at, event) in self.pending.drain(..) {
            self.seq += 1;
            self.queue.push(Scheduled {
                at,
                seq: self.seq,
                event,
            });
        }
        if halt {
            self.halted = true;
            self.queue.clear();
        }
        true
    }

    /// Runs until the calendar is empty or the simulation halts.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` are processed), the calendar empties, or the model halts.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.queue.peek() {
                Some(next) if next.at <= deadline && !self.halted => {
                    self.step();
                }
                _ => break,
            }
        }
        if !self.halted && self.clock < deadline {
            self.clock = deadline;
        }
    }

    /// Runs for a span of simulated time from the current clock.
    pub fn run_for(&mut self, span: SimDuration) {
        let deadline = self.clock + span;
        self.run_until(deadline);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<(u64, u32)>,
        halt_on: Option<u32>,
    }

    enum Ev {
        Mark(u32),
        Chain(u32),
        /// Schedules `Mark(first..first + n)` all at `now + 5µs`, then
        /// halts if asked.
        Fan {
            first: u32,
            n: u32,
            halt: bool,
        },
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, ctx: &mut Context<'_, Ev>) {
            match event {
                Ev::Mark(id) => {
                    self.seen.push((ctx.now().as_micros(), id));
                    if self.halt_on == Some(id) {
                        ctx.halt();
                    }
                }
                Ev::Chain(n) => {
                    self.seen.push((ctx.now().as_micros(), n));
                    if n > 0 {
                        ctx.schedule_in(SimDuration::from_micros(10), Ev::Chain(n - 1));
                    }
                }
                Ev::Fan { first, n, halt } => {
                    for id in first..first + n {
                        ctx.schedule_in(SimDuration::from_micros(5), Ev::Mark(id));
                    }
                    if halt {
                        ctx.halt();
                    }
                }
            }
        }
    }

    fn fan(first: u32, n: u32, halt: bool) -> Ev {
        Ev::Fan { first, n, halt }
    }

    fn recorder() -> Recorder {
        Recorder {
            seen: Vec::new(),
            halt_on: None,
        }
    }

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_at(SimTime::from_micros(30), Ev::Mark(3));
        sim.schedule_at(SimTime::from_micros(10), Ev::Mark(1));
        sim.schedule_at(SimTime::from_micros(20), Ev::Mark(2));
        sim.run();
        assert_eq!(sim.model().seen, vec![(10, 1), (20, 2), (30, 3)]);
    }

    #[test]
    fn ties_fire_fifo() {
        let mut sim = Simulation::new(recorder(), 1);
        for id in 0..5 {
            sim.schedule_at(SimTime::from_micros(100), Ev::Mark(id));
        }
        sim.run();
        let ids: Vec<u32> = sim.model().seen.iter().map(|&(_, id)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn chained_events_advance_clock() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_in(SimDuration::ZERO, Ev::Chain(3));
        sim.run();
        assert_eq!(sim.model().seen, vec![(0, 3), (10, 2), (20, 1), (30, 0)]);
        assert_eq!(sim.now(), SimTime::from_micros(30));
        assert_eq!(sim.steps(), 4);
    }

    #[test]
    fn halt_discards_remaining_events() {
        let mut model = recorder();
        model.halt_on = Some(1);
        let mut sim = Simulation::new(model, 1);
        sim.schedule_at(SimTime::from_micros(10), Ev::Mark(1));
        sim.schedule_at(SimTime::from_micros(20), Ev::Mark(2));
        sim.run();
        assert!(sim.is_halted());
        assert_eq!(sim.model().seen, vec![(10, 1)]);
        assert!(!sim.step());
    }

    #[test]
    fn same_instant_schedules_fire_fifo_across_steps() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_at(SimTime::ZERO, fan(1, 4, false));
        // A second fan at the same instant: its marks queue behind the first's.
        sim.schedule_at(SimTime::ZERO, fan(10, 2, false));
        assert!(sim.step());
        assert!(sim.step());
        for _ in 0..6 {
            assert!(sim.step());
        }
        assert!(!sim.step());
        assert_eq!(
            sim.model().seen,
            vec![(5, 1), (5, 2), (5, 3), (5, 4), (5, 10), (5, 11)]
        );
    }

    #[test]
    fn halt_after_scheduling_leaves_nothing_behind() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_at(SimTime::from_micros(10), fan(1, 3, true));
        sim.schedule_at(SimTime::from_micros(20), Ev::Mark(9));
        assert!(sim.step());
        assert!(sim.is_halted());
        assert_eq!(sim.next_event_time(), None);
        assert!(sim.pending.is_empty());
        assert!(!sim.step());
        assert!(sim.model().seen.is_empty());
        assert_eq!(sim.steps(), 1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Simulation::new(recorder(), 1);
        assert_eq!(sim.next_event_time(), None);
        sim.schedule_at(SimTime::from_micros(10), Ev::Mark(1));
        sim.schedule_at(SimTime::from_micros(50), Ev::Mark(2));
        assert_eq!(sim.next_event_time(), Some(SimTime::from_micros(10)));
        sim.run_until(SimTime::from_micros(30));
        assert_eq!(sim.model().seen, vec![(10, 1)]);
        // Clock advanced to the deadline even though no event fired there.
        assert_eq!(sim.now(), SimTime::from_micros(30));
        // Peeking never consumed the pending event.
        assert_eq!(sim.next_event_time(), Some(SimTime::from_micros(50)));
        // The later event still fires afterwards.
        sim.run();
        assert_eq!(sim.model().seen.len(), 2);
    }

    #[test]
    fn run_until_processes_events_at_deadline() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_at(SimTime::from_micros(30), Ev::Mark(1));
        sim.run_until(SimTime::from_micros(30));
        assert_eq!(sim.model().seen, vec![(30, 1)]);
    }

    #[test]
    #[should_panic(expected = "into the past")]
    fn scheduling_in_past_panics() {
        let mut sim = Simulation::new(recorder(), 1);
        sim.schedule_at(SimTime::from_micros(10), Ev::Mark(1));
        sim.run();
        sim.schedule_at(SimTime::from_micros(5), Ev::Mark(2));
    }

    #[test]
    fn empty_calendar_step_returns_false() {
        let mut sim = Simulation::new(recorder(), 1);
        assert!(!sim.step());
        assert_eq!(sim.now(), SimTime::ZERO);
    }

    #[test]
    fn deterministic_replay() {
        fn run_once() -> Vec<(u64, u32)> {
            struct Jitter {
                seen: Vec<(u64, u32)>,
            }
            impl Model for Jitter {
                type Event = u32;
                fn handle(&mut self, n: u32, ctx: &mut Context<'_, u32>) {
                    self.seen.push((ctx.now().as_micros(), n));
                    if n < 20 {
                        let gap = ctx.rng().exp_gap(SimDuration::from_micros(500));
                        ctx.schedule_in(gap, n + 1);
                    }
                }
            }
            let mut sim = Simulation::new(Jitter { seen: Vec::new() }, 99);
            sim.schedule_in(SimDuration::ZERO, 0);
            sim.run();
            sim.into_model().seen
        }
        assert_eq!(run_once(), run_once());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    struct Collect {
        seen: Vec<(u64, u32)>,
    }
    impl Model for Collect {
        type Event = u32;
        fn handle(&mut self, tag: u32, ctx: &mut Context<'_, u32>) {
            self.seen.push((ctx.now().as_micros(), tag));
        }
    }

    proptest! {
        /// Events fire in non-decreasing time order regardless of the
        /// order they were scheduled, and ties preserve insertion order.
        #[test]
        fn calendar_orders_any_schedule(times in prop::collection::vec(0u64..10_000, 1..100)) {
            let mut sim = Simulation::new(Collect { seen: Vec::new() }, 1);
            for (i, &t) in times.iter().enumerate() {
                sim.schedule_at(SimTime::from_micros(t), i as u32);
            }
            sim.run();
            let seen = &sim.model().seen;
            prop_assert_eq!(seen.len(), times.len());
            for w in seen.windows(2) {
                prop_assert!(w[0].0 <= w[1].0, "time went backwards");
                if w[0].0 == w[1].0 {
                    prop_assert!(w[0].1 < w[1].1, "tie broke FIFO order");
                }
            }
        }

        /// Splitting a run at an arbitrary deadline is equivalent to
        /// running straight through.
        #[test]
        fn run_until_composes(
            times in prop::collection::vec(0u64..10_000, 1..60),
            split in 0u64..12_000,
        ) {
            let schedule = |sim: &mut Simulation<Collect>| {
                for (i, &t) in times.iter().enumerate() {
                    sim.schedule_at(SimTime::from_micros(t), i as u32);
                }
            };
            let mut whole = Simulation::new(Collect { seen: Vec::new() }, 1);
            schedule(&mut whole);
            whole.run();

            let mut halves = Simulation::new(Collect { seen: Vec::new() }, 1);
            schedule(&mut halves);
            halves.run_until(SimTime::from_micros(split));
            halves.run();

            prop_assert_eq!(&whole.model().seen, &halves.model().seen);
        }
    }
}
