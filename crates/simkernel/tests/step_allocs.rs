//! `Simulation::step` must not touch the heap once the calendar has
//! reached its steady capacity: every simulated plant event goes through
//! it, so one allocation per step is one malloc/free per event.
//!
//! This file is its own test binary so the counting allocator below is
//! installed for this test alone; it counts per thread so the test
//! harness's own threads do not show up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use smartconf_simkernel::{Context, Model, SimDuration, Simulation};

/// Counts every allocation and reallocation made on the current thread,
/// then defers to [`System`].
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // Const-initialised and without a destructor, the slot is usable at
    // any point of the thread's life and never allocates itself.
    ALLOCS.with(|n| n.set(n.get() + 1));
}

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only a
// thread-local `Cell`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged from the caller's contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A one-shot follow-up event: handled, never rescheduled.
const FOLLOW_UP: u32 = u32::MAX;

/// A plant-shaped model: every lane event reschedules itself, and every
/// fourth one also fans out a same-instant follow-up, so the scheduling
/// buffer holds more than one entry on some steps.
struct Ticker {
    handled: u64,
}

impl Model for Ticker {
    type Event = u32;

    fn handle(&mut self, lane: u32, ctx: &mut Context<'_, u32>) {
        self.handled += 1;
        if lane == FOLLOW_UP {
            return;
        }
        let gap = ctx.rng().exp_gap(SimDuration::from_micros(100));
        ctx.schedule_in(gap, lane);
        if self.handled.is_multiple_of(4) {
            ctx.schedule_in(SimDuration::ZERO, FOLLOW_UP);
        }
    }
}

impl Ticker {
    fn new() -> Self {
        Ticker { handled: 0 }
    }
}

#[test]
fn steady_state_step_allocates_nothing() {
    let mut sim = Simulation::new(Ticker::new(), 7);
    for lane in 0..64 {
        sim.schedule_in(SimDuration::from_micros(u64::from(lane)), lane);
    }
    // Follow-ups do not reschedule, so the calendar stays near 64 entries;
    // warm up until both it and the scheduling buffer have reached their
    // steady capacity.
    for _ in 0..10_000 {
        assert!(sim.step());
    }

    let before = allocs();
    for _ in 0..10_000 {
        assert!(sim.step());
    }
    let allocs = allocs() - before;

    assert_eq!(sim.steps(), 20_000);
    assert_eq!(
        allocs, 0,
        "10 000 steady-state steps allocated {allocs} times"
    );
}
