//! The discrete-event simulator core.
//!
//! [`Sim`] owns a user-defined state `S` and a time-ordered queue of
//! one-shot closure events. Events receive `(&mut S, &mut Ctx<S>)`; the
//! context exposes the current simulated time and lets handlers schedule
//! further events. Ties in time are broken by insertion order, which keeps
//! runs fully deterministic.
//!
//! The queue is a binary min-heap over `(timestamp, sequence number)`.
//! The serving workloads keep only a handful of events pending (a mean of
//! 3.5 to 210 on the benchmark's workloads), so each push and pop sifts
//! through a few levels of one small array.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::slab::Slab;
use crate::time::{SimDur, SimTime};

/// A one-shot event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>)>;

/// Scheduling context handed to every event handler.
///
/// Handlers use it to read the clock and to enqueue follow-up events.
/// Newly scheduled events are merged into the main queue when the handler
/// returns.
pub struct Ctx<S> {
    now: SimTime,
    pending: Vec<(SimTime, EventFn<S>)>,
}

impl<S> Ctx<S> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run at absolute time `at`.
    ///
    /// Times in the past are clamped to "now": the event still runs, after
    /// every event already queued for the current instant.
    pub fn schedule_at(&mut self, at: SimTime, f: EventFn<S>) {
        self.pending.push((at.max(self.now), f));
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, f: EventFn<S>) {
        self.pending.push((self.now + after, f));
    }
}

/// A queued event: its firing time, its scheduling sequence number and
/// the slab slot of its handler. The derived order is `(at, seq)` —
/// `seq` is unique, so `slot` never decides — and the earliest entry
/// pops first, in scheduling (FIFO) order at equal times.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    at: SimTime,
    seq: u64,
    slot: usize,
}

/// A deterministic discrete-event simulator over a state type `S`.
///
/// # Examples
///
/// ```
/// use simcore::{Sim, SimDur};
///
/// let mut sim = Sim::new(0u32);
/// sim.schedule_in(SimDur::from_millis(5), Box::new(|count: &mut u32, ctx| {
///     *count += 1;
///     ctx.schedule_in(SimDur::from_millis(5), Box::new(|count: &mut u32, _| *count += 1));
/// }));
/// let end = sim.run_until_idle();
/// assert_eq!(*sim.state(), 2);
/// assert_eq!(end.as_ms_f64(), 10.0);
/// ```
pub struct Sim<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Reverse<Entry>>,
    handlers: Slab<EventFn<S>>,
    /// Recycled `Ctx::pending` buffer: one allocation for the whole run
    /// instead of one per event.
    scratch: Vec<(SimTime, EventFn<S>)>,
    executed: u64,
    state: S,
}

impl<S> Sim<S> {
    /// Creates a simulator at t = 0 around `state`.
    pub fn new(state: S) -> Self {
        Sim {
            now: SimTime::ZERO,
            seq: 0,
            queue: BinaryHeap::new(),
            handlers: Slab::new(),
            scratch: Vec::new(),
            executed: 0,
            state,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shared access to the simulation state.
    pub fn state(&self) -> &S {
        &self.state
    }

    /// Exclusive access to the simulation state (setup/inspection between
    /// runs; events mutate state through their handler arguments instead).
    pub fn state_mut(&mut self) -> &mut S {
        &mut self.state
    }

    /// Consumes the simulator and returns the final state.
    pub fn into_state(self) -> S {
        self.state
    }

    /// Schedules an event at absolute time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, f: EventFn<S>) {
        let slot = self.handlers.insert(f);
        self.queue.push(Reverse(Entry {
            at: at.max(self.now),
            seq: self.seq,
            slot,
        }));
        self.seq += 1;
    }

    /// Schedules an event `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, f: EventFn<S>) {
        self.schedule_at(self.now + after, f);
    }

    /// Runs events until the queue drains; returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while let Some(Reverse(e)) = self.queue.pop() {
            self.exec(e);
        }
        self.now
    }

    /// Runs events with timestamps `<= deadline`; the clock ends at
    /// `max(now, deadline)` even if the queue drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(&Reverse(e)) = self.queue.peek() {
            if e.at > deadline {
                break;
            }
            self.queue.pop();
            self.exec(e);
        }
        self.now = self.now.max(deadline);
        self.now
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek().map(|&Reverse(e)| e.at)
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Total events executed since construction (perf-harness metric).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    fn exec(&mut self, e: Entry) {
        let f = self.handlers.remove(e.slot).expect("handler fired twice");
        self.executed += 1;
        self.now = e.at;
        let mut ctx = Ctx {
            now: self.now,
            pending: std::mem::take(&mut self.scratch),
        };
        f(&mut self.state, &mut ctx);
        let mut pending = ctx.pending;
        for (at, g) in pending.drain(..) {
            self.schedule_at(at, g);
        }
        self.scratch = pending;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_then_fifo_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(
            SimTime::from_nanos(10),
            Box::new(|v: &mut Vec<u32>, _| v.push(2)),
        );
        sim.schedule_at(SimTime::from_nanos(5), Box::new(|v, _| v.push(1)));
        sim.schedule_at(SimTime::from_nanos(10), Box::new(|v, _| v.push(3)));
        sim.run_until_idle();
        assert_eq!(sim.state(), &vec![1, 2, 3]);
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut sim = Sim::new(0u64);
        sim.schedule_in(
            SimDur::from_micros(1),
            Box::new(|s, ctx| {
                *s = ctx.now().as_nanos();
                ctx.schedule_in(
                    SimDur::from_micros(2),
                    Box::new(|s, ctx| *s += ctx.now().as_nanos()),
                );
            }),
        );
        let end = sim.run_until_idle();
        assert_eq!(end.as_nanos(), 3_000);
        assert_eq!(*sim.state(), 1_000 + 3_000);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let mut sim = Sim::new(0u32);
        sim.schedule_at(SimTime::from_nanos(100), Box::new(|s: &mut u32, _| *s += 1));
        sim.schedule_at(SimTime::from_nanos(200), Box::new(|s: &mut u32, _| *s += 1));
        sim.run_until(SimTime::from_nanos(150));
        assert_eq!(*sim.state(), 1);
        assert_eq!(sim.now().as_nanos(), 150);
        sim.run_until_idle();
        assert_eq!(*sim.state(), 2);
    }

    #[test]
    fn past_schedules_clamp_to_now() {
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.schedule_at(
            SimTime::from_nanos(50),
            Box::new(|_, ctx| {
                ctx.schedule_at(
                    SimTime::from_nanos(10),
                    Box::new(|v, c| v.push(c.now().as_nanos())),
                );
            }),
        );
        sim.run_until_idle();
        assert_eq!(sim.state(), &vec![50]);
    }

    #[test]
    fn handler_slots_are_recycled() {
        let mut sim = Sim::new(0u32);
        for _ in 0..100 {
            sim.schedule_in(SimDur::from_nanos(1), Box::new(|s: &mut u32, _| *s += 1));
            sim.run_until_idle();
        }
        assert_eq!(*sim.state(), 100);
        // All hundred events reused a single slot.
        assert!(sim.handlers.capacity() <= 2);
    }

    #[test]
    fn far_future_events_fire_in_order() {
        let mut sim = Sim::new(Vec::<u64>::new());
        for &ns in &[2_000_000_000u64, 5, 500_000_000, 1, 2_000_000_000] {
            sim.schedule_at(
                SimTime::from_nanos(ns),
                Box::new(|v: &mut Vec<u64>, ctx| v.push(ctx.now().as_nanos())),
            );
        }
        sim.run_until_idle();
        assert_eq!(
            sim.state(),
            &vec![1, 5, 500_000_000, 2_000_000_000, 2_000_000_000]
        );
    }

    #[test]
    fn run_until_a_far_deadline_then_resume() {
        // Events scheduled after an empty hour-long jump fire relative
        // to the new clock, in time order.
        let mut sim = Sim::new(Vec::<u64>::new());
        sim.run_until(SimTime::from_nanos(3600 * 1_000_000_000));
        sim.schedule_in(
            SimDur::from_nanos(10),
            Box::new(|v: &mut Vec<u64>, ctx| v.push(ctx.now().as_nanos())),
        );
        sim.schedule_in(
            SimDur::from_nanos(5),
            Box::new(|v: &mut Vec<u64>, ctx| v.push(ctx.now().as_nanos())),
        );
        sim.run_until_idle();
        let base = 3600u64 * 1_000_000_000;
        assert_eq!(sim.state(), &vec![base + 5, base + 10]);
    }
}
