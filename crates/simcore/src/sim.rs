//! The discrete-event simulator core.
//!
//! [`Sim`] owns a user-defined state `S` and a time-ordered queue of
//! one-shot events. Events receive `(&mut S, &mut Ctx<S>)`; the context
//! exposes the current simulated time and lets handlers schedule further
//! events. Ties in time are broken by scheduling order, which keeps runs
//! fully deterministic.
//!
//! Every queued event is a *word event*: a plain function and one `u64`
//! argument ([`Ctx::call_at`]), scheduled without allocating. A boxed
//! closure ([`Ctx::schedule_at`]) waits in the context's slab, and its
//! queue entry is a trampoline word naming its slot, so the queue holds
//! one entry type of 32 bytes and runs every event through one path.
//! The hot events name the state they act on in their word: flow
//! ticks, weight blocks, NVLink forwards, DHA reads, compute and
//! token-step timers, hedged races.
//!
//! The queue is a binary min-heap over `(timestamp, sequence number)`.
//! The serving workloads keep only a handful of events pending (a mean
//! of 3.5 to 210 on the benchmark's workloads), so each push and pop
//! sifts through a few levels of one small array.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::slab::{GenKey, GenSlab};
use crate::time::{SimDur, SimTime};

/// A one-shot event handler.
pub type EventFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>)>;

/// A word event's handler: a plain function, called with the `u64` the
/// event was scheduled with.
pub type WordFn<S> = fn(&mut S, &mut Ctx<S>, u64);

/// A queued event: its firing time, its scheduling sequence number and
/// its word. Entries compare on `(at, seq)` alone, reversed, so the
/// max-heap pops the earliest entry first, in scheduling (FIFO) order
/// at equal times; `seq` is unique, so the word never decides.
struct Entry<S> {
    at: SimTime,
    seq: u64,
    f: WordFn<S>,
    arg: u64,
}

impl<S> PartialEq for Entry<S> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<S> Eq for Entry<S> {}

impl<S> PartialOrd for Entry<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<S> Ord for Entry<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Scheduling context handed to every event handler: the clock, the
/// event queue and the boxed closures its entries name.
///
/// Handlers use it to read the clock and to enqueue follow-up events.
/// Times in the past are clamped to "now": such an event still runs,
/// after every event already queued for the current instant.
pub struct Ctx<S> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry<S>>,
    /// Boxed closures of pending events, each named by one entry's
    /// word. Dropped with the context, so an unrun closure still drops.
    parked: GenSlab<EventFn<S>>,
}

impl<S> Ctx<S> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run at absolute time `at`.
    pub fn schedule_at(&mut self, at: SimTime, f: EventFn<S>) {
        let key = self.parked.insert(f);
        self.call_at(at, run_parked, key.to_bits());
    }

    /// Schedules `f` to run `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, f: EventFn<S>) {
        self.schedule_at(self.now + after, f);
    }

    /// Schedules the word event `f(state, ctx, arg)` at absolute time
    /// `at`, without allocating.
    pub fn call_at(&mut self, at: SimTime, f: WordFn<S>, arg: u64) {
        self.queue.push(Entry {
            at: at.max(self.now),
            seq: self.seq,
            f,
            arg,
        });
        self.seq += 1;
    }

    /// Schedules the word event `f(state, ctx, arg)` to run `after` from
    /// now, without allocating.
    pub fn call_in(&mut self, after: SimDur, f: WordFn<S>, arg: u64) {
        self.call_at(self.now + after, f, arg);
    }
}

/// The trampoline of a boxed event: runs the closure parked under
/// `key` (its [`GenKey::to_bits`]).
fn run_parked<S>(state: &mut S, ctx: &mut Ctx<S>, key: u64) {
    let f = ctx
        .parked
        .remove(GenKey::from_bits(key))
        .expect("each parked closure is named by exactly one entry");
    f(state, ctx);
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
///     ctx.call_in(SimDur::from_millis(5), |count, _, by| *count += by as u32, 2);
/// }));
/// let end = sim.run_until_idle();
/// assert_eq!(*sim.state(), 3);
/// assert_eq!(end.as_ms_f64(), 10.0);
/// ```
pub struct Sim<S> {
    ctx: Ctx<S>,
    executed: u64,
    state: S,
}

impl<S> Sim<S> {
    /// Creates a simulator at t = 0 around `state`.
    pub fn new(state: S) -> Self {
        Sim {
            ctx: Ctx {
                now: SimTime::ZERO,
                seq: 0,
                queue: BinaryHeap::new(),
                parked: GenSlab::new(),
            },
            executed: 0,
            state,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now
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
        self.ctx.schedule_at(at, f);
    }

    /// Schedules an event `after` from now.
    pub fn schedule_in(&mut self, after: SimDur, f: EventFn<S>) {
        self.ctx.schedule_in(after, f);
    }

    /// Runs events until the queue drains; returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        while self.step() {}
        self.ctx.now
    }

    /// Runs the next pending event, if any, and reports whether one ran,
    /// so a caller can inspect the state between any two handlers.
    pub fn step(&mut self) -> bool {
        let Some(e) = self.ctx.queue.pop() else {
            return false;
        };
        self.exec(e);
        true
    }

    /// Runs events with timestamps `<= deadline`; the clock ends at
    /// `max(now, deadline)` even if the queue drains earlier.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while self.peek_time().is_some_and(|at| at <= deadline) {
            let e = self.ctx.queue.pop().expect("peeked");
            self.exec(e);
        }
        self.ctx.now = self.ctx.now.max(deadline);
        self.ctx.now
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.ctx.queue.peek().map(|e| e.at)
    }

    /// Number of events currently queued.
    pub fn pending_events(&self) -> usize {
        self.ctx.queue.len()
    }

    /// Total events executed since construction (perf-harness metric).
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    fn exec(&mut self, e: Entry<S>) {
        self.executed += 1;
        self.ctx.now = e.at;
        (e.f)(&mut self.state, &mut self.ctx, e.arg);
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
    fn queue_entries_stay_one_32_byte_word() {
        // Every push and pop moves one entry through the heap; a boxed
        // handler inline made each 40 bytes.
        assert_eq!(std::mem::size_of::<Entry<Vec<u64>>>(), 32);
    }

    #[test]
    fn parked_closures_run_once_and_drop_with_the_sim() {
        use std::rc::Rc;

        // Every boxed event runs exactly once, from inside and outside
        // handlers, and leaves the slab behind it empty.
        let mut sim = Sim::new(vec![0u32; 4]);
        for i in 0..3 {
            sim.schedule_in(
                SimDur::from_nanos(i as u64),
                Box::new(move |runs: &mut Vec<u32>, ctx| {
                    runs[i] += 1;
                    if i == 0 {
                        ctx.schedule_in(SimDur::ZERO, Box::new(|runs, _| runs[3] += 1));
                    }
                }),
            );
        }
        sim.run_until_idle();
        assert_eq!(sim.state(), &vec![1; 4]);
        assert!(sim.ctx.parked.is_empty());

        // A sim dropped with boxed events pending drops their closures.
        let held = Rc::new(());
        let mut sim = Sim::new(());
        for at in [5, 7, 7] {
            let held = Rc::clone(&held);
            sim.schedule_at(SimTime::from_nanos(at), Box::new(move |_, _| drop(held)));
        }
        sim.run_until(SimTime::from_nanos(5));
        assert_eq!(Rc::strong_count(&held), 3);
        drop(sim);
        assert_eq!(Rc::strong_count(&held), 1);
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
