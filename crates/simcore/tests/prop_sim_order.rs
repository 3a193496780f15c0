//! Property tests for [`Sim`]'s execution order against a reference
//! model.
//!
//! The simulator's contract: events run in `(time, scheduling order)`
//! order, where a time in the past is clamped to "now", so events at
//! equal times run first-scheduled first. `run_until(d)` runs exactly
//! the events due at or before `d` and leaves the clock at
//! `max(now, d)`.
//!
//! The test schedules events from outside the simulator and from
//! inside handlers (every event may schedule children when it runs), and
//! interleaves `run_until(d)` with `run_until_idle`. Times mix
//! same-instant bursts, past times that clamp to now, and far-future
//! times up to `u64::MAX`. A reference model replays the same script by
//! picking, at every step, the pending event with the least
//! `(clamped time, scheduling order)` from a plain list; the simulator's
//! execution log must equal the model's.

use proptest::prelude::*;
use simcore::{EventFn, Sim, SimDur, SimTime};

/// When an event is scheduled for, relative to the scheduler's "now".
#[derive(Debug, Clone, Copy)]
enum When {
    /// `now + d` through `schedule_in`, saturating at the end of time.
    In(u64),
    /// Absolute time through `schedule_at`; clamps to now when past.
    At(u64),
}

impl When {
    /// The time the event must run at when scheduled at `now`.
    fn resolve(self, now: u64) -> u64 {
        match self {
            When::In(d) => now.saturating_add(d),
            When::At(t) => t.max(now),
        }
    }
}

/// Same-instant bursts (`In(0)`, twice as likely as the other arms),
/// near future, past times that clamp (small absolute times once the
/// clock has moved), and far-future absolute times up to `u64::MAX`.
fn arb_when() -> impl Strategy<Value = When> {
    prop_oneof![
        Just(When::In(0)),
        Just(When::In(0)),
        (0u64..32).prop_map(When::In),
        (0u64..100_000).prop_map(When::In),
        (0u64..32).prop_map(When::At),
        (0u64..100_000).prop_map(When::At),
        (1u64..1 << 40).prop_map(|t| When::At(t << 20)),
        (0u64..4).prop_map(|k| When::At(u64::MAX - k)),
    ]
}

/// One scripted step: schedules are three times, deadlines twice as likely
/// as a full drain.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a new event from outside the simulator.
    Schedule(When),
    /// `run_until` a deadline relative to the current clock.
    RunUntil(When),
    /// `run_until_idle`.
    RunIdle,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_when().prop_map(Op::Schedule),
        arb_when().prop_map(Op::Schedule),
        arb_when().prop_map(Op::Schedule),
        arb_when().prop_map(Op::RunUntil),
        arb_when().prop_map(Op::RunUntil),
        Just(Op::RunIdle),
    ]
}

/// The simulated world: what ran, and the children each event
/// schedules. Event ids count schedules, from the script and from
/// handlers alike, so an id is also its scheduling order.
struct World {
    /// `(event id, time it ran)` in execution order.
    log: Vec<(usize, u64)>,
    /// `kids[id]`: the events `id` schedules when it runs.
    kids: Vec<Vec<When>>,
    next_id: usize,
}

impl World {
    fn take_id(&mut self) -> usize {
        self.next_id += 1;
        self.next_id - 1
    }
}

fn schedule(sim: &mut Sim<World>, when: When) {
    let id = sim.state_mut().take_id();
    match when {
        When::In(d) => {
            let room = u64::MAX - sim.now().as_nanos();
            sim.schedule_in(SimDur::from_nanos(d.min(room)), event(id));
        }
        When::At(t) => sim.schedule_at(SimTime::from_nanos(t), event(id)),
    }
}

/// Event `id`: logs itself, then schedules its children through the
/// handler context.
fn event(id: usize) -> EventFn<World> {
    Box::new(move |w: &mut World, ctx| {
        let now = ctx.now().as_nanos();
        w.log.push((id, now));
        let kids = w.kids.get(id).cloned().unwrap_or_default();
        for when in kids {
            let child = w.take_id();
            match when {
                When::In(d) => {
                    ctx.schedule_in(SimDur::from_nanos(d.min(u64::MAX - now)), event(child))
                }
                When::At(t) => ctx.schedule_at(SimTime::from_nanos(t), event(child)),
            }
        }
    })
}

/// Reference model: pending events in a plain list, the next one found
/// by a scan for the least `(time, id)`.
struct Model {
    now: u64,
    /// `(time, id)` of every pending event.
    pending: Vec<(u64, usize)>,
    log: Vec<(usize, u64)>,
    next_id: usize,
}

impl Model {
    fn schedule(&mut self, when: When) {
        self.pending.push((when.resolve(self.now), self.next_id));
        self.next_id += 1;
    }

    /// Runs every event due at or before `deadline` (all of them when
    /// `None`).
    fn run(&mut self, kids: &[Vec<When>], deadline: Option<u64>) {
        while let Some(i) = (0..self.pending.len()).min_by_key(|&i| self.pending[i]) {
            let (at, id) = self.pending[i];
            if deadline.is_some_and(|d| at > d) {
                break;
            }
            self.pending.swap_remove(i);
            self.now = at;
            self.log.push((id, at));
            for &when in kids.get(id).map_or(&[][..], |k| &k[..]) {
                self.schedule(when);
            }
        }
        if let Some(d) = deadline {
            self.now = self.now.max(d);
        }
    }

    fn next_time(&self) -> Option<u64> {
        self.pending.iter().map(|&(at, _)| at).min()
    }
}

proptest! {
    #[test]
    fn execution_order_matches_the_reference_model(
        kids in prop::collection::vec(prop::collection::vec(arb_when(), 0..4), 0..64),
        ops in prop::collection::vec(arb_op(), 1..120),
    ) {
        let mut sim = Sim::new(World { log: Vec::new(), kids: kids.clone(), next_id: 0 });
        let mut model = Model { now: 0, pending: Vec::new(), log: Vec::new(), next_id: 0 };
        for op in ops {
            match op {
                Op::Schedule(when) => {
                    schedule(&mut sim, when);
                    model.schedule(when);
                }
                Op::RunUntil(when) => {
                    let before = sim.now().as_nanos();
                    let deadline = when.resolve(before);
                    let end = sim.run_until(SimTime::from_nanos(deadline));
                    model.run(&kids, Some(deadline));
                    prop_assert_eq!(end, sim.now());
                    prop_assert_eq!(
                        sim.now().as_nanos(),
                        before.max(deadline),
                        "run_until({}) left the clock off max(now, deadline)", deadline
                    );
                }
                Op::RunIdle => {
                    let end = sim.run_until_idle();
                    model.run(&kids, None);
                    prop_assert_eq!(end, sim.now());
                }
            }
            prop_assert_eq!(&sim.state().log, &model.log);
            prop_assert_eq!(sim.now().as_nanos(), model.now);
            prop_assert_eq!(sim.pending_events(), model.pending.len());
            prop_assert_eq!(sim.peek_time().map(SimTime::as_nanos), model.next_time());
        }
        sim.run_until_idle();
        model.run(&kids, None);
        prop_assert_eq!(&sim.state().log, &model.log);
        prop_assert_eq!(sim.executed_events(), model.log.len() as u64);
        prop_assert_eq!(sim.pending_events(), 0);
    }
}
