//! Glue between the fluid-flow network and the event simulator.
//!
//! [`FlowDriver`] owns a [`FlowNet`] plus the per-flow completion
//! callbacks, and keeps exactly one *tick* event scheduled at the network's
//! next completion instant. Every rate-changing mutation bumps a generation
//! counter so stale ticks become no-ops — this is how flow completions stay
//! correct when new flows join mid-transfer (e.g. a DHA read starting while
//! a load is in flight).
//!
//! Callbacks live in a [`GenSlab`] whose key's bits travel with the flow
//! as its tag, so completion delivery is an indexed load instead of a
//! hash lookup; hedged-transfer races live in another, referenced by
//! `Copy` keys from the scheduled events, replacing the old
//! `Rc<RefCell<Race>>`-clone-per-event pattern. The tick, a race's
//! finish line and a stuck flow's unfreeze each carry one word (the
//! generation, the race key's bits, the flow id), so they are word
//! events ([`Ctx::call_at`]) and schedule without allocating.

use crate::flow::{FlowId, FlowNet, FlowPath, LinkId};
use crate::probe::{Probe, ProbeEvent};
use crate::sim::{Ctx, EventFn};
use crate::slab::{GenKey, GenSlab};
use crate::time::{SimDur, SimTime};

/// The sample of a link that carries no flow: the value every counter
/// track starts from and returns to.
const IDLE: (u64, usize) = (0, 0);

/// What to do when a flow completes.
enum Callback<S> {
    /// Deliver this closure.
    Plain(EventFn<S>),
    /// The flow is a contestant in a hedged race: run the race's finish
    /// line (first contestant home settles, the rest are no-ops).
    Race(GenKey),
}

/// State of one hedged transfer (see [`start_flow_hedged`]).
struct Race<S> {
    /// Set by the first finish-line event; later ones return early.
    settled: bool,
    /// Whether the hedge-launch watchdog is still scheduled. The race
    /// record can only be freed once the watchdog can no longer read it.
    watchdog_pending: bool,
    /// Contestant flows (primary, then hedge); all cancelled at settle.
    ids: Vec<FlowId>,
    on_done: Option<EventFn<S>>,
}

/// A [`FlowNet`] wired into the simulator with completion callbacks.
pub struct FlowDriver<S> {
    /// The underlying network; exposed for setup and statistics.
    pub net: FlowNet,
    /// Observability bus; emits a link's bandwidth-share counter when
    /// the share changes. Disabled (free) by default.
    pub probe: Probe,
    /// Hedged duplicate transfers launched so far (gray-failure mitigation
    /// bookkeeping, surfaced in serving reports).
    pub hedged: u64,
    gen: u64,
    /// Per-flow completion actions; the flow's tag is its key's bits.
    callbacks: GenSlab<Callback<S>>,
    /// In-flight hedged races, referenced by generational key from the
    /// finish-line and watchdog events.
    races: GenSlab<Race<S>>,
    /// Each link's last published `(rate_bps bits, flows)`, `IDLE`
    /// before its first sample. A counter track holds its value until
    /// the next sample, so a link publishes only when this changes.
    link_samples: Vec<(u64, usize)>,
    /// Reused buffers for probe emission and completion draining.
    loads_scratch: Vec<(usize, f64, usize)>,
    completed_scratch: Vec<(FlowId, u64)>,
    /// Gray-failure arms: the next flow crossing an armed link stalls for
    /// the given duration before resuming.
    stuck_arms: Vec<(LinkId, SimDur)>,
    /// Gray-failure arms: the next checksum-verified payload crossing an
    /// armed link arrives corrupted.
    corrupt_arms: Vec<LinkId>,
}

impl<S> Default for FlowDriver<S> {
    fn default() -> Self {
        FlowDriver {
            net: FlowNet::new(),
            probe: Probe::disabled(),
            hedged: 0,
            gen: 0,
            callbacks: GenSlab::new(),
            races: GenSlab::new(),
            link_samples: Vec::new(),
            loads_scratch: Vec::new(),
            completed_scratch: Vec::new(),
            stuck_arms: Vec::new(),
            corrupt_arms: Vec::new(),
        }
    }
}

impl<S> FlowDriver<S> {
    /// Creates a driver around an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a driver around a pre-built network.
    pub fn with_net(net: FlowNet) -> Self {
        FlowDriver {
            net,
            ..Self::default()
        }
    }

    /// Publishes the bandwidth share of every busy link whose share
    /// changed since its last sample, then a zero sample for every link
    /// that went idle, each group in link order. No-op when the probe
    /// is disabled.
    fn emit_link_shares(&mut self, now: SimTime) {
        if !self.probe.is_enabled() {
            return;
        }
        let mut loads = std::mem::take(&mut self.loads_scratch);
        self.net.link_loads_into(&mut loads);
        self.link_samples.resize(self.net.link_count(), IDLE);
        for &(link, rate_bps, flows) in &loads {
            let sample = (rate_bps.to_bits(), flows);
            if self.link_samples[link] != sample {
                self.link_samples[link] = sample;
                self.probe.emit(
                    now,
                    ProbeEvent::LinkShare {
                        link,
                        rate_bps,
                        flows,
                    },
                );
            }
        }
        // `loads` is in link order: walk it beside the samples to find
        // the links that carried flows before and carry none now.
        let mut busy = loads.iter().map(|&(link, ..)| link).peekable();
        for (link, sample) in self.link_samples.iter_mut().enumerate() {
            if busy.next_if_eq(&link).is_none() && *sample != IDLE {
                *sample = IDLE;
                self.probe.emit(
                    now,
                    ProbeEvent::LinkShare {
                        link,
                        rate_bps: 0.0,
                        flows: 0,
                    },
                );
            }
        }
        self.loads_scratch = loads;
    }

    /// Arms a stuck-flow gray failure: the next flow started across
    /// `link` makes no progress for `stall`, then resumes. Arms are
    /// consumed FIFO, one per flow.
    pub fn arm_stuck(&mut self, link: LinkId, stall: SimDur) {
        self.stuck_arms.push((link, stall));
    }

    /// Arms a corrupt-transfer gray failure: the next checksum-carrying
    /// payload crossing `link` (as reported by [`FlowDriver::take_corrupt`])
    /// arrives with a checksum mismatch.
    pub fn arm_corrupt(&mut self, link: LinkId) {
        self.corrupt_arms.push(link);
    }

    /// Consumes a pending corrupt-transfer arm matching any link in
    /// `path`, returning whether the payload about to be streamed there
    /// is corrupted. Callers that verify checksums invoke this once per
    /// payload, right before starting its flow.
    pub fn take_corrupt(&mut self, path: &[LinkId]) -> bool {
        match self.corrupt_arms.iter().position(|l| path.contains(l)) {
            Some(i) => {
                self.corrupt_arms.remove(i);
                true
            }
            None => false,
        }
    }
}

/// States that embed a [`FlowDriver`] keyed on themselves.
///
/// Implemented by the hardware state of the execution engine; lets generic
/// helpers ([`start_flow`]) find the driver inside `S`.
pub trait HasFlowDriver: Sized + 'static {
    /// Exclusive access to the embedded flow driver.
    fn flow_driver(&mut self) -> &mut FlowDriver<Self>;
}

/// Starts a flow of `bytes` along `path`; `on_done` fires at completion.
///
/// Must be called from inside an event handler (it needs the current
/// simulated time from `ctx`). Zero-byte flows complete via an immediate
/// event, preserving run-to-completion semantics.
pub fn start_flow<S: HasFlowDriver>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    bytes: f64,
    path: &[LinkId],
    on_done: EventFn<S>,
) -> FlowId {
    start_flow_cb(state, ctx, bytes, path, Callback::Plain(on_done))
}

/// [`start_flow`] over either completion action (plain callback or race
/// finish line).
fn start_flow_cb<S: HasFlowDriver>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    bytes: f64,
    path: &[LinkId],
    on_done: Callback<S>,
) -> FlowId {
    let now = ctx.now();
    let d = state.flow_driver();
    d.net.advance(now);
    let arm = d.stuck_arms.iter().position(|(l, _)| path.contains(l));
    let tag = d.callbacks.insert(on_done).to_bits();
    let id = d.net.add_flow_tagged(bytes, path, tag);
    // Consume a stuck arm only if the flow actually froze (zero-byte
    // flows complete immediately and cannot stall).
    if let Some(i) = arm {
        if d.net.freeze_flow(id) {
            let (_, stall) = d.stuck_arms.remove(i);
            ctx.call_in(
                stall,
                |state, ctx, id| unfreeze_flow(state, ctx, FlowId(id)),
                id.0,
            );
        }
    }
    settle(state, ctx);
    id
}

/// Re-admits a flow frozen by a stuck-flow arm to the fair allocation.
/// A no-op when the flow has already completed or been cancelled.
///
/// Must be called from inside an event handler.
pub fn unfreeze_flow<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>, id: FlowId) {
    let now = ctx.now();
    let d = state.flow_driver();
    d.net.advance(now);
    if !d.net.unfreeze_flow(id) {
        // The advance may have retired flows whose tick is still queued
        // at this instant; publish the shares they leave behind.
        d.emit_link_shares(now);
        return;
    }
    settle(state, ctx);
}

/// Starts a flow with a hedged duplicate: if the primary transfer has not
/// completed within `timeout`, an identical duplicate is launched on the
/// same path and whichever finishes first delivers `on_done` (the loser
/// is cancelled). This is the tail-latency mitigation for *suspected*
/// links — a transfer wedged by a gray failure is raced by a fresh copy
/// instead of waiting out the stall.
///
/// Must be called from inside an event handler. Returns the primary
/// flow's id.
pub fn start_flow_hedged<S: HasFlowDriver>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    bytes: f64,
    path: &[LinkId],
    timeout: SimDur,
    on_done: EventFn<S>,
) -> FlowId {
    let key = state.flow_driver().races.insert(Race {
        settled: false,
        watchdog_pending: true,
        ids: Vec::new(),
        on_done: Some(on_done),
    });
    let primary = start_flow_cb(state, ctx, bytes, path, Callback::Race(key));
    if let Some(race) = state.flow_driver().races.get_mut(key) {
        race.ids.push(primary);
    }
    let path = FlowPath::new(path);
    ctx.schedule_in(
        timeout,
        Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
            let d = state.flow_driver();
            let Some(race) = d.races.get_mut(key) else {
                return;
            };
            race.watchdog_pending = false;
            if race.settled || race.ids.is_empty() {
                // Already decided (or every contestant was cancelled):
                // the watchdog was the last reference, so free the race.
                d.races.remove(key);
                return;
            }
            // Hedge only while the primary is genuinely still in flight;
            // a completed primary has a finish line queued that will
            // settle and free the race.
            if d.net.flow_remaining(primary).is_none() {
                return;
            }
            let hedge = start_flow_cb(state, ctx, bytes, path.links(), Callback::Race(key));
            if let Some(race) = state.flow_driver().races.get_mut(key) {
                race.ids.push(hedge);
            }
            let d = state.flow_driver();
            d.hedged += 1;
            d.probe.emit(
                ctx.now(),
                ProbeEvent::FlowHedged {
                    primary: primary.0,
                    hedge: hedge.0,
                },
            );
        }),
    );
    primary
}

/// Finish line of a hedged race (`key` is its [`GenKey::to_bits`]): the
/// first contestant home takes the callback, cancels every other
/// contestant, and delivers. Scheduled as a zero-delay word event per
/// completing contestant; later arrivals find the race settled (or
/// already freed) and return.
fn race_finish<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>, key: u64) {
    let key = GenKey::from_bits(key);
    let d = state.flow_driver();
    let Some(race) = d.races.get_mut(key) else {
        return;
    };
    if race.settled {
        return;
    }
    race.settled = true;
    let ids = std::mem::take(&mut race.ids);
    let cb = race.on_done.take();
    if !race.watchdog_pending {
        d.races.remove(key);
    }
    for id in ids {
        // Cancelling the winner itself is a harmless no-op.
        cancel_flow(state, ctx, id);
    }
    if let Some(cb) = cb {
        cb(state, ctx);
    }
}

/// Changes a link's capacity mid-simulation (fault injection), keeping
/// in-flight transfers exact: progress up to now is settled at the old
/// rates, then all rates are recomputed and the completion tick is
/// rescheduled.
///
/// Must be called from inside an event handler.
pub fn set_link_capacity<S: HasFlowDriver>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    link: LinkId,
    capacity: f64,
) {
    let now = ctx.now();
    let d = state.flow_driver();
    d.net.advance(now);
    d.net.set_link_capacity(link, capacity);
    settle(state, ctx);
}

/// Cancels an in-flight flow (fault injection: its endpoint died). The
/// completion callback is dropped, never fired. Returns `false` when
/// the flow is unknown or already complete — a completed flow's callback
/// may still be queued for delivery.
///
/// Must be called from inside an event handler.
pub fn cancel_flow<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>, id: FlowId) -> bool {
    let now = ctx.now();
    let d = state.flow_driver();
    d.net.advance(now);
    let Some(tag) = d.net.cancel_flow_tagged(id) else {
        // As in `unfreeze_flow`: the advance alone may have moved shares.
        d.emit_link_shares(now);
        return false;
    };
    match d.callbacks.remove(GenKey::from_bits(tag)) {
        Some(Callback::Race(key)) => {
            // Drop the contestant from its race; if that leaves a race
            // nobody can ever settle or inspect again, free it.
            if let Some(race) = d.races.get_mut(key) {
                race.ids.retain(|&f| f != id);
                if !race.settled && race.ids.is_empty() && !race.watchdog_pending {
                    d.races.remove(key);
                }
            }
        }
        Some(Callback::Plain(_)) | None => {}
    }
    settle(state, ctx);
    true
}

/// Closes every mutation that may have moved rates (a flow added,
/// unfrozen or cancelled, a capacity change, a tick): invalidates the
/// pending tick, publishes the link shares that changed, delivers the
/// flows that finished and schedules the next tick.
fn settle<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>) {
    let d = state.flow_driver();
    d.gen += 1;
    d.emit_link_shares(ctx.now());
    fire_completions(state, ctx);
    reschedule_tick(state, ctx);
}

/// Delivers callbacks for every flow the network has marked complete.
fn fire_completions<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>) {
    let d = state.flow_driver();
    let mut done = std::mem::take(&mut d.completed_scratch);
    done.clear();
    d.net.drain_completed_into(&mut done);
    for (_, tag) in done.drain(..) {
        match d.callbacks.remove(GenKey::from_bits(tag)) {
            // Deliver through the event queue so that callback effects
            // observe a consistent driver state.
            Some(Callback::Plain(cb)) => ctx.schedule_in(SimDur::ZERO, cb),
            Some(Callback::Race(key)) => ctx.call_in(SimDur::ZERO, race_finish, key.to_bits()),
            None => {}
        }
    }
    state.flow_driver().completed_scratch = done;
}

/// (Re)schedules the single pending tick at the next completion instant.
fn reschedule_tick<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>) {
    let now = ctx.now();
    let d = state.flow_driver();
    if let Some(at) = d.net.next_completion_time(now) {
        ctx.call_at(at, tick, d.gen);
    }
}

/// A tick scheduled under generation `gen`: advances the network and
/// settles, unless rates changed since it was scheduled.
fn tick<S: HasFlowDriver>(state: &mut S, ctx: &mut Ctx<S>, gen: u64) {
    if state.flow_driver().gen != gen {
        return; // Stale tick: rates changed since scheduling.
    }
    state.flow_driver().net.advance(ctx.now());
    settle(state, ctx);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::time::SimTime;

    struct World {
        driver: FlowDriver<World>,
        log: Vec<(u64, SimTime)>,
        started: Vec<crate::flow::FlowId>,
    }

    impl HasFlowDriver for World {
        fn flow_driver(&mut self) -> &mut FlowDriver<World> {
            &mut self.driver
        }
    }

    fn world_with_link(cap: f64) -> (World, LinkId) {
        let mut net = FlowNet::new();
        let l = net.add_link(cap);
        (
            World {
                driver: FlowDriver::with_net(net),
                log: Vec::new(),
                started: Vec::new(),
            },
            l,
        )
    }

    #[test]
    fn completion_fires_at_transfer_time() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                start_flow(
                    w,
                    ctx,
                    50.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        let log = &sim.state().log;
        assert_eq!(log.len(), 1);
        assert!((log[0].1.as_secs_f64() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn joining_flow_delays_first_and_gens_invalidate_stale_ticks() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        // Flow A: 100 bytes from t=0. Alone it would end at t=1.0.
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        // Flow B joins at t=0.5 with 25 bytes.
        sim.schedule_at(
            SimTime::from_nanos(500_000_000),
            Box::new(move |w: &mut World, ctx| {
                start_flow(
                    w,
                    ctx,
                    25.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((2, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        // At t=0.5, A has 50 left; both run at 50 B/s. B (25B) ends at 1.0,
        // A then has 25 left and full rate: ends at 1.25.
        let log = &sim.state().log;
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].0, 2);
        assert!((log[0].1.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(log[1].0, 1);
        assert!((log[1].1.as_secs_f64() - 1.25).abs() < 1e-6);
    }

    #[test]
    fn capacity_change_moves_completion_time() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        // 100 bytes at 100 B/s would end at t=1.0; halving the link at
        // t=0.5 leaves 50 bytes at 50 B/s → completion at t=1.5.
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        sim.schedule_at(
            SimTime::from_nanos(500_000_000),
            Box::new(move |w: &mut World, ctx| {
                set_link_capacity(w, ctx, l, 50.0);
            }),
        );
        sim.run_until_idle();
        let log = &sim.state().log;
        assert_eq!(log.len(), 1);
        assert!((log[0].1.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn cancelled_flow_never_calls_back_and_frees_bandwidth() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                let id = start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
                w.started.push(id);
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((2, ctx.now()))),
                );
            }),
        );
        sim.schedule_at(
            SimTime::from_nanos(2),
            Box::new(move |w: &mut World, ctx| {
                let id = w.started[0];
                assert!(cancel_flow(w, ctx, id));
            }),
        );
        sim.run_until_idle();
        // Only flow 2 completes, at full bandwidth from t≈0 (both shared
        // the link only for the first 2 ns).
        let log = &sim.state().log;
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].0, 2);
        assert!((log[0].1.as_secs_f64() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn stuck_arm_stalls_next_flow_then_resumes() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                w.flow_driver()
                    .arm_stuck(l, crate::time::SimDur::from_millis(500));
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        // 1.0 s transfer + 0.5 s stall: completes at t = 1.5.
        let log = &sim.state().log;
        assert_eq!(log.len(), 1);
        assert!((log[0].1.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    fn stuck_arm_is_consumed_once_and_ignores_other_links() {
        let mut net = FlowNet::new();
        let l0 = net.add_link(100.0);
        let l1 = net.add_link(100.0);
        let world = World {
            driver: FlowDriver::with_net(net),
            log: Vec::new(),
            started: Vec::new(),
        };
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                w.flow_driver()
                    .arm_stuck(l0, crate::time::SimDur::from_secs_f64(10.0));
                // Crosses only l1: unaffected.
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l1],
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
                // First flow on l0 consumes the arm.
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l0],
                    Box::new(|w: &mut World, ctx| w.log.push((2, ctx.now()))),
                );
                // Second flow on l0 is clean.
                start_flow(
                    w,
                    ctx,
                    100.0,
                    &[l0],
                    Box::new(|w: &mut World, ctx| w.log.push((3, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        let log = &sim.state().log;
        assert_eq!(log.len(), 3);
        assert_eq!(log[0].0, 1);
        assert!((log[0].1.as_secs_f64() - 1.0).abs() < 1e-6);
        // The clean l0 flow had the link to itself while its sibling was
        // stalled: done at t=1.0 too (FIFO after flow 1).
        assert_eq!(log[1].0, 3);
        assert!((log[1].1.as_secs_f64() - 1.0).abs() < 1e-6);
        // The stalled flow resumes at t=10 and finishes at t=11.
        assert_eq!(log[2].0, 2);
        assert!((log[2].1.as_secs_f64() - 11.0).abs() < 1e-6);
    }

    #[test]
    fn corrupt_arm_is_consumed_once_per_matching_path() {
        let (mut world, l) = world_with_link(100.0);
        world.flow_driver().arm_corrupt(l);
        let d = world.flow_driver();
        assert!(!d.take_corrupt(&[LinkId(999)]));
        assert!(d.take_corrupt(&[l]));
        assert!(!d.take_corrupt(&[l]), "arm must be consumed");
    }

    #[test]
    fn hedged_flow_races_a_duplicate_past_a_stall() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                // The primary wedges for 10 s; the hedge launched at
                // t=2 s finishes a clean 1 s transfer at t=3 s.
                w.flow_driver()
                    .arm_stuck(l, crate::time::SimDur::from_secs_f64(10.0));
                start_flow_hedged(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    crate::time::SimDur::from_secs_f64(2.0),
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        let log = &sim.state().log;
        assert_eq!(log.len(), 1, "hedge winner delivers exactly once");
        assert!((log[0].1.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(sim.state_mut().flow_driver().hedged, 1);
        assert_eq!(
            sim.state_mut().flow_driver().net.active_flows(),
            0,
            "loser must be cancelled"
        );
    }

    #[test]
    fn hedged_flow_that_completes_in_time_never_duplicates() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                start_flow_hedged(
                    w,
                    ctx,
                    100.0,
                    &[l],
                    crate::time::SimDur::from_secs_f64(5.0),
                    Box::new(|w: &mut World, ctx| w.log.push((1, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        let log = &sim.state().log;
        assert_eq!(log.len(), 1);
        assert!((log[0].1.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(sim.state_mut().flow_driver().hedged, 0);
    }

    #[test]
    fn zero_byte_flow_callback_fires() {
        let (world, l) = world_with_link(100.0);
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                start_flow(
                    w,
                    ctx,
                    0.0,
                    &[l],
                    Box::new(|w: &mut World, ctx| w.log.push((7, ctx.now()))),
                );
            }),
        );
        sim.run_until_idle();
        assert_eq!(sim.state().log, vec![(7, SimTime::ZERO)]);
    }
}
