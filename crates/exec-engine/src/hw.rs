//! Shared hardware state embedded in every simulation world, and the
//! host-path transfer that every host→GPU flow goes through, with the
//! transfer policy it carries: hedged races and corrupt-transfer arms.
//!
//! In-flight runs and hedged races live in [`GenSlab`]s: a [`RunRef`] is
//! a generational key, so once its run is removed (completed or aborted)
//! every event still holding the ref resolves to `None`, even after a
//! later run reuses the slot.

use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use simcore::driver::{cancel_flow, start_flow, FlowDriver, HasFlowDriver};
use simcore::flow::{FlowId, LinkId};
use simcore::probe::{Probe, ProbeEvent};
use simcore::sim::{Ctx, EventFn};
use simcore::slab::{GenKey, GenSlab};
use simcore::time::SimDur;

use crate::launch::{HedgeSpec, RunState};

/// Stable reference to an in-flight inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef(pub(crate) GenKey);

impl RunRef {
    /// The run's slot in [`HwState::runs`]: the `run` id its probe
    /// events carry. A later run may reuse it.
    pub(crate) fn slot(self) -> usize {
        self.0.index()
    }
}

/// The hardware substrate: machine description, its flow network, and the
/// table of in-flight runs.
pub struct HwState<S: HasHw> {
    /// Machine topology.
    pub machine: Machine,
    /// Link-id mapping into the flow network.
    pub map: NetMap,
    /// In-flight inference runs.
    pub runs: GenSlab<RunState<S>>,
    /// Undecided hedged races, keyed from their finish lines and
    /// watchdog; a race leaves when its first contestant finishes.
    races: GenSlab<Race<S>>,
    /// The engine's one event stream: every load, migration, exec and
    /// stall event is emitted here, once. Disabled (free) by default;
    /// hosts install a recording probe to capture engine activity, and
    /// [`crate::timeline`] draws its Gantt chart from that log.
    pub probe: Probe,
    /// Weight blocks re-fetched after a checksum mismatch (only grows
    /// when a run launches with `verify_loads` and a corrupt-transfer
    /// fault fires on its path).
    pub refetches: u64,
    /// Corrupt-transfer arms: the next checksum-carrying payload
    /// crossing an armed link arrives corrupted.
    corrupt_arms: Vec<LinkId>,
    /// Hedged duplicate transfers launched so far.
    pub hedged: u64,
    /// In-flight [`start_host_flow`] transfers per link. Pure
    /// bookkeeping: it sets the contention-aware expectations of hedge
    /// timeouts and failure detection; it never affects timing.
    host_flows: Vec<u32>,
}

impl<S: HasHw> HwState<S> {
    /// Builds the substrate for `machine`, returning it together with the
    /// flow driver the world must also embed.
    ///
    /// # Panics
    ///
    /// Panics if the machine fails topology validation (presets never do).
    pub fn new(machine: Machine) -> (Self, FlowDriver<S>) {
        let (net, map) = NetMap::build(&machine).expect("valid machine topology");
        let links = net.link_count();
        (
            HwState {
                machine,
                map,
                runs: GenSlab::new(),
                races: GenSlab::new(),
                probe: Probe::disabled(),
                refetches: 0,
                corrupt_arms: Vec::new(),
                hedged: 0,
                host_flows: vec![0; links],
            },
            FlowDriver::with_net(net),
        )
    }

    /// Resolves a [`RunRef`], returning `None` for completed/stale runs.
    pub fn run_mut(&mut self, r: RunRef) -> Option<&mut RunState<S>> {
        self.runs.get_mut(r.0)
    }

    /// Arms a corrupt-transfer gray failure: the next checksum-carrying
    /// payload issued across `link` arrives with a checksum mismatch.
    pub fn arm_corrupt(&mut self, link: LinkId) {
        self.corrupt_arms.push(link);
    }

    /// Consumes a pending corrupt-transfer arm matching any link in
    /// `path`, returning whether the payload about to be streamed there
    /// is corrupted. Callers that verify checksums invoke this once per
    /// payload, right before starting its flow.
    pub(crate) fn take_corrupt(&mut self, path: &[LinkId]) -> bool {
        match self.corrupt_arms.iter().position(|l| path.contains(l)) {
            Some(i) => {
                self.corrupt_arms.remove(i);
                true
            }
            None => false,
        }
    }
}

/// One hedged host transfer whose winner is not decided yet.
struct Race<S> {
    /// The transfer, for the duplicate.
    path: [LinkId; 2],
    bytes: f64,
    /// Contestants: the primary, then the duplicate once launched.
    primary: FlowId,
    hedge: Option<FlowId>,
    /// Delivered by the first contestant home.
    on_done: EventFn<S>,
}

/// Multiple of a hedged block's expected wire time to wait before
/// racing a duplicate.
const HEDGE_FACTOR: f64 = 4.0;

/// Minimum hedge timeout: keeps tiny blocks from hedging on noise.
const HEDGE_FLOOR: SimDur = SimDur::from_millis(10);

/// Streams `bytes` from pinned host memory to `gpu` over its host path
/// (switch uplink, then PCIe lane) as one flow: weight blocks, DHA reads,
/// KV recalls and streams, plan-migration streams, detector canaries.
///
/// The flow counts in the per-link host-flow table for its lifetime, and
/// `on_done` receives its share count at issue: the most such flows on
/// any one of its links, itself included. Under `hedge`, a flow that
/// overruns `HEDGE_FACTOR` (4) times its contention-scaled wire time (at
/// least `HEDGE_FLOOR`, 10 ms) is raced by a duplicate on the same path;
/// the first one home cancels the other and delivers. Launch overheads
/// are the caller's.
///
/// Must be called from inside an event handler.
pub fn start_host_flow<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    gpu: usize,
    bytes: f64,
    hedge: Option<HedgeSpec>,
    on_done: impl FnOnce(&mut S, &mut Ctx<S>, u32) + 'static,
) {
    let hw = state.hw();
    let path = hw.map.host_path(&hw.machine, gpu);
    let mut n_shared = 1;
    for l in path {
        let c = &mut hw.host_flows[l.0];
        *c += 1;
        n_shared = n_shared.max(*c);
    }
    let done: EventFn<S> = Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
        for l in path {
            state.hw().host_flows[l.0] -= 1;
        }
        on_done(state, ctx, n_shared);
    });
    let Some(h) = hedge.filter(|_| bytes > 0.0) else {
        start_flow(state, ctx, bytes, &path, done);
        return;
    };
    // The timeout scales with the host flows sharing the path at issue
    // so healthy contention does not trip the watchdog.
    let expected = bytes * f64::from(n_shared) / h.rate_bps;
    let timeout = SimDur::from_secs_f64(expected * HEDGE_FACTOR).max(HEDGE_FLOOR);
    let key = state.hw().races.insert(Race {
        path,
        bytes,
        primary: FlowId(u64::MAX), // Set once the flow exists, below.
        hedge: None,
        on_done: done,
    });
    let primary = start_flow(state, ctx, bytes, &path, finish_line(key));
    if let Some(race) = state.hw().races.get_mut(key) {
        race.primary = primary;
    }
    ctx.call_in(timeout, launch_hedge, key.to_bits());
}

/// A contestant's completion callback: settles race `key`.
fn finish_line<S: HasHw>(key: GenKey) -> EventFn<S> {
    Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
        // Only the first contestant home finds the race.
        let Some(race) = state.hw().races.remove(key) else {
            return;
        };
        // Cancelling the winner itself is a harmless no-op.
        cancel_flow(state, ctx, race.primary);
        if let Some(hedge) = race.hedge {
            cancel_flow(state, ctx, hedge);
        }
        (race.on_done)(state, ctx);
    })
}

/// A race's watchdog (`key` is its [`GenKey::to_bits`]): races a
/// duplicate against a primary still in flight at the timeout.
fn launch_hedge<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, key: u64) {
    let key = GenKey::from_bits(key);
    let Some(race) = state.hw().races.get(key) else {
        return;
    };
    let (path, bytes, primary) = (race.path, race.bytes, race.primary);
    // A completed primary has its finish line queued; it settles the race.
    if state.flow_driver().net.flow_remaining(primary).is_none() {
        return;
    }
    let hedge = start_flow(state, ctx, bytes, &path, finish_line(key));
    let hw = state.hw();
    if let Some(race) = hw.races.get_mut(key) {
        race.hedge = Some(hedge);
    }
    hw.hedged += 1;
    hw.probe.emit(
        ctx.now(),
        ProbeEvent::FlowHedged {
            primary: primary.0,
            hedge: hedge.0,
        },
    );
}

/// Worlds that embed a [`HwState`] keyed on themselves.
///
/// The flow driver lives beside (not inside) the hardware state so that
/// flow callbacks and run bookkeeping can be borrowed independently.
pub trait HasHw: HasFlowDriver {
    /// Exclusive access to the hardware substrate.
    fn hw(&mut self) -> &mut HwState<Self>;
}

#[cfg(test)]
mod tests {
    use gpu_topology::presets::single_v100;
    use simcore::probe::Event;
    use simcore::sim::Sim;
    use simcore::time::SimTime;

    use super::*;

    struct World {
        hw: HwState<World>,
        flows: FlowDriver<World>,
        log: Vec<(u32, SimTime)>,
    }

    impl HasFlowDriver for World {
        fn flow_driver(&mut self) -> &mut FlowDriver<World> {
            &mut self.flows
        }
    }

    impl HasHw for World {
        fn hw(&mut self) -> &mut HwState<World> {
            &mut self.hw
        }
    }

    /// A single-V100 world, its GPU's host path, and the bytes that path
    /// carries in one second.
    fn world() -> (World, [LinkId; 2], f64) {
        let (hw, flows) = HwState::new(single_v100());
        let path = hw.map.host_path(&hw.machine, 0);
        let rate = path
            .iter()
            .map(|&l| flows.net.link_capacity(l))
            .fold(f64::INFINITY, f64::min);
        let world = World {
            hw,
            flows,
            log: Vec::new(),
        };
        (world, path, rate)
    }

    #[test]
    fn hedged_flow_races_a_duplicate_past_a_stall() {
        let (mut world, path, rate) = world();
        let (probe, events) = Probe::logging();
        world.hw.probe = probe;
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                // The primary wedges for 10 s. Believing the path twice
                // as fast, the watchdog expects 0.5 s and fires at 4x
                // that: the duplicate launched at t=2 s finishes a clean
                // 1 s transfer at t=3 s.
                w.flows.arm_stuck(path[1], SimDur::from_secs_f64(10.0));
                let hedge = Some(HedgeSpec {
                    rate_bps: 2.0 * rate,
                });
                start_host_flow(w, ctx, 0, rate, hedge, |w: &mut World, ctx, n| {
                    w.log.push((n, ctx.now()))
                });
            }),
        );
        sim.run_until_idle();
        let w = sim.state_mut();
        assert_eq!(w.log.len(), 1, "hedge winner delivers exactly once");
        assert_eq!(w.log[0].0, 1);
        assert!((w.log[0].1.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(w.hw.hedged, 1);
        assert_eq!(w.flows.net.active_flows(), 0, "loser must be cancelled");
        assert!(w.hw.races.is_empty(), "a settled race leaves the slab");
        assert_eq!(w.hw.host_flows, vec![0; w.hw.host_flows.len()]);
        let hedges: Vec<Event> = events
            .borrow()
            .events
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::FlowHedged { .. }))
            .copied()
            .collect();
        assert_eq!(hedges.len(), 1);
        assert_eq!(hedges[0].at, SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn hedged_flow_that_completes_in_time_never_duplicates() {
        let (world, _, rate) = world();
        let mut sim = Sim::new(world);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                // A 1 s transfer against a 4 s watchdog.
                let hedge = Some(HedgeSpec { rate_bps: rate });
                start_host_flow(w, ctx, 0, rate, hedge, |w: &mut World, ctx, n| {
                    w.log.push((n, ctx.now()))
                });
            }),
        );
        let end = sim.run_until_idle();
        let w = sim.state_mut();
        assert_eq!(w.log.len(), 1);
        assert!((w.log[0].1.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(w.hw.hedged, 0);
        assert!(w.hw.races.is_empty());
        // The watchdog still fired, found the race settled and left.
        assert!((end.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn corrupt_arm_is_consumed_once_per_matching_path() {
        let (mut world, path, _) = world();
        let hw = &mut world.hw;
        hw.arm_corrupt(path[1]);
        assert!(!hw.take_corrupt(&[LinkId(999)]));
        assert!(hw.take_corrupt(&path));
        assert!(!hw.take_corrupt(&path), "arm must be consumed");
    }
}
