//! Shared hardware state embedded in every simulation world, and the
//! host-path transfer that every host→GPU flow goes through, with the
//! transfer policy it carries: hedged races and corrupt-transfer arms.
//!
//! In-flight runs and host flows live in [`GenSlab`]s. A [`RunRef`] is a
//! generational key, and every word event a run schedules names (run,
//! slot) through `RunRef::word`, so once its run is removed (completed
//! or aborted) every such word resolves to `None`, even after a later
//! run reuses the slot. A host flow's record holds what its landing
//! undoes and delivers, and its hedged race, so the flow's completion
//! and a race's finish line are one word keyed by the record.

use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use simcore::driver::{cancel_flow, start_flow, FlowDriver, HasFlowDriver};
use simcore::flow::{FlowId, LinkId};
use simcore::probe::{Probe, ProbeEvent};
use simcore::sim::{Ctx, WordFn};
use simcore::slab::{GenKey, GenSlab};
use simcore::time::SimDur;

use crate::launch::{HedgeSpec, RunState};

/// Stable reference to an in-flight inference run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef(pub(crate) GenKey);

impl RunRef {
    /// Runs a word event can name: its slot index fits 24 bits.
    pub(crate) const MAX_RUNS: usize = 1 << 24;

    /// Transmission slots a word event can name: the slot fits 8 bits.
    pub(crate) const MAX_SLOTS: usize = 1 << 8;

    /// The run's slot in [`HwState::runs`]: the `run` id its probe
    /// events carry. A later run may reuse it.
    pub(crate) fn slot(self) -> usize {
        self.0.index()
    }

    /// The argument of a word event acting on transmission slot `slot`
    /// of this run: the key's generation in the high 32 bits, then the
    /// slot's 8 bits above the run index's 24.
    ///
    /// # Panics
    ///
    /// Panics if the run index reaches [`RunRef::MAX_RUNS`] or the slot
    /// [`RunRef::MAX_SLOTS`]; [`crate::launch::start_inference`] asserts
    /// both at launch.
    pub(crate) fn word(self, slot: usize) -> u64 {
        assert!(self.slot() < Self::MAX_RUNS, "run index past 24 bits");
        assert!(slot < Self::MAX_SLOTS, "transmission slot past 8 bits");
        self.0.to_bits() | (slot as u64) << 24
    }

    /// The run and slot a [`RunRef::word`] names.
    pub(crate) fn from_word(w: u64) -> (RunRef, usize) {
        let slot = (w >> 24 & 0xff) as usize;
        (RunRef(GenKey::from_bits(w & !(0xff << 24))), slot)
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
    /// One record per [`start_host_flow`] transfer in flight, keyed
    /// from its completion word and its race's watchdog; it leaves when
    /// the flow (or its race's first contestant) lands.
    host_records: GenSlab<HostFlow<S>>,
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
                host_records: GenSlab::new(),
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

/// A host flow's completion closure, handed the flow's share count.
pub type HostFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>, u32)>;

/// What a [`start_host_flow`] transfer delivers when it lands.
pub enum HostDone<S> {
    /// The word event `f(state, ctx, arg)`, called from the landing
    /// event; the share count is [`start_host_flow`]'s return value.
    Word(WordFn<S>, u64),
    /// A closure, handed the share count.
    Boxed(HostFn<S>),
}

impl<S> HostDone<S> {
    /// Boxes `f` as a [`HostDone::Boxed`] completion.
    pub fn closure(f: impl FnOnce(&mut S, &mut Ctx<S>, u32) + 'static) -> Self {
        HostDone::Boxed(Box::new(f))
    }
}

/// A [`start_host_flow`] transfer in flight.
struct HostFlow<S> {
    /// Its path, whose host-flow counts its landing decrements.
    path: [LinkId; 2],
    /// Its share count at issue.
    n_shared: u32,
    done: HostDone<S>,
    /// Its hedged race, under a hedge.
    race: Option<Race>,
}

/// A hedged host transfer's contestants.
struct Race {
    /// The transfer, for the duplicate.
    bytes: f64,
    primary: FlowId,
    /// The duplicate, once launched.
    hedge: Option<FlowId>,
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
/// The flow counts in the per-link host-flow table for its lifetime.
/// Returns its share count at issue: the most such flows on any one of
/// its links, itself included; a [`HostDone::Boxed`] completion also
/// receives it. Under `hedge`, a flow that overruns `HEDGE_FACTOR` (4)
/// times its contention-scaled wire time (at least `HEDGE_FLOOR`,
/// 10 ms) is raced by a duplicate on the same path; the first one home
/// cancels the other and delivers. Launch overheads are the caller's.
///
/// Must be called from inside an event handler.
pub fn start_host_flow<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    gpu: usize,
    bytes: f64,
    hedge: Option<HedgeSpec>,
    on_done: HostDone<S>,
) -> u32 {
    let hw = state.hw();
    let path = hw.map.host_path(&hw.machine, gpu);
    let mut n_shared = 1;
    for l in path {
        let c = &mut hw.host_flows[l.0];
        *c += 1;
        n_shared = n_shared.max(*c);
    }
    let key = hw.host_records.insert(HostFlow {
        path,
        n_shared,
        done: on_done,
        race: None,
    });
    let primary = start_flow(state, ctx, bytes, &path, host_flow_done, key.to_bits());
    let Some(h) = hedge.filter(|_| bytes > 0.0) else {
        return n_shared;
    };
    // The timeout scales with the host flows sharing the path at issue
    // so healthy contention does not trip the watchdog.
    let expected = bytes * f64::from(n_shared) / h.rate_bps;
    let timeout = SimDur::from_secs_f64(expected * HEDGE_FACTOR).max(HEDGE_FLOOR);
    if let Some(flow) = state.hw().host_records.get_mut(key) {
        flow.race = Some(Race {
            bytes,
            primary,
            hedge: None,
        });
    }
    ctx.call_in(timeout, launch_hedge, key.to_bits());
    n_shared
}

/// A host flow's landing, and a race's finish line (`key` is its
/// record's [`GenKey::to_bits`]): settles the race, releases the path's
/// host-flow counts and delivers.
fn host_flow_done<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, key: u64) {
    // Only a race's first contestant home finds the record.
    let Some(flow) = state.hw().host_records.remove(GenKey::from_bits(key)) else {
        return;
    };
    if let Some(race) = flow.race {
        // Cancelling the winner itself is a harmless no-op.
        cancel_flow(state, ctx, race.primary);
        if let Some(hedge) = race.hedge {
            cancel_flow(state, ctx, hedge);
        }
    }
    for l in flow.path {
        state.hw().host_flows[l.0] -= 1;
    }
    match flow.done {
        HostDone::Word(f, arg) => f(state, ctx, arg),
        HostDone::Boxed(f) => f(state, ctx, flow.n_shared),
    }
}

/// A race's watchdog (`key` is its record's [`GenKey::to_bits`]): races
/// a duplicate against a primary still in flight at the timeout.
fn launch_hedge<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, key: u64) {
    let Some(flow) = state.hw().host_records.get(GenKey::from_bits(key)) else {
        return;
    };
    let (path, race) = (
        flow.path,
        flow.race.as_ref().expect("a watchdog keys a race"),
    );
    let (bytes, primary) = (race.bytes, race.primary);
    // A completed primary has its finish line queued; it settles the race.
    if state.flow_driver().net.flow_remaining(primary).is_none() {
        return;
    }
    let hedge = start_flow(state, ctx, bytes, &path, host_flow_done, key);
    let hw = state.hw();
    if let Some(race) = hw
        .host_records
        .get_mut(GenKey::from_bits(key))
        .and_then(|f| f.race.as_mut())
    {
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
/// flow completions and run bookkeeping can be borrowed independently.
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
                let logged = HostDone::closure(|w: &mut World, ctx, n| w.log.push((n, ctx.now())));
                start_host_flow(w, ctx, 0, rate, hedge, logged);
            }),
        );
        sim.run_until_idle();
        let w = sim.state_mut();
        assert_eq!(w.log.len(), 1, "hedge winner delivers exactly once");
        assert_eq!(w.log[0].0, 1);
        assert!((w.log[0].1.as_secs_f64() - 3.0).abs() < 1e-6);
        assert_eq!(w.hw.hedged, 1);
        assert_eq!(w.flows.net.active_flows(), 0, "loser must be cancelled");
        assert!(
            w.hw.host_records.is_empty(),
            "a settled race leaves no record"
        );
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
                // A 1 s transfer against a 4 s watchdog, landing as a
                // word that carries the share count it was issued at.
                let hedge = Some(HedgeSpec { rate_bps: rate });
                let logged =
                    |w: &mut World, ctx: &mut Ctx<World>, n| w.log.push((n as u32, ctx.now()));
                let n = start_host_flow(w, ctx, 0, rate, hedge, HostDone::Word(logged, 7));
                assert_eq!(n, 1);
            }),
        );
        let end = sim.run_until_idle();
        let w = sim.state_mut();
        assert_eq!(w.log.len(), 1);
        assert_eq!(w.log[0].0, 7);
        assert!((w.log[0].1.as_secs_f64() - 1.0).abs() < 1e-6);
        assert_eq!(w.hw.hedged, 0);
        assert!(w.hw.host_records.is_empty());
        assert_eq!(w.hw.host_flows, vec![0; w.hw.host_flows.len()]);
        // The watchdog still fired, found the race settled and left.
        assert!((end.as_secs_f64() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn run_slot_words_round_trip_at_their_limits() {
        let last_run = (RunRef::MAX_RUNS - 1) as u64;
        for (idx, gen, slot) in [(0, 0, 0), (5, 3, 1), (last_run, u64::from(u32::MAX), 255)] {
            let r = RunRef(GenKey::from_bits(gen << 32 | idx));
            assert_eq!(RunRef::from_word(r.word(slot)), (r, slot));
        }
        // Same run, different slots (and the reverse): different words.
        let r = RunRef(GenKey::from_bits(u64::from(u32::MAX) << 32 | last_run));
        assert_ne!(r.word(0), r.word(255));
        let next_gen = RunRef(GenKey::from_bits(last_run));
        assert_ne!(r.word(7), next_gen.word(7));
    }

    #[test]
    #[should_panic(expected = "run index past 24 bits")]
    fn run_slot_words_reject_a_run_past_24_bits() {
        RunRef(GenKey::from_bits(RunRef::MAX_RUNS as u64)).word(0);
    }

    #[test]
    #[should_panic(expected = "transmission slot past 8 bits")]
    fn run_slot_words_reject_a_slot_past_8_bits() {
        RunRef(GenKey::from_bits(0)).word(RunRef::MAX_SLOTS);
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
