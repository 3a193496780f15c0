//! Shared hardware state embedded in every simulation world, and the
//! host-path transfer that every engine PCIe flow and every detector
//! canary goes through.
//!
//! In-flight runs and decode processes live in [`GenSlab`]s: a
//! [`RunRef`] or [`DecodeRef`] is a generational key, so once its value
//! is removed (completed or aborted) every event still holding the ref
//! resolves to `None`, even after a later run reuses the slot.

use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use simcore::driver::{start_flow, start_flow_hedged, FlowDriver, HasFlowDriver};
use simcore::probe::Probe;
use simcore::sim::{Ctx, EventFn};
use simcore::slab::{GenKey, GenSlab};
use simcore::time::SimDur;

use crate::decode::DecodeRun;
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

/// Stable reference to a decode process, guarded like [`RunRef`] so
/// token-step events scheduled before an abort land as no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeRef(pub(crate) GenKey);

/// The hardware substrate: machine description, its flow network, and the
/// table of in-flight runs.
pub struct HwState<S: HasHw> {
    /// Machine topology.
    pub machine: Machine,
    /// Link-id mapping into the flow network.
    pub map: NetMap,
    /// In-flight inference runs.
    pub runs: GenSlab<RunState<S>>,
    /// Live decode processes (one per GPU with a continuous batch).
    pub decodes: GenSlab<DecodeRun<S>>,
    /// The engine's one event stream: every load, migration, exec and
    /// stall event is emitted here, once. Disabled (free) by default;
    /// hosts install a recording probe to capture engine activity, and
    /// [`crate::timeline`] draws its Gantt chart from that log.
    pub probe: Probe,
    /// Weight blocks re-fetched after a checksum mismatch (only grows
    /// when a run launches with `verify_loads` and a corrupt-transfer
    /// fault fires on its path).
    pub refetches: u64,
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
                decodes: GenSlab::new(),
                probe: Probe::disabled(),
                refetches: 0,
                host_flows: vec![0; links],
            },
            FlowDriver::with_net(net),
        )
    }

    /// Resolves a [`RunRef`], returning `None` for completed/stale runs.
    pub fn run_mut(&mut self, r: RunRef) -> Option<&mut RunState<S>> {
        self.runs.get_mut(r.0)
    }

    /// Resolves a [`DecodeRef`], returning `None` for aborted/stale
    /// decode processes.
    pub fn decode_mut(&mut self, r: DecodeRef) -> Option<&mut DecodeRun<S>> {
        self.decodes.get_mut(r.0)
    }
}

/// Multiple of a hedged block's expected wire time to wait before
/// racing a duplicate.
const HEDGE_FACTOR: f64 = 4.0;

/// Minimum hedge timeout: keeps tiny blocks from hedging on noise.
const HEDGE_FLOOR: SimDur = SimDur::from_millis(10);

/// Streams `bytes` from pinned host memory to `gpu` over its host path
/// (switch uplink, then PCIe lane) as one flow: weight blocks, DHA reads,
/// KV recalls and streams, detector canaries.
///
/// The flow counts in the per-link host-flow table for its lifetime, and
/// `on_done` receives its share count at issue: the most such flows on
/// any one of its links, itself included. Under `hedge`, a flow that
/// overruns `HEDGE_FACTOR` (4) times its contention-scaled wire time (at
/// least `HEDGE_FLOOR`, 10 ms) is raced by a duplicate. Launch overheads
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
    match hedge {
        Some(h) if bytes > 0.0 => {
            // The timeout scales with the host flows sharing the path at
            // issue so healthy contention does not trip the watchdog.
            let expected = bytes * f64::from(n_shared) / h.rate_bps;
            let timeout = SimDur::from_secs_f64(expected * HEDGE_FACTOR).max(HEDGE_FLOOR);
            start_flow_hedged(state, ctx, bytes, &path, timeout, done);
        }
        _ => {
            start_flow(state, ctx, bytes, &path, done);
        }
    }
}

/// Worlds that embed a [`HwState`] keyed on themselves.
///
/// The flow driver lives beside (not inside) the hardware state so that
/// flow callbacks and run bookkeeping can be borrowed independently.
pub trait HasHw: HasFlowDriver {
    /// Exclusive access to the hardware substrate.
    fn hw(&mut self) -> &mut HwState<Self>;
}
