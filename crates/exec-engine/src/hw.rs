//! Shared hardware state embedded in every simulation world.

use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use simcore::driver::{FlowDriver, HasFlowDriver};
use simcore::flow::LinkId;
use simcore::probe::Probe;
use simcore::slab::Slab;

use crate::decode::DecodeRun;
use crate::launch::RunState;

/// Stable reference to an in-flight inference run.
///
/// Slab slots are recycled; the generation guards late events against
/// hitting an unrelated run that reused the slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunRef {
    /// Slab slot.
    pub slot: usize,
    /// Generation stamp at creation.
    pub gen: u64,
}

/// Stable reference to a decode process, guarded like [`RunRef`] so
/// token-step events scheduled before an abort land as no-ops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeRef {
    /// Slab slot.
    pub slot: usize,
    /// Generation stamp at creation.
    pub gen: u64,
}

/// The hardware substrate: machine description, its flow network, and the
/// table of in-flight runs.
pub struct HwState<S: HasHw> {
    /// Machine topology.
    pub machine: Machine,
    /// Link-id mapping into the flow network.
    pub map: NetMap,
    /// In-flight inference runs.
    pub runs: Slab<RunState<S>>,
    /// Live decode processes (one per GPU with a continuous batch).
    pub decodes: Slab<DecodeRun<S>>,
    /// The engine's one event stream: every load, migration, exec and
    /// stall event is emitted here, once. Disabled (free) by default;
    /// hosts install a recording probe to capture engine activity, and
    /// [`crate::timeline`] draws its Gantt chart from that log.
    pub probe: Probe,
    /// Weight blocks re-fetched after a checksum mismatch (only grows
    /// when a run launches with `verify_loads` and a corrupt-transfer
    /// fault fires on its path).
    pub refetches: u64,
    /// In-flight host-path flows per link that *this host issued*
    /// (weight loads, DHA reads, canaries). Pure bookkeeping: the
    /// performance model reads it to set contention-aware expectations
    /// for failure detection; it never affects timing.
    pub host_flows: Vec<u32>,
    next_gen: u64,
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
                runs: Slab::new(),
                decodes: Slab::new(),
                probe: Probe::disabled(),
                refetches: 0,
                host_flows: vec![0; links],
                next_gen: 0,
            },
            FlowDriver::with_net(net),
        )
    }

    /// Registers a host flow on `path`; returns its share count (the
    /// maximum concurrent host flows across its links, itself included).
    pub fn host_flow_started(&mut self, path: &[LinkId]) -> u32 {
        let mut max = 1;
        for l in path {
            if let Some(c) = self.host_flows.get_mut(l.0) {
                *c += 1;
                max = max.max(*c);
            }
        }
        max
    }

    /// Unregisters a host flow from `path`.
    pub fn host_flow_finished(&mut self, path: &[LinkId]) {
        for l in path {
            if let Some(c) = self.host_flows.get_mut(l.0) {
                *c = c.saturating_sub(1);
            }
        }
    }

    /// Allocates a fresh run generation.
    pub fn fresh_gen(&mut self) -> u64 {
        self.next_gen += 1;
        self.next_gen
    }

    /// Resolves a [`RunRef`], returning `None` for completed/stale runs.
    pub fn run_mut(&mut self, r: RunRef) -> Option<&mut RunState<S>> {
        let run = self.runs.get_mut(r.slot)?;
        (run.gen == r.gen).then_some(run)
    }

    /// Resolves a [`DecodeRef`], returning `None` for aborted/stale
    /// decode processes.
    pub fn decode_mut(&mut self, r: DecodeRef) -> Option<&mut DecodeRun<S>> {
        let run = self.decodes.get_mut(r.slot)?;
        (run.gen == r.gen).then_some(run)
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
