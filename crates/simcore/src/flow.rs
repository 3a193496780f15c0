//! Max-min-fair fluid-flow network.
//!
//! Models an interconnect (PCIe lanes, PCIe-switch uplinks, NVLink) as a
//! graph of capacitated links. Active transfers are *flows*: each flow has
//! a remaining byte count and a path (the links it occupies, stored inline:
//! at most [`MAX_PATH`]). At any instant every flow progresses at its
//! max-min-fair rate; the network is advanced lazily between rate-changing
//! events (flow add/remove), which is exact for piecewise-constant rates.
//!
//! This is the substrate behind the paper's Table 2: two GPUs pulling from
//! the host through a shared PCIe-switch uplink each converge to half the
//! uplink bandwidth with no special-casing.
//!
//! Re-rating is *incremental*: a mutation (flow add/cancel/freeze,
//! capacity change, completion) only re-solves the connected component of
//! links reachable from the mutated links through shared flows. The
//! component is found by sweeping the (short) flow list, and the solve
//! touches only its links and flows. Flows outside that component keep
//! their rates — water-filling decomposes exactly over connected
//! components, so the restricted solve reproduces the full solve
//! bit-for-bit (debug builds assert this on every call; a full-solve
//! fallback remains one flag away via [`FlowNet::set_force_full_rerate`]).

use serde::{Deserialize, Serialize};

use crate::time::{SimDur, SimTime};

/// Identifier of a link in the network.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// Identifier of an active flow.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct FlowId(pub u64);

/// Most links one flow's path may cross. The machine model's paths cross
/// one link (an NVLink) or two (a switch uplink, then a PCIe lane), so a
/// flow keeps its path inline.
pub const MAX_PATH: usize = 3;

/// Bytes below which a flow is considered complete (guards float drift).
const DONE_EPS: f64 = 1e-3;

#[derive(Debug, Clone)]
struct Link {
    capacity: f64, // bytes/sec
    /// Total bytes carried, for utilisation reporting.
    carried: f64,
}

/// Tag value meaning "no tag attached" (see [`FlowNet::add_flow_tagged`]).
pub const NO_TAG: u64 = u64::MAX;

/// A path of at most [`MAX_PATH`] links, stored inline.
#[derive(Clone, Copy, Debug)]
pub(crate) struct FlowPath {
    links: [LinkId; MAX_PATH],
    len: u8,
}

impl FlowPath {
    /// Copies `path`.
    ///
    /// # Panics
    ///
    /// Panics if `path` is longer than [`MAX_PATH`].
    pub(crate) fn new(path: &[LinkId]) -> FlowPath {
        assert!(path.len() <= MAX_PATH, "flow path longer than MAX_PATH");
        let mut links = [LinkId(0); MAX_PATH];
        links[..path.len()].copy_from_slice(path);
        FlowPath {
            links,
            len: path.len() as u8,
        }
    }

    /// The path's links, in order.
    pub(crate) fn links(&self) -> &[LinkId] {
        &self.links[..usize::from(self.len)]
    }
}

#[derive(Debug)]
struct Flow {
    id: FlowId,
    /// Opaque caller cookie reported back at completion/cancellation;
    /// the driver stores its callback-slab key here so completions need
    /// no hash lookup.
    tag: u64,
    remaining: f64,
    rate: f64,
    path: FlowPath,
    /// A stalled flow makes no progress and occupies no capacity until
    /// unfrozen (gray-failure injection: a transfer that stops moving).
    stalled: bool,
    /// Re-rate scratch: the flow belongs to a component being filled.
    /// Set and cleared within one re-rate.
    in_comp: bool,
}

impl Flow {
    fn path(&self) -> &[LinkId] {
        self.path.links()
    }
}

/// The fluid-flow network.
///
/// # Examples
///
/// ```
/// use simcore::flow::FlowNet;
/// use simcore::time::SimTime;
///
/// let mut net = FlowNet::new();
/// let link = net.add_link(1e9); // 1 GB/s
/// let f = net.add_flow(1e9, &[link]);
/// let t = net.next_completion_time(SimTime::ZERO).unwrap();
/// assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
/// net.advance(t);
/// assert_eq!(net.take_completed(), vec![f]);
/// ```
#[derive(Debug, Default)]
pub struct FlowNet {
    links: Vec<Link>,
    flows: Vec<Flow>,
    completed: Vec<(FlowId, u64)>,
    next_flow_id: u64,
    last_advance: SimTime,
    /// Diagnostics escape hatch: route every re-rate through the
    /// from-scratch solver instead of the component-restricted one.
    force_full_rerate: bool,
    // --- reusable scratch (kept across calls to kill per-event allocs) ---
    /// Link indices seeding the next component search.
    seeds: Vec<usize>,
    /// Per-link "in a component being filled" marks; every entry is
    /// `false` between re-rates.
    link_mark: Vec<bool>,
    /// The links marked by the current re-rate, component by component.
    comp_links: Vec<usize>,
    /// The flows marked by the current re-rate, component by component;
    /// each component's flows in ascending index order.
    comp_flows: Vec<u32>,
    /// Water-filling state: per-link (written only for the component's
    /// links) and per component flow.
    residual: Vec<f64>,
    unfrozen_per_link: Vec<usize>,
    frozen: Vec<bool>,
    /// `link_loads_into` accumulators.
    loads_rate: Vec<f64>,
    loads_count: Vec<usize>,
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a link with `capacity` bytes/sec and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive"
        );
        self.links.push(Link {
            capacity,
            carried: 0.0,
        });
        self.link_mark.push(false);
        self.residual.push(0.0);
        self.unfrozen_per_link.push(0);
        LinkId(self.links.len() - 1)
    }

    /// Number of links in the network.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Total bytes carried by `link` so far.
    pub fn link_carried_bytes(&self, link: LinkId) -> f64 {
        self.links[link.0].carried
    }

    /// Capacity of `link` in bytes/sec.
    pub fn link_capacity(&self, link: LinkId) -> f64 {
        self.links[link.0].capacity
    }

    /// Changes `link`'s capacity mid-run (fault injection: bandwidth
    /// degradation or restoration) and recomputes all flow rates.
    ///
    /// The caller must have called [`FlowNet::advance`] to the current
    /// time first so in-flight progress is accounted at the old rates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not strictly positive and finite.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity: f64) {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "link capacity must be positive"
        );
        self.links[link.0].capacity = capacity;
        self.seeds.clear();
        self.seeds.push(link.0);
        self.rerate_from_seeds();
    }

    /// Forces every re-rate through the from-scratch solver (diagnostics
    /// and differential testing; the incremental path is the default).
    pub fn set_force_full_rerate(&mut self, on: bool) {
        self.force_full_rerate = on;
    }

    /// Removes an in-flight flow without completing it (fault injection:
    /// the transfer's endpoint died). Returns `false` when the flow is
    /// unknown or already complete. Remaining flows' rates are
    /// recomputed, so their shares can only grow.
    ///
    /// The caller must have called [`FlowNet::advance`] to the current
    /// time first.
    pub fn cancel_flow(&mut self, id: FlowId) -> bool {
        self.cancel_flow_tagged(id).is_some()
    }

    /// Like [`FlowNet::cancel_flow`], but returns the cancelled flow's
    /// tag (see [`FlowNet::add_flow_tagged`]) so the caller can release
    /// per-flow bookkeeping without a lookup. `None` when the flow is
    /// unknown or already complete.
    pub fn cancel_flow_tagged(&mut self, id: FlowId) -> Option<u64> {
        let pos = self.flows.iter().position(|f| f.id == id)?;
        let flow = self.flows.remove(pos);
        self.seeds.clear();
        self.seeds.extend(flow.path().iter().map(|l| l.0));
        self.rerate_from_seeds();
        Some(flow.tag)
    }

    /// Per-link aggregate load: `(link index, total rate in bytes/sec,
    /// flow count)` for every link crossed by at least one active flow.
    ///
    /// Rates reflect the current max-min-fair allocation, so the probe
    /// layer can publish bandwidth-share counter tracks after each
    /// rate-changing mutation.
    pub fn link_loads(&self) -> Vec<(usize, f64, usize)> {
        let mut rate = vec![0.0f64; self.links.len()];
        let mut count = vec![0usize; self.links.len()];
        for f in &self.flows {
            for l in f.path() {
                rate[l.0] += f.rate;
                count[l.0] += 1;
            }
        }
        (0..self.links.len())
            .filter(|&i| count[i] > 0)
            .map(|i| (i, rate[i], count[i]))
            .collect()
    }

    /// Allocation-free [`FlowNet::link_loads`]: clears `out` and fills it
    /// using internal scratch buffers (the probe hot path calls this
    /// after every rate change).
    pub fn link_loads_into(&mut self, out: &mut Vec<(usize, f64, usize)>) {
        out.clear();
        let n = self.links.len();
        self.loads_rate.clear();
        self.loads_rate.resize(n, 0.0);
        self.loads_count.clear();
        self.loads_count.resize(n, 0);
        for f in &self.flows {
            for l in f.path() {
                self.loads_rate[l.0] += f.rate;
                self.loads_count[l.0] += 1;
            }
        }
        for i in 0..n {
            if self.loads_count[i] > 0 {
                out.push((i, self.loads_rate[i], self.loads_count[i]));
            }
        }
    }

    /// Starts a flow of `bytes` across `path` and returns its id.
    ///
    /// A flow with no remaining bytes (or an empty path) completes at the
    /// next [`FlowNet::take_completed`] call without occupying capacity.
    ///
    /// The caller must have called [`FlowNet::advance`] to the current time
    /// first, so that other flows' progress is accounted before rates change.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is negative/non-finite, or `path` names an
    /// unknown link or is longer than [`MAX_PATH`].
    pub fn add_flow(&mut self, bytes: f64, path: &[LinkId]) -> FlowId {
        self.add_flow_tagged(bytes, path, NO_TAG)
    }

    /// Like [`FlowNet::add_flow`], with an opaque `tag` reported back by
    /// [`FlowNet::drain_completed_into`] and
    /// [`FlowNet::cancel_flow_tagged`]. Use [`NO_TAG`] for none.
    pub fn add_flow_tagged(&mut self, bytes: f64, path: &[LinkId], tag: u64) -> FlowId {
        assert!(bytes.is_finite() && bytes >= 0.0, "flow bytes invalid");
        let path = FlowPath::new(path);
        for l in path.links() {
            assert!(l.0 < self.links.len(), "unknown link in path");
        }
        let id = FlowId(self.next_flow_id);
        self.next_flow_id += 1;
        if bytes <= DONE_EPS || path.links().is_empty() {
            self.completed.push((id, tag));
            return id;
        }
        self.seeds.clear();
        self.seeds.extend(path.links().iter().map(|l| l.0));
        self.flows.push(Flow {
            id,
            tag,
            remaining: bytes,
            rate: 0.0,
            path,
            stalled: false,
            in_comp: false,
        });
        self.rerate_from_seeds();
        id
    }

    /// Freezes an in-flight flow: it stops making progress and releases
    /// its bandwidth share to other flows. Returns `false` when the flow
    /// is unknown, already complete, or already frozen.
    ///
    /// The caller must have called [`FlowNet::advance`] to the current
    /// time first.
    pub fn freeze_flow(&mut self, id: FlowId) -> bool {
        self.set_stalled(id, true)
    }

    /// Unfreezes a flow previously frozen with [`FlowNet::freeze_flow`],
    /// re-admitting it to the max-min-fair allocation. Returns `false`
    /// when the flow is unknown, complete, or not frozen.
    ///
    /// The caller must have called [`FlowNet::advance`] to the current
    /// time first.
    pub fn unfreeze_flow(&mut self, id: FlowId) -> bool {
        self.set_stalled(id, false)
    }

    /// Moves flow `id` into (or out of) the stalled state and re-rates;
    /// `false` when it is unknown or already there.
    fn set_stalled(&mut self, id: FlowId, stalled: bool) -> bool {
        let Some(f) = self.flows.iter_mut().find(|f| f.id == id) else {
            return false;
        };
        if f.stalled == stalled {
            return false;
        }
        f.stalled = stalled;
        self.seeds.clear();
        self.seeds.extend(f.path().iter().map(|l| l.0));
        self.rerate_from_seeds();
        true
    }

    /// Number of in-flight (incomplete) flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// The current max-min-fair rate of a flow, or `None` if not active.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.rate)
    }

    /// Remaining bytes of a flow, or `None` if not active.
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.iter().find(|f| f.id == id).map(|f| f.remaining)
    }

    /// Advances all flows to `now`, moving finished flows to the completed
    /// list and recomputing rates if any finished.
    ///
    /// # Panics
    ///
    /// Panics if `now` is before the last advance point.
    pub fn advance(&mut self, now: SimTime) {
        assert!(now >= self.last_advance, "time moved backwards");
        let dt = (now - self.last_advance).as_secs_f64();
        self.last_advance = now;
        if dt <= 0.0 || self.flows.is_empty() {
            return;
        }
        let mut finished = false;
        for f in &mut self.flows {
            let moved = (f.rate * dt).min(f.remaining);
            f.remaining -= moved;
            for l in f.path() {
                self.links[l.0].carried += moved;
            }
            finished |= f.remaining <= DONE_EPS;
        }
        if !finished {
            return;
        }
        self.seeds.clear();
        self.flows.retain(|f| {
            if f.remaining <= DONE_EPS {
                self.completed.push((f.id, f.tag));
                self.seeds.extend(f.path().iter().map(|l| l.0));
                false
            } else {
                true
            }
        });
        self.rerate_from_seeds();
    }

    /// Takes the list of flows that completed since the last call.
    pub fn take_completed(&mut self) -> Vec<FlowId> {
        self.completed.drain(..).map(|(id, _)| id).collect()
    }

    /// Drains `(flow id, tag)` pairs for every completion since the last
    /// drain into `out` (appending), without allocating.
    pub fn drain_completed_into(&mut self, out: &mut Vec<(FlowId, u64)>) {
        out.append(&mut self.completed);
    }

    /// The earliest future instant at which some active flow completes,
    /// assuming rates stay constant. `None` when no flow is active.
    pub fn next_completion_time(&self, now: SimTime) -> Option<SimTime> {
        debug_assert!(now >= self.last_advance);
        let already = (now - self.last_advance).as_secs_f64();
        let mut best: Option<f64> = None;
        for f in &self.flows {
            if f.rate <= 0.0 {
                continue;
            }
            let t = (f.remaining / f.rate - already).max(0.0);
            best = Some(match best {
                Some(b) => b.min(t),
                None => t,
            });
        }
        best.map(|secs| now + SimDur::from_secs_f64(secs))
    }

    /// Re-rates after a mutation whose directly touched links are in
    /// `self.seeds`: water-fills each connected component that holds a
    /// seed link, or falls back to the full solve.
    ///
    /// A component's rates depend on its own links and flows alone: no
    /// flow outside it crosses one of its links (that is what
    /// "component" means here), and components are filled one at a
    /// time, so the freezing tolerance never ties one component's share
    /// to another's. Re-filling only the touched components therefore
    /// leaves every rate where the full solve, which fills every
    /// component, puts it. Debug builds verify bit-equality against the
    /// full solver on every call.
    fn rerate_from_seeds(&mut self) {
        if self.force_full_rerate || self.flows.is_empty() {
            self.recompute_rates();
            return;
        }
        self.fill_seeded_components();
        #[cfg(debug_assertions)]
        self.assert_matches_full_solve();
    }

    /// Water-fills, one at a time, each connected component of links
    /// and flows that holds a link in `self.seeds`, then clears the
    /// marks it set.
    fn fill_seeded_components(&mut self) {
        for i in 0..self.seeds.len() {
            let seed = self.seeds[i];
            if self.link_mark[seed] {
                continue;
            }
            let (links_from, flows_from) = (self.comp_links.len(), self.comp_flows.len());
            self.collect_component(seed);
            if self.comp_flows.len() > flows_from {
                self.water_fill_component(links_from, flows_from);
            }
        }
        for &l in &self.comp_links {
            self.link_mark[l] = false;
        }
        for &fi in &self.comp_flows {
            self.flows[fi as usize].in_comp = false;
        }
        self.comp_links.clear();
        self.comp_flows.clear();
    }

    /// Marks the component holding the unmarked link `seed` and appends
    /// its links to `self.comp_links` and its flows, in ascending index
    /// order, to `self.comp_flows`. Each sweep over the flow list adds
    /// every unmarked flow that crosses a marked link; the component is
    /// complete after a sweep that marks no new link.
    fn collect_component(&mut self, seed: usize) {
        let flows_from = self.comp_flows.len();
        let mut links_seen = self.comp_links.len();
        self.link_mark[seed] = true;
        self.comp_links.push(seed);
        while links_seen < self.comp_links.len() {
            links_seen = self.comp_links.len();
            for (fi, f) in self.flows.iter_mut().enumerate() {
                if f.in_comp || !f.path().iter().any(|l| self.link_mark[l.0]) {
                    continue;
                }
                f.in_comp = true;
                self.comp_flows.push(fi as u32);
                for l in f.path() {
                    if !self.link_mark[l.0] {
                        self.link_mark[l.0] = true;
                        self.comp_links.push(l.0);
                    }
                }
            }
        }
        // Freezing order inside a round is flow-index order; keep it.
        self.comp_flows[flows_from..].sort_unstable();
    }

    /// Progressive water-filling restricted to the component whose links
    /// are `comp_links[links_from..]` and whose flows are
    /// `comp_flows[flows_from..]`.
    fn water_fill_component(&mut self, links_from: usize, flows_from: usize) {
        let (links, comp) = (
            &self.comp_links[links_from..],
            &self.comp_flows[flows_from..],
        );
        for &l in links {
            self.residual[l] = self.links[l].capacity;
            self.unfrozen_per_link[l] = 0;
        }
        self.frozen.clear();
        let mut remaining_flows = 0usize;
        for &fi in comp {
            let f = &mut self.flows[fi as usize];
            f.rate = 0.0;
            self.frozen.push(f.stalled);
            if f.stalled {
                continue;
            }
            remaining_flows += 1;
            for l in f.path() {
                self.unfrozen_per_link[l.0] += 1;
            }
        }
        while remaining_flows > 0 {
            let mut share = f64::INFINITY;
            for &l in links {
                if self.unfrozen_per_link[l] > 0 {
                    share = share.min(self.residual[l] / self.unfrozen_per_link[l] as f64);
                }
            }
            if !share.is_finite() {
                break;
            }
            let mut froze_any = false;
            for (ci, &fi) in comp.iter().enumerate() {
                if self.frozen[ci] {
                    continue;
                }
                let f = &mut self.flows[fi as usize];
                let (residual, unfrozen) = (&mut self.residual, &mut self.unfrozen_per_link);
                let is_bottlenecked = f.path().iter().any(|l| {
                    unfrozen[l.0] > 0
                        && (residual[l.0] / unfrozen[l.0] as f64) <= share * (1.0 + 1e-12)
                });
                if is_bottlenecked {
                    self.frozen[ci] = true;
                    froze_any = true;
                    remaining_flows -= 1;
                    f.rate = share;
                    for l in f.path() {
                        residual[l.0] = (residual[l.0] - share).max(0.0);
                        unfrozen[l.0] -= 1;
                    }
                }
            }
            if !froze_any {
                // Numerical safety valve: freeze everything at `share`.
                for (ci, &fi) in comp.iter().enumerate() {
                    if !self.frozen[ci] {
                        self.frozen[ci] = true;
                        remaining_flows -= 1;
                        self.flows[fi as usize].rate = share;
                    }
                }
            }
        }
    }

    /// Debug-build differential check: the incremental solve must leave
    /// every flow at the exact rate the from-scratch solver produces.
    #[cfg(debug_assertions)]
    fn assert_matches_full_solve(&mut self) {
        let incremental: Vec<(FlowId, f64)> = self.flows.iter().map(|f| (f.id, f.rate)).collect();
        self.recompute_rates();
        for (f, &(id, inc)) in self.flows.iter().zip(incremental.iter()) {
            assert!(
                f.rate.to_bits() == inc.to_bits(),
                "incremental re-rate diverged from full solve for flow {:?}: \
                 incremental {inc:e} vs full {:e}",
                id,
                f.rate,
            );
        }
    }

    /// Recomputes every flow's max-min-fair rate from scratch (see
    /// [`FlowNet::rerate_from_seeds`] for the incremental entry point):
    /// every link a flow crosses seeds the fill, so each component is
    /// filled on its own.
    fn recompute_rates(&mut self) {
        let (flows, seeds) = (&self.flows, &mut self.seeds);
        seeds.clear();
        for f in flows {
            seeds.extend(f.path().iter().map(|l| l.0));
        }
        self.fill_seeded_components();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_nanos((secs * 1e9) as u64)
    }

    /// The re-rate the component sweep replaced, kept as the reference
    /// the fast path must match bit for bit: a link → flows adjacency
    /// rebuilt on every call, a BFS per component, and water-filling
    /// state reset over every link and flow.
    mod reference {
        use super::super::{Flow, Link};

        /// Every flow's max-min-fair rate, in flow order: each connected
        /// component is filled on its own, in the order its first link
        /// appears in the flows' paths.
        pub fn rates(links: &[Link], flows: &[Flow]) -> Vec<f64> {
            let (nl, nf) = (links.len(), flows.len());
            let mut rate = vec![0.0f64; nf];
            let mut adj = vec![Vec::new(); nl];
            for (fi, f) in flows.iter().enumerate() {
                for l in f.path() {
                    adj[l.0].push(fi);
                }
            }
            let mut link_mark = vec![false; nl];
            let mut in_comp = vec![false; nf];
            for seed in flows.iter().flat_map(|f| f.path().iter().map(|l| l.0)) {
                if link_mark[seed] {
                    continue;
                }
                let mut comp = Vec::new();
                link_mark[seed] = true;
                let mut bfs = vec![seed];
                while let Some(l) = bfs.pop() {
                    for &fi in &adj[l] {
                        if in_comp[fi] {
                            continue;
                        }
                        in_comp[fi] = true;
                        comp.push(fi);
                        for pl in flows[fi].path() {
                            if !link_mark[pl.0] {
                                link_mark[pl.0] = true;
                                bfs.push(pl.0);
                            }
                        }
                    }
                }
                comp.sort_unstable();
                let mut residual = vec![0.0f64; nl];
                for l in 0..nl {
                    if link_mark[l] {
                        residual[l] = links[l].capacity;
                    }
                }
                let mut unfrozen = vec![0usize; nl];
                let mut frozen = vec![false; nf];
                let mut remaining = 0usize;
                for &fi in &comp {
                    rate[fi] = 0.0;
                    frozen[fi] = flows[fi].stalled;
                    if flows[fi].stalled {
                        continue;
                    }
                    remaining += 1;
                    for l in flows[fi].path() {
                        unfrozen[l.0] += 1;
                    }
                }
                while remaining > 0 {
                    let mut share = f64::INFINITY;
                    for i in 0..nl {
                        if unfrozen[i] > 0 {
                            share = share.min(residual[i] / unfrozen[i] as f64);
                        }
                    }
                    if !share.is_finite() {
                        break;
                    }
                    let mut froze_any = false;
                    for &fi in &comp {
                        if frozen[fi] {
                            continue;
                        }
                        let is_bottlenecked = flows[fi].path().iter().any(|l| {
                            unfrozen[l.0] > 0
                                && (residual[l.0] / unfrozen[l.0] as f64) <= share * (1.0 + 1e-12)
                        });
                        if is_bottlenecked {
                            frozen[fi] = true;
                            froze_any = true;
                            remaining -= 1;
                            rate[fi] = share;
                            for l in flows[fi].path() {
                                residual[l.0] = (residual[l.0] - share).max(0.0);
                                unfrozen[l.0] -= 1;
                            }
                        }
                    }
                    if !froze_any {
                        for &fi in &comp {
                            if !frozen[fi] {
                                frozen[fi] = true;
                                remaining -= 1;
                                rate[fi] = share;
                            }
                        }
                    }
                }
            }
            rate
        }
    }

    /// One step of a random mutation history. Selectors are reduced
    /// modulo the live population (or the link count) when applied.
    #[derive(Debug, Clone)]
    enum Op {
        /// Start a flow of `bytes` over link selectors; a path may name
        /// a link more than once.
        Add(f64, Vec<usize>),
        Cancel(usize),
        Freeze(usize),
        Unfreeze(usize),
        SetCap(usize, f64),
        Advance(u64),
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (
                1.0f64..100_000.0,
                prop::collection::vec(0usize..8, 1..=MAX_PATH)
            )
                .prop_map(|(b, p)| Op::Add(b, p)),
            (1.0f64..100_000.0, 0usize..8).prop_map(|(b, l)| Op::Add(b, vec![l])),
            (0usize..64).prop_map(Op::Cancel),
            (0usize..64).prop_map(Op::Freeze),
            (0usize..64).prop_map(Op::Unfreeze),
            (0usize..8, 0.5f64..2000.0).prop_map(|(l, c)| Op::SetCap(l, c)),
            (1u64..500_000_000).prop_map(Op::Advance),
        ]
    }

    proptest! {
        /// After every operation, every flow's rate equals the replaced
        /// adjacency-and-BFS water-fill's, bit for bit.
        #[test]
        fn every_rate_matches_the_reference_water_fill(
            caps in prop::collection::vec(1.0f64..1000.0, 1..6),
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut net = FlowNet::new();
            let links: Vec<LinkId> = caps.iter().map(|&c| net.add_link(c)).collect();
            let mut live: Vec<FlowId> = Vec::new();
            let mut now = SimTime::ZERO;
            for (step, op) in ops.iter().enumerate() {
                match op {
                    Op::Add(bytes, sel) => {
                        let path: Vec<LinkId> =
                            sel.iter().map(|&i| links[i % links.len()]).collect();
                        live.push(net.add_flow(*bytes, &path));
                    }
                    Op::Cancel(sel) if !live.is_empty() => {
                        net.cancel_flow(live.remove(sel % live.len()));
                    }
                    Op::Freeze(sel) if !live.is_empty() => {
                        net.freeze_flow(live[sel % live.len()]);
                    }
                    Op::Unfreeze(sel) if !live.is_empty() => {
                        net.unfreeze_flow(live[sel % live.len()]);
                    }
                    Op::SetCap(sel, cap) => net.set_link_capacity(links[sel % links.len()], *cap),
                    Op::Advance(dt) => {
                        now += SimDur::from_nanos(*dt);
                        net.advance(now);
                    }
                    _ => {}
                }
                let done = net.take_completed();
                live.retain(|id| !done.contains(id));
                let want = reference::rates(&net.links, &net.flows);
                for (f, want) in net.flows.iter().zip(want) {
                    prop_assert_eq!(
                        f.rate.to_bits(),
                        want.to_bits(),
                        "rate of {:?} after step {} ({:?}): {} vs reference {}",
                        f.id, step, op, f.rate, want
                    );
                }
            }
        }
    }

    #[test]
    fn a_path_naming_a_link_twice_counts_against_it_twice() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let m = net.add_link(100.0);
        let f = net.add_flow(100.0, &[l, m, l]);
        assert_eq!(net.flow_rate(f), Some(5.0));
        assert_eq!(reference::rates(&net.links, &net.flows), vec![5.0]);
    }

    /// Inside one round flows freeze in index order. `a` freezes first
    /// at `x`'s share of 100 and leaves `l` a residual just above 100,
    /// so `b` waits a round and takes all of it. Freezing `b` first
    /// would put it, within the 1e-12 tolerance of `l`'s share, at
    /// exactly 100.
    #[test]
    fn flows_freeze_in_index_order_within_a_round() {
        let mut net = FlowNet::new();
        let x = net.add_link(100.0);
        let l_cap = 200.0 * (1.0 + 0.8e-12);
        let l = net.add_link(l_cap);
        let a = net.add_flow(1e6, &[x, l]);
        let b = net.add_flow(1e6, &[l]);
        assert_eq!(net.flow_rate(a), Some(100.0));
        assert_eq!(net.flow_rate(b), Some(l_cap - 100.0));
        assert!(l_cap - 100.0 > 100.0);
        assert_eq!(
            reference::rates(&net.links, &net.flows),
            vec![100.0, l_cap - 100.0]
        );
    }

    #[test]
    fn separate_components_never_share_a_fair_share() {
        // Two one-link components whose fair shares differ by one ulp,
        // inside the freezing tolerance: each flow still runs at its own
        // link's share, on either solver.
        let above = f64::from_bits(100.0f64.to_bits() + 1);
        for force_full in [false, true] {
            let mut net = FlowNet::new();
            net.set_force_full_rerate(force_full);
            let a = net.add_link(100.0);
            let b = net.add_link(above);
            let fa = net.add_flow(1e3, &[a]);
            let fb = net.add_flow(1e3, &[b]);
            assert_eq!(net.flow_rate(fa), Some(100.0));
            assert_eq!(net.flow_rate(fb), Some(above));
        }
    }

    #[test]
    fn single_flow_saturates_link() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.add_flow(100.0, &[l]);
        assert_eq!(net.flow_rate(f), Some(10.0));
        let done = net.next_completion_time(SimTime::ZERO).unwrap();
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.add_flow(100.0, &[l]);
        let b = net.add_flow(50.0, &[l]);
        assert_eq!(net.flow_rate(a), Some(5.0));
        assert_eq!(net.flow_rate(b), Some(5.0));
        // b finishes at t=10; afterwards a gets the full link.
        net.advance(t(10.0));
        assert_eq!(net.take_completed(), vec![b]);
        assert_eq!(net.flow_rate(a), Some(10.0));
        let done = net.next_completion_time(t(10.0)).unwrap();
        assert!((done.as_secs_f64() - 15.0).abs() < 1e-6);
    }

    #[test]
    fn bottleneck_spare_capacity_goes_to_unconstrained_flow() {
        // Flow A crosses links L0(10) and L1(4); flow B crosses only L1.
        // Max-min: both bottlenecked on L1 at 2.0... then A cannot use more
        // of L0. Classic water-filling: A=2, B=2.
        let mut net = FlowNet::new();
        let l0 = net.add_link(10.0);
        let l1 = net.add_link(4.0);
        let a = net.add_flow(100.0, &[l0, l1]);
        let b = net.add_flow(100.0, &[l1]);
        assert!((net.flow_rate(a).unwrap() - 2.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn asymmetric_bottlenecks_water_fill() {
        // L0 cap 2 carries A; L1 cap 10 carries A and B.
        // A is frozen at 2 by L0, B then gets 8 on L1.
        let mut net = FlowNet::new();
        let l0 = net.add_link(2.0);
        let l1 = net.add_link(10.0);
        let a = net.add_flow(100.0, &[l0, l1]);
        let b = net.add_flow(100.0, &[l1]);
        assert!((net.flow_rate(a).unwrap() - 2.0).abs() < 1e-9);
        assert!((net.flow_rate(b).unwrap() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.add_flow(0.0, &[l]);
        assert_eq!(net.take_completed(), vec![f]);
        assert_eq!(net.active_flows(), 0);
    }

    #[test]
    fn carried_bytes_accumulate() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        net.add_flow(50.0, &[l]);
        net.advance(t(2.0));
        assert!((net.link_carried_bytes(l) - 20.0).abs() < 1e-6);
        net.advance(t(5.0));
        assert!((net.link_carried_bytes(l) - 50.0).abs() < 1e-3);
    }

    #[test]
    #[should_panic(expected = "link capacity")]
    fn rejects_zero_capacity() {
        FlowNet::new().add_link(0.0);
    }

    #[test]
    fn capacity_change_rescales_rates_mid_run() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let f = net.add_flow(100.0, &[l]);
        net.advance(t(2.0)); // 20 bytes moved, 80 left.
        net.set_link_capacity(l, 5.0);
        assert_eq!(net.flow_rate(f), Some(5.0));
        let done = net.next_completion_time(t(2.0)).unwrap();
        // 80 bytes at 5 B/s from t=2.
        assert!((done.as_secs_f64() - 18.0).abs() < 1e-6);
        net.set_link_capacity(l, 20.0);
        let done = net.next_completion_time(t(2.0)).unwrap();
        assert!((done.as_secs_f64() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn frozen_flow_stalls_and_releases_its_share() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.add_flow(100.0, &[l]);
        let b = net.add_flow(100.0, &[l]);
        assert_eq!(net.flow_rate(a), Some(5.0));
        assert!(net.freeze_flow(a));
        assert!(!net.freeze_flow(a), "double freeze is a no-op");
        // The stalled flow moves nothing; the other takes the full link.
        assert_eq!(net.flow_rate(a), Some(0.0));
        assert_eq!(net.flow_rate(b), Some(10.0));
        net.advance(t(10.0));
        assert!((net.flow_remaining(a).unwrap() - 100.0).abs() < 1e-9);
        // No completion can be scheduled off a stalled-only network.
        assert_eq!(net.take_completed(), vec![b]);
        assert_eq!(net.next_completion_time(t(10.0)), None);
        assert!(net.unfreeze_flow(a));
        assert_eq!(net.flow_rate(a), Some(10.0));
        let done = net.next_completion_time(t(10.0)).unwrap();
        assert!((done.as_secs_f64() - 20.0).abs() < 1e-6);
    }

    #[test]
    fn unfreeze_of_unknown_flow_is_a_no_op() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.add_flow(10.0, &[l]);
        assert!(!net.unfreeze_flow(a), "flow was never frozen");
        assert!(!net.freeze_flow(FlowId(999)));
    }

    #[test]
    fn cancelled_flow_frees_its_share() {
        let mut net = FlowNet::new();
        let l = net.add_link(10.0);
        let a = net.add_flow(100.0, &[l]);
        let b = net.add_flow(100.0, &[l]);
        assert_eq!(net.flow_rate(a), Some(5.0));
        assert!(net.cancel_flow(b));
        assert!(!net.cancel_flow(b), "double cancel is a no-op");
        assert_eq!(net.flow_rate(a), Some(10.0));
        assert_eq!(net.flow_rate(b), None);
        // A cancelled flow never reports completion.
        net.advance(t(60.0));
        assert_eq!(net.take_completed(), vec![a]);
    }
}
