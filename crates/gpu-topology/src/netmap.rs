//! Materialising a [`Machine`] as a fluid-flow link graph.
//!
//! Link layout per machine:
//!
//! * one *switch uplink* per PCIe switch (host ⇄ switch), capacity = one
//!   x16 link — this is where same-switch GPUs contend;
//! * one *downstream PCIe link* per GPU (switch ⇄ GPU);
//! * one *NVLink* per connected GPU pair.
//!
//! A host→GPU transfer crosses `[uplink(switch(g)), pcie(g)]`
//! ([`NetMap::host_path`]); a GPU→GPU NVLink transfer crosses the single
//! pair link ([`NetMap::nvlink_between`]).

use simcore::fault::LinkRef;
use simcore::flow::{FlowNet, LinkId};

use crate::machine::{Machine, TopologyError};

/// Mapping from topology elements to [`LinkId`]s in a built [`FlowNet`].
#[derive(Debug, Clone)]
pub struct NetMap {
    /// Per-GPU downstream PCIe link.
    pub gpu_pcie: Vec<LinkId>,
    /// Per-switch host uplink.
    pub switch_uplink: Vec<LinkId>,
    /// NVLink per unordered GPU pair `(a, b)`, `a < b`.
    pub nvlink: Vec<((usize, usize), LinkId)>,
}

impl NetMap {
    /// Builds the flow network for `machine` and the id mapping.
    ///
    /// # Errors
    ///
    /// Returns the machine's own validation error if it is inconsistent.
    pub fn build(machine: &Machine) -> Result<(FlowNet, NetMap), TopologyError> {
        machine.validate()?;
        let mut net = FlowNet::new();
        // Uplink capacity: a switch multiplexes but does not add lanes.
        // Measured PLX switches deliver slightly more than one downstream
        // link's worth when two transfers interleave (DMA bursts overlap
        // better at the uplink), so each uplink gets a small headroom —
        // calibrated against the paper's Table 2 (two same-switch GPUs
        // reach ~54–56 % of solo bandwidth each) and Table 4 (concurrent
        // PT+DHA still beats PipeSwitch).
        const UPLINK_HEADROOM: f64 = 1.12;
        let mut switch_uplink = Vec::with_capacity(machine.switch_count);
        for sw in 0..machine.switch_count {
            let cap = machine
                .gpus_on_switch(sw)
                .iter()
                .map(|&g| machine.gpu(g).pcie.bandwidth)
                .fold(0.0_f64, f64::max)
                .max(1.0); // Empty switches get a placeholder 1 B/s link.
            switch_uplink.push(net.add_link(cap * UPLINK_HEADROOM));
        }
        let gpu_pcie = machine
            .gpus
            .iter()
            .map(|slot| net.add_link(slot.spec.pcie.bandwidth))
            .collect();
        let mut nvlink = Vec::new();
        if let Some(spec) = machine.nvlink {
            for &(a, b) in &machine.nvlink_pairs {
                nvlink.push(((a, b), net.add_link(spec.bandwidth)));
            }
        }
        Ok((
            net,
            NetMap {
                gpu_pcie,
                switch_uplink,
                nvlink,
            },
        ))
    }

    /// Human-readable name per link index, for trace exporters' counter
    /// tracks. Indexed by `LinkId.0`.
    pub fn link_names(&self) -> Vec<String> {
        let count = self.switch_uplink.len() + self.gpu_pcie.len() + self.nvlink.len();
        let mut names = vec![String::new(); count];
        let mut set = |id: LinkId, name: String| {
            if id.0 < names.len() {
                names[id.0] = name;
            }
        };
        for (sw, &id) in self.switch_uplink.iter().enumerate() {
            set(id, format!("uplink sw{sw}"));
        }
        for (g, &id) in self.gpu_pcie.iter().enumerate() {
            set(id, format!("pcie gpu{g}"));
        }
        for &((a, b), id) in &self.nvlink {
            set(id, format!("nvlink {a}-{b}"));
        }
        names
    }

    /// The links a host→GPU transfer crosses: the GPU's switch uplink,
    /// then its own PCIe lane.
    pub fn host_path(&self, machine: &Machine, gpu: usize) -> [LinkId; 2] {
        [
            self.switch_uplink[machine.switch_of(gpu)],
            self.gpu_pcie[gpu],
        ]
    }

    /// Resolves a topology-level [`LinkRef`] from a fault spec to the
    /// concrete [`LinkId`] in the built network. Returns `None` for
    /// out-of-range or non-existent links (e.g. an NVLink pair this
    /// machine does not have).
    pub fn resolve_link(&self, link: &LinkRef) -> Option<LinkId> {
        match *link {
            LinkRef::Raw(i) => {
                let count = self.switch_uplink.len() + self.gpu_pcie.len() + self.nvlink.len();
                (i < count).then_some(LinkId(i))
            }
            LinkRef::PcieGpu(g) => self.gpu_pcie.get(g).copied(),
            LinkRef::Uplink(s) => self.switch_uplink.get(s).copied(),
            LinkRef::NvLink(a, b) => {
                let key = (a.min(b), a.max(b));
                self.nvlink.iter().find(|(k, _)| *k == key).map(|(_, l)| *l)
            }
        }
    }

    /// GPUs whose host→GPU path crosses `link`: the single GPU behind a
    /// downstream PCIe link, or every GPU behind a switch uplink. NVLinks
    /// carry no host traffic, so they map to no GPU. Failure detectors
    /// use this to pick a canary destination for a suspected link and to
    /// attribute a slow host transfer to the devices it affects.
    pub fn host_gpus_behind(&self, machine: &Machine, link: LinkId) -> Vec<usize> {
        if let Some(g) = self.gpu_pcie.iter().position(|&l| l == link) {
            return vec![g];
        }
        if let Some(sw) = self.switch_uplink.iter().position(|&l| l == link) {
            return machine.gpus_on_switch(sw);
        }
        Vec::new()
    }

    /// The NVLink a GPU→GPU transfer between `a` and `b` crosses (its
    /// whole path), or `None` when the pair is not NVLink-connected.
    pub fn nvlink_between(&self, machine: &Machine, a: usize, b: usize) -> Option<LinkId> {
        if !machine.nvlinked(a, b) {
            return None;
        }
        let key = (a.min(b), a.max(b));
        self.nvlink.iter().find(|(k, _)| *k == key).map(|(_, l)| *l)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{v100, NvLinkSpec};
    use crate::machine::MachineBuilder;
    use simcore::time::SimTime;

    fn machine() -> Machine {
        MachineBuilder::new("t")
            .switches(2)
            .gpu(v100(), 0)
            .gpu(v100(), 0)
            .gpu(v100(), 1)
            .gpu(v100(), 1)
            .nvlink(NvLinkSpec::v100_nvlink2())
            .nvlink_all_to_all()
            .build()
            .unwrap()
    }

    #[test]
    fn builds_expected_link_count() {
        let m = machine();
        let (net, map) = NetMap::build(&m).unwrap();
        // 2 uplinks + 4 GPU links + 6 NVLink pairs.
        assert_eq!(net.link_count(), 2 + 4 + 6);
        assert_eq!(map.gpu_pcie.len(), 4);
        assert_eq!(map.switch_uplink.len(), 2);
        assert_eq!(map.nvlink.len(), 6);
    }

    #[test]
    fn same_switch_gpus_share_uplink() {
        let m = machine();
        let (mut net, map) = NetMap::build(&m).unwrap();
        let f0 = net.add_flow(1e9, &map.host_path(&m, 0));
        let f1 = net.add_flow(1e9, &map.host_path(&m, 1));
        // Both behind switch 0: each gets half the 13.44 GB/s uplink
        // (56 % of the solo 12 GB/s — the Table 2 contention effect).
        assert!((net.flow_rate(f0).unwrap() - 6.72e9).abs() < 1e6);
        assert!((net.flow_rate(f1).unwrap() - 6.72e9).abs() < 1e6);
    }

    #[test]
    fn cross_switch_gpus_get_full_bandwidth() {
        let m = machine();
        let (mut net, map) = NetMap::build(&m).unwrap();
        let f0 = net.add_flow(1e9, &map.host_path(&m, 0));
        let f2 = net.add_flow(1e9, &map.host_path(&m, 2));
        assert!((net.flow_rate(f0).unwrap() - 12e9).abs() < 1.0);
        assert!((net.flow_rate(f2).unwrap() - 12e9).abs() < 1.0);
    }

    #[test]
    fn resolve_link_maps_refs_to_ids() {
        let m = machine();
        let (_net, map) = NetMap::build(&m).unwrap();
        assert_eq!(
            map.resolve_link(&LinkRef::Uplink(0)),
            Some(map.switch_uplink[0])
        );
        assert_eq!(
            map.resolve_link(&LinkRef::PcieGpu(3)),
            Some(map.gpu_pcie[3])
        );
        // NVLink lookup is order-insensitive.
        assert_eq!(
            map.resolve_link(&LinkRef::NvLink(2, 0)),
            map.resolve_link(&LinkRef::NvLink(0, 2))
        );
        assert!(map.resolve_link(&LinkRef::NvLink(1, 1)).is_none());
        assert!(map.resolve_link(&LinkRef::PcieGpu(9)).is_none());
        assert_eq!(map.resolve_link(&LinkRef::Raw(0)), Some(LinkId(0)));
        assert!(map.resolve_link(&LinkRef::Raw(99)).is_none());
    }

    #[test]
    fn host_gpus_behind_attributes_links_to_devices() {
        let m = machine();
        let (_net, map) = NetMap::build(&m).unwrap();
        assert_eq!(map.host_gpus_behind(&m, map.gpu_pcie[2]), vec![2]);
        assert_eq!(map.host_gpus_behind(&m, map.switch_uplink[0]), vec![0, 1]);
        let nv = map.nvlink[0].1;
        assert!(map.host_gpus_behind(&m, nv).is_empty());
    }

    #[test]
    fn nvlink_path_exists_only_for_linked_pairs() {
        let m = machine();
        let (_net, map) = NetMap::build(&m).unwrap();
        assert!(map.nvlink_between(&m, 0, 2).is_some());
        assert_eq!(map.nvlink_between(&m, 2, 0), map.nvlink_between(&m, 0, 2));
        assert!(map.nvlink_between(&m, 1, 1).is_none());
    }

    #[test]
    fn nvlink_does_not_contend_with_pcie() {
        let m = machine();
        let (mut net, map) = NetMap::build(&m).unwrap();
        let load = net.add_flow(1e9, &map.host_path(&m, 0));
        let fwd = net.add_flow(1e9, &[map.nvlink_between(&m, 2, 0).unwrap()]);
        assert!((net.flow_rate(load).unwrap() - 12e9).abs() < 1.0);
        assert!((net.flow_rate(fwd).unwrap() - 40e9).abs() < 1.0);
        net.advance(SimTime::from_nanos(1));
    }
}
