//! Property tests for machine topology and PT group selection.

use gpu_topology::device::{v100, NvLinkSpec};
use gpu_topology::machine::MachineBuilder;
use gpu_topology::netmap::NetMap;
use gpu_topology::select::pt_group;
use proptest::prelude::*;

/// Random machine: up to 4 switches, up to 8 GPUs, random NVLink pairs.
fn arb_machine() -> impl Strategy<Value = gpu_topology::machine::Machine> {
    (1usize..=4, 1usize..=8).prop_flat_map(|(switches, gpus)| {
        let assignments = prop::collection::vec(0..switches, gpus);
        let pairs = prop::collection::btree_set((0..gpus, 0..gpus), 0..12);
        (Just(switches), assignments, pairs).prop_map(|(switches, assign, pairs)| {
            let mut b = MachineBuilder::new("prop").switches(switches);
            for sw in assign {
                b = b.gpu(v100(), sw);
            }
            b = b.nvlink(NvLinkSpec::v100_nvlink2());
            for (x, y) in pairs {
                if x != y {
                    b = b.nvlink_pair(x, y);
                }
            }
            b.build().expect("constructed machines are valid")
        })
    })
}

proptest! {
    #[test]
    fn pt_groups_obey_the_paper_rules(m in arb_machine(), max in 1usize..6) {
        for primary in 0..m.gpu_count() {
            let g = pt_group(&m, primary, max).unwrap();
            prop_assert!(!g.is_empty() && g[0] == primary);
            prop_assert!(g.len() <= max.max(1));
            // One GPU per switch.
            let mut switches: Vec<_> = g.iter().map(|&x| m.switch_of(x)).collect();
            switches.sort_unstable();
            let before = switches.len();
            switches.dedup();
            prop_assert_eq!(before, switches.len(), "switch reused in {:?}", g);
            // Every secondary NVLink-connected to the primary.
            for &s in &g[1..] {
                prop_assert!(m.nvlinked(primary, s));
            }
        }
    }

    #[test]
    fn netmap_paths_stay_within_the_link_table(m in arb_machine()) {
        let (net, map) = NetMap::build(&m).unwrap();
        for g in 0..m.gpu_count() {
            for link in map.host_path(&m, g) {
                prop_assert!(link.0 < net.link_count());
            }
        }
        for a in 0..m.gpu_count() {
            for b in 0..m.gpu_count() {
                let link = map.nvlink_between(&m, a, b);
                prop_assert_eq!(link.is_some(), m.nvlinked(a, b));
            }
        }
    }

    #[test]
    fn uplink_sharing_never_exceeds_capacity(m in arb_machine()) {
        let (mut net, map) = NetMap::build(&m).unwrap();
        // Start one host flow per GPU; per-switch rate sums must respect
        // the uplink.
        let flows: Vec<_> = (0..m.gpu_count())
            .map(|g| (g, net.add_flow(1e12, &map.host_path(&m, g))))
            .collect();
        for sw in 0..m.switch_count {
            let uplink_cap = net.link_capacity(map.switch_uplink[sw]);
            let sum: f64 = flows
                .iter()
                .filter(|(g, _)| m.switch_of(*g) == sw)
                .filter_map(|(_, f)| net.flow_rate(*f))
                .sum();
            prop_assert!(sum <= uplink_cap * (1.0 + 1e-9));
        }
    }
}
