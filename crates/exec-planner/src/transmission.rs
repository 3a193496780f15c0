//! Parallel-transmission planning (paper §4.3.3).
//!
//! Decides how many GPUs a plan may use for transmission and overrides
//! decisions for later partitions: DHA only helps the *first* partition
//! (its loads gate early execution); every layer in partitions ≥ 1 is
//! loaded — its transfer is hidden behind the first partition's PCIe copy
//! and the NVLink forward (Figure 9).

use gpu_topology::machine::Machine;
use gpu_topology::select::pt_group_masked;

use crate::partition::partition_by_bytes;
use crate::plan::LayerExec;

/// Result of transmission planning.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// Final per-layer decisions (later partitions forced to `Load`).
    pub decisions: Vec<LayerExec>,
    /// Load-layer indices per transmission slot (slot 0 = primary).
    pub partitions: Vec<Vec<usize>>,
    /// Number of GPUs the plan uses (= `partitions.len()`).
    pub gpu_slots: usize,
}

/// `true` if the mask marks GPU `g` as up (indices beyond the mask are
/// treated as up, so an empty mask means a fully healthy machine).
pub(crate) fn is_up(up: &[bool], g: usize) -> bool {
    up.get(g).copied().unwrap_or(true)
}

/// Topology probe: the widest parallel-transmission group available
/// from any GPU the mask `up` marks as up. The actual GPU ids are picked
/// at dispatch time; planning only needs the group *size* (paper: "we do
/// not statically assign the GPU").
pub(crate) fn pt_slots(machine: &Machine, max_gpus: usize, up: &[bool]) -> usize {
    (0..machine.gpu_count())
        .filter(|&g| is_up(up, g))
        .map(|p| pt_group_masked(machine, p, max_gpus, up).map_or(1, |g| g.len()))
        .max()
        .unwrap_or(1)
}

/// Plans the transmission for a model with per-layer `param_bytes` and
/// tentative `decisions` (from Algorithm 1 or all-`Load`) over a
/// transmission group of `slots` GPUs, the size the planner probed from
/// the topology. With one slot (single GPU, no NVLink, all GPUs on one
/// switch, or a mode without PT) the result is a single partition and
/// the decisions pass through unchanged.
pub fn plan_transmission(
    param_bytes: &[u64],
    decisions: &[LayerExec],
    slots: usize,
) -> Transmission {
    assert_eq!(param_bytes.len(), decisions.len());
    if slots <= 1 {
        let loads: Vec<usize> = (0..decisions.len())
            .filter(|&i| decisions[i] == LayerExec::Load && param_bytes[i] > 0)
            .collect();
        return Transmission {
            decisions: decisions.to_vec(),
            partitions: vec![loads],
            gpu_slots: 1,
        };
    }

    // Partition *all* parameter layers evenly by bytes, then keep DHA
    // choices only inside partition 0.
    let groups = partition_by_bytes(param_bytes, slots);
    let mut final_decisions = decisions.to_vec();
    for (slot, group) in groups.iter().enumerate() {
        if slot == 0 {
            continue;
        }
        for &i in group {
            final_decisions[i] = LayerExec::Load;
        }
    }
    let partitions: Vec<Vec<usize>> = groups
        .iter()
        .map(|g| {
            g.iter()
                .copied()
                .filter(|&i| final_decisions[i] == LayerExec::Load)
                .collect()
        })
        .collect();
    Transmission {
        decisions: final_decisions,
        partitions,
        gpu_slots: slots,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_topology::presets::{a5000_dual, p3_8xlarge, single_v100};

    #[test]
    fn p3_plans_two_slots() {
        let bytes = vec![100u64; 10];
        let decisions = vec![LayerExec::Load; 10];
        let t = plan_transmission(&bytes, &decisions, pt_slots(&p3_8xlarge(), usize::MAX, &[]));
        assert_eq!(t.gpu_slots, 2);
        assert_eq!(t.partitions.len(), 2);
        assert_eq!(t.partitions[0].len() + t.partitions[1].len(), 10);
    }

    #[test]
    fn single_gpu_passes_through() {
        let bytes = vec![100u64, 0, 100];
        let decisions = vec![LayerExec::Dha, LayerExec::Dha, LayerExec::Load];
        let t = plan_transmission(
            &bytes,
            &decisions,
            pt_slots(&single_v100(), usize::MAX, &[]),
        );
        assert_eq!(t.gpu_slots, 1);
        assert_eq!(t.decisions, decisions);
        assert_eq!(t.partitions, vec![vec![2]]);
    }

    #[test]
    fn later_partitions_forced_to_load() {
        // All layers tentatively DHA; second-half ones must flip to Load.
        let bytes = vec![100u64; 8];
        let decisions = vec![LayerExec::Dha; 8];
        let t = plan_transmission(&bytes, &decisions, pt_slots(&a5000_dual(), usize::MAX, &[]));
        assert_eq!(t.gpu_slots, 2);
        // Partition 0 keeps DHA (so partition 0's load list is empty).
        assert!(t.partitions[0].is_empty());
        assert!(!t.partitions[1].is_empty());
        for &i in &t.partitions[1] {
            assert_eq!(t.decisions[i], LayerExec::Load);
        }
    }

    #[test]
    fn first_partition_keeps_dha_choices() {
        let bytes = vec![100u64; 8];
        let mut decisions = vec![LayerExec::Load; 8];
        decisions[0] = LayerExec::Dha;
        let t = plan_transmission(&bytes, &decisions, pt_slots(&p3_8xlarge(), usize::MAX, &[]));
        assert_eq!(t.decisions[0], LayerExec::Dha);
        assert!(!t.partitions[0].contains(&0));
    }

    #[test]
    fn max_gpus_caps_slots() {
        let bytes = vec![100u64; 8];
        let decisions = vec![LayerExec::Load; 8];
        let t = plan_transmission(&bytes, &decisions, pt_slots(&p3_8xlarge(), 1, &[]));
        assert_eq!(t.gpu_slots, 1);
    }
}
