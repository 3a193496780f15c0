//! GPU selection for parallel transmission (paper §4.3.3).
//!
//! The planner must pick secondary GPUs that (1) sit behind *different*
//! PCIe switches than the primary and each other, so their host pulls do
//! not contend, and (2) are NVLink-connected to the primary, so partitions
//! can be merged without crossing PCIe again. On a p3.8xlarge this yields
//! groups of at most two GPUs, matching the paper ("DeepPlan guides us to
//! use up to two GPUs out of four").

use crate::machine::{Machine, TopologyError};

/// Chooses the parallel-transmission group for a given primary GPU.
///
/// Returns `[primary, secondaries...]`. Secondaries are chosen greedily,
/// one per PCIe switch other than switches already used, lowest index
/// first, and must be NVLink-connected to the primary. `max_gpus` caps the
/// group size (including the primary); pass `usize::MAX` for "as many as
/// the topology allows".
///
/// A group of size 1 means parallel transmission is not beneficial (or not
/// possible) from this primary. This is [`pt_group_masked`] with every
/// GPU up.
///
/// # Errors
///
/// Returns [`TopologyError::UnknownGpu`] if `primary` is out of range.
pub fn pt_group(
    machine: &Machine,
    primary: usize,
    max_gpus: usize,
) -> Result<Vec<usize>, TopologyError> {
    pt_group_masked(machine, primary, max_gpus, &[])
}

/// [`pt_group`] restricted to the GPUs marked `true` in `up`.
///
/// Used when replanning against a degraded topology: down GPUs can be
/// neither primaries nor secondaries. Indices beyond `up.len()` are
/// treated as up, so an empty mask is a fully healthy machine.
///
/// # Errors
///
/// Returns [`TopologyError::UnknownGpu`] if `primary` is out of range.
/// A down `primary` yields a group of just itself (callers should not
/// plan from dead primaries in the first place).
pub fn pt_group_masked(
    machine: &Machine,
    primary: usize,
    max_gpus: usize,
    up: &[bool],
) -> Result<Vec<usize>, TopologyError> {
    if primary >= machine.gpu_count() {
        return Err(TopologyError::UnknownGpu(primary));
    }
    let is_up = |g: usize| up.get(g).copied().unwrap_or(true);
    let mut group = vec![primary];
    if !is_up(primary) {
        return Ok(group);
    }
    let mut used_switches = vec![machine.switch_of(primary)];
    for g in 0..machine.gpu_count() {
        if group.len() >= max_gpus {
            break;
        }
        if g == primary || !is_up(g) || used_switches.contains(&machine.switch_of(g)) {
            continue;
        }
        if !machine.nvlinked(primary, g) {
            continue;
        }
        used_switches.push(machine.switch_of(g));
        group.push(g);
    }
    Ok(group)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets::{a5000_dual, dgx1_like, p3_8xlarge, single_v100};

    #[test]
    fn p3_gives_groups_of_two() {
        let m = p3_8xlarge();
        for primary in 0..4 {
            let g = pt_group(&m, primary, usize::MAX).unwrap();
            assert_eq!(g.len(), 2, "primary {primary}");
            assert_eq!(g[0], primary);
            assert_ne!(m.switch_of(g[0]), m.switch_of(g[1]));
            assert!(m.nvlinked(g[0], g[1]));
        }
    }

    #[test]
    fn single_gpu_has_no_secondaries() {
        let m = single_v100();
        assert_eq!(pt_group(&m, 0, usize::MAX).unwrap(), vec![0]);
    }

    #[test]
    fn a5000_pairs_up() {
        let m = a5000_dual();
        assert_eq!(pt_group(&m, 0, usize::MAX).unwrap(), vec![0, 1]);
        assert_eq!(pt_group(&m, 1, usize::MAX).unwrap(), vec![1, 0]);
    }

    #[test]
    fn dgx1_respects_nvlink_and_switches() {
        let m = dgx1_like();
        let g = pt_group(&m, 0, usize::MAX).unwrap();
        // From GPU 0 (switch 0) the candidates on other switches that are
        // NVLink-adjacent are 2 or 3 (switch 1) and 4 (switch 2); GPU 6/7
        // (switch 3) are not adjacent to 0... 0-3 adjacency covers switch 1.
        assert!(g.len() >= 3, "group {g:?}");
        let mut switches: Vec<_> = g.iter().map(|&x| m.switch_of(x)).collect();
        switches.sort_unstable();
        switches.dedup();
        assert_eq!(switches.len(), g.len(), "one GPU per switch");
        for &s in &g[1..] {
            assert!(m.nvlinked(0, s));
        }
    }

    #[test]
    fn max_gpus_caps_group() {
        let m = dgx1_like();
        let g = pt_group(&m, 0, 2).unwrap();
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn unknown_primary_errors() {
        let m = single_v100();
        assert!(pt_group(&m, 9, 2).is_err());
    }

    #[test]
    fn masked_group_matches_unmasked_when_all_up() {
        let m = p3_8xlarge();
        for primary in 0..4 {
            let all_up = vec![true; 4];
            assert_eq!(
                pt_group_masked(&m, primary, usize::MAX, &all_up).unwrap(),
                pt_group(&m, primary, usize::MAX).unwrap()
            );
            // Empty mask means "everything up".
            assert_eq!(
                pt_group_masked(&m, primary, usize::MAX, &[]).unwrap(),
                pt_group(&m, primary, usize::MAX).unwrap()
            );
        }
    }

    #[test]
    fn masked_group_skips_down_secondaries() {
        let m = p3_8xlarge();
        // GPU 0's natural partner is 2 (switch 1); with 2 down, GPU 3
        // (also switch 1, NVLink all-to-all) takes its slot.
        let up = vec![true, true, false, true];
        assert_eq!(pt_group_masked(&m, 0, usize::MAX, &up).unwrap(), vec![0, 3]);
        // The whole other switch down collapses the group to the primary.
        let up = vec![true, true, false, false];
        assert_eq!(pt_group_masked(&m, 0, usize::MAX, &up).unwrap(), vec![0]);
    }

    #[test]
    fn masked_group_from_down_primary_is_singleton() {
        let m = p3_8xlarge();
        let up = vec![false, true, true, true];
        assert_eq!(pt_group_masked(&m, 0, usize::MAX, &up).unwrap(), vec![0]);
    }
}
