//! Replanning against a degraded topology.
//!
//! The recovery control plane re-invokes the planner when GPUs die or
//! host links lose capacity. Two things change relative to the healthy
//! [`crate::generate::generate`] path:
//!
//! * the parallel-transmission slot count is probed through a GPU
//!   health mask — dead GPUs can be neither primaries nor secondaries,
//!   so a dead switch collapses the group width;
//! * the stall/transmission cost model sees *degraded* host bandwidth:
//!   load, DHA-wire and DHA-execution times are stretched by the worst
//!   surviving GPU's host-link factor, which shifts Algorithm 1's
//!   load-vs-DHA trade-off (slower PCIe makes loads costlier to hide
//!   and DHA reads slower to serve, in the same proportion the fluid
//!   links will actually deliver).
//!
//! Parameter byte counts are untouched, so a degraded plan validates
//! against the *original* profile and executes on the unchanged
//! runtime.

use std::borrow::Cow;

use gpu_topology::machine::Machine;
use layer_profiler::profile::ModelProfile;

use crate::generate::{build_plan, PlanMode};
use crate::plan::ExecutionPlan;
use crate::transmission::{is_up, pt_slots};

/// Smallest usable host-link factor; matches
/// `gpu_topology::health::LinkHealth`'s floor so a fully-degraded link
/// cannot divide by zero.
const MIN_FACTOR: f64 = 0.01;

/// Stretches the time columns of `profile` by `1 / factor`; byte counts
/// stay untouched. At `factor == 1` the profile is borrowed as is, so a
/// healthy link plans from the exact bits and clones nothing.
fn scaled_profile(profile: &ModelProfile, factor: f64) -> Cow<'_, ModelProfile> {
    let k = 1.0 / factor.max(MIN_FACTOR);
    if k == 1.0 {
        return Cow::Borrowed(profile);
    }
    let mut scaled = profile.clone();
    for l in &mut scaled.layers {
        l.load = l.load.mul_f64(k);
        l.dha_wire = l.dha_wire.mul_f64(k);
        // Only the wire-bound surplus of DHA execution slows with the
        // link; the in-memory compute underneath it does not. Stretching
        // the whole of `exec_dha` would penalize DHA exactly as much as
        // the slow link penalizes loads, cancelling the very trade-off
        // the re-plan is meant to rebalance.
        let surplus = l.exec_dha.saturating_sub(l.exec_inmem);
        l.exec_dha = l.exec_inmem + surplus.mul_f64(k);
    }
    Cow::Owned(scaled)
}

/// Generates an execution plan for `profile` on a *degraded* `machine`.
///
/// `gpu_up[g]` marks GPU liveness and `host_factor[g]` the effective
/// host→GPU capacity factor (1.0 = healthy; min of the uplink and PCIe
/// factors). Either slice may be shorter than the GPU count — missing
/// entries default to healthy. With everything healthy this returns the
/// byte-identical output of [`crate::generate::generate`], so a
/// recovered topology rolls back to the original plan.
pub fn generate_degraded(
    profile: &ModelProfile,
    machine: &Machine,
    mode: PlanMode,
    max_gpus: usize,
    gpu_up: &[bool],
    host_factor: &[f64],
) -> ExecutionPlan {
    // Worst surviving host link governs the cost model: the dispatcher
    // may route to any up GPU, and a plan must not stall on the worst
    // of them.
    let factor = (0..machine.gpu_count())
        .filter(|&g| is_up(gpu_up, g))
        .map(|g| host_factor.get(g).copied().unwrap_or(1.0))
        .fold(1.0_f64, f64::min);
    // The widest group reachable from any *surviving* primary.
    build_plan(
        &scaled_profile(profile, factor),
        mode,
        pt_slots(machine, max_gpus, gpu_up),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate;
    use crate::validate::validate;
    use dnn_models::zoo::{build, ModelId};
    use gpu_topology::device::v100;
    use gpu_topology::presets::p3_8xlarge;
    use layer_profiler::profiler::Profiler;

    fn bert_profile() -> ModelProfile {
        let model = build(ModelId::BertBase);
        Profiler::exact(v100()).profile(&model, 1).0
    }

    #[test]
    fn healthy_mask_reproduces_the_original_plan() {
        let p = bert_profile();
        let m = p3_8xlarge();
        let original = generate(&p, &m, PlanMode::PtDha, 2);
        for (up, factors) in [
            (vec![true; 4], vec![1.0; 4]),
            (vec![], vec![]),
            (vec![true; 4], vec![]),
        ] {
            let d = generate_degraded(&p, &m, PlanMode::PtDha, 2, &up, &factors);
            assert_eq!(d, original);
        }
    }

    #[test]
    fn dead_switch_collapses_to_single_slot() {
        let p = bert_profile();
        let m = p3_8xlarge();
        // GPUs 2 and 3 (switch 1) down: no cross-switch partner remains.
        let up = vec![true, true, false, false];
        let plan = generate_degraded(&p, &m, PlanMode::PtDha, 2, &up, &[]);
        assert_eq!(plan.gpu_slots(), 1);
        validate(&plan, &p).expect("degraded plan must validate");
        // Healthy plan on p3 uses two slots.
        assert_eq!(generate(&p, &m, PlanMode::PtDha, 2).gpu_slots(), 2);
    }

    #[test]
    fn single_dead_gpu_keeps_two_slots_on_p3() {
        // NVLink is all-to-all on the p3: any surviving primary still
        // finds a cross-switch partner, so one death is a planner no-op
        // for the slot count.
        let p = bert_profile();
        let m = p3_8xlarge();
        let up = vec![true, false, true, true];
        let plan = generate_degraded(&p, &m, PlanMode::PtDha, 2, &up, &[]);
        assert_eq!(plan.gpu_slots(), 2);
        validate(&plan, &p).expect("degraded plan must validate");
    }

    #[test]
    fn degraded_links_shift_toward_more_dha() {
        // A 10x slower host path makes loads expensive; the planner
        // should keep at least as many bytes host-side as the healthy
        // plan does (DHA reads and loads slow down in proportion, but
        // loads gate the pipeline).
        let p = bert_profile();
        let m = p3_8xlarge();
        let bytes: Vec<u64> = p.layers.iter().map(|l| l.param_bytes).collect();
        let healthy = generate(&p, &m, PlanMode::Dha, 1);
        let slow = generate_degraded(&p, &m, PlanMode::Dha, 1, &[], &[0.1, 0.1, 0.1, 0.1]);
        validate(&slow, &p).expect("degraded plan must validate");
        assert!(slow.host_bytes(&bytes) >= healthy.host_bytes(&bytes));
    }

    #[test]
    fn degraded_plans_are_deterministic() {
        let p = bert_profile();
        let m = p3_8xlarge();
        let up = vec![true, true, true, false];
        let factors = vec![1.0, 0.5, 1.0, 1.0];
        let a = generate_degraded(&p, &m, PlanMode::PtDha, 2, &up, &factors);
        let b = generate_degraded(&p, &m, PlanMode::PtDha, 2, &up, &factors);
        assert_eq!(a, b);
    }
}
