//! The one-stop plan generator (paper Figure 10).

use gpu_topology::machine::Machine;
use layer_profiler::profile::ModelProfile;
use serde::{Deserialize, Serialize};

use crate::algorithm::plan_dha;
use crate::plan::{ExecutionPlan, LayerExec};
use crate::transmission::{plan_transmission, pt_slots};

/// The five execution options of the evaluation (§5.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanMode {
    /// Load the whole model, then execute (Figure 1b).
    Baseline,
    /// Per-layer pipelined load-then-execute (Figure 1c), the PipeSwitch
    /// baseline.
    PipeSwitch,
    /// DeepPlan with direct-host-access only (single GPU).
    Dha,
    /// DeepPlan with parallel transmission only.
    Pt,
    /// DeepPlan with both (Figure 1e + DHA on the first partition).
    PtDha,
}

impl PlanMode {
    /// Display label matching the paper's legends.
    pub fn label(self) -> &'static str {
        match self {
            PlanMode::Baseline => "Baseline",
            PlanMode::PipeSwitch => "PipeSwitch",
            PlanMode::Dha => "DeepPlan (DHA)",
            PlanMode::Pt => "DeepPlan (PT)",
            PlanMode::PtDha => "DeepPlan (PT+DHA)",
        }
    }

    /// All modes in reporting order.
    pub fn all() -> [PlanMode; 5] {
        [
            PlanMode::Baseline,
            PlanMode::PipeSwitch,
            PlanMode::Dha,
            PlanMode::Pt,
            PlanMode::PtDha,
        ]
    }
}

impl std::fmt::Display for PlanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Generates an execution plan for `profile` on `machine` under `mode`.
///
/// `max_gpus` caps the transmission group for the PT modes (the paper uses
/// 2 on p3.8xlarge); it is ignored by single-GPU modes.
pub fn generate(
    profile: &ModelProfile,
    machine: &Machine,
    mode: PlanMode,
    max_gpus: usize,
) -> ExecutionPlan {
    build_plan(profile, mode, pt_slots(machine, max_gpus, &[]))
}

/// The plan builder behind [`generate`] and
/// [`crate::degraded::generate_degraded`]. Algorithm 1 runs on
/// `profile`, the cost model's view of the layers (its byte counts are
/// the real ones); the PT modes split the loads over `pt_slots`
/// transmission slots and the other modes use one.
pub(crate) fn build_plan(profile: &ModelProfile, mode: PlanMode, pt_slots: usize) -> ExecutionPlan {
    let param_bytes: Vec<u64> = profile.layers.iter().map(|l| l.param_bytes).collect();
    let all_load: Vec<LayerExec> = profile
        .layers
        .iter()
        .map(|l| {
            if l.has_params() {
                LayerExec::Load
            } else {
                LayerExec::Dha
            }
        })
        .collect();

    let (decisions, pipelined, pt) = match mode {
        PlanMode::Baseline => (all_load, false, false),
        PlanMode::PipeSwitch => (all_load, true, false),
        PlanMode::Dha => (plan_dha(profile), true, false),
        PlanMode::Pt => (all_load, true, true),
        PlanMode::PtDha => (plan_dha(profile), true, true),
    };

    let t = plan_transmission(&param_bytes, &decisions, if pt { pt_slots } else { 1 });
    ExecutionPlan {
        model: profile.model.clone(),
        batch: profile.batch,
        pipelined,
        decisions: t.decisions,
        partitions: t.partitions,
        block_bytes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::zoo::{build, ModelId};
    use gpu_topology::device::v100;
    use gpu_topology::presets::{p3_8xlarge, single_v100};
    use layer_profiler::profiler::Profiler;

    fn bert_profile() -> ModelProfile {
        let model = build(ModelId::BertBase);
        Profiler::exact(v100()).profile(&model, 1).0
    }

    #[test]
    fn dha_plan_keeps_word_embedding_on_host() {
        let p = bert_profile();
        let plan = generate(&p, &single_v100(), PlanMode::Dha, 1);
        let idx = p.layers.iter().position(|l| l.name == "emb.word").unwrap();
        assert_eq!(plan.decisions[idx], LayerExec::Dha);
        assert_eq!(plan.gpu_slots(), 1);
    }

    #[test]
    fn pipeswitch_loads_everything() {
        let p = bert_profile();
        let plan = generate(&p, &single_v100(), PlanMode::PipeSwitch, 1);
        for (l, d) in p.layers.iter().zip(&plan.decisions) {
            if l.has_params() {
                assert_eq!(*d, LayerExec::Load, "{}", l.name);
            }
        }
        assert!(plan.pipelined);
    }

    #[test]
    fn baseline_is_not_pipelined() {
        let p = bert_profile();
        let plan = generate(&p, &single_v100(), PlanMode::Baseline, 1);
        assert!(!plan.pipelined);
    }

    #[test]
    fn pt_uses_two_slots_on_p3() {
        let p = bert_profile();
        let plan = generate(&p, &p3_8xlarge(), PlanMode::Pt, 2);
        assert_eq!(plan.gpu_slots(), 2);
        // PT without DHA loads every parameter layer.
        let loaded: usize = plan.partitions.iter().map(|p| p.len()).sum();
        let loadable = p.layers.iter().filter(|l| l.has_params()).count();
        assert_eq!(loaded, loadable);
    }

    #[test]
    fn ptdha_mixes_both() {
        let p = bert_profile();
        let plan = generate(&p, &p3_8xlarge(), PlanMode::PtDha, 2);
        assert_eq!(plan.gpu_slots(), 2);
        let param_bytes: Vec<u64> = p.layers.iter().map(|l| l.param_bytes).collect();
        // Some DHA bytes remain host-side, but partition 1 is fully loaded.
        assert!(plan.host_bytes(&param_bytes) > 0);
        assert!(!plan.partitions[1].is_empty());
    }

    #[test]
    fn mode_labels_match_paper() {
        assert_eq!(PlanMode::PtDha.label(), "DeepPlan (PT+DHA)");
        assert_eq!(PlanMode::all().len(), 5);
    }
}
