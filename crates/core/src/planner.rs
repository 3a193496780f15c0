//! The top-level DeepPlan tool (paper Figure 10).

use dnn_models::model::Model;
use dnn_models::zoo::{self, ModelId};
use exec_engine::runtime::ModelRuntime;
use exec_planner::generate::{generate, PlanMode};
use gpu_topology::machine::Machine;
use layer_profiler::profiler::Profiler;

use crate::bundle::PlanBundle;
use std::sync::Arc;

/// Maximum GPUs per parallel transmission (paper: 2 on p3.8xlarge).
const MAX_PT_GPUS: usize = 2;

/// Automatic inference-execution planner for a target machine.
///
/// Owns the one-time pipeline of Figure 10: profile the model's layers on
/// the machine's GPU class (①), run the layer execution planner (②),
/// apply topology-aware parallel-transmission planning (③), and hand back
/// a deployable [`PlanBundle`] (④).
#[derive(Clone)]
pub struct DeepPlan {
    machine: Machine,
    profiler_iterations: u32,
    exact_profile: bool,
}

impl DeepPlan {
    /// Creates a planner for `machine` with the paper's defaults
    /// (10 profiling iterations, PT capped at 2 GPUs).
    pub fn new(machine: Machine) -> Self {
        DeepPlan {
            machine,
            profiler_iterations: 10,
            exact_profile: false,
        }
    }

    /// Sets the profiling iteration count.
    pub fn with_profiler_iterations(mut self, n: u32) -> Self {
        self.profiler_iterations = n.max(1);
        self
    }

    /// Uses noise-free analytic profiles (deterministic planning).
    pub fn with_exact_profile(mut self) -> Self {
        self.exact_profile = true;
        self
    }

    /// The machine this planner targets.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// Plans a zoo model under the full DeepPlan mode (PT+DHA, falling
    /// back to DHA-only on single-GPU machines automatically).
    pub fn plan(&self, id: ModelId, batch: u32) -> PlanBundle {
        self.plan_mode(id, batch, PlanMode::PtDha)
    }

    /// Plans a zoo model under an explicit mode.
    pub fn plan_mode(&self, id: ModelId, batch: u32, mode: PlanMode) -> PlanBundle {
        self.plan_model(&zoo::build(id), batch, mode)
    }

    /// Plans a zoo model to fit a GPU-memory byte budget (paper §7's
    /// "models which are not fit in single GPU memory"): on top of the
    /// regular DHA choices, additional layers are pinned host-side —
    /// cheapest warm-latency-per-byte first — until the resident set
    /// fits. The result is a single-GPU, pipelined plan.
    pub fn plan_with_budget(&self, id: ModelId, batch: u32, budget_bytes: u64) -> PlanBundle {
        let model = zoo::build(id);
        let gpu = self.machine.gpu(0).clone();
        let profiler = if self.exact_profile {
            Profiler::exact(gpu.clone())
        } else {
            Profiler::new(gpu.clone()).with_iterations(self.profiler_iterations)
        };
        let (profile, profiling_cost) = profiler.profile(&model, batch);
        let bp = exec_planner::budget::plan_for_memory_budget(&profile, budget_bytes);
        let partitions = vec![(0..bp.decisions.len())
            .filter(|&i| {
                bp.decisions[i] == exec_planner::plan::LayerExec::Load
                    && profile.layers[i].param_bytes > 0
            })
            .collect()];
        let plan = exec_planner::plan::ExecutionPlan {
            model: profile.model.clone(),
            batch,
            pipelined: true,
            decisions: bp.decisions,
            partitions,
            block_bytes: None,
        };
        let runtime = ModelRuntime::new(&model, &gpu, batch);
        PlanBundle {
            machine: self.machine.clone(),
            mode: PlanMode::Dha,
            profile,
            plan: Arc::new(plan),
            runtime,
            profiling_cost,
        }
    }

    /// Plans an arbitrary model under an explicit mode.
    pub fn plan_model(&self, model: &Model, batch: u32, mode: PlanMode) -> PlanBundle {
        let gpu = self.machine.gpu(0).clone();
        let profiler = if self.exact_profile {
            Profiler::exact(gpu.clone())
        } else {
            Profiler::new(gpu.clone()).with_iterations(self.profiler_iterations)
        };
        let (profile, profiling_cost) = profiler.profile(model, batch);
        let plan = generate(&profile, &self.machine, mode, MAX_PT_GPUS);
        let runtime = ModelRuntime::new(model, &gpu, batch);
        PlanBundle {
            machine: self.machine.clone(),
            mode,
            profile,
            plan: Arc::new(plan),
            runtime,
            profiling_cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use exec_planner::validate::validate;
    use gpu_topology::presets::{p3_8xlarge, single_v100};

    #[test]
    fn plans_validate_for_every_model_and_mode() {
        let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
        for id in zoo::catalog() {
            for mode in PlanMode::all() {
                let b = dp.plan_mode(id, 1, mode);
                validate(&b.plan, &b.profile).unwrap_or_else(|e| panic!("{id} {mode}: {e}"));
            }
        }
    }

    #[test]
    fn single_gpu_machine_falls_back_to_one_slot() {
        let dp = DeepPlan::new(single_v100()).with_exact_profile();
        let b = dp.plan(ModelId::BertBase, 1);
        assert_eq!(b.plan.gpu_slots(), 1);
    }

    #[test]
    fn noisy_profiles_still_yield_valid_plans() {
        let dp = DeepPlan::new(p3_8xlarge()).with_profiler_iterations(3);
        let b = dp.plan(ModelId::Gpt2, 1);
        validate(&b.plan, &b.profile).unwrap();
    }

    #[test]
    fn budget_plans_validate_run_and_fit() {
        // A 1.34 GiB BERT-Large "fits" a 512 MiB GPU budget and still
        // serves inferences — the §7 large-model scenario.
        let dp = DeepPlan::new(single_v100()).with_exact_profile();
        let budget = 512u64 << 20;
        let b = dp.plan_with_budget(ModelId::BertLarge, 1, budget);
        validate(&b.plan, &b.profile).unwrap();
        assert!(b.resident_bytes() <= budget);
        let cold = b.simulate_cold(0);
        let warm = b.simulate_warm(0);
        assert!(warm.latency() <= cold.latency());
        // The budget-constrained warm path is slower than unconstrained
        // (extra layers stream weights over PCIe on every inference) —
        // that is the cost-effectiveness trade §7 describes.
        let free = dp.plan_mode(ModelId::BertLarge, 1, PlanMode::Dha);
        assert!(warm.latency() > free.simulate_warm(0).latency());
    }
}
