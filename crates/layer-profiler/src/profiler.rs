//! The profiling pre-run (simulated).

use dnn_models::calib;
use dnn_models::costmodel::CostModel;
use dnn_models::model::Model;
use gpu_topology::device::GpuSpec;
use simcore::rng;
use simcore::time::SimDur;

use crate::cost::ProfilingCost;
use crate::profile::{LayerProfile, ModelProfile};

/// Root seed of the measurement jitter (a noise-free profiler draws
/// none).
const SEED: u64 = 0xDEE9_914A;

/// Simulated layer profiler.
///
/// Emulates the paper's pre-run: each layer is executed `iterations`
/// times under each method and the times averaged. Jitter models
/// run-to-run measurement variance; with `jitter_sigma == 0` the profile
/// equals the analytic cost model exactly.
#[derive(Debug, Clone)]
pub struct Profiler {
    cost: CostModel,
    iterations: u32,
    jitter_sigma: f64,
}

impl Profiler {
    /// Creates a profiler for `gpu` with the paper's 10-iteration default
    /// and the calibrated jitter.
    pub fn new(gpu: GpuSpec) -> Self {
        Profiler {
            cost: CostModel::new(gpu),
            iterations: 10,
            jitter_sigma: calib::PROFILE_JITTER_SIGMA,
        }
    }

    /// A noise-free profiler (exact analytic values, 1 iteration).
    pub fn exact(gpu: GpuSpec) -> Self {
        Profiler {
            cost: CostModel::new(gpu),
            iterations: 1,
            jitter_sigma: 0.0,
        }
    }

    /// Overrides the number of measurement iterations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn with_iterations(mut self, n: u32) -> Self {
        assert!(n > 0, "at least one iteration required");
        self.iterations = n;
        self
    }

    /// Profiles `model` at `batch`, returning the table and the simulated
    /// wall-clock cost of taking it (Table 5).
    pub fn profile(&self, model: &Model, batch: u32) -> (ModelProfile, ProfilingCost) {
        let mut rng = rng::seeded(rng::derive_seed(SEED, batch as u64));
        let mut rows = Vec::with_capacity(model.layers.len());
        let mut cost = ProfilingCost::default();
        for layer in &model.layers {
            let exact = self.cost.cost(layer, batch);
            let mut inmem = 0.0;
            let mut dha = 0.0;
            let mut load = 0.0;
            for _ in 0..self.iterations {
                let j_in = rng::lognormal_jitter(&mut rng, self.jitter_sigma);
                let j_dha = rng::lognormal_jitter(&mut rng, self.jitter_sigma);
                let j_ld = rng::lognormal_jitter(&mut rng, self.jitter_sigma);
                inmem += exact.exec_inmem.as_secs_f64() * j_in;
                dha += exact.exec_dha.as_secs_f64() * j_dha;
                load += exact.load.as_secs_f64() * j_ld;
            }
            let n = self.iterations as f64;
            // The pre-run pays every iteration's time, plus re-staging the
            // layer for each load measurement.
            cost.dha += SimDur::from_secs_f64(dha);
            cost.inmem += SimDur::from_secs_f64(inmem);
            cost.layer_load += SimDur::from_secs_f64(load);
            rows.push(LayerProfile {
                name: layer.name.clone(),
                class: layer.class_label().to_string(),
                param_bytes: layer.transfer_bytes(),
                load: SimDur::from_secs_f64(load / n),
                exec_inmem: SimDur::from_secs_f64(inmem / n),
                exec_dha: SimDur::from_secs_f64(dha / n),
                dha_wire: SimDur::from_secs_f64(
                    self.cost.gpu().pcie.wire_secs(exact.dha_wire_bytes),
                ),
                dha_wire_bytes: exact.dha_wire_bytes,
                pcie_txn_load: exact.pcie_txn_load,
                pcie_txn_dha: exact.pcie_txn_dha,
            });
        }
        let profile = ModelProfile {
            model: model.name.clone(),
            device: self.cost.gpu().name.clone(),
            batch,
            layers: rows,
        };
        (profile, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::zoo::{build, ModelId};
    use gpu_topology::device::v100;

    #[test]
    fn exact_profile_matches_cost_model() {
        let p = Profiler::exact(v100());
        let model = build(ModelId::BertBase);
        let (profile, _) = p.profile(&model, 1);
        assert_eq!(profile.layers.len(), model.layers.len());
        // Values go through one f64 round-trip (averaging), so allow a
        // couple of nanoseconds of rounding.
        let close = |a: simcore::time::SimDur, b: simcore::time::SimDur, what: &str| {
            assert!(
                a.as_nanos().abs_diff(b.as_nanos()) <= 2,
                "{what}: {a} vs {b}"
            );
        };
        let cm = CostModel::new(v100());
        for (row, layer) in profile.layers.iter().zip(&model.layers) {
            close(row.exec_inmem, cm.exec_inmem(layer, 1), &layer.name);
            close(row.exec_dha, cm.exec_dha(layer, 1), &layer.name);
            close(row.load, cm.load_time(layer), &layer.name);
        }
    }

    #[test]
    fn profiling_is_deterministic() {
        let model = build(ModelId::ResNet50);
        let a = Profiler::new(v100()).profile(&model, 1).0;
        let b = Profiler::new(v100()).profile(&model, 1).0;
        assert_eq!(a.layers, b.layers);
    }

    #[test]
    fn jittered_average_is_close_to_exact() {
        let model = build(ModelId::ResNet50);
        let exact = Profiler::exact(v100()).profile(&model, 1).0;
        let noisy = Profiler::new(v100())
            .with_iterations(20)
            .profile(&model, 1)
            .0;
        for (e, n) in exact.layers.iter().zip(&noisy.layers) {
            let re = e.exec_inmem.as_secs_f64();
            let rn = n.exec_inmem.as_secs_f64();
            assert!(
                ((rn - re) / re).abs() < 0.05,
                "{}: {} vs {}",
                e.name,
                rn,
                re
            );
        }
    }

    #[test]
    fn warm_bert_base_near_paper_anchor() {
        // Paper §1: a warm BERT-Base batch-1 inference completes within
        // 9.35 ms on a V100.
        let model = build(ModelId::BertBase);
        let (profile, _) = Profiler::exact(v100()).profile(&model, 1);
        let warm_ms = profile.exec_inmem_total().as_ms_f64();
        assert!(
            (7.5..11.5).contains(&warm_ms),
            "warm BERT-Base {warm_ms:.2} ms out of calibration band"
        );
    }

    #[test]
    fn bert_base_load_near_40ms() {
        // Paper §1: loading BERT-Base takes ~40 ms.
        let model = build(ModelId::BertBase);
        let (profile, _) = Profiler::exact(v100()).profile(&model, 1);
        let load_ms = profile.load_total().as_ms_f64();
        assert!(
            (33.0..45.0).contains(&load_ms),
            "BERT-Base load {load_ms:.2} ms out of calibration band"
        );
    }
}
