//! End-to-end pipeline tests: profile → plan → validate → execute, across
//! models, machines and modes.

use deepplan::{DeepPlan, ModelId, PlanMode};
use dnn_models::zoo::catalog;
use exec_planner::validate::validate;
use gpu_topology::presets::{a5000_dual, p3_8xlarge, single_v100};

#[test]
fn every_model_mode_machine_combination_plans_and_runs() {
    for machine in [single_v100(), p3_8xlarge(), a5000_dual()] {
        let dp = DeepPlan::new(machine.clone()).with_exact_profile();
        for id in catalog() {
            for mode in PlanMode::all() {
                let b = dp.plan_mode(id, 1, mode);
                validate(&b.plan, &b.profile)
                    .unwrap_or_else(|e| panic!("{}/{id}/{mode}: {e}", machine.name));
                let cold = b.simulate_cold(0);
                assert!(
                    cold.latency().as_ms_f64() > 1.0,
                    "{}/{id}/{mode}: implausibly fast cold start",
                    machine.name
                );
                // PT+DHA can hide loading *entirely* (ResNet-50), making
                // cold exactly as fast as warm — but never faster.
                let warm = b.simulate_warm(0);
                assert!(
                    warm.latency() <= cold.latency(),
                    "{}/{id}/{mode}: warm slower than cold",
                    machine.name
                );
            }
        }
    }
}

#[test]
fn mode_ordering_holds_for_every_model_on_p3() {
    // Baseline ≥ PipeSwitch ≥ DHA ≥ PT+DHA (Figure 11's qualitative
    // ordering; PT alone may beat or lose to DHA depending on the model).
    let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
    for id in catalog() {
        let ms = |mode: PlanMode| {
            dp.plan_mode(id, 1, mode)
                .simulate_cold(0)
                .latency()
                .as_secs_f64()
        };
        let base = ms(PlanMode::Baseline);
        let ps = ms(PlanMode::PipeSwitch);
        let dha = ms(PlanMode::Dha);
        let ptdha = ms(PlanMode::PtDha);
        assert!(base > ps, "{id}: baseline {base} !> pipeswitch {ps}");
        assert!(ps > dha, "{id}: pipeswitch {ps} !> dha {dha}");
        assert!(ptdha <= dha * 1.001, "{id}: pt+dha {ptdha} !<= dha {dha}");
    }
}

#[test]
fn planner_estimate_tracks_engine_for_single_gpu_modes() {
    let dp = DeepPlan::new(single_v100()).with_exact_profile();
    for id in catalog() {
        for mode in [PlanMode::Baseline, PlanMode::PipeSwitch, PlanMode::Dha] {
            let b = dp.plan_mode(id, 1, mode);
            let est = b.estimate().total.as_secs_f64();
            let got = b.simulate_cold(0).latency().as_secs_f64();
            let err = ((est - got) / got).abs();
            assert!(
                err < 0.06,
                "{id}/{mode}: estimate off by {:.1}%",
                err * 100.0
            );
        }
    }
}

#[test]
fn dha_layers_save_exactly_their_bytes_of_gpu_memory() {
    let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
    for id in [ModelId::BertBase, ModelId::Gpt2] {
        let ps = dp.plan_mode(id, 1, PlanMode::PipeSwitch);
        let dha = dp.plan_mode(id, 1, PlanMode::Dha);
        assert_eq!(ps.resident_bytes(), ps.runtime.total_bytes);
        assert_eq!(
            dha.resident_bytes() + dha.host_bytes(),
            dha.runtime.total_bytes
        );
        assert!(dha.host_bytes() > 0, "{id}: no layers left host-side");
    }
}

#[test]
fn batch_size_scales_plans_sensibly() {
    // Larger batches lengthen computation, giving pipelining more cover:
    // the PT+DHA advantage over PipeSwitch must shrink monotonically-ish.
    let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
    let gap = |batch: u32| {
        let ps = dp
            .plan_mode(ModelId::BertBase, batch, PlanMode::PipeSwitch)
            .simulate_cold(0)
            .latency()
            .as_secs_f64();
        let dp_ms = dp
            .plan_mode(ModelId::BertBase, batch, PlanMode::PtDha)
            .simulate_cold(0)
            .latency()
            .as_secs_f64();
        ps / dp_ms
    };
    assert!(gap(8) < gap(1), "batching should narrow the gap");
}
