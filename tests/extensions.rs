//! Integration tests for the §7 / tooling extensions: memory-budget
//! planning, MoE expert-aware provisioning, Chrome-trace export of an
//! engine run's probe log and the capacity planner — all through public
//! APIs.

use deepplan::{DeepPlan, ModelId, PlanMode};
use dnn_models::zoo::moe::{gpt2_moe, MoeCfg};
use exec_engine::launch::LaunchSpec;
use exec_engine::single::run_traced;
use gpu_topology::presets::{p3_8xlarge, single_v100};
use simcore::probe::{to_perfetto, PerfettoOptions};

#[test]
fn budget_sweep_is_feasible_monotone_and_runnable() {
    let dp = DeepPlan::new(single_v100()).with_exact_profile();
    let total = dp
        .plan_mode(ModelId::RobertaLarge, 1, PlanMode::PipeSwitch)
        .runtime
        .total_bytes;
    let mut prev_warm = 0.0_f64;
    for frac in [1.0, 0.6, 0.3] {
        let b = dp.plan_with_budget(ModelId::RobertaLarge, 1, (total as f64 * frac) as u64);
        assert!(b.resident_bytes() as f64 <= total as f64 * frac + 1.0);
        let warm = b.simulate_warm(0).latency().as_ms_f64();
        assert!(
            warm >= prev_warm,
            "warm latency not monotone: {warm} < {prev_warm} at frac {frac}"
        );
        prev_warm = warm;
    }
}

#[test]
fn moe_planning_through_the_facade() {
    let dp = DeepPlan::new(p3_8xlarge()).with_exact_profile();
    let aware = gpt2_moe(MoeCfg::default());
    let oblivious = gpt2_moe(MoeCfg {
        expert_aware: false,
        ..Default::default()
    });
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let a = dp.plan_model(&aware, 1, mode);
        let o = dp.plan_model(&oblivious, 1, mode);
        let a_cold = a.simulate_cold(0).latency();
        let o_cold = o.simulate_cold(0).latency();
        assert!(
            a_cold < o_cold,
            "{mode}: aware {a_cold} !< oblivious {o_cold}"
        );
        // Warm latency is near-identical — the same experts compute
        // either way (plans may differ in a LayerNorm or two).
        let diff =
            a.simulate_warm(0).latency().as_ms_f64() - o.simulate_warm(0).latency().as_ms_f64();
        assert!(diff.abs() < 1.5, "{mode}: warm paths diverged by {diff} ms");
    }
}

#[test]
fn chrome_trace_of_a_pt_run_is_valid_json_with_all_lanes() {
    let machine = p3_8xlarge();
    let dp = DeepPlan::new(machine.clone()).with_exact_profile();
    let b = dp.plan_mode(ModelId::BertBase, 1, PlanMode::PtDha);
    let spec = LaunchSpec {
        secondaries: b.secondaries_for(0),
        ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), 0)
    };
    let (_, log) = run_traced(machine, spec);
    let json = to_perfetto(&log, &PerfettoOptions::default());
    let v: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    let events = v["traceEvents"].as_array().expect("event array");
    assert!(events.len() > 100, "only {} events", events.len());
    let names: Vec<&str> = events
        .iter()
        .filter(|e| e["name"] == "thread_name")
        .filter_map(|e| e["args"]["name"].as_str())
        .collect();
    // PT+DHA from GPU 0 pulls its second partition through GPU 2 and
    // forwards it over NVLink.
    for lane in ["gpu0 exec", "gpu0 load", "gpu2 load", "gpu2 nvlink out"] {
        assert!(names.contains(&lane), "missing lane {lane}: {names:?}");
    }
}

#[test]
fn capacity_planner_is_deterministic() {
    use dnn_models::zoo::build;
    use model_serving::capacity::{max_sustainable_instances, CapacityQuery};
    use model_serving::catalog::DeployedModel;
    use model_serving::config::ServerConfig;

    let machine = p3_8xlarge();
    let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::Dha);
    let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, PlanMode::Dha, 2);
    let q = CapacityQuery {
        requests: 400,
        max_instances: 200,
        ..Default::default()
    };
    let a = max_sustainable_instances(&cfg, &kind, &q);
    let b = max_sustainable_instances(&cfg, &kind, &q);
    assert_eq!(a, b);
    assert!(a > 50, "capacity {a} implausibly low");
}
