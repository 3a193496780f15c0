//! Self-contained worlds for one-off engine experiments.
//!
//! The serving simulator builds its own world; the microbenchmarks
//! (Figures 6/11, Tables 2/4) just need "run these inferences on this
//! machine and give me the results plus final link statistics".
//! [`run_traced`] runs one inference through a logging probe, so its
//! events are the same ones a probed serving run records.

use exec_planner::plan::ExecutionPlan;
use simcore::driver::{FlowDriver, HasFlowDriver};
use simcore::flow::FlowNet;
use simcore::probe::{Event, Probe};
use simcore::sim::Sim;
use simcore::time::SimTime;

use crate::hw::{HasHw, HwState};
use crate::launch::{start_inference, LaunchSpec};
use crate::result::InferenceResult;
use crate::runtime::ModelRuntime;
use std::sync::Arc;

/// A minimal world: hardware + result collection.
pub struct SingleRun {
    hw: HwState<SingleRun>,
    flows: FlowDriver<SingleRun>,
    results: Vec<Option<InferenceResult>>,
}

impl HasFlowDriver for SingleRun {
    fn flow_driver(&mut self) -> &mut FlowDriver<SingleRun> {
        &mut self.flows
    }
}

impl HasHw for SingleRun {
    fn hw(&mut self) -> &mut HwState<SingleRun> {
        &mut self.hw
    }
}

/// Runs `specs` concurrently (all launched at their given start times) on
/// `machine`; returns results in spec order plus the final flow network
/// (for link utilisation statistics).
///
/// # Panics
///
/// Panics if any run fails to complete (a bug in plan/spec wiring).
pub fn run_at(
    machine: gpu_topology::machine::Machine,
    specs: Vec<(SimTime, LaunchSpec)>,
) -> (Vec<InferenceResult>, FlowNet) {
    run_probed(machine, specs, Probe::disabled())
}

/// [`run_at`] with `probe` installed on the hardware state.
fn run_probed(
    machine: gpu_topology::machine::Machine,
    specs: Vec<(SimTime, LaunchSpec)>,
    probe: Probe,
) -> (Vec<InferenceResult>, FlowNet) {
    let n = specs.len();
    let (mut hw, flows) = HwState::new(machine);
    hw.probe = probe;
    let world = SingleRun {
        hw,
        flows,
        results: (0..n).map(|_| None).collect(),
    };
    let mut sim = Sim::new(world);
    for (i, (at, spec)) in specs.into_iter().enumerate() {
        sim.schedule_at(
            at,
            Box::new(move |s: &mut SingleRun, ctx| {
                start_inference(
                    s,
                    ctx,
                    spec,
                    Box::new(move |s: &mut SingleRun, _ctx, res| {
                        s.results[i] = Some(res);
                    }),
                )
                .expect("launch spec requires NVLink the machine lacks");
            }),
        );
    }
    sim.run_until_idle();
    let world = sim.into_state();
    let results = world
        .results
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| panic!("run {i} never completed")))
        .collect();
    (results, world.flows.net)
}

/// Runs one cold inference at t = 0.
pub fn run_cold(
    machine: gpu_topology::machine::Machine,
    rt: Arc<ModelRuntime>,
    plan: Arc<ExecutionPlan>,
    primary: usize,
    secondaries: Vec<usize>,
) -> InferenceResult {
    let spec = LaunchSpec {
        rt,
        plan,
        primary,
        secondaries,
        warm: false,
        skip_exec: false,
        bulk_migrate: false,
        distributed: false,
        exec_scale: 1.0,
        verify_loads: false,
        hedge: None,
    };
    run_at(machine, vec![(SimTime::ZERO, spec)]).0.remove(0)
}

/// Runs one warm inference at t = 0.
pub fn run_warm(
    machine: gpu_topology::machine::Machine,
    rt: Arc<ModelRuntime>,
    plan: Arc<ExecutionPlan>,
    primary: usize,
) -> InferenceResult {
    let spec = LaunchSpec {
        rt,
        plan,
        primary,
        secondaries: Vec::new(),
        warm: true,
        skip_exec: false,
        bulk_migrate: false,
        distributed: false,
        exec_scale: 1.0,
        verify_loads: false,
        hedge: None,
    };
    run_at(machine, vec![(SimTime::ZERO, spec)]).0.remove(0)
}

/// Runs one inference at t = 0 through a logging probe; returns the
/// result and the probe's event log, whose run-slot-0 events
/// [`crate::timeline::lanes`] draws and [`simcore::probe::to_perfetto`]
/// exports.
pub fn run_traced(
    machine: gpu_topology::machine::Machine,
    spec: LaunchSpec,
) -> (InferenceResult, Vec<Event>) {
    let (probe, log) = Probe::logging();
    let (mut results, _) = run_probed(machine, vec![(SimTime::ZERO, spec)], probe);
    (results.remove(0), log.take().events)
}

/// Transfers a model without executing (Figure 6): returns the result and
/// the final network for bandwidth statistics.
pub fn run_transfer_only(
    machine: gpu_topology::machine::Machine,
    rt: Arc<ModelRuntime>,
    plan: Arc<ExecutionPlan>,
    primary: usize,
    secondaries: Vec<usize>,
) -> (InferenceResult, FlowNet) {
    let spec = LaunchSpec {
        rt,
        plan,
        primary,
        secondaries,
        warm: false,
        skip_exec: true,
        bulk_migrate: false,
        distributed: false,
        exec_scale: 1.0,
        verify_loads: false,
        hedge: None,
    };
    let (mut results, net) = run_at(machine, vec![(SimTime::ZERO, spec)]);
    (results.remove(0), net)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_models::zoo::{build, ModelId};
    use exec_planner::generate::{generate, PlanMode};
    use exec_planner::stall::estimate_pipeline;
    use gpu_topology::device::v100;
    use gpu_topology::presets::{p3_8xlarge, single_v100};
    use layer_profiler::profiler::Profiler;

    fn setup(
        id: ModelId,
        mode: PlanMode,
        machine: &gpu_topology::machine::Machine,
    ) -> (Arc<ModelRuntime>, Arc<ExecutionPlan>) {
        let model = build(id);
        let (profile, _) = Profiler::exact(v100()).profile(&model, 1);
        let plan = Arc::new(generate(&profile, machine, mode, 2));
        let rt = ModelRuntime::new(&model, &v100(), 1);
        (rt, plan)
    }

    #[test]
    fn warm_run_equals_exec_sum() {
        let m = single_v100();
        let (rt, plan) = setup(ModelId::BertBase, PlanMode::PipeSwitch, &m);
        let expect: f64 = rt.layers.iter().map(|l| l.exec_inmem.as_secs_f64()).sum();
        let res = run_warm(m, rt, plan, 0);
        let got = res.latency().as_secs_f64();
        assert!(
            (got - expect).abs() < 1e-6,
            "warm {got} vs exec sum {expect}"
        );
        assert_eq!(res.stall.as_nanos(), 0);
    }

    #[test]
    fn cold_pipeswitch_matches_analytic_estimate() {
        let m = single_v100();
        let model = build(ModelId::BertBase);
        let (profile, _) = Profiler::exact(v100()).profile(&model, 1);
        let plan = Arc::new(generate(&profile, &m, PlanMode::PipeSwitch, 1));
        let rt = ModelRuntime::new(&model, &v100(), 1);
        let est = estimate_pipeline(&profile, &plan.decisions, true);
        let res = run_cold(m, rt, plan, 0, vec![]);
        let got = res.latency().as_ms_f64();
        let want = est.total.as_ms_f64();
        assert!(
            ((got - want) / want).abs() < 0.02,
            "engine {got:.3}ms vs estimate {want:.3}ms"
        );
        // Figure 2: BERT-Base stalls ≈ 73–75% under PipeSwitch.
        let frac = res.stall_fraction();
        assert!((0.65..0.82).contains(&frac), "stall fraction {frac}");
    }

    #[test]
    fn baseline_slower_than_pipeswitch_slower_than_dha() {
        let m = single_v100();
        let mut latencies = Vec::new();
        for mode in [PlanMode::Baseline, PlanMode::PipeSwitch, PlanMode::Dha] {
            let (rt, plan) = setup(ModelId::BertBase, mode, &m);
            let res = run_cold(m.clone(), rt, plan, 0, vec![]);
            latencies.push(res.latency().as_secs_f64());
        }
        assert!(latencies[0] > latencies[1], "baseline !> pipeswitch");
        assert!(latencies[1] > latencies[2], "pipeswitch !> dha");
    }

    #[test]
    fn pt_on_two_gpus_beats_single_gpu_pipeswitch() {
        let m = p3_8xlarge();
        let (rt, ps_plan) = setup(ModelId::BertBase, PlanMode::PipeSwitch, &single_v100());
        let ps = run_cold(m.clone(), rt.clone(), ps_plan, 0, vec![]);
        let (rt2, pt_plan) = setup(ModelId::BertBase, PlanMode::Pt, &m);
        assert_eq!(pt_plan.gpu_slots(), 2);
        // GPU 0 (switch 0) + GPU 2 (switch 1): distinct switches.
        let pt = run_cold(m, rt2, pt_plan, 0, vec![2]);
        assert!(
            pt.latency() < ps.latency(),
            "PT {} !< PipeSwitch {}",
            pt.latency(),
            ps.latency()
        );
    }

    #[test]
    fn ptdha_fastest_of_all_modes() {
        let m = p3_8xlarge();
        let mut best = f64::INFINITY;
        let mut ptdha = 0.0;
        for mode in PlanMode::all() {
            let (rt, plan) = setup(ModelId::BertBase, mode, &m);
            let secs = if plan.gpu_slots() > 1 {
                vec![2]
            } else {
                vec![]
            };
            let res = run_cold(m.clone(), rt, plan, 0, secs);
            let l = res.latency().as_secs_f64();
            if mode == PlanMode::PtDha {
                ptdha = l;
            } else {
                best = best.min(l);
            }
        }
        assert!(ptdha <= best * 1.001, "PT+DHA {ptdha} vs best other {best}");
    }

    #[test]
    fn transfer_only_completes_with_zero_exec() {
        let m = single_v100();
        let (rt, plan) = setup(ModelId::ResNet50, PlanMode::PipeSwitch, &m);
        let total = rt.total_bytes;
        let (res, net) = run_transfer_only(m, rt, plan, 0, vec![]);
        assert_eq!(res.exec_busy.as_nanos(), 0);
        // All bytes crossed the GPU's PCIe link.
        let carried = net.link_carried_bytes(simcore::flow::LinkId(1));
        assert!((carried - total as f64).abs() < 1.0);
    }

    #[test]
    fn missing_secondary_folds_to_primary() {
        // A PT plan launched without secondary GPUs must still work
        // (loads fold onto the primary's link).
        let m = p3_8xlarge();
        let (rt, plan) = setup(ModelId::BertBase, PlanMode::Pt, &m);
        let res = run_cold(m, rt, plan, 0, vec![]);
        assert!(res.latency().as_ms_f64() > 1.0);
    }

    #[test]
    fn concurrent_runs_interfere_on_shared_switch() {
        // Two cold PipeSwitch loads on GPUs 0 and 1 (same switch) take
        // longer than either alone; on GPUs 0 and 2 they do not.
        let (rt, plan) = setup(ModelId::BertBase, PlanMode::PipeSwitch, &single_v100());
        let spec = |gpu: usize| LaunchSpec {
            rt: rt.clone(),
            plan: plan.clone(),
            primary: gpu,
            secondaries: vec![],
            warm: false,
            skip_exec: false,
            bulk_migrate: false,
            distributed: false,
            exec_scale: 1.0,
            verify_loads: false,
            hedge: None,
        };
        let (alone, _) = run_at(p3_8xlarge(), vec![(SimTime::ZERO, spec(0))]);
        let (same_switch, _) = run_at(
            p3_8xlarge(),
            vec![(SimTime::ZERO, spec(0)), (SimTime::ZERO, spec(1))],
        );
        let (cross_switch, _) = run_at(
            p3_8xlarge(),
            vec![(SimTime::ZERO, spec(0)), (SimTime::ZERO, spec(2))],
        );
        let base = alone[0].latency().as_secs_f64();
        let same = same_switch[0].latency().as_secs_f64();
        let cross = cross_switch[0].latency().as_secs_f64();
        assert!(
            same > 1.5 * base,
            "same-switch contention missing: {same} vs {base}"
        );
        assert!(
            (cross - base).abs() / base < 0.01,
            "cross-switch should not contend: {cross} vs {base}"
        );
    }
}
