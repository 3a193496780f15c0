//! Failure matrix — serving robustness under injected faults.
//!
//! Runs the same BERT-Base Poisson workload through a grid of fault
//! scenarios (healthy baseline, GPU failure + recovery, PCIe link
//! degradation, host memory pressure, link flapping) and reports how
//! the server holds up: completions, sheds, retries and tail latency.
//! Not a paper figure — the paper assumes healthy hardware — but the
//! matrix pins down the robustness layer's behavior at a glance.

use deepplan::{ModelId, PlanMode};
use dnn_models::zoo::build;
use gpu_topology::presets::p3_8xlarge;
use model_serving::catalog::DeployedModel;
use model_serving::config::ServerConfig;
use model_serving::metrics::ServingReport;
use model_serving::run_server_faulted;
use model_serving::workload::poisson;
use simcore::fault::FaultSpec;
use simcore::probe::Probe;
use simcore::time::SimTime;

use crate::setup::SEED;
use crate::table::{fmt, Table};

/// The fault matrix: name plus a DSL spec understood by
/// [`FaultSpec::parse`]. Times are chosen to land inside the measured
/// window of the workload below (~40 s at 60 rps).
pub fn scenarios() -> Vec<(&'static str, &'static str)> {
    vec![
        ("healthy", ""),
        (
            "gpu fail+recover",
            "gpu-fail@5s:gpu=1; gpu-recover@15s:gpu=1",
        ),
        (
            "pcie degraded 4x",
            "link-degrade@5s:pcie=1,factor=0.25; link-restore@20s:pcie=1",
        ),
        (
            "mem pressure",
            "mem-pressure@5s:bytes=230g; mem-release@20s",
        ),
        ("link flap", "link-flap:pcie=0,up=4s,down=500ms,factor=0.2"),
        ("exec slowdown 2x", "slowdown@5s:factor=2; slowdown-end@20s"),
    ]
}

/// Runs one scenario: `concurrency` BERT-Base instances, Poisson
/// arrivals at `rate` rps, `n` requests, faults from `spec`.
pub fn run_scenario(spec: &str, concurrency: usize, rate: f64, n: usize) -> ServingReport {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let cfg = ServerConfig::paper_default(machine.clone(), mode);
    let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, mode, cfg.max_pt_gpus);
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, n, SimTime::ZERO, SEED);
    let faults = FaultSpec::parse(spec, SEED).expect("valid fault spec");
    run_server_faulted(
        cfg,
        vec![kind],
        &instance_kinds,
        trace,
        SimTime::ZERO,
        Probe::disabled(),
        &faults,
    )
}

/// Runs the matrix with `n` requests per scenario.
pub fn run_with(n: usize) -> Table {
    let mut t = Table::new(
        "Failure matrix — BERT-Base, 60 rps, 40 instances, PT+DHA",
        &[
            "scenario",
            "completed",
            "shed",
            "retries",
            "gpu fails",
            "aborted",
            "p99 (ms)",
            "goodput (%)",
        ],
    );
    for (name, spec) in scenarios() {
        let r = run_scenario(spec, 40, 60.0, n);
        t.push(vec![
            name.to_string(),
            r.completed.to_string(),
            r.shed.to_string(),
            r.retries.to_string(),
            r.gpu_failures.to_string(),
            r.aborted_runs.to_string(),
            fmt(r.p99_ms(), 1),
            fmt(r.goodput() * 100.0, 1),
        ]);
    }
    t
}

/// Runs the full-size matrix.
pub fn run() -> Table {
    run_with(2_400)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_parse() {
        for (name, spec) in scenarios() {
            assert!(
                FaultSpec::parse(spec, SEED).is_ok(),
                "scenario '{name}' has an invalid spec"
            );
        }
    }

    #[test]
    fn healthy_scenario_loses_nothing() {
        let r = run_scenario("", 16, 40.0, 300);
        assert_eq!(r.completed, 300);
        assert_eq!(r.shed, 0);
        assert_eq!(r.retries, 0);
    }

    #[test]
    fn gpu_failure_triggers_retries_without_losing_requests() {
        let r = run_scenario("gpu-fail@2s:gpu=1; gpu-recover@6s:gpu=1", 40, 200.0, 1000);
        assert_eq!(r.gpu_failures, 1);
        assert!(r.aborted_runs > 0, "expected an in-flight run aborted");
        assert!(r.retries > 0, "expected retries after a GPU failure");
        assert_eq!(
            r.completed + r.shed,
            1000,
            "every request must complete or be shed"
        );
    }
}
