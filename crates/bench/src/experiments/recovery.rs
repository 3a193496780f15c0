//! Self-healing ablation — the same degraded topology served with the
//! recovery control plane off vs on.
//!
//! Each fault scenario runs twice over an identical ResNet-50 Poisson
//! workload: once with the PR 3 static-plan behavior (requests queue
//! behind whatever the healthy plan can still do) and once with online
//! re-planning, live plan migration and rollback enabled. ResNet-50 is
//! the interesting model here: its parallel-transmission plan forces
//! back-half DHA layers to loads, so a slot collapse genuinely changes
//! decisions and the resident footprint — BERT-family plans are
//! slot-invariant. The workload oversubscribes the model cache so cold
//! starts keep happening *during* the fault window; a warm instance
//! never consults the plan, so an idle fleet would hide the swap
//! entirely. Expectations per row: the switch outage shows the win
//! (smaller re-planned footprint, fewer forced loads through the
//! surviving PCIe links, migrations on rollback); the uniform link
//! degrade re-plans but swaps nothing, because Algorithm 1's
//! load-vs-DHA trade-off is invariant to scaling both sides equally;
//! the flap shows hysteresis keeping re-plan counts far below the
//! transition count. Not a paper figure; the paper assumes healthy
//! hardware.

use deepplan::{ModelId, PlanMode};
use dnn_models::zoo::build;
use gpu_topology::presets::p3_8xlarge;
use model_serving::catalog::DeployedModel;
use model_serving::config::ServerConfig;
use model_serving::metrics::ServingReport;
use model_serving::run_server_faulted;
use model_serving::workload::poisson;
use simcore::fault::FaultSpec;
use simcore::probe::{Event, Probe};
use simcore::time::SimTime;

use super::detection::windowed_p99_ms;
use crate::setup::SEED;
use crate::table::{fmt, Table};

/// Degraded-topology scenarios. The switch outage kills both GPUs on
/// PCIe switch 1, which is what collapses the parallel-transmission
/// group (no cross-switch partner survives). Faults land in the
/// `[2 s, 8 s)` window of the run.
pub fn scenarios() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "switch outage",
            "gpu-fail@2s:gpu=2; gpu-fail@2s:gpu=3; \
             gpu-recover@8s:gpu=2; gpu-recover@8s:gpu=3",
        ),
        (
            "pcie degraded 5x",
            "link-degrade@2s:pcie=0,factor=0.2; link-restore@8s:pcie=0",
        ),
        (
            "link flap",
            "link-flap:pcie=0,up=1500ms,down=300ms,factor=0.25",
        ),
    ]
}

/// One scenario run: ResNet-50, `concurrency` instances, Poisson
/// arrivals at `rate` rps, `n` requests, recovery on or off. Returns
/// the report plus the probe event log (for windowed tail latency).
pub fn run_scenario(
    spec: &str,
    recovery: bool,
    concurrency: usize,
    rate: f64,
    n: usize,
) -> (ServingReport, Vec<Event>) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.recovery.enabled = recovery;
    let kind = DeployedModel::prepare(&build(ModelId::ResNet50), &machine, mode, cfg.max_pt_gpus);
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, n, SimTime::ZERO, SEED);
    let faults = FaultSpec::parse(spec, SEED).expect("valid fault spec");
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        vec![kind],
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let events = log.borrow().events.clone();
    (report, events)
}

/// Runs the off/on ablation with `n` requests per run.
pub fn run_with(n: usize) -> Table {
    let mut t = Table::new(
        "Self-healing ablation — ResNet-50, 200 rps, 400 instances, PT+DHA",
        &[
            "scenario",
            "recovery",
            "completed",
            "shed",
            "replans",
            "migrations",
            "fault p99 (ms)",
            "p99 (ms)",
            "goodput (%)",
        ],
    );
    for (name, spec) in scenarios() {
        for recovery in [false, true] {
            let (r, events) = run_scenario(spec, recovery, 400, 200.0, n);
            t.push(vec![
                name.to_string(),
                if recovery { "on" } else { "off" }.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                r.replans.to_string(),
                r.plan_migrations.to_string(),
                fmt(windowed_p99_ms(&events, 2.0, 10.0), 1),
                fmt(r.p99_ms(), 1),
                fmt(r.goodput() * 100.0, 1),
            ]);
        }
    }
    t
}

/// Runs the full-size ablation.
pub fn run() -> Table {
    run_with(2_000)
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
    fn recovery_replans_during_the_switch_outage() {
        let (_, spec) = scenarios()[0];
        let (on, _) = run_scenario(spec, true, 400, 200.0, 800);
        let (off, _) = run_scenario(spec, false, 400, 200.0, 800);
        assert!(on.replans >= 2, "expected degrade + rollback re-plans");
        assert!(on.plan_migrations > 0, "churned ResNet-50 must migrate");
        assert_eq!(off.replans, 0, "recovery off must never re-plan");
        assert_eq!(on.completed + on.shed, 800);
        assert_eq!(off.completed + off.shed, 800);
    }
}
