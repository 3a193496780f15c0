//! Overload control — graceful degradation vs queue collapse.
//!
//! Sweeps the arrival rate well past the server's capacity and compares
//! three admission policies on an identical BERT-Base workload:
//! unbounded queues (the paper's serving path), bounded queues with
//! backpressure, and bounded queues plus SLO-aware early rejection.
//! The point of the table is the tail: an unbounded queue completes
//! everything at an absurd p99, while admission control trades a shed
//! fraction for a survivable latency profile. Not a paper figure.

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

/// A named tweak applied on top of [`ServerConfig::paper_default`].
pub type Policy = (&'static str, fn(&mut ServerConfig));

/// Admission policies under comparison.
pub fn policies() -> Vec<Policy> {
    vec![
        ("unbounded", |_| {}),
        ("queue cap 16", |cfg| {
            cfg.admission.queue_cap = Some(16);
        }),
        ("cap 16 + slo 1x", |cfg| {
            cfg.admission.queue_cap = Some(16);
            cfg.admission.slo_reject_factor = Some(1.0);
        }),
    ]
}

/// One overloaded run: BERT-Base, `concurrency` instances, Poisson
/// arrivals at `rate` rps, `n` requests, no hardware faults.
pub fn run_policy(
    tweak: fn(&mut ServerConfig),
    concurrency: usize,
    rate: f64,
    n: usize,
) -> ServingReport {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    tweak(&mut cfg);
    let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, mode, cfg.max_pt_gpus);
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, n, SimTime::ZERO, SEED);
    run_server_faulted(
        cfg,
        vec![kind],
        &instance_kinds,
        trace,
        SimTime::ZERO,
        Probe::disabled(),
        &FaultSpec::none(),
    )
}

/// Runs the sweep with `n` requests per run.
pub fn run_with(n: usize) -> Table {
    let mut t = Table::new(
        "Overload control — BERT-Base, 80 instances, PT+DHA, rate sweep",
        &[
            "rate (rps)",
            "policy",
            "completed",
            "shed",
            "p99 (ms)",
            "p99 queue (ms)",
            "goodput (%)",
        ],
    );
    for rate in [400.0, 800.0, 1600.0] {
        for (name, tweak) in policies() {
            let r = run_policy(tweak, 80, rate, n);
            t.push(vec![
                fmt(rate, 0),
                name.to_string(),
                r.completed.to_string(),
                r.shed.to_string(),
                fmt(r.p99_ms(), 1),
                fmt(r.p99_queue_wait_ms(), 1),
                fmt(r.goodput() * 100.0, 1),
            ]);
        }
    }
    t
}

/// Runs the full-size sweep.
pub fn run() -> Table {
    run_with(2_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_queue_sheds_where_unbounded_queues_grow() {
        let unbounded = run_policy(|_| {}, 80, 1600.0, 800);
        let bounded = run_policy(|cfg| cfg.admission.queue_cap = Some(16), 80, 1600.0, 800);
        assert_eq!(unbounded.shed, 0);
        assert_eq!(unbounded.completed, 800);
        assert!(bounded.shed > 0, "cap 16 at 1600 rps must shed");
        assert_eq!(bounded.completed + bounded.shed, 800);
        assert!(
            bounded.p99_queue_wait_ms() <= unbounded.p99_queue_wait_ms(),
            "backpressure must not make queue waits worse"
        );
    }
}
