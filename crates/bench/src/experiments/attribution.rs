//! Critical-path blame tables — where each request's latency goes.
//!
//! Serves the paper's models under PipeSwitch, DHA and PT+DHA on the
//! fig13-style Poisson workload with a recording probe, reconstructs
//! every request's critical path ([`simcore::attribution`]) and reports
//! the per-cause p50/p99 contribution and latency share. The paper's
//! load-vs-DHA crossover appears directly: under PipeSwitch cold
//! starts pay a large `stall-pcie-load` share, while DHA trades it for
//! a far smaller `exec-dha` direct-host-access penalty.

use deepplan::{ModelId, PlanMode};
use model_serving::workload::poisson;
use simcore::attribution::{analyze, blame};
use simcore::time::SimTime;

use crate::experiments::serving::run_mix_probed;
use crate::setup::SEED;
use crate::table::{fmt, Table};

/// Models × modes blame table over the fig13-style Poisson workload.
pub fn run() -> Table {
    let mut t = Table::new(
        "Critical-path blame — per-cause latency (ms per request) and share of total",
        &["model", "mode", "cause", "p50 ms", "p99 ms", "share %"],
    );
    for &model in &[ModelId::BertBase, ModelId::Gpt2] {
        for &mode in &[PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
            let concurrency = 140;
            let trace = poisson::generate(100.0, concurrency, 400, SimTime::ZERO, SEED);
            let (_, events) = run_mix_probed(mode, &[model], vec![0; concurrency], trace);
            let atts = analyze(&events).requests;
            for row in blame(&atts, |_| "all".to_string()) {
                t.push(vec![
                    model.to_string(),
                    mode.to_string(),
                    row.cause.as_str().to_string(),
                    fmt(row.p50_ms, 3),
                    fmt(row.p99_ms, 3),
                    fmt(row.share_pct, 1),
                ]);
            }
        }
    }
    t
}
