//! Table 4 — interference from parallel transmission: PT+DHA cold starts
//! on one vs two GPU pairs simultaneously.

use deepplan::PlanMode;
use dnn_models::zoo::catalog;
use exec_engine::launch::LaunchSpec;
use exec_engine::single::run_at;
use gpu_topology::presets::p3_8xlarge;
use simcore::time::SimTime;

use crate::setup::bundle;
use crate::table::{fmt, Table};

/// Measures (PipeSwitch(1), PT+DHA(1), PT+DHA(2)) latencies in ms for one
/// model. PT+DHA(2) launches the same cold start on GPU 0 (partner 2)
/// and GPU 1 (partner 3) at once and averages the two latencies.
pub fn measure(id: deepplan::ModelId) -> (f64, f64, f64) {
    let machine = p3_8xlarge();
    let ps = bundle(&machine, id, 1, PlanMode::PipeSwitch);
    let ps_ms = ps.simulate_cold(0).latency().as_ms_f64();

    let b = bundle(&machine, id, 1, PlanMode::PtDha);
    let one = b.simulate_cold(0).latency().as_ms_f64();

    let spec = |primary: usize, secondary: usize| LaunchSpec {
        secondaries: vec![secondary],
        ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), primary)
    };
    let (results, _) = run_at(
        machine,
        vec![(SimTime::ZERO, spec(0, 2)), (SimTime::ZERO, spec(1, 3))],
    );
    let two = (results[0].latency().as_ms_f64() + results[1].latency().as_ms_f64()) / 2.0;
    (ps_ms, one, two)
}

/// Runs the interference study for all eight models.
pub fn run() -> Table {
    let mut t = Table::new(
        "Table 4 — inference execution time under parallel-transmission interference (ms)",
        &["model", "PipeSwitch (1)", "PT+DHA (1)", "PT+DHA (2)"],
    );
    for id in catalog() {
        let (ps, one, two) = measure(id);
        t.push(vec![
            id.display_name().to_string(),
            fmt(ps, 2),
            fmt(one, 2),
            fmt(two, 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepplan::ModelId;

    #[test]
    fn interference_slows_but_stays_ahead_of_pipeswitch() {
        // Paper: "Although the performance of PT+DHA is affected when the
        // two GPUs handle the cold-starts simultaneously, it is still
        // faster than PipeSwitch."
        for id in [ModelId::BertBase, ModelId::RobertaLarge, ModelId::Gpt2] {
            let (ps, one, two) = measure(id);
            assert!(two >= one * 0.999, "{id}: two {two:.2} < one {one:.2}");
            assert!(two < ps, "{id}: two {two:.2} !< PipeSwitch {ps:.2}");
        }
    }
}
