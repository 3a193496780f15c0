//! Figure 15 — replaying a 3-hour Azure-Functions-like trace at 150 rps
//! over a 4:4:1 mix of BERT-Base, RoBERTa-Base and GPT-2 instances.

use deepplan::{ModelId, PlanMode};
use model_serving::workload::maf::{self, MafShape};
use model_serving::workload::Request;
use simcore::time::SimDur;

use crate::experiments::serving::run_mix;
use crate::setup::SEED;
use crate::table::{fmt, Table};

/// The paper's model mix (4:4:1) as a kind table + instance assignment.
pub fn mix(total_instances: usize) -> (Vec<ModelId>, Vec<usize>) {
    let kinds = vec![ModelId::BertBase, ModelId::RobertaBase, ModelId::Gpt2];
    let n_gpt = total_instances / 9;
    let n_bert = (total_instances - n_gpt) / 2;
    let n_roberta = total_instances - n_gpt - n_bert;
    let mut instance_kinds = Vec::with_capacity(total_instances);
    instance_kinds.extend(std::iter::repeat_n(0, n_bert));
    instance_kinds.extend(std::iter::repeat_n(1, n_roberta));
    instance_kinds.extend(std::iter::repeat_n(2, n_gpt));
    (kinds, instance_kinds)
}

/// Generates the trace for a horizon.
pub fn trace(instances: usize, horizon: SimDur, rate: f64) -> Vec<Request> {
    maf::generate(rate, instances, horizon, MafShape::default(), SEED)
}

/// Runs the trace replay; returns a per-bucket summary table.
pub fn run_with(instances: usize, horizon: SimDur, rate: f64, summary_buckets: usize) -> Table {
    let mut t = Table::new(
        format!(
            "Figure 15 — MAF-like trace ({:.1} h, {rate} rps, {instances} instances, mix 4:4:1)",
            horizon.as_secs_f64() / 3600.0
        ),
        &[
            "mode",
            "p99 ms",
            "goodput %",
            "cold %",
            "evictions",
            "per-bucket p99 (head)",
        ],
    );
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let (kinds, instance_kinds) = mix(instances);
        let tr = trace(instances, horizon, rate);
        let r = run_mix(mode, &kinds, instance_kinds, tr);
        let series = r.p99_series();
        let head: Vec<String> = series
            .iter()
            .take(summary_buckets)
            .map(|v| fmt(*v, 0))
            .collect();
        t.push(vec![
            mode.label().to_string(),
            fmt(r.p99_ms(), 1),
            fmt(r.goodput() * 100.0, 1),
            fmt(r.cold_rate() * 100.0, 2),
            r.evictions.to_string(),
            head.join(","),
        ]);
    }
    t
}

/// Runs the paper-scale 3-hour replay (180 instances, 150 rps).
pub fn run() -> Table {
    // Emit the full 180-minute p99 series (the paper's top curve).
    run_with(180, SimDur::from_secs(3 * 3600), 150.0, usize::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_ordering_matches_paper_on_short_replay() {
        // Paper: DeepPlan variants 98–99 % goodput, PipeSwitch 81–98 %.
        let t = run_with(170, SimDur::from_secs(12 * 60), 150.0, 4);
        let good = |mode: &str| -> f64 {
            t.rows.iter().find(|r| r[0].contains(mode)).unwrap()[2]
                .parse()
                .unwrap()
        };
        let ps = good("PipeSwitch");
        let dha = good("(DHA)");
        let ptdha = good("(PT+DHA)");
        assert!(dha >= ps, "DHA {dha} !>= PipeSwitch {ps}");
        assert!(ptdha >= ps, "PT+DHA {ptdha} !>= PipeSwitch {ps}");
        assert!(ptdha > 90.0, "PT+DHA goodput {ptdha}");
    }
}
