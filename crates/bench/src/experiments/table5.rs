//! Table 5 — time spent profiling models (10 iterations).

use dnn_models::zoo::build;
use gpu_topology::device::v100;
use layer_profiler::profiler::Profiler;

use crate::setup::four_models;
use crate::table::{fmt, Table};

/// Runs the profiling-cost accounting.
pub fn run() -> Table {
    let mut t = Table::new(
        "Table 5 — simulated profiling cost, 10 iterations (seconds)",
        &["model", "DHA s", "in-memory s", "layer load s", "total s"],
    );
    for id in four_models() {
        let model = build(id);
        let (_, cost) = Profiler::new(v100()).profile(&model, 1);
        t.push(vec![
            id.display_name().to_string(),
            fmt(cost.dha.as_secs_f64(), 2),
            fmt(cost.inmem.as_secs_f64(), 2),
            fmt(cost.layer_load.as_secs_f64(), 2),
            fmt(cost.total().as_secs_f64(), 2),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn totals_are_seconds_scale_and_ordered() {
        // Paper Table 5: totals of 3.9–76 s; DHA dominates in-memory; the
        // larger the model, the larger the cost.
        let t = super::run();
        let total = |name: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == name).unwrap()[4]
                .parse()
                .unwrap()
        };
        assert!(total("ResNet-50") < total("BERT-Base"));
        assert!(total("BERT-Base") < total("RoBERTa-Large"));
        for row in &t.rows {
            let dha: f64 = row[1].parse().unwrap();
            let inmem: f64 = row[2].parse().unwrap();
            assert!(dha > inmem, "{}: DHA {dha} !> inmem {inmem}", row[0]);
            let tot: f64 = row[4].parse().unwrap();
            assert!((0.1..300.0).contains(&tot), "{}: total {tot}", row[0]);
        }
    }
}
