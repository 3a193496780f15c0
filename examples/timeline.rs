//! Timeline: render a measured ASCII Gantt of a cold start — the
//! counterpart of the paper's Figure 1/9 schematics.
//!
//! ```text
//! cargo run --release --example timeline -- bert-base
//! ```

use deepplan::{DeepPlan, ModelId, PlanMode};
use exec_engine::launch::LaunchSpec;
use exec_engine::single::run_traced;
use exec_engine::timeline::{lanes, render};
use gpu_topology::presets::p3_8xlarge;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let model = match arg.to_lowercase().as_str() {
        "resnet-50" | "resnet50" => ModelId::ResNet50,
        "gpt2" | "gpt-2" => ModelId::Gpt2,
        _ => ModelId::BertBase,
    };
    let machine = p3_8xlarge();
    let dp = DeepPlan::new(machine.clone()).with_exact_profile();

    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let b = dp.plan_mode(model, 1, mode);
        let spec = LaunchSpec {
            secondaries: b.secondaries_for(0),
            ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), 0)
        };
        let (res, events) = run_traced(machine.clone(), spec);
        println!(
            "== {model} under {} — {:.2} ms (stall {:.2} ms) ==",
            mode.label(),
            res.latency().as_ms_f64(),
            res.stall.as_ms_f64()
        );
        println!("{}", render(&lanes(&events, 0), 100));
    }
    println!("legend: '#' busy, '=' DHA execution, '.' stalled, ' ' idle");
}
