//! Trace replay: drive the server with the synthetic Azure-Functions-like
//! trace (heavy sustained / fluctuating / spiky instances) over a 4:4:1
//! mix of BERT-Base, RoBERTa-Base and GPT-2 — the Figure 15 scenario.
//!
//! ```text
//! cargo run --release --example trace_replay -- 30 150
//! #                                     minutes^   ^requests/sec
//! ```

use deepplan::{ModelId, PlanMode};
use dnn_models::zoo::build;
use gpu_topology::presets::p3_8xlarge;
use model_serving::catalog::DeployedModel;
use model_serving::config::ServerConfig;
use model_serving::server::run_server;
use model_serving::workload::maf::{self, MafShape};
use simcore::time::{SimDur, SimTime};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let minutes: u64 = args.first().and_then(|s| s.parse().ok()).unwrap_or(30);
    let rate: f64 = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(150.0);
    let instances = 180usize;

    // 4:4:1 instance mix, as in the paper.
    let kinds = [ModelId::BertBase, ModelId::RobertaBase, ModelId::Gpt2];
    let n_gpt = instances / 9;
    let n_bert = (instances - n_gpt) / 2;
    let mut instance_kinds = vec![0usize; n_bert];
    instance_kinds.extend(vec![1usize; instances - n_gpt - n_bert]);
    instance_kinds.extend(vec![2usize; n_gpt]);

    println!(
        "replaying a {minutes}-minute MAF-like trace at {rate} rps over \
         {instances} instances (BERT-Base : RoBERTa-Base : GPT-2 = 4:4:1)\n"
    );
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let machine = p3_8xlarge();
        let cfg = ServerConfig::paper_default(machine.clone(), mode);
        let deployed: Vec<DeployedModel> = kinds
            .iter()
            .map(|&id| DeployedModel::prepare(&build(id), &machine, mode, 2))
            .collect();
        let trace = maf::generate(
            rate,
            instances,
            SimDur::from_secs(minutes * 60),
            MafShape::default(),
            0x3A7E,
        );
        let report = run_server(cfg, deployed, &instance_kinds, trace, SimTime::ZERO);
        println!(
            "{:<20} p99 {:>7.1} ms | goodput {:>5.1}% | cold {:>5.2}% | {} requests",
            mode.label(),
            report.p99_ms(),
            report.goodput() * 100.0,
            report.cold_rate() * 100.0,
            report.completed
        );
        // Per-minute p99 series (the Figure 15 curve).
        let series = report.p99_series();
        let line: Vec<String> = series.iter().map(|v| format!("{v:.0}")).collect();
        println!("  per-minute p99 (ms): {}", line.join(" "));
    }
}
