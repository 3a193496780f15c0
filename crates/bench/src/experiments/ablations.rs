//! Design-choice ablations called out in DESIGN.md (not in the paper).
//!
//! * **planner ordering** — Algorithm 1 vs the naive layer-by-layer
//!   "initial approach" (quantifies Table 3's qualitative point);
//! * **PT partner choice** — secondary GPU on the same vs a different
//!   PCIe switch (quantifies §3.2's contention argument);
//! * **partition count** — 1/2/4-way transmission on an 8-GPU
//!   DGX-1-like box, where four distinct switches exist;
//! * **NVLink requirement** — PT planning collapses to one slot when the
//!   machine lacks NVLink.

use std::sync::Arc;

use deepplan::{ModelId, PlanMode};
use exec_engine::launch::LaunchSpec;
use exec_engine::single::{run_at, run_cold};
use exec_planner::algorithm::plan_naive_dha;
use exec_planner::plan::{ExecutionPlan, LayerExec};
use gpu_topology::device::v100;
use gpu_topology::machine::MachineBuilder;
use gpu_topology::presets::{dgx1_like, p3_8xlarge};
use simcore::time::SimTime;

use crate::setup::{bundle, manual_transfer_plan};
use crate::table::{fmt, Table};

/// Algorithm 1 vs the naive initial approach, cold latency per model.
pub fn planner_ordering() -> Table {
    let machine = p3_8xlarge();
    let mut t = Table::new(
        "Ablation — Algorithm 1 vs naive layer-by-layer DHA selection (single GPU, ms)",
        &["model", "PipeSwitch", "naive DHA", "Algorithm 1"],
    );
    for id in [ModelId::ResNet101, ModelId::BertBase, ModelId::Gpt2] {
        let b = bundle(&machine, id, 1, PlanMode::Dha);
        let ps = bundle(&machine, id, 1, PlanMode::PipeSwitch);
        let naive_decisions = plan_naive_dha(&b.profile);
        let naive_plan = ExecutionPlan {
            model: b.profile.model.clone(),
            batch: 1,
            pipelined: true,
            partitions: vec![(0..naive_decisions.len())
                .filter(|&i| {
                    naive_decisions[i] == LayerExec::Load && b.profile.layers[i].param_bytes > 0
                })
                .collect()],
            decisions: naive_decisions,
            block_bytes: None,
        };
        let naive_ms = run_cold(
            machine.clone(),
            b.runtime.clone(),
            Arc::new(naive_plan),
            0,
            vec![],
        )
        .latency()
        .as_ms_f64();
        t.push(vec![
            id.display_name().to_string(),
            fmt(ps.simulate_cold(0).latency().as_ms_f64(), 2),
            fmt(naive_ms, 2),
            fmt(b.simulate_cold(0).latency().as_ms_f64(), 2),
        ]);
    }
    t
}

/// PT with the secondary on the same vs the other PCIe switch.
pub fn pt_partner_choice() -> Table {
    let machine = p3_8xlarge();
    let mut t = Table::new(
        "Ablation — PT secondary GPU placement (BERT-Base, ms)",
        &["secondary", "cold latency ms"],
    );
    let b = bundle(&machine, ModelId::BertBase, 1, PlanMode::Pt);
    for (label, sec) in [("same switch (GPU 1)", 1usize), ("other switch (GPU 2)", 2)] {
        let spec = LaunchSpec {
            secondaries: vec![sec],
            ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), 0)
        };
        let (res, _) = {
            let (mut r, net) = run_at(machine.clone(), vec![(SimTime::ZERO, spec)]);
            (r.remove(0), net)
        };
        t.push(vec![label.to_string(), fmt(res.latency().as_ms_f64(), 2)]);
    }
    t
}

/// Transmission time vs partition count on an 8-GPU DGX-1-like box.
pub fn partition_count() -> Table {
    let machine = dgx1_like();
    let mut t = Table::new(
        "Ablation — partitions on a DGX-1-like box (BERT-Large transfer, ms)",
        &["partitions", "load ms"],
    );
    // Secondaries on distinct switches, NVLink-adjacent to GPU 0. From
    // GPU 0 a DGX-1's cube mesh reaches switches 1 (GPU 2) and 2 (GPU 4),
    // so the widest useful group is three GPUs.
    let sec_sets: [(usize, Vec<usize>); 3] = [(1, vec![]), (2, vec![2]), (3, vec![2, 4])];
    for (k, secs) in sec_sets {
        let (rt, plan) = manual_transfer_plan(&machine, ModelId::BertLarge, k);
        let spec = LaunchSpec {
            secondaries: secs,
            skip_exec: true,
            ..LaunchSpec::new(rt, plan, 0)
        };
        let (results, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec)]);
        t.push(vec![
            k.to_string(),
            fmt(results[0].latency().as_ms_f64(), 2),
        ]);
    }
    t
}

/// PT planning on machines with and without NVLink.
pub fn nvlink_requirement() -> Table {
    let mut t = Table::new(
        "Ablation — NVLink requirement for parallel transmission",
        &["machine", "planned GPU slots"],
    );
    let with_nvlink = p3_8xlarge();
    let without = MachineBuilder::new("p3-no-nvlink")
        .switches(2)
        .gpu(v100(), 0)
        .gpu(v100(), 0)
        .gpu(v100(), 1)
        .gpu(v100(), 1)
        .build()
        .expect("valid");
    for m in [with_nvlink, without] {
        let b = bundle(&m, ModelId::BertBase, 1, PlanMode::PtDha);
        t.push(vec![m.name.clone(), b.plan.gpu_slots().to_string()]);
    }
    t
}

/// Merged vs distributed execution (paper §2.3): the distributed
/// alternative skips the NVLink merge on cold starts but pays activation
/// hops on *every* inference — including warm ones.
pub fn distributed_execution() -> Table {
    let machine = p3_8xlarge();
    let mut t = Table::new(
        "Ablation — merged (paper) vs distributed execution (BERT-Base PT, ms)",
        &["strategy", "cold ms", "warm ms"],
    );
    let b = bundle(&machine, ModelId::BertBase, 1, PlanMode::Pt);
    for (label, distributed) in [
        ("merged partitions", false),
        ("distributed execution", true),
    ] {
        let spec = |warm: bool| LaunchSpec {
            secondaries: vec![2],
            warm,
            distributed,
            ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), 0)
        };
        let (cold, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec(false))]);
        let (warm, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec(true))]);
        t.push(vec![
            label.to_string(),
            fmt(cold[0].latency().as_ms_f64(), 2),
            fmt(warm[0].latency().as_ms_f64(), 2),
        ]);
    }
    t
}

/// Memory-budget sweep (paper §7): BERT-Large squeezed into shrinking
/// GPU budgets by pinning more layers host-side.
pub fn memory_budget() -> Table {
    use deepplan::DeepPlan;
    use gpu_topology::presets::single_v100;

    let dp = DeepPlan::new(single_v100()).with_exact_profile();
    let mut t = Table::new(
        "Ablation — BERT-Large under a GPU memory budget (single V100, ms)",
        &[
            "budget MiB",
            "resident MiB",
            "host MiB",
            "cold ms",
            "warm ms",
        ],
    );
    let total = dp
        .plan_mode(ModelId::BertLarge, 1, PlanMode::PipeSwitch)
        .runtime
        .total_bytes;
    for frac in [1.0, 0.75, 0.5, 0.25, 0.1] {
        let budget = (total as f64 * frac) as u64;
        let b = dp.plan_with_budget(ModelId::BertLarge, 1, budget);
        t.push(vec![
            (budget >> 20).to_string(),
            (b.resident_bytes() >> 20).to_string(),
            (b.host_bytes() >> 20).to_string(),
            fmt(b.simulate_cold(0).latency().as_ms_f64(), 2),
            fmt(b.simulate_warm(0).latency().as_ms_f64(), 2),
        ]);
    }
    t
}

/// MoE cold starts (paper §7): expert-aware provisioning transfers only
/// the experts a forward pass needs.
pub fn moe_expert_awareness() -> Table {
    use deepplan::DeepPlan;
    use dnn_models::zoo::moe::{gpt2_moe, MoeCfg};
    use gpu_topology::presets::single_v100;

    let dp = DeepPlan::new(single_v100()).with_exact_profile();
    let mut t = Table::new(
        "Ablation — MoE expert-aware provisioning (GPT-2-MoE 8 experts, top-2 active, ms)",
        &[
            "provisioning",
            "params MiB",
            "transfer MiB",
            "PipeSwitch ms",
            "DHA ms",
        ],
    );
    for aware in [false, true] {
        let model = gpt2_moe(MoeCfg {
            expert_aware: aware,
            ..Default::default()
        });
        let ps = dp.plan_model(&model, 1, PlanMode::PipeSwitch);
        let dha = dp.plan_model(&model, 1, PlanMode::Dha);
        t.push(vec![
            if aware { "expert-aware" } else { "oblivious" }.to_string(),
            (model.param_bytes() >> 20).to_string(),
            (model.layers.iter().map(|l| l.transfer_bytes()).sum::<u64>() >> 20).to_string(),
            fmt(ps.simulate_cold(0).latency().as_ms_f64(), 2),
            fmt(dha.simulate_cold(0).latency().as_ms_f64(), 2),
        ]);
    }
    t
}

/// Transmission-block-size sweep: per-layer transfers vs PipeSwitch-style
/// grouped blocks, for a small-layer model (ResNet-50) and a big-layer
/// one (BERT-Base).
pub fn block_grouping() -> Table {
    let machine = p3_8xlarge();
    let mut t = Table::new(
        "Ablation — transmission block size (cold PipeSwitch-style start, ms)",
        &[
            "model",
            "per-layer",
            "4 MiB blocks",
            "16 MiB blocks",
            "64 MiB blocks",
        ],
    );
    for id in [ModelId::ResNet50, ModelId::BertBase] {
        let b = bundle(&machine, id, 1, PlanMode::PipeSwitch);
        let mut row = vec![id.display_name().to_string()];
        for block in [None, Some(4u64 << 20), Some(16 << 20), Some(64 << 20)] {
            let mut plan = (*b.plan).clone();
            plan.block_bytes = block;
            let ms = run_cold(
                machine.clone(),
                b.runtime.clone(),
                Arc::new(plan),
                0,
                vec![],
            )
            .latency()
            .as_ms_f64();
            row.push(fmt(ms, 2));
        }
        t.push(row);
    }
    t
}

/// Eviction-policy comparison under a skewed (MAF-like) workload: LRU
/// (the paper's choice) vs FIFO vs random.
pub fn eviction_policy() -> Table {
    use dnn_models::zoo::build;
    use model_serving::catalog::DeployedModel;
    use model_serving::config::ServerConfig;
    use model_serving::memory::EvictionPolicy;
    use model_serving::server::run_server;
    use model_serving::workload::maf::{self, MafShape};
    use simcore::time::{SimDur, SimTime};

    let mut t = Table::new(
        "Ablation — eviction policy (BERT-Base, skewed trace, 150 instances)",
        &["policy", "p99 ms", "goodput %", "cold %", "evictions"],
    );
    for (label, policy) in [
        ("LRU (paper)", EvictionPolicy::Lru),
        ("FIFO", EvictionPolicy::Fifo),
        ("random", EvictionPolicy::Random),
    ] {
        let machine = p3_8xlarge();
        let mut cfg = ServerConfig::paper_default(machine.clone(), PlanMode::Dha);
        cfg.eviction = policy;
        let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, PlanMode::Dha, 2);
        let trace = maf::generate(
            130.0,
            150,
            SimDur::from_secs(8 * 60),
            MafShape::default(),
            0x5EED,
        );
        let r = run_server(cfg, vec![kind], &vec![0usize; 150], trace, SimTime::ZERO);
        t.push(vec![
            label.to_string(),
            fmt(r.p99_ms(), 1),
            fmt(r.goodput() * 100.0, 1),
            fmt(r.cold_rate() * 100.0, 2),
            r.evictions.to_string(),
        ]);
    }
    t
}

/// Runs all ablations into one concatenated table list.
pub fn run_all() -> Vec<Table> {
    vec![
        planner_ordering(),
        pt_partner_choice(),
        partition_count(),
        nvlink_requirement(),
        distributed_execution(),
        memory_budget(),
        moe_expert_awareness(),
        block_grouping(),
        eviction_policy(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm1_never_loses_to_naive() {
        let t = planner_ordering();
        for row in &t.rows {
            let naive: f64 = row[2].parse().unwrap();
            let algo: f64 = row[3].parse().unwrap();
            assert!(algo <= naive * 1.001, "{}: {algo} > naive {naive}", row[0]);
        }
    }

    #[test]
    fn cross_switch_partner_is_faster() {
        let t = pt_partner_choice();
        let same: f64 = t.rows[0][1].parse().unwrap();
        let cross: f64 = t.rows[1][1].parse().unwrap();
        assert!(cross < same, "cross {cross} !< same {same}");
    }

    #[test]
    fn three_way_beats_two_way_on_dgx1() {
        // Unlike the p3 (two switches), a DGX-1-like box exposes a third
        // contention-free lane from GPU 0, so 3-way transmission scales.
        let t = partition_count();
        let one: f64 = t.rows[0][1].parse().unwrap();
        let two: f64 = t.rows[1][1].parse().unwrap();
        let three: f64 = t.rows[2][1].parse().unwrap();
        assert!(two < 0.65 * one);
        assert!(three < 0.8 * two, "three {three} !< 0.8*two {two}");
    }

    #[test]
    fn no_nvlink_disables_pt() {
        let t = nvlink_requirement();
        assert_eq!(t.rows[0][1], "2");
        assert_eq!(t.rows[1][1], "1");
    }

    #[test]
    fn lru_never_cold_starts_more_than_random() {
        let t = eviction_policy();
        let cold = |row: usize| -> f64 { t.rows[row][3].parse().unwrap() };
        let lru = cold(0);
        let random = cold(2);
        assert!(lru <= random * 1.05, "LRU cold {lru}% vs random {random}%");
    }

    #[test]
    fn block_grouping_helps_small_layers_but_coarse_blocks_stall() {
        let t = block_grouping();
        let resnet: Vec<f64> = t.rows[0][1..].iter().map(|c| c.parse().unwrap()).collect();
        // 4 MiB blocks amortise ResNet's many tiny transfers...
        assert!(resnet[1] < resnet[0], "{resnet:?}");
        // ...but 64 MiB blocks destroy pipelining granularity.
        assert!(resnet[3] > resnet[0], "{resnet:?}");
        // BERT's layers are already large: grouping barely moves it.
        let bert: Vec<f64> = t.rows[1][1..].iter().map(|c| c.parse().unwrap()).collect();
        let spread = (bert.iter().cloned().fold(0.0, f64::max)
            - bert.iter().cloned().fold(f64::MAX, f64::min))
            / bert[0];
        assert!(spread < 0.05, "BERT spread {spread}");
    }

    #[test]
    fn expert_awareness_cuts_moe_cold_starts() {
        // §7: "Once we are able to identify the required expert for a
        // given forward pass, DeepPlan could effectively reduce the time
        // spent of transferring models."
        let t = moe_expert_awareness();
        let oblivious_ms: f64 = t.rows[0][4].parse().unwrap();
        let aware_ms: f64 = t.rows[1][4].parse().unwrap();
        assert!(
            aware_ms < 0.6 * oblivious_ms,
            "expert-aware {aware_ms} !< 0.6 * oblivious {oblivious_ms}"
        );
        // Transferred bytes shrink accordingly.
        let obl_mib: f64 = t.rows[0][2].parse().unwrap();
        let aware_mib: f64 = t.rows[1][2].parse().unwrap();
        assert!(aware_mib < 0.6 * obl_mib);
    }

    #[test]
    fn memory_budget_trades_warm_latency_for_residency() {
        let t = memory_budget();
        let warm: Vec<f64> = t.rows.iter().map(|r| r[4].parse().unwrap()).collect();
        let resident: Vec<u64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(resident.windows(2).all(|w| w[0] >= w[1]));
        assert!(
            warm.last().unwrap() > warm.first().unwrap(),
            "warm latency should grow as the budget shrinks: {warm:?}"
        );
        // Budget respected everywhere.
        for r in &t.rows {
            let budget: u64 = r[0].parse().unwrap();
            let res: u64 = r[1].parse().unwrap();
            assert!(res <= budget);
        }
    }

    #[test]
    fn distributed_execution_taxes_warm_inferences() {
        // The paper's §2.3 argument for merging: distributed execution
        // "can pose additional latency even for in-memory executions".
        let t = distributed_execution();
        let merged_warm: f64 = t.rows[0][2].parse().unwrap();
        let dist_warm: f64 = t.rows[1][2].parse().unwrap();
        assert!(
            dist_warm > merged_warm,
            "distributed warm {dist_warm} !> merged warm {merged_warm}"
        );
        // Cold starts are comparable (merge is hidden behind PCIe).
        let merged_cold: f64 = t.rows[0][1].parse().unwrap();
        let dist_cold: f64 = t.rows[1][1].parse().unwrap();
        assert!(
            (dist_cold - merged_cold).abs() / merged_cold < 0.25,
            "cold gap too large: merged {merged_cold} vs distributed {dist_cold}"
        );
    }
}
