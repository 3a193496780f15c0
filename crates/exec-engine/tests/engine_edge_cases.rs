//! Engine edge cases: block grouping, distributed hops, bulk migration,
//! degenerate plans.

use std::sync::Arc;

use dnn_models::layer::{Layer, LayerKind};
use dnn_models::model::{Model, ModelFamily};
use exec_engine::launch::LaunchSpec;
use exec_engine::runtime::ModelRuntime;
use exec_engine::single::{run_at, run_cold, run_warm};
use exec_planner::plan::{ExecutionPlan, LayerExec};
use gpu_topology::device::v100;
use gpu_topology::presets::{p3_8xlarge, single_v100};
use simcore::time::SimTime;

/// A model of `n` identical small FC layers.
fn small_fc_model(n: usize) -> Model {
    let layers = (0..n)
        .map(|i| {
            Layer::new(
                format!("fc{i}"),
                LayerKind::Linear {
                    d_in: 256,
                    d_out: 256,
                    tokens_per_item: 64,
                },
            )
        })
        .collect();
    Model {
        name: "small-fc".into(),
        family: ModelFamily::Encoder,
        layers,
        seq_len: 64,
    }
}

fn all_load_plan(model: &Model, block_bytes: Option<u64>) -> Arc<ExecutionPlan> {
    let decisions = vec![LayerExec::Load; model.layer_count()];
    Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        partitions: vec![(0..model.layer_count()).collect()],
        decisions,
        block_bytes,
    })
}

#[test]
fn moderate_blocks_beat_both_extremes() {
    // 64 layers of ~256 KiB. Per-layer transfers pay 64 launch
    // overheads; a single giant block pays one but serialises execution
    // entirely behind the transfer. A moderate block amortises most
    // overheads while keeping the pipeline fine-grained.
    let model = small_fc_model(64);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let machine = single_v100();
    let run = |block: Option<u64>| {
        run_cold(
            machine.clone(),
            rt.clone(),
            all_load_plan(&model, block),
            0,
            vec![],
        )
        .latency()
        .as_us_f64()
    };
    let per_layer = run(None);
    let moderate = run(Some(2 << 20));
    let giant = run(Some(1 << 30));
    assert!(
        moderate < per_layer,
        "2 MiB blocks {moderate:.0} !< per-layer {per_layer:.0}"
    );
    assert!(
        giant > moderate,
        "one giant block {giant:.0} !> 2 MiB blocks {moderate:.0}"
    );
}

#[test]
fn warm_distributed_pays_hops_warm_merged_does_not() {
    let model = small_fc_model(32);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let machine = p3_8xlarge();
    let decisions = vec![LayerExec::Load; 32];
    let plan = Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        partitions: vec![(0..16).collect(), (16..32).collect()],
        decisions,
        block_bytes: None,
    });
    let spec = |warm: bool, distributed: bool| LaunchSpec {
        secondaries: vec![2],
        warm,
        distributed,
        ..LaunchSpec::new(rt.clone(), plan.clone(), 0)
    };
    let (merged, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec(true, false))]);
    let (dist, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec(true, true))]);
    assert!(
        dist[0].latency() > merged[0].latency(),
        "distributed warm {} !> merged warm {}",
        dist[0].latency(),
        merged[0].latency()
    );
    // Cold distributed completes too (hops both ways).
    let (cold, _) = run_at(machine, vec![(SimTime::ZERO, spec(false, true))]);
    assert!(cold[0].latency() > dist[0].latency());
}

#[test]
fn bulk_migration_defers_readiness_to_partition_end() {
    let model = small_fc_model(16);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let machine = p3_8xlarge();
    let decisions = vec![LayerExec::Load; 16];
    let plan = Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        partitions: vec![(0..8).collect(), (8..16).collect()],
        decisions,
        block_bytes: None,
    });
    let spec = |bulk: bool| LaunchSpec {
        secondaries: vec![2],
        skip_exec: true,
        bulk_migrate: bulk,
        ..LaunchSpec::new(rt.clone(), plan.clone(), 0)
    };
    let (pipe, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec(false))]);
    let (bulk, _) = run_at(machine, vec![(SimTime::ZERO, spec(true))]);
    assert!(
        bulk[0].latency() >= pipe[0].latency(),
        "bulk {} < pipelined {}",
        bulk[0].latency(),
        pipe[0].latency()
    );
}

#[test]
fn single_layer_model_runs_under_every_flag_combo() {
    let model = small_fc_model(1);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let machine = p3_8xlarge();
    for warm in [false, true] {
        for block in [None, Some(1u64 << 20)] {
            let plan = {
                let mut p = (*all_load_plan(&model, block)).clone();
                p.block_bytes = block;
                Arc::new(p)
            };
            let spec = LaunchSpec {
                warm,
                ..LaunchSpec::new(rt.clone(), plan, 1)
            };
            let (res, _) = run_at(machine.clone(), vec![(SimTime::ZERO, spec)]);
            assert!(res[0].latency().as_nanos() > 0);
        }
    }
}

#[test]
fn all_dha_plan_loads_nothing() {
    let model = small_fc_model(8);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let plan = Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        partitions: vec![vec![]],
        decisions: vec![LayerExec::Dha; 8],
        block_bytes: None,
    });
    let res = run_cold(single_v100(), rt, plan, 0, vec![]);
    assert_eq!(res.stall.as_nanos(), 0, "DHA layers never stall");
}

#[test]
fn warm_fast_path_matches_slow_path_exactly() {
    // A warm distributed run with zero secondaries exercises the
    // per-layer (slow) warm path; its latency must equal the fast path.
    let model = small_fc_model(24);
    let rt = ModelRuntime::new(&model, &v100(), 1);
    let machine = single_v100();
    let plan = all_load_plan(&model, None);
    let fast = run_warm(machine.clone(), rt.clone(), plan.clone(), 0);
    let spec = LaunchSpec {
        warm: true,
        distributed: true, // Forces the per-layer path; no hops occur.
        ..LaunchSpec::new(rt, plan, 0)
    };
    let (slow, _) = run_at(machine, vec![(SimTime::ZERO, spec)]);
    assert_eq!(
        fast.latency().as_nanos(),
        slow[0].latency().as_nanos(),
        "fast/slow warm paths disagree"
    );
}
