//! Byte identity of the planner's output.
//!
//! Every `catalog()` model × `PlanMode::all()` × machine preset is
//! planned twice: healthy through `generate`, and degraded through
//! `generate_degraded` with the upper half of the GPUs down and GPU 0's
//! host link at a fifth of its capacity (a single-GPU machine keeps its
//! GPU and only loses link capacity). Each plan is pinned by a 64-bit FNV-1a hash of its
//! `to_json()` text in `tests/data/golden_plan_hashes.txt`, one line per
//! (machine, model, mode).

use dnn_models::zoo::{build, catalog};
use exec_planner::degraded::generate_degraded;
use exec_planner::generate::{generate, PlanMode};
use gpu_topology::presets::{a5000_dual, dgx1_like, p3_8xlarge, single_v100};
use layer_profiler::profiler::Profiler;

mod common;
use common::fnv1a64;

const GOLDEN: &str = include_str!("data/golden_plan_hashes.txt");

fn plan_hashes() -> String {
    let mut out = String::new();
    for machine in [p3_8xlarge(), single_v100(), a5000_dual(), dgx1_like()] {
        let n = machine.gpu_count();
        let up: Vec<bool> = (0..n).map(|g| g < n.div_ceil(2)).collect();
        let profiler = Profiler::exact(machine.gpu(0).clone());
        for id in catalog() {
            let (profile, _) = profiler.profile(&build(id), 1);
            for mode in PlanMode::all() {
                let healthy = generate(&profile, &machine, mode, 2);
                let degraded = generate_degraded(&profile, &machine, mode, 2, &up, &[0.2]);
                out.push_str(&format!(
                    "{} | {id} | {mode} | {:#018x} {:#018x}\n",
                    machine.name,
                    fnv1a64(healthy.to_json().as_bytes()),
                    fnv1a64(degraded.to_json().as_bytes()),
                ));
            }
        }
    }
    out
}

#[test]
fn plans_keep_their_recorded_hashes() {
    let got = plan_hashes();
    let diverged: Vec<String> = got
        .lines()
        .zip(GOLDEN.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got:  {g}\n  want: {w}"))
        .collect();
    assert!(
        diverged.is_empty(),
        "plans diverged:\n{}",
        diverged.join("\n")
    );
    assert_eq!(got.lines().count(), GOLDEN.lines().count(), "row count");
}
