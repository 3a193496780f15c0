//! Kernel-swap byte-identity anchors.
//!
//! The event-kernel fast path (heap event queue, slab-backed events,
//! incremental re-rating, enum probe dispatch) must change *nothing*
//! observable: these tests re-run the three checked-in golden scenarios
//! — the fig15-style serving trace, a faulted run and a
//! detection-enabled run — and diff the JSONL event log byte-for-byte
//! against the files under `tests/data/`.
//!
//! The goldens were generated with the pre-optimization
//! `BinaryHeap`-based kernel via `deepplan-cli serve` (the exact
//! command is noted on each test), so a pass here proves the swapped
//! kernel replays the old kernel's schedule bit-for-bit. Regenerate a
//! golden only when an *intentional* semantic change lands, with:
//!
//! ```text
//! cargo run --release -p deepplan --bin deepplan-cli -- serve ... --events-out <golden>
//! ```

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::{poisson, run_server_faulted, DeployedModel, ServerConfig};
use simcore::fault::FaultSpec;
use simcore::probe::{to_jsonl, Probe};
use simcore::time::SimTime;

/// Mirrors `deepplan-cli serve bert-base` with the given knobs and
/// returns the JSONL event log.
fn serve_jsonl(
    concurrency: usize,
    requests: usize,
    rate: f64,
    seed: u64,
    recovery: bool,
    detection: bool,
    fault_spec: &str,
) -> String {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.recovery.enabled = recovery;
    cfg.detection.enabled = detection;
    let faults = if fault_spec.is_empty() {
        FaultSpec::none()
    } else {
        FaultSpec::parse(fault_spec, seed).expect("valid fault spec")
    };
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, requests, SimTime::ZERO, seed);
    let (probe, log) = Probe::logging();
    run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let events = log.borrow().events.clone();
    to_jsonl(&events)
}

/// Asserts byte equality with a diff-friendly failure message: the
/// first differing line is reported instead of two multi-megabyte
/// strings.
fn assert_bytes_eq(got: &str, want: &str, golden: &str) {
    if got == want {
        return;
    }
    let mismatch = got
        .lines()
        .zip(want.lines())
        .position(|(g, w)| g != w)
        .unwrap_or_else(|| got.lines().count().min(want.lines().count()));
    let g = got.lines().nth(mismatch).unwrap_or("<eof>");
    let w = want.lines().nth(mismatch).unwrap_or("<eof>");
    panic!(
        "{golden}: kernel output diverged from checked-in golden at line {}:\n  got:  {g}\n  want: {w}\n\
         (got {} lines, want {} lines)",
        mismatch + 1,
        got.lines().count(),
        want.lines().count()
    );
}

/// `serve bert-base --concurrency 140 --requests 60` (rate 100, seed
/// 11): the fig15-style golden trace that also anchors the attribution
/// analyzer.
#[test]
fn fig15_golden_trace_replays_byte_identically() {
    let got = serve_jsonl(140, 60, 100.0, 11, false, false, "");
    let want = include_str!("data/golden_trace.jsonl");
    assert_bytes_eq(&got, want, "golden_trace.jsonl");
}

/// `serve bert-base --concurrency 40 --requests 300 --rate 150 --seed 7
/// --faults 'gpu-fail@500ms:gpu=2; gpu-recover@1200ms:gpu=2;
/// link-flap:pcie=0,up=400ms,down=100ms,factor=0.3'`: an announced
/// fault schedule exercising GPU teardown, flow cancellation and
/// mid-run link re-rating.
#[test]
fn faulted_golden_trace_replays_byte_identically() {
    let got = serve_jsonl(
        40,
        300,
        150.0,
        7,
        false,
        false,
        "gpu-fail@500ms:gpu=2; gpu-recover@1200ms:gpu=2; \
         link-flap:pcie=0,up=400ms,down=100ms,factor=0.3",
    );
    let want = include_str!("data/golden_faulted.jsonl");
    assert_bytes_eq(&got, want, "golden_faulted.jsonl");
}

/// `serve bert-base --concurrency 160 --requests 200 --rate 150 --seed 7
/// --recovery --detection --faults 'silent-link-slow@600ms:pcie=0,factor=0.35;
/// silent-link-restore@1600ms:pcie=0'`: the gray-failure detector
/// quarantines a silently degraded link and the recovery plane
/// re-plans around it — the densest consumer of flow re-rating and
/// probe dispatch.
#[test]
fn detection_golden_trace_replays_byte_identically() {
    let got = serve_jsonl(
        160,
        200,
        150.0,
        7,
        true,
        true,
        "silent-link-slow@600ms:pcie=0,factor=0.35; silent-link-restore@1600ms:pcie=0",
    );
    let want = include_str!("data/golden_detection.jsonl");
    assert_bytes_eq(&got, want, "golden_detection.jsonl");
}
