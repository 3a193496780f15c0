//! Byte identity of the decode paths no checked-in golden covers.
//!
//! `golden_decode.jsonl` pins `Auto` placement at 64 KiB pages. These
//! runs pin the rest of the KV pager's callers: forced recall under a
//! tight device pool, forced DHA, `Auto` at 2 KiB pages, and a
//! resilience run with GPU crashes, swap-out/resume and
//! checkpoint/restore under recovery and detection. Each is pinned by
//! a 64-bit FNV-1a hash of its `to_jsonl` output.
//!
//! The hashes were recorded with the pager that scanned its whole slab
//! for every victim selection. They held through the per-page LRU lists
//! that replaced that scan and through the page-run pager that replaced
//! those lists, whose bulk spill, swap-out and recall move whole runs;
//! the page ids and the order of every `KvPage*` event are in the
//! hashes, so a pass proves each pager replays the first bit for bit.
//! Every test first asserts that its run spills, recalls, reads in
//! place, swaps or restores as intended, so no hash pins a run that
//! skipped its path.

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::workload::decode::{assign_lengths, LengthDist};
use model_serving::{
    poisson, run_server_faulted, DeployedModel, KvMode, ServerConfig, ServingReport,
};
use simcore::fault::FaultSpec;
use simcore::probe::{to_jsonl, Probe};
use simcore::time::SimTime;

mod common;
use common::fnv1a64;

/// One probed GPT-2 decode run on the 4-GPU machine, 16 instances at
/// seed 11. `tweak` edits the config after decode is enabled. Returns
/// the report and the hash of the JSONL event log.
fn decode_run(
    requests: usize,
    lengths: LengthDist,
    faults: &str,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ServingReport, String) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.decode.enabled = true;
    tweak(&mut cfg);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::Gpt2),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 16];
    let mut trace = poisson::generate(80.0, 16, requests, SimTime::ZERO, 11);
    assign_lengths(&mut trace, lengths, 11);
    let faults = if faults.is_empty() {
        FaultSpec::none()
    } else {
        FaultSpec::parse(faults, 11).expect("static fault spec parses")
    };
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let hash = fnv1a64(to_jsonl(&log.borrow().events).as_bytes());
    (report, format!("{hash:#018x}"))
}

fn assert_drained(r: &ServingReport, requests: usize) {
    assert_eq!(r.completed + r.shed, requests as u64, "sessions vanished");
    assert_eq!(r.kv_live_pages_at_end, 0, "KV pages leaked");
    assert_eq!(r.kv_allocs, r.kv_frees_gpu + r.kv_frees_host);
}

/// Forced recall into an 8 MiB device pool: every spilled page the step
/// reads is copied back, evicting colder pages to make room.
#[test]
fn forced_recall_under_a_tight_pool_replays_its_recorded_bytes() {
    let (r, hash) = decode_run(48, LengthDist::default(), "", |cfg| {
        cfg.decode.gpu_pool_bytes = 8 << 20;
        cfg.decode.kv_mode = KvMode::Recall;
    });
    assert_drained(&r, 48);
    assert!(r.kv_spills > 0, "the tight pool never spilled");
    assert!(r.kv_recalls > 0, "forced recall never copied a page back");
    assert_eq!(hash, "0x232295e67204ab3a");
}

/// Forced DHA: spilled pages are only ever read in place.
#[test]
fn forced_dha_replays_its_recorded_bytes() {
    let (r, hash) = decode_run(48, LengthDist::default(), "", |cfg| {
        cfg.decode.gpu_pool_bytes = 8 << 20;
        cfg.decode.kv_mode = KvMode::Dha;
    });
    assert_drained(&r, 48);
    assert!(r.kv_spills > 0, "the tight pool never spilled");
    assert!(r.kv_dha_reads > 0, "no spilled page was read in place");
    assert_eq!(r.kv_recalls, 0, "forced DHA recalled a page");
    assert_eq!(hash, "0xe50ed1cc866b2c73");
}

/// `Auto` at 2 KiB pages, where the crossover picks DHA for most pages
/// and many small pages churn through the LRU lists.
#[test]
fn auto_at_2kib_pages_replays_its_recorded_bytes() {
    let (r, hash) = decode_run(48, LengthDist::default(), "", |cfg| {
        cfg.decode.page_bytes = 2 << 10;
        cfg.decode.gpu_pool_bytes = 4 << 20;
    });
    assert_drained(&r, 48);
    assert!(r.kv_spills > 0, "the tight pool never spilled");
    assert!(r.kv_dha_reads > 0, "no spilled page was read in place");
    assert_eq!(hash, "0xd2958f0e76738a95");
}

/// Resilience with recovery and detection on: mid-decode crashes of two
/// GPUs restore checkpointed sessions, and a starved pool swaps sessions
/// out and resumes them.
#[test]
fn resilience_with_crash_swap_and_restore_replays_its_recorded_bytes() {
    let long = LengthDist {
        prompt_min: 128,
        prompt_max: 256,
        output_mean: 160,
        output_max: 320,
    };
    let crash = "gpu-fail@300ms:gpu=1; gpu-recover@800ms:gpu=1; \
                 gpu-fail@600ms:gpu=2; gpu-recover@1s:gpu=2";
    let (r, hash) = decode_run(64, long, crash, |cfg| {
        cfg.decode.page_bytes = 64 << 10;
        cfg.decode.gpu_pool_bytes = 4 << 20;
        cfg.decode_resilience.enabled = true;
        cfg.decode_resilience.checkpoint_every = 2;
        cfg.recovery.enabled = true;
        cfg.detection.enabled = true;
    });
    assert_drained(&r, 64);
    assert!(r.gpu_failures > 0, "the crash never fired");
    assert!(r.kv_spills > 0, "the pool never spilled");
    assert!(r.sessions_swapped > 0, "no session was swapped out");
    assert!(r.sessions_resumed > 0, "no swapped session resumed");
    assert!(r.sessions_restored > 0, "no crash victim restored");
    assert_eq!(hash, "0x19f21b2ee533e2bb");
}
