//! Decode-session resilience suite: the layer is byte-invisible while
//! disabled (the PR 9 decode golden replays exactly), a mid-decode GPU
//! crash loses no session and restores victims at a token step a
//! committed checkpoint actually covered, a zero checkpoint budget
//! degrades every victim to re-prefill, pool pressure freezes and thaws
//! sessions at the exact frozen step, and the SLO tiers shed hopeless
//! arrivals and truncate sessions that cannot meet their TPOT budget.

use std::collections::BTreeMap;

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::workload::decode::{assign_lengths, LengthDist};
use model_serving::workload::Request;
use model_serving::{
    poisson, run_server_faulted, DeployedModel, ServerConfig, ServingReport, SloTier,
};
use simcore::fault::FaultSpec;
use simcore::probe::{to_jsonl, Event, Probe, ProbeEvent, ShedCause};
use simcore::time::{SimDur, SimTime};

mod common;
use common::assert_bytes_eq;

/// Long-context sessions: deep prompts and long output horizons, so
/// victims carry a checkpoint mirror worth restoring and the restore
/// side of the planner's crossover gets exercised.
fn long_lengths() -> LengthDist {
    LengthDist {
        prompt_min: 128,
        prompt_max: 256,
        output_mean: 160,
        output_max: 320,
    }
}

/// One probed GPT-2 decode run on the 4-GPU machine with the resilience
/// layer armed (checkpoint cadence 2). `tweak` edits the config after
/// resilience is enabled; `shape` edits the trace after lengths are
/// assigned; `faults` is a [`FaultSpec`] grammar string (empty = none).
fn resilient_run(
    requests: usize,
    faults: &str,
    tweak: impl FnOnce(&mut ServerConfig),
    shape: impl FnOnce(&mut Vec<Request>),
) -> (ServingReport, Vec<Event>) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.decode.enabled = true;
    cfg.decode_resilience.enabled = true;
    cfg.decode_resilience.checkpoint_every = 2;
    tweak(&mut cfg);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::Gpt2),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 16];
    let mut trace = poisson::generate(80.0, 16, requests, SimTime::ZERO, 11);
    assign_lengths(&mut trace, long_lengths(), 11);
    shape(&mut trace);
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
    let events = log.borrow().events.clone();
    (report, events)
}

fn assert_no_session_lost(report: &ServingReport, requests: usize) {
    assert_eq!(
        report.completed + report.shed,
        requests as u64,
        "sessions vanished: {} completed + {} shed != {requests}",
        report.completed,
        report.shed
    );
    assert_eq!(report.kv_live_pages_at_end, 0, "KV pages leaked");
    assert_eq!(
        report.kv_allocs,
        report.kv_frees_gpu + report.kv_frees_host,
        "pager lifetime counters must reconcile"
    );
}

/// A deterministic mid-decode crash with a later recovery: by 300 ms the
/// long-context sessions on GPU 1 are several checkpoints deep.
const CRASH: &str = "gpu-fail@300ms:gpu=1; gpu-recover@800ms:gpu=1";

/// The decode golden scenario from `tests/decode.rs` with the resilience
/// layer left at its default (disabled): the run must be byte-identical
/// to the checked-in PR 9 golden — the layer is fully inert while off.
#[test]
fn disabled_resilience_replays_the_decode_golden_byte_for_byte() {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    assert!(
        !cfg.decode_resilience.enabled,
        "resilience must default off"
    );
    assert!(
        cfg.decode_resilience.tiers.is_empty(),
        "no SLO tier may be armed by default"
    );
    cfg.decode.enabled = true;
    cfg.decode.page_bytes = 64 << 10;
    cfg.decode.gpu_pool_bytes = 16 << 20;
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::Gpt2),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 16];
    let mut trace = poisson::generate(80.0, 16, 80, SimTime::ZERO, 11);
    assign_lengths(&mut trace, LengthDist::default(), 11);
    let (probe, log) = Probe::logging();
    run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &FaultSpec::none(),
    );
    let got = to_jsonl(&log.borrow().events);
    assert_bytes_eq(
        &got,
        include_str!("data/golden_decode.jsonl"),
        "golden_decode.jsonl",
    );
}

/// A GPU crash mid-decode under the resilience layer: no session is
/// lost, victims restore at a token step a committed checkpoint covered,
/// every recovery decision is visible, and the run replays
/// byte-identically.
#[test]
fn crash_recovery_restores_sessions_at_a_checkpointed_step() {
    const N: usize = 200;
    let (report, events) = resilient_run(N, CRASH, |_| {}, |_| {});
    assert_no_session_lost(&report, N);
    assert!(report.gpu_failures > 0, "the crash schedule never fired");
    assert!(report.ckpt_sessions > 0, "no session ever checkpointed");
    assert!(
        report.restore_decisions + report.reprefill_decisions > 0,
        "the crash never reached a recovery decision"
    );
    assert!(
        report.sessions_restored > 0,
        "long-context victims must restore from their mirrors"
    );
    // Every decision is visible in the probe stream, and every restore
    // resumed at a token step some committed checkpoint covered.
    let mut ckpt_tokens: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let mut decisions = 0u64;
    let mut restored = 0u64;
    for e in &events {
        match e.what {
            ProbeEvent::KvCheckpoint { req, tokens, .. } => {
                ckpt_tokens.entry(req).or_default().push(tokens);
            }
            ProbeEvent::RestoreDecision { .. } => decisions += 1,
            ProbeEvent::SessionRestored { req, tokens, .. } => {
                restored += 1;
                assert!(
                    ckpt_tokens.get(&req).is_some_and(|v| v.contains(&tokens)),
                    "session {req} restored at token {tokens} without a covering checkpoint"
                );
            }
            _ => {}
        }
    }
    assert_eq!(
        decisions,
        report.restore_decisions + report.reprefill_decisions
    );
    assert_eq!(restored, report.sessions_restored);
    // Recovery latency samples account for exactly the recovered
    // sessions, one sample per session from first crash to next token.
    assert_eq!(
        report.recovery_restore_ttft.len() as u64,
        report.sessions_restored
    );
    assert_eq!(
        report.recovery_reprefill_ttft.len() as u64,
        report.sessions_reprefilled
    );
    // No session completes twice, crash or not.
    let mut completions: BTreeMap<u64, u32> = BTreeMap::new();
    for e in &events {
        if let ProbeEvent::RequestCompleted { req, .. } = e.what {
            *completions.entry(req).or_default() += 1;
        }
    }
    assert!(
        completions.values().all(|&n| n == 1),
        "a session completed more than once"
    );
    // The whole recovery is deterministic: double-run byte identity.
    let (report2, events2) = resilient_run(N, CRASH, |_| {}, |_| {});
    assert_eq!(
        to_jsonl(&events),
        to_jsonl(&events2),
        "crash recovery must replay byte-identically"
    );
    assert_eq!(report.completed, report2.completed);
}

/// With the checkpoint bandwidth budget zeroed, no mirror is ever
/// streamed, so every crash victim degrades to the re-prefill path —
/// and still no session is lost.
#[test]
fn zero_checkpoint_bandwidth_degrades_every_victim_to_reprefill() {
    const N: usize = 200;
    let (report, events) = resilient_run(
        N,
        CRASH,
        |cfg| cfg.decode_resilience.checkpoint_bw = 0.0,
        |_| {},
    );
    assert_no_session_lost(&report, N);
    assert!(report.gpu_failures > 0, "the crash schedule never fired");
    assert_eq!(report.ckpt_sessions, 0);
    assert_eq!(report.ckpt_bytes, 0);
    assert!(
        !events
            .iter()
            .any(|e| matches!(e.what, ProbeEvent::KvCheckpoint { .. })),
        "a checkpoint was streamed with zero budget"
    );
    assert_eq!(
        report.restore_decisions, 0,
        "nothing can restore without a mirror"
    );
    assert!(
        report.reprefill_decisions > 0,
        "crash victims must fall back to re-prefill"
    );
    assert_eq!(report.sessions_restored, 0);
}

/// A starved device pool forces preemptive swap-out; frozen sessions
/// thaw at exactly the token step they froze at and still stream to
/// completion.
#[test]
fn pool_pressure_swaps_sessions_out_and_resumes_them_exactly() {
    const N: usize = 80;
    let (report, events) = resilient_run(
        N,
        "",
        |cfg| {
            cfg.decode.page_bytes = 64 << 10;
            cfg.decode.gpu_pool_bytes = 2 << 20;
        },
        |_| {},
    );
    assert_no_session_lost(&report, N);
    assert!(
        report.sessions_swapped > 0,
        "a 2 MiB pool under long contexts must trigger swap-out"
    );
    assert!(
        report.sessions_resumed > 0,
        "frozen sessions must thaw once pressure clears"
    );
    // Exact thaw: every resume matches the step its freeze recorded,
    // and no session is still frozen at drain.
    let mut frozen_at: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        match e.what {
            ProbeEvent::SessionSwappedOut { req, tokens, .. } => {
                frozen_at.insert(req, tokens);
            }
            ProbeEvent::SessionResumed { req, tokens, .. } => {
                assert_eq!(
                    frozen_at.remove(&req),
                    Some(tokens),
                    "session {req} thawed at a different step than it froze at"
                );
            }
            _ => {}
        }
    }
    assert!(
        frozen_at.is_empty(),
        "sessions still frozen at drain: {frozen_at:?}"
    );
    // Swapped sessions still deliver their full token streams.
    assert_eq!(report.decode_completed, report.completed);
}

/// Tiered admission: with a TTFT budget of zero, any arrival that would
/// have to queue behind in-flight work is hopeless and is shed up front
/// with a visible `slo-reject` — never silently dropped.
#[test]
fn tier_admission_sheds_hopeless_arrivals() {
    const N: usize = 200;
    let (report, events) = resilient_run(
        N,
        "",
        |cfg| {
            cfg.decode_resilience.tiers = vec![SloTier {
                min_priority: 0,
                ttft_slo: SimDur::ZERO,
                tpot_slo: SimDur::from_secs(10),
            }];
        },
        |_| {},
    );
    assert_no_session_lost(&report, N);
    assert!(report.shed > 0, "a zero TTFT budget must shed queued load");
    let slo_rejects = events
        .iter()
        .filter(|e| {
            matches!(
                e.what,
                ProbeEvent::RequestShed {
                    cause: ShedCause::SloReject,
                    ..
                }
            )
        })
        .count() as u64;
    assert!(slo_rejects > 0, "tier rejections must be visible");
    assert!(slo_rejects <= report.shed);
}

/// TPOT degradation: a tier whose per-token budget no real step can meet
/// truncates every multi-token session at its next step boundary; the
/// truncated stream still completes, with the truncation visible.
#[test]
fn tpot_budget_truncates_slow_sessions() {
    const N: usize = 80;
    let (report, events) = resilient_run(
        N,
        "",
        |cfg| {
            cfg.decode_resilience.tiers = vec![SloTier {
                min_priority: 0,
                ttft_slo: SimDur::from_secs(100),
                tpot_slo: SimDur::from_nanos(1),
            }];
        },
        |_| {},
    );
    assert_no_session_lost(&report, N);
    assert!(
        report.sessions_truncated > 0,
        "an unmeetable TPOT budget must truncate sessions"
    );
    // Truncations are visible, strictly shortening, and final: the
    // session's finished token count is exactly the truncated count.
    let mut truncated_to: BTreeMap<u64, u64> = BTreeMap::new();
    for e in &events {
        if let ProbeEvent::SessionTruncated {
            req,
            tokens,
            target,
            ..
        } = e.what
        {
            assert!(
                tokens < target,
                "truncation of {req} did not shorten the stream"
            );
            truncated_to.insert(req, tokens);
        }
    }
    assert_eq!(truncated_to.len() as u64, report.sessions_truncated);
    let mut finished_truncated = 0u64;
    for e in &events {
        if let ProbeEvent::DecodeFinished { req, tokens, .. } = e.what {
            if let Some(&cut) = truncated_to.get(&req) {
                assert_eq!(
                    tokens, cut,
                    "session {req} finished past its truncation point"
                );
                finished_truncated += 1;
            }
        }
    }
    assert_eq!(finished_truncated, truncated_to.len() as u64);
}
