//! Chaos soak: a long randomized fault schedule (crashes, flaps,
//! slowdowns, memory pressure) at a fixed seed. Invariants: no request
//! is ever silently lost (completed + shed always accounts for every
//! arrival, and every shed is visible in the probe stream), and the
//! whole run replays byte-identically — with and without recovery.

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::{poisson, run_server_faulted, DeployedModel, ServerConfig, ServingReport};
use simcore::fault::FaultSpec;
use simcore::probe::{to_jsonl, Event, Probe, ProbeEvent};
use simcore::time::SimTime;

const REQUESTS: usize = 2_000;

/// Two independently crashing GPUs, a flapping PCIe link, a compute
/// slowdown window and a host-memory squeeze, all overlapping.
const CHAOS: &str = "gpu-crash:gpu=1,mtbf=2s,mttr=400ms; \
                     gpu-crash:gpu=3,mtbf=3s,mttr=600ms; \
                     link-flap:pcie=0,up=700ms,down=150ms,factor=0.2; \
                     slowdown@3s:factor=2; slowdown-end@6s; \
                     mem-pressure@8s:bytes=235g; mem-release@10s";

/// The announced chaos plus a layer of *silent* faults the oracle never
/// reports: a gray PCIe slowdown, a stuck flow and a corrupt transfer.
const CHAOS_SILENT: &str = "gpu-crash:gpu=1,mtbf=2s,mttr=400ms; \
                            gpu-crash:gpu=3,mtbf=3s,mttr=600ms; \
                            link-flap:pcie=0,up=700ms,down=150ms,factor=0.2; \
                            slowdown@3s:factor=2; slowdown-end@6s; \
                            mem-pressure@8s:bytes=235g; mem-release@10s; \
                            silent-link-slow@4s:pcie=1,factor=0.5; \
                            silent-link-restore@7s:pcie=1; \
                            stuck-flow@5s:pcie=1,stall=300ms; \
                            corrupt-transfer@5500ms:pcie=1";

fn soak(recovery: bool) -> (ServingReport, Vec<Event>) {
    soak_spec(CHAOS, recovery, false)
}

fn soak_spec(spec: &str, recovery: bool, detection: bool) -> (ServingReport, Vec<Event>) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.recovery.enabled = recovery;
    cfg.detection.enabled = detection;
    cfg.admission.queue_cap = Some(64);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 80];
    let trace = poisson::generate(120.0, 80, REQUESTS, SimTime::ZERO, 0xC4A05);
    let faults = FaultSpec::parse(spec, 0xC4A05).expect("valid chaos spec");
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

fn assert_nothing_silently_lost(report: &ServingReport, events: &[Event]) {
    assert_eq!(
        report.completed + report.shed,
        REQUESTS as u64,
        "requests vanished: {} completed + {} shed != {REQUESTS}",
        report.completed,
        report.shed
    );
    let shed_events = events
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::RequestShed { .. }))
        .count() as u64;
    assert_eq!(
        shed_events, report.shed,
        "every shed must be visible in the probe stream"
    );
    let completions = events
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::RequestCompleted { .. }))
        .count() as u64;
    assert_eq!(completions, report.completed);
    assert!(
        report.gpu_failures > 0,
        "chaos schedule never crashed a GPU"
    );
}

#[test]
fn chaos_soak_loses_nothing_and_replays_identically() {
    let (report, events) = soak(false);
    assert_nothing_silently_lost(&report, &events);
    let (report2, events2) = soak(false);
    assert_eq!(
        to_jsonl(&events),
        to_jsonl(&events2),
        "chaos soak must replay byte-identically"
    );
    assert_eq!(report.completed, report2.completed);
}

#[test]
fn chaos_soak_with_recovery_loses_nothing_and_replays_identically() {
    let (report, events) = soak(true);
    assert_nothing_silently_lost(&report, &events);
    assert!(report.replans > 0, "chaos never triggered a re-plan");
    let (_, events2) = soak(true);
    assert_eq!(to_jsonl(&events), to_jsonl(&events2));
}

#[test]
fn chaos_soak_with_silent_faults_and_detection_loses_nothing() {
    let (report, events) = soak_spec(CHAOS_SILENT, true, true);
    assert_nothing_silently_lost(&report, &events);
    assert!(report.replans > 0, "chaos never triggered a re-plan");
    let (_, events2) = soak_spec(CHAOS_SILENT, true, true);
    assert_eq!(
        to_jsonl(&events),
        to_jsonl(&events2),
        "silent faults plus detection must replay byte-identically"
    );
}

mod decode_chaos {
    //! GPU crashes landing mid-decode: the teardown must free the
    //! continuous batch without leaking a single KV page, the step guard
    //! must turn the cut step's timers and flows into no-ops, every
    //! aborted request must be retried or shed (never silently lost), and
    //! the whole thing must replay byte-identically.

    use std::collections::BTreeMap;

    use super::*;
    use model_serving::decode::{assign_lengths, LengthDist};

    const DECODE_REQUESTS: usize = 400;

    /// Crashing GPUs under an autoregressive GPT-2 workload with a
    /// deliberately tight device KV pool, so crashes land while decode
    /// batches are mid-step and the pager is under spill pressure.
    const DECODE_CHAOS: &str = "gpu-crash:gpu=1,mtbf=2s,mttr=400ms; \
                                gpu-crash:gpu=3,mtbf=3s,mttr=600ms; \
                                link-flap:pcie=0,up=700ms,down=150ms,factor=0.2";

    fn decode_soak(resilience: bool) -> (ServingReport, Vec<Event>) {
        let machine = p3_8xlarge();
        let mode = PlanMode::PtDha;
        let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
        cfg.decode.enabled = true;
        cfg.decode.gpu_pool_bytes = 32 << 20;
        cfg.decode_resilience.enabled = resilience;
        if resilience {
            cfg.decode_resilience.checkpoint_every = 2;
        }
        cfg.admission.queue_cap = Some(64);
        let kinds = vec![DeployedModel::prepare(
            &build(ModelId::Gpt2),
            &machine,
            mode,
            cfg.max_pt_gpus,
        )];
        let instance_kinds = vec![0usize; 32];
        let mut trace = poisson::generate(80.0, 32, DECODE_REQUESTS, SimTime::ZERO, 0xDECA7);
        assign_lengths(&mut trace, LengthDist::default(), 0xDECA7);
        let faults = FaultSpec::parse(DECODE_CHAOS, 0xDECA7).expect("valid chaos spec");
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

    /// The step guard, walked over the event log: each
    /// `TokenStepStarted {gpu, step}` has exactly one `TokenStepFinished`
    /// for the same pair, unless a `GpuFailed` for that GPU lands between
    /// them, in which case it has none. A finish must close its GPU's
    /// open step, so no step finishes twice. Returns how many steps a
    /// crash cut, so a caller can check the walk saw one.
    fn assert_steps_guarded(events: &[Event]) -> usize {
        // Per GPU, the step in flight and whether a crash has cut it.
        let mut open: BTreeMap<usize, (u64, bool)> = BTreeMap::new();
        let mut cut = 0;
        for e in events {
            match e.what {
                ProbeEvent::TokenStepStarted { gpu, step, .. } => {
                    if let Some((prev, crashed)) = open.insert(gpu, (step, false)) {
                        assert!(crashed, "gpu {gpu} step {prev} never finished");
                        cut += 1;
                    }
                }
                ProbeEvent::GpuFailed { gpu } => {
                    if let Some((_, crashed)) = open.get_mut(&gpu) {
                        *crashed = true;
                    }
                }
                ProbeEvent::TokenStepFinished { gpu, step, .. } => {
                    assert_eq!(
                        open.remove(&gpu),
                        Some((step, false)),
                        "gpu {gpu} step {step} finished but was not in flight, \
                         or a crash had cut it"
                    );
                }
                _ => {}
            }
        }
        for (gpu, (step, crashed)) in open {
            assert!(crashed, "gpu {gpu} step {step} never finished");
            cut += 1;
        }
        cut
    }

    #[test]
    fn gpu_crash_mid_decode_leaks_no_kv_pages_and_replays_identically() {
        let (report, events) = decode_soak(false);
        let cut = assert_steps_guarded(&events);
        assert!(cut > 0, "no crash landed mid-step");
        assert_eq!(
            report.completed + report.shed,
            DECODE_REQUESTS as u64,
            "requests vanished: {} completed + {} shed != {DECODE_REQUESTS}",
            report.completed,
            report.shed
        );
        assert!(report.gpu_failures > 0, "chaos never crashed a GPU");
        assert!(
            report.aborted_runs > 0,
            "no crash landed while work was in flight"
        );
        assert!(
            report.decode_completed > 0,
            "nothing streamed to completion"
        );
        assert!(report.kv_spills > 0, "tight pool never spilled");
        // The leak proof: after crashes, retries and the final drain,
        // not one KV page remains in any pool.
        assert_eq!(
            report.kv_live_pages_at_end, 0,
            "KV pages leaked across GPU crashes"
        );
        // Lifetime reconciliation: every page the pager ever handed out
        // was freed exactly once, from whichever pool it lived in last.
        assert_eq!(
            report.kv_allocs,
            report.kv_frees_gpu + report.kv_frees_host,
            "pager lifetime counters must reconcile: {} allocs != {} gpu + {} host frees",
            report.kv_allocs,
            report.kv_frees_gpu,
            report.kv_frees_host
        );
        // Crashes interrupted live decode batches, not just prefills:
        // some requests joined a batch (FirstToken) more than once.
        let mut first_tokens: std::collections::BTreeMap<u64, u32> = Default::default();
        for e in &events {
            if let ProbeEvent::FirstToken { req, .. } = e.what {
                *first_tokens.entry(req).or_default() += 1;
            }
        }
        assert!(
            first_tokens.values().any(|&n| n > 1),
            "no request was ever re-prefetched after a mid-decode crash"
        );
        let (report2, events2) = decode_soak(false);
        assert_eq!(to_jsonl(&events), to_jsonl(&events2));
        assert_eq!(report.completed, report2.completed);
    }

    #[test]
    fn resilient_decode_chaos_loses_no_session_and_resumes_exactly() {
        let (report, events) = decode_soak(true);
        let cut = assert_steps_guarded(&events);
        assert!(cut > 0, "no crash landed mid-step");
        // No session is ever lost: every arrival either streams to
        // completion or is shed visibly — crashes included.
        assert_eq!(
            report.completed + report.shed,
            DECODE_REQUESTS as u64,
            "sessions vanished: {} completed + {} shed != {DECODE_REQUESTS}",
            report.completed,
            report.shed
        );
        assert!(report.gpu_failures > 0, "chaos never crashed a GPU");
        assert!(report.ckpt_sessions > 0, "no session ever checkpointed");
        assert!(
            report.restore_decisions + report.reprefill_decisions > 0,
            "crashes never reached a recovery decision"
        );
        assert_eq!(report.kv_live_pages_at_end, 0, "KV pages leaked");
        assert_eq!(
            report.kv_allocs,
            report.kv_frees_gpu + report.kv_frees_host,
            "pager lifetime counters must reconcile under resilience"
        );
        // Exact-resume proof: a restored session rejoins at a token step
        // some committed checkpoint actually covered, and a resumed
        // (swapped-out) session rejoins at exactly the step it froze at.
        let mut ckpt_tokens: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
        let mut frozen_at: std::collections::BTreeMap<u64, u64> = Default::default();
        for e in &events {
            match e.what {
                ProbeEvent::KvCheckpoint { req, tokens, .. } => {
                    ckpt_tokens.entry(req).or_default().push(tokens);
                }
                ProbeEvent::SessionRestored { req, tokens, .. } => {
                    assert!(
                        ckpt_tokens.get(&req).is_some_and(|v| v.contains(&tokens)),
                        "session {req} restored at token {tokens} without a covering checkpoint"
                    );
                }
                ProbeEvent::SessionSwappedOut { req, tokens, .. } => {
                    frozen_at.insert(req, tokens);
                }
                ProbeEvent::SessionResumed { req, tokens, .. } => {
                    assert_eq!(
                        frozen_at.remove(&req),
                        Some(tokens),
                        "session {req} resumed at a different token step than it froze at"
                    );
                }
                _ => {}
            }
        }
        if report.sessions_restored > 0 {
            assert!(
                !ckpt_tokens.is_empty(),
                "restores happened without any checkpoint commits"
            );
        }
        let (report2, events2) = decode_soak(true);
        assert_eq!(
            to_jsonl(&events),
            to_jsonl(&events2),
            "resilient decode chaos must replay byte-identically"
        );
        assert_eq!(report.completed, report2.completed);
    }
}

#[test]
fn silent_chaos_with_detection_disabled_is_inert_and_deterministic() {
    // Detection off: the silent faults still bend the physics, but
    // nothing watches — no quarantine, no canary, no hedge, no refetch
    // — and the run still loses nothing and replays identically.
    let (report, events) = soak_spec(CHAOS_SILENT, true, false);
    assert_nothing_silently_lost(&report, &events);
    assert_eq!(report.quarantines, 0);
    assert_eq!(report.canaries, 0);
    assert_eq!(report.hedged_transfers, 0);
    assert_eq!(report.checksum_refetches, 0);
    let (_, events2) = soak_spec(CHAOS_SILENT, true, false);
    assert_eq!(to_jsonl(&events), to_jsonl(&events2));
}
