//! Decode integration suite: TTFT/TPOT accounting is *exact* under an
//! attribution-style walk of the probe stream, continuous batching
//! never reorders equal-priority completions, the KV spill→recall
//! roundtrip preserves per-request token counts, and the differential
//! anchors hold — decode-off runs are byte-identical to the PR 8
//! `kernel_identity` goldens even with token lengths assigned, and the
//! decode golden trace replays byte-for-byte across double runs.
//!
//! The decode golden was generated with:
//!
//! ```text
//! cargo run --release -p deepplan --bin deepplan-cli -- \
//!     serve gpt2 --decode --concurrency 16 --requests 80 --rate 80 \
//!     --seed 11 --page-kib 64 --kv-pool-mib 16 \
//!     --events-out tests/data/golden_decode.jsonl
//! ```

use std::collections::BTreeMap;

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::workload::decode::{assign_lengths, LengthDist};
use model_serving::workload::Request;
use model_serving::{
    poisson, run_server_probed, DeployedModel, KvMode, ServerConfig, ServingReport,
};
use simcore::probe::{to_jsonl, Event, Probe, ProbeEvent};
use simcore::time::SimTime;

mod common;
use common::assert_bytes_eq;

/// One probed GPT-2 decode run on the 4-GPU machine. `tweak` edits the
/// config after decode is enabled; `shape` edits the trace after
/// lengths are assigned.
fn decode_run(
    requests: usize,
    tweak: impl FnOnce(&mut ServerConfig),
    shape: impl FnOnce(&mut Vec<Request>),
) -> (ServingReport, Vec<Event>, Vec<Request>) {
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
    let mut trace = poisson::generate(60.0, 16, requests, SimTime::ZERO, 11);
    assign_lengths(&mut trace, LengthDist::default(), 42);
    shape(&mut trace);
    let (probe, log) = Probe::logging();
    let report = run_server_probed(
        cfg,
        kinds,
        &instance_kinds,
        trace.clone(),
        SimTime::ZERO,
        probe,
    );
    let events = log.borrow().events.clone();
    (report, events, trace)
}

/// Per-request decode timeline reconstructed from the probe stream.
#[derive(Default, Clone, Copy)]
struct Walked {
    enqueued: Option<SimTime>,
    first_token: Option<(SimTime, u64)>,
    completed: Option<(SimTime, u64)>,
    finished: Option<(u64, u64, u64)>, // (tokens, ttft_ns, tpot_ns)
}

fn walk(events: &[Event]) -> BTreeMap<u64, Walked> {
    let mut m: BTreeMap<u64, Walked> = BTreeMap::new();
    for e in events {
        match e.what {
            ProbeEvent::RequestEnqueued { req, .. } => {
                m.entry(req).or_default().enqueued.get_or_insert(e.at);
            }
            ProbeEvent::FirstToken { req, ttft_ns, .. } => {
                m.entry(req).or_default().first_token = Some((e.at, ttft_ns));
            }
            ProbeEvent::RequestCompleted {
                req, latency_ns, ..
            } => {
                m.entry(req).or_default().completed = Some((e.at, latency_ns));
            }
            ProbeEvent::DecodeFinished {
                req,
                tokens,
                ttft_ns,
                tpot_ns,
                ..
            } => {
                m.entry(req).or_default().finished = Some((tokens, ttft_ns, tpot_ns));
            }
            _ => {}
        }
    }
    m
}

#[test]
fn ttft_tpot_accounting_is_exact_under_the_event_walk() {
    let (report, events, trace) = decode_run(120, |_| {}, |_| {});
    assert_eq!(report.completed, 120);
    assert_eq!(report.decode_completed, 120);
    let walked = walk(&events);
    let mut total_tokens = 0u64;
    for (req, w) in &walked {
        let arrival = w.enqueued.expect("every request is enqueued");
        let (ft_at, ft_ttft) = w.first_token.expect("every request streams");
        let (done_at, latency) = w.completed.expect("every request completes");
        let (tokens, ttft, tpot) = w.finished.expect("every request decode-finishes");
        // TTFT is exactly the arrival → prefill-completion span, agreed
        // on by the FirstToken and DecodeFinished events.
        assert_eq!(ft_ttft, (ft_at - arrival).as_nanos(), "req {req}");
        assert_eq!(ttft, ft_ttft, "req {req}");
        // End-to-end latency is exactly arrival → final token.
        assert_eq!(latency, (done_at - arrival).as_nanos(), "req {req}");
        // TPOT is exactly the decode span divided by the post-first
        // steps; the walk reconstructs it to the nanosecond.
        let steps = (tokens - 1).max(1);
        assert_eq!(tpot, (done_at - ft_at).as_nanos() / steps, "req {req}");
        // The decomposition closes: ttft + steps·tpot reaches latency
        // up to the integer-division remainder (< one ns per step).
        let rebuilt = ttft + tpot * steps;
        assert!(rebuilt <= latency && latency - rebuilt < steps, "req {req}");
        // Token counts come from the trace, not the scheduler.
        assert_eq!(
            tokens,
            u64::from(trace[usize::try_from(*req).unwrap()].output_tokens),
            "req {req}"
        );
        total_tokens += tokens;
    }
    assert_eq!(walked.len() as u64, report.decode_completed);
    assert_eq!(report.tokens_generated, total_tokens);
    assert_eq!(report.ttft.len() as u64, report.decode_completed);
    assert_eq!(report.tpot.len() as u64, report.decode_completed);
    // Every token step accounts for exactly one token per batched
    // request: the per-step batch sizes sum to the post-first tokens.
    let stepped: u64 = events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::TokenStepFinished { batch, .. } => Some(batch as u64),
            _ => None,
        })
        .sum();
    assert_eq!(stepped, report.tokens_generated - report.decode_completed);
}

#[test]
fn equal_priority_completions_never_reorder_across_join_leave() {
    // Uniform targets: every request needs the same number of steps
    // after joining, so per-GPU completions must replay the exact join
    // (FirstToken) order — continuous batching may interleave requests
    // freely but never overtake an equal-priority peer.
    let (report, events, _) = decode_run(
        120,
        |_| {},
        |trace| {
            for r in trace.iter_mut() {
                r.output_tokens = 8;
            }
        },
    );
    assert_eq!(report.decode_completed, 120);
    let mut joins: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut completions: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    for e in &events {
        match e.what {
            ProbeEvent::FirstToken { req, gpu, .. } => joins.entry(gpu).or_default().push(req),
            ProbeEvent::RequestCompleted { req, gpu, .. } => {
                completions.entry(gpu).or_default().push(req);
            }
            _ => {}
        }
    }
    assert!(joins.len() > 1, "workload should span several GPUs");
    for (gpu, joined) in &joins {
        assert_eq!(
            &completions[gpu], joined,
            "gpu {gpu}: completions must drain in join order"
        );
    }
}

#[test]
fn spill_recall_roundtrip_preserves_per_request_token_counts() {
    // A tight device pool under forced-recall placement churns pages
    // host↔device continuously; no token may be lost or duplicated.
    let (report, events, trace) = decode_run(
        80,
        |cfg| {
            cfg.decode.gpu_pool_bytes = 8 << 20;
            cfg.decode.kv_mode = KvMode::Recall;
        },
        |_| {},
    );
    assert_eq!(report.completed, 80);
    assert_eq!(report.decode_completed, 80);
    assert!(report.kv_spills > 0, "tight pool must spill");
    assert!(report.kv_recalls > 0, "forced recall must copy pages back");
    assert_eq!(report.kv_live_pages_at_end, 0, "pager must drain");
    // Every recall reunites a page with the request that spilled it.
    let mut spilled_owner: BTreeMap<usize, u64> = BTreeMap::new();
    for e in &events {
        match e.what {
            ProbeEvent::KvPageSpill { req, page, .. } => {
                spilled_owner.insert(page, req);
            }
            ProbeEvent::KvPageRecall { req, page, .. } => {
                assert_eq!(
                    spilled_owner.get(&page),
                    Some(&req),
                    "page {page} recalled by a request that never spilled it"
                );
            }
            _ => {}
        }
    }
    // And the roundtrip never bends the stream: token counts still
    // match the trace exactly.
    for (req, w) in walk(&events) {
        let (tokens, ..) = w.finished.expect("every request decode-finishes");
        assert_eq!(
            tokens,
            u64::from(trace[usize::try_from(req).unwrap()].output_tokens),
            "req {req}"
        );
    }
}

mod differential {
    //! The determinism anchors: decode off must be byte-invisible, and
    //! decode on must be byte-reproducible.

    use super::*;
    use model_serving::run_server_faulted;
    use simcore::fault::FaultSpec;

    /// The fig15 golden scenario (BERT-Base, 140×60 at 100 req/s, seed
    /// 11) with decode *disabled* but token lengths assigned anyway:
    /// the decode layer must be byte-invisible, reproducing the PR 8
    /// `kernel_identity` golden exactly.
    #[test]
    fn decode_disabled_with_lengths_matches_pr8_golden() {
        let machine = p3_8xlarge();
        let mode = PlanMode::PtDha;
        let cfg = ServerConfig::paper_default(machine.clone(), mode);
        assert!(!cfg.decode.enabled, "decode must default off");
        let kinds = vec![DeployedModel::prepare(
            &build(ModelId::BertBase),
            &machine,
            mode,
            cfg.max_pt_gpus,
        )];
        let instance_kinds = vec![0usize; 140];
        let mut trace = poisson::generate(100.0, 140, 60, SimTime::ZERO, 11);
        // Token lengths present but decode off: the fields are inert.
        assign_lengths(&mut trace, LengthDist::default(), 11);
        let (probe, log) = Probe::logging();
        run_server_probed(cfg, kinds, &instance_kinds, trace, SimTime::ZERO, probe);
        let got = to_jsonl(&log.borrow().events);
        assert_bytes_eq(
            &got,
            include_str!("data/golden_trace.jsonl"),
            "golden_trace.jsonl",
        );
    }

    /// Mirrors the CLI command in the module docs.
    fn decode_golden_jsonl() -> String {
        let machine = p3_8xlarge();
        let mode = PlanMode::PtDha;
        let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
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
        let events = log.borrow().events.clone();
        to_jsonl(&events)
    }

    /// The decode golden is double-run byte-deterministic and matches
    /// the checked-in trace — which pins spills, recalls, DHA reads
    /// *and* alloc failures (the 16 MiB pool is deliberately starved).
    #[test]
    fn decode_golden_trace_is_double_run_byte_deterministic() {
        let a = decode_golden_jsonl();
        let b = decode_golden_jsonl();
        assert_eq!(a, b, "decode golden must replay byte-identically");
        let want = include_str!("data/golden_decode.jsonl");
        assert!(
            want.contains("kv_page_spill") && want.contains("kv_page_recall"),
            "golden must exercise the spill/recall path"
        );
        assert_bytes_eq(&a, want, "golden_decode.jsonl");
    }
}
