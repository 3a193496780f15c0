//! Cross-crate tests of the analysis layer: exact critical-path
//! decomposition over real serving traces, byte-stable analyzer
//! output (golden trace), and determinism of the streaming
//! metrics/SLO engine.

use std::collections::HashMap;

use bench::experiments::fig15;
use bench::experiments::serving::run_mix_probed;
use deepplan::PlanMode;
use dnn_models::zoo::{build, ModelId};
use gpu_topology::presets::p3_8xlarge;
use model_serving::{
    metrics_spec, poisson, run_server_probed, DeployedModel, ServerConfig, ServingReport,
};
use simcore::attribution::{analyze, render_analysis, Cause};
use simcore::metrics::MetricsSink;
use simcore::probe::{parse_jsonl, to_jsonl, Event, Probe, ProbeEvent};
use simcore::time::{SimDur, SimTime};

mod common;
use common::fnv1a64;

/// Runs the fig15-style MAF mix with a recording probe. 300 instances
/// oversubscribe the 4-GPU cache, so the trace exercises cold starts,
/// evictions, queueing and stalls.
fn fig15_run(mode: PlanMode) -> (ServingReport, Vec<Event>) {
    let instances = 300;
    let (kinds, instance_kinds) = fig15::mix(instances);
    let trace = fig15::trace(instances, SimDur::from_secs(30), 150.0);
    run_mix_probed(mode, &kinds, instance_kinds, trace)
}

#[test]
fn decomposition_sums_exactly_on_fig15_workload() {
    for mode in [PlanMode::PipeSwitch, PlanMode::PtDha] {
        let (report, events) = fig15_run(mode);
        let atts = analyze(&events).requests;
        assert_eq!(
            atts.len() as u64,
            report.completed,
            "every completed request is attributable ({mode})"
        );
        assert!(report.completed > 0);
        for a in &atts {
            assert_eq!(
                a.parts.total_ns(),
                a.latency_ns,
                "request {} ({mode}): decomposition must sum to end-to-end latency exactly",
                a.req
            );
        }
        // The workload is oversubscribed enough to exercise queueing and
        // cold-start stalls, so the causes are non-trivial.
        let total = |c: Cause| atts.iter().map(|a| a.parts.get(c)).sum::<u64>();
        assert!(total(Cause::ExecGpu) > 0);
        assert!(total(Cause::Queue) > 0);
    }
}

#[test]
fn pipeswitch_pays_load_stall_where_dha_pays_direct_access() {
    // The paper's crossover, as attribution sees it: PipeSwitch cold
    // starts stall on PCIe weight loads; DHA replaces that wire-bound
    // stall with the (much smaller) direct-host-access execution
    // penalty.
    let (_, ps_events) = fig15_run(PlanMode::PipeSwitch);
    let (_, dha_events) = fig15_run(PlanMode::PtDha);
    let sum = |events: &[Event], c: Cause| {
        analyze(events)
            .requests
            .iter()
            .map(|a| a.parts.get(c))
            .sum::<u64>()
    };
    let ps_load = sum(&ps_events, Cause::StallPcieLoad);
    let dha_load = sum(&dha_events, Cause::StallPcieLoad);
    let ps_dha = sum(&ps_events, Cause::ExecDha);
    let dha_dha = sum(&dha_events, Cause::ExecDha);
    assert!(ps_load > 0, "PipeSwitch cold starts stall on PCIe loads");
    assert_eq!(ps_dha, 0, "PipeSwitch never reads host memory directly");
    assert!(dha_dha > 0, "DHA pays the direct-host-access penalty");
    assert!(
        dha_load < ps_load,
        "DHA must shrink the load stall it replaces ({dha_load} vs {ps_load})"
    );
}

#[test]
fn analyze_output_is_byte_stable_at_fixed_seed() {
    let (_, a) = fig15_run(PlanMode::PtDha);
    let (_, b) = fig15_run(PlanMode::PtDha);
    let ra = render_analysis(&analyze(&a));
    let rb = render_analysis(&analyze(&b));
    assert!(!ra.is_empty());
    assert_eq!(ra, rb, "identical runs must render identical analyses");
}

#[test]
fn serving_trace_roundtrips_through_jsonl() {
    let (_, events) = fig15_run(PlanMode::PtDha);
    let text = to_jsonl(&events);
    let parsed = parse_jsonl(&text).expect("own exporter output parses");
    assert_eq!(parsed, events);
    assert_eq!(to_jsonl(&parsed), text, "parse → export is the identity");
}

#[test]
fn golden_trace_analysis_matches_checked_in_output() {
    let trace = include_str!("data/golden_trace.jsonl");
    let expected = include_str!("data/golden_analysis.txt");
    let events = parse_jsonl(trace).expect("golden trace parses");
    let got = render_analysis(&analyze(&events));
    assert_eq!(
        got, expected,
        "analyzer output drifted from tests/data/golden_analysis.txt; \
         regenerate it with `deepplan-cli analyze` if the change is intentional"
    );
}

/// The analyses of the three serving goldens `golden_analysis.txt` does
/// not cover, as 64-bit FNV-1a hashes of `render_analysis(&analyze(..))`.
#[test]
fn golden_analyses_keep_their_recorded_hashes() {
    let goldens = [
        ("decode", include_str!("data/golden_decode.jsonl")),
        ("faulted", include_str!("data/golden_faulted.jsonl")),
        ("detection", include_str!("data/golden_detection.jsonl")),
    ];
    let got: Vec<(&str, String)> = goldens
        .iter()
        .map(|&(name, trace)| {
            let events = parse_jsonl(trace).expect("golden trace parses");
            (name, hash(&render_analysis(&analyze(&events))))
        })
        .collect();
    let want = [
        "0x74de291cc091d1e7",
        "0xffce94d9519c409e",
        "0xb31a24363700602c",
    ];
    let got_hashes: Vec<&str> = got.iter().map(|(_, h)| h.as_str()).collect();
    assert_eq!(got_hashes, want, "golden analysis hashes moved: {got:#?}");
}

#[test]
fn decode_requests_are_charged_only_their_own_run() {
    // A decode session outlives its prefill run, and later runs reuse
    // the run slot before the session completes: none of their exec or
    // stall spans may be charged to it.
    let trace = include_str!("data/golden_decode.jsonl");
    let events = parse_jsonl(trace).expect("decode golden parses");
    // Each request's run since its latest dispatch, and the run's
    // lifetime from that dispatch to its end.
    let mut running = HashMap::new();
    let mut lifetime = HashMap::new();
    for e in &events {
        let at = e.at.as_nanos();
        match e.what {
            ProbeEvent::RequestDispatched { req, run, .. } => {
                running.insert(req, (run, at));
            }
            ProbeEvent::RunCompleted { run, .. } | ProbeEvent::RunAborted { run, .. } => {
                running.retain(|&req, &mut (r, from)| {
                    if r == run {
                        lifetime.insert(req, at - from);
                    }
                    r != run
                });
            }
            _ => {}
        }
    }
    let atts = analyze(&events).requests;
    assert_eq!(atts.len(), 80, "the decode golden completes 80 requests");
    for a in &atts {
        let charged: u64 = Cause::ALL
            .iter()
            .filter(|c| !matches!(c, Cause::Queue | Cause::Retry | Cause::Other))
            .map(|&c| a.parts.get(c))
            .sum();
        let run_ns = lifetime[&a.req];
        assert!(
            charged <= run_ns,
            "request {}: {charged} ns of exec and stall in a final run of {run_ns} ns",
            a.req
        );
    }
}

/// One oversubscribed BERT-Base run through a `MetricsSink`.
fn metered_run() -> (ServingReport, std::rc::Rc<std::cell::RefCell<MetricsSink>>) {
    let machine = p3_8xlarge();
    let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::PtDha);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        PlanMode::PtDha,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 120];
    let trace = poisson::generate(100.0, 120, 200, SimTime::ZERO, 11);
    let spec = metrics_spec(&cfg, &kinds, &instance_kinds);
    let (probe, sink) = MetricsSink::probe(spec);
    let report = run_server_probed(cfg, kinds, &instance_kinds, trace, SimTime::ZERO, probe);
    sink.borrow_mut().finish();
    (report, sink)
}

#[test]
fn metrics_enabled_runs_are_byte_deterministic() {
    let (ra, sa) = metered_run();
    let (rb, sb) = metered_run();
    assert_eq!(ra.completed, rb.completed);
    let (sa, sb) = (sa.borrow(), sb.borrow());
    assert_eq!(
        sa.registry.to_prometheus(),
        sb.registry.to_prometheus(),
        "Prometheus snapshots must be byte-identical across identical runs"
    );
    assert_eq!(
        sa.to_json_series(),
        sb.to_json_series(),
        "JSON time series must be byte-identical across identical runs"
    );
    assert_eq!(to_jsonl(sa.events()), to_jsonl(sb.events()));
}

fn hash(text: &str) -> String {
    format!("{:#018x}", fnv1a64(text.as_bytes()))
}

/// The fig15 4:4:1 mix (BERT-Base, RoBERTa-Base, GPT-2) for 5 s at
/// 150 rps over 300 instances, through a `MetricsSink`: three model
/// kinds, so every per-kind family has three label sets.
fn metered_mix_run() -> MetricsSink {
    let machine = p3_8xlarge();
    let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::PtDha);
    let (ids, instance_kinds) = fig15::mix(300);
    let kinds: Vec<DeployedModel> = ids
        .iter()
        .map(|&id| DeployedModel::prepare(&build(id), &machine, PlanMode::PtDha, cfg.max_pt_gpus))
        .collect();
    let trace = fig15::trace(300, SimDur::from_secs(5), 150.0);
    let spec = metrics_spec(&cfg, &kinds, &instance_kinds);
    let (probe, sink) = MetricsSink::probe(spec);
    run_server_probed(cfg, kinds, &instance_kinds, trace, SimTime::ZERO, probe);
    let mut sink = std::rc::Rc::try_unwrap(sink)
        .expect("the run dropped every probe handle")
        .into_inner();
    sink.finish();
    sink
}

/// Both metrics exporters, hashed with 64-bit FNV-1a. The hashes were
/// recorded with the handle-addressed registry the sink's own fields
/// replaced: its single-kind Prometheus text and both JSON series held
/// byte for byte. Its multi-kind Prometheus text repeated each per-kind
/// family's HELP/TYPE lines once per kind, so the mix pins its sample
/// lines as a sorted set.
#[test]
fn metrics_exports_keep_their_recorded_bytes() {
    let (_, sink) = metered_run();
    let sink = sink.borrow();
    let mix = metered_mix_run();
    let prom = mix.registry.to_prometheus();
    let mut samples: Vec<&str> = prom.lines().filter(|l| !l.starts_with('#')).collect();
    samples.sort_unstable();
    let got = [
        (
            "metered_run prometheus",
            hash(&sink.registry.to_prometheus()),
        ),
        ("metered_run json series", hash(&sink.to_json_series())),
        ("mix json series", hash(&mix.to_json_series())),
        ("mix prometheus samples", hash(&samples.join("\n"))),
    ];
    let want = [
        "0x2ab16545cd5a9ab8",
        "0x460922c18a64d4cc",
        "0xc427c5a45379401b",
        "0x2150263effff6a2d",
    ];
    let got_hashes: Vec<&str> = got.iter().map(|(_, h)| h.as_str()).collect();
    assert_eq!(got_hashes, want, "metrics export hashes moved: {got:#?}");
}

#[test]
fn metrics_sink_only_adds_alert_events() {
    // The metrics engine observes the stream; it must not perturb it.
    // Its event log minus `slo_burn_alert` lines is the plain probe log.
    let machine = p3_8xlarge();
    let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::PtDha);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        PlanMode::PtDha,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 120];
    let trace = poisson::generate(100.0, 120, 200, SimTime::ZERO, 11);

    let spec = metrics_spec(&cfg, &kinds, &instance_kinds);
    let (probe, sink) = MetricsSink::probe(spec);
    run_server_probed(
        cfg.clone(),
        kinds.clone(),
        &instance_kinds,
        trace.clone(),
        SimTime::ZERO,
        probe,
    );
    let metered: Vec<Event> = sink
        .borrow()
        .events()
        .iter()
        .filter(|e| !matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
        .copied()
        .collect();

    let (probe, log) = Probe::logging();
    run_server_probed(cfg, kinds, &instance_kinds, trace, SimTime::ZERO, probe);
    let plain = log.borrow().events.clone();
    assert_eq!(
        to_jsonl(&metered),
        to_jsonl(&plain),
        "metrics engine must not perturb the probe event stream"
    );
}

#[test]
fn sustained_slo_violations_fire_a_burn_alert() {
    // Drive a sink directly with latencies far above the SLO: the
    // multi-window monitor must fire exactly one latched alert, at the
    // 20th completion (the long window's minimum count).
    let machine = p3_8xlarge();
    let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::PtDha);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        PlanMode::PtDha,
        cfg.max_pt_gpus,
    )];
    let spec = metrics_spec(&cfg, &kinds, &[0, 0]);
    let (probe, sink) = MetricsSink::probe(spec);
    for i in 0..20u64 {
        probe.emit(
            SimTime::from_nanos(i * 10_000_000),
            ProbeEvent::RequestCompleted {
                req: i,
                instance: 0,
                gpu: 0,
                cold: false,
                latency_ns: 500_000_000, // 500 ms ≫ the 100 ms SLO
                queue_wait_ns: 0,
            },
        );
    }
    let alerts: Vec<SimTime> = sink
        .borrow()
        .events()
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
        .map(|e| e.at)
        .collect();
    assert_eq!(
        alerts,
        vec![SimTime::from_nanos(19 * 10_000_000)],
        "sustained burn fires one latched alert, at the 20th completion"
    );
    let analysis = analyze(sink.borrow().events());
    assert_eq!(analysis.slo_alerts, 1, "analyze counts the alert");
}
