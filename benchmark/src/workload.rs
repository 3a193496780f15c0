//! The four workloads and one rep of each.
//!
//! Arrivals are open-loop schedules in simulated time generated from the
//! seed; the simulator itself is driven as one closed-loop caller (one
//! `run_server*` call per rep). Every generator — MAF, Poisson,
//! `assign_lengths` and the fault schedule — takes the seed.

use std::rc::Rc;

use bench::experiments::fig15;
use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use gpu_topology::presets::p3_8xlarge;
use model_serving::decode::{assign_lengths, LengthDist};
use model_serving::{
    maf, metrics_spec, poisson, run_server_faulted, DeployedModel, Request, ServerConfig,
    ServingReport,
};
use simcore::attribution::{analyze, render_analysis};
use simcore::fault::FaultSpec;
use simcore::metrics::MetricsSink;
use simcore::probe::{
    parse_jsonl, to_jsonl, to_perfetto, Event, PerfettoOptions, Probe, ProbeEvent,
};
use simcore::time::{SimDur, SimTime};

use crate::trace::{self, span, Span};

pub const MIB: f64 = (1u64 << 20) as f64;

/// GPU crashes on two GPUs and a flapping PCIe link: the decode chaos
/// schedule of the chaos-soak suite.
const DECODE_CHAOS: &str = "gpu-crash:gpu=1,mtbf=2s,mttr=400ms; \
                            gpu-crash:gpu=3,mtbf=3s,mttr=600ms; \
                            link-flap:pcie=0,up=700ms,down=150ms,factor=0.2";

/// One traffic mix. See the README for why each was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig 15 MAF mix, 150 rps x 180 s over 300 instances, probe off.
    MafOneshot,
    /// GPT-2 continuous batching with a 64 MiB device KV pool.
    DecodeSpill,
    /// GPT-2 decode under GPU crashes and a PCIe flap, resilience,
    /// recovery and detection on.
    DecodeChaos,
    /// The MAF mix at 10 s through a metrics probe, exporters and
    /// `analyze`.
    MafTraced,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::MafOneshot,
        Workload::DecodeSpill,
        Workload::DecodeChaos,
        Workload::MafTraced,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MafOneshot => "maf-oneshot",
            Workload::DecodeSpill => "decode-spill",
            Workload::DecodeChaos => "decode-chaos",
            Workload::MafTraced => "maf-traced",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn is_decode(self) -> bool {
        matches!(self, Workload::DecodeSpill | Workload::DecodeChaos)
    }
}

/// Everything one rep simulates.
pub struct Inputs {
    pub cfg: ServerConfig,
    pub kinds: Vec<DeployedModel>,
    pub instance_kinds: Vec<usize>,
    pub trace: Vec<Request>,
    pub faults: FaultSpec,
}

impl Inputs {
    /// Runs the inputs once through the simulator with `probe`.
    pub fn serve(&self, probe: Probe) -> ServingReport {
        run_server_faulted(
            self.cfg.clone(),
            self.kinds.clone(),
            &self.instance_kinds,
            self.trace.clone(),
            SimTime::ZERO,
            probe,
            &self.faults,
        )
    }
}

/// Builds the inputs of `w` from `seed`. `scale` divides the horizon or
/// session count (1 is the benchmark; tests run smaller).
pub fn setup(w: Workload, seed: u64, scale: u32) -> Inputs {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    let (ids, instance_kinds) = match w {
        Workload::MafOneshot | Workload::MafTraced => fig15::mix(300),
        Workload::DecodeSpill => (vec![ModelId::Gpt2], vec![0; 16]),
        Workload::DecodeChaos => (vec![ModelId::Gpt2], vec![0; 32]),
    };
    if w.is_decode() {
        cfg.decode.enabled = true;
    }
    if w == Workload::DecodeSpill {
        cfg.decode.page_bytes = 64 << 10;
        cfg.decode.gpu_pool_bytes = 64 << 20;
    }
    if w == Workload::DecodeChaos {
        cfg.decode.gpu_pool_bytes = 32 << 20;
        cfg.decode_resilience.enabled = true;
        cfg.decode_resilience.checkpoint_every = 2;
        cfg.recovery.enabled = true;
        cfg.detection.enabled = true;
        cfg.admission.queue_cap = Some(64);
    }
    let kinds = trace::span("setup.prepare", || {
        ids.iter()
            .map(|&id| DeployedModel::prepare(&build(id), &machine, mode, cfg.max_pt_gpus))
            .collect()
    });
    let (trace, faults) = trace::span("setup.workload", || {
        let sessions = |n: usize| (n / scale as usize).max(1);
        let maf = |secs: u64| {
            let horizon = SimDur::from_secs_f64(secs as f64 / f64::from(scale));
            maf::generate(150.0, 300, horizon, maf::MafShape::default(), seed)
        };
        let decode = |rate: f64, n: usize| {
            let mut trace = poisson::generate(rate, instance_kinds.len(), n, SimTime::ZERO, seed);
            assign_lengths(&mut trace, LengthDist::default(), seed);
            trace
        };
        match w {
            Workload::MafOneshot => (maf(180), FaultSpec::none()),
            Workload::MafTraced => (maf(10), FaultSpec::none()),
            Workload::DecodeSpill => (decode(240.0, sessions(1_000)), FaultSpec::none()),
            Workload::DecodeChaos => (
                decode(80.0, sessions(8_000)),
                FaultSpec::parse(DECODE_CHAOS, seed).expect("the built-in chaos spec parses"),
            ),
        }
    });
    Inputs {
        cfg,
        kinds,
        instance_kinds,
        trace,
        faults,
    }
}

/// What one rep measured and checked.
pub struct Rep {
    /// Requests the workload sent.
    pub sent: u64,
    /// Failed output checks; empty when the rep is correct.
    pub errors: Vec<String>,
    /// Hash over the report's counters and latency samples.
    pub fingerprint: u64,
    /// Metric values by name (end-to-end and per-layer).
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// Span names whose durations make up `run_s`: the serving call and, on
/// `maf-traced`, the exports and the analysis a user runs after it.
const JOB_SPANS: [&str; 3] = ["serve", "export", "analyze"];

/// Runs one rep of `w`. With `count_heap` the counting allocator is on
/// for the whole rep.
pub fn run_rep(w: Workload, seed: u64, scale: u32, count_heap: bool) -> Rep {
    trace::take_spans();
    if count_heap {
        trace::start_heap_counting();
    }
    let mut errors = Vec::new();
    let (sent, report, probed) = span("rep", || {
        let inputs = span("setup", || setup(w, seed, scale));
        let sent = inputs.trace.len() as u64;
        let (report, probed) = if w == Workload::MafTraced {
            let (report, probed) = traced_job(&inputs, &mut errors);
            (report, Some(probed))
        } else {
            (span("serve", || inputs.serve(Probe::disabled())), None)
        };
        (sent, report, probed)
    });
    let spans = trace::take_spans();

    if report.completed + report.shed != sent {
        errors.push(format!(
            "{} completed + {} shed != {sent} sent",
            report.completed, report.shed
        ));
    }
    if w.is_decode() {
        if report.kv_live_pages_at_end != 0 {
            errors.push(format!(
                "{} KV pages live at the end",
                report.kv_live_pages_at_end
            ));
        }
        if report.kv_allocs != report.kv_frees_gpu + report.kv_frees_host {
            errors.push(format!(
                "{} KV allocs != {} gpu + {} host frees",
                report.kv_allocs, report.kv_frees_gpu, report.kv_frees_host
            ));
        }
    }

    let setup_s = spans
        .iter()
        .find(|s| s.name == "setup")
        .map_or(0.0, |s| s.end_ns as f64 / 1e9);
    let run_s: f64 = JOB_SPANS.iter().map(|n| trace::total_secs(&spans, n)).sum();
    let serve_ns = trace::total_secs(&spans, "serve") * 1e9;
    let events = report.sim_events.max(1) as f64;
    let r = &report;
    let mut metrics = vec![
        ("setup_s", setup_s),
        ("run_s", run_s),
        ("peak_rss_mib", peak_rss_mib()),
        ("setup.prepare_s", trace::self_secs(&spans, "setup.prepare")),
        (
            "setup.workload_s",
            trace::self_secs(&spans, "setup.workload"),
        ),
        ("kernel.sim_events", r.sim_events as f64),
        ("kernel.ns_per_event", serve_ns / events),
        ("serving.completed", r.completed as f64),
        ("serving.shed", r.shed as f64),
        ("serving.cold_starts", r.cold_starts as f64),
        ("serving.evictions", r.evictions as f64),
        ("serving.retries", r.retries as f64),
        ("sim.p99_ms", r.p99_ms()),
        ("sim.p99_ttft_ms", r.p99_ttft_ms()),
        ("sim.p99_tpot_ms", r.p99_tpot_ms()),
        ("kv.spills", r.kv_spills as f64),
        ("kv.recalls", r.kv_recalls as f64),
        ("kv.dha_reads", r.kv_dha_reads as f64),
        ("kv.alloc_failures", r.kv_alloc_failures as f64),
        (
            "kv.recalls_per_spill",
            r.kv_recalls as f64 / r.kv_spills.max(1) as f64,
        ),
        ("decode.tokens", r.tokens_generated as f64),
        ("resilience.ckpt_mib", r.ckpt_bytes as f64 / MIB),
        ("resilience.restores", r.sessions_restored as f64),
        ("resilience.reprefills", r.sessions_reprefilled as f64),
        ("resilience.swaps", r.sessions_swapped as f64),
        ("control.gpu_failures", r.gpu_failures as f64),
        ("control.replans", r.replans as f64),
        ("control.migrations", r.plan_migrations as f64),
        ("control.quarantines", r.quarantines as f64),
        ("control.hedges", r.hedged_transfers as f64),
        (
            "metrics.slo_alerts",
            probed.as_ref().map_or(0, |p| p.slo_alerts) as f64,
        ),
        (
            "probe.events",
            probed.as_ref().map_or(0, |p| p.events) as f64,
        ),
        ("probe.event_bytes", std::mem::size_of::<Event>() as f64),
    ];
    if count_heap {
        let serve_allocs: u64 = spans
            .iter()
            .filter(|s| s.name == "serve")
            .map(|s| s.allocs)
            .sum();
        metrics.extend([
            ("heap.allocs", trace::heap_allocs() as f64),
            ("heap.allocs_per_event", serve_allocs as f64 / events),
            ("heap.peak_live_mib", trace::heap_peak_bytes() as f64 / MIB),
        ]);
    }
    Rep {
        sent,
        errors,
        fingerprint: fingerprint(&report),
        metrics,
        spans,
    }
}

/// Counts from the probed part of `maf-traced`.
struct Probed {
    events: u64,
    slo_alerts: u64,
}

/// `serve --events-out --trace-out --metrics-out --metrics-json`, then
/// `analyze` on the JSONL, all in memory: what the traced workflow costs
/// a user. A probe-off pass of the same inputs runs first, outside the
/// timed job, as the reference for the probe's non-perturbation check.
fn traced_job(inputs: &Inputs, errors: &mut Vec<String>) -> (ServingReport, Probed) {
    let bare = span("check.probe_off", || inputs.serve(Probe::disabled()));
    let spec = metrics_spec(&inputs.cfg, &inputs.kinds, &inputs.instance_kinds);
    let (probe, sink) = MetricsSink::probe(spec);
    let report = span("serve", || inputs.serve(probe));
    let mut sink = Rc::try_unwrap(sink)
        .expect("the run dropped every probe handle")
        .into_inner();
    if bare.sim_events != report.sim_events {
        errors.push(format!(
            "probed run executed {} events, probe-off run {}",
            report.sim_events, bare.sim_events
        ));
    }
    let jsonl = span("export", || {
        sink.finish();
        let events = sink.events();
        let jsonl = span("export.jsonl", || to_jsonl(events));
        let perfetto = span("export.perfetto", || {
            to_perfetto(events, &perfetto_options(&inputs.cfg.machine))
        });
        std::hint::black_box(perfetto.len());
        std::hint::black_box(span("export.prometheus", || sink.registry.to_prometheus()));
        std::hint::black_box(span("export.json_series", || sink.to_json_series()));
        jsonl
    });
    let events = sink.events();
    span("analyze", || {
        match span("analyze.parse", || parse_jsonl(&jsonl)) {
            Ok(parsed) if parsed == events => {
                let a = span("analyze.attribute", || analyze(&parsed));
                std::hint::black_box(span("analyze.render", || render_analysis(&a)));
            }
            Ok(_) => errors.push("parse_jsonl(to_jsonl(events)) != events".into()),
            Err(e) => errors.push(format!("parse_jsonl rejected to_jsonl output: {e}")),
        }
    });
    let slo_alerts = events
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
        .count() as u64;
    let probed = Probed {
        events: events.len() as u64,
        slo_alerts,
    };
    (report, probed)
}

/// Perfetto export options that name the links of `machine`.
pub fn perfetto_options(machine: &Machine) -> PerfettoOptions {
    let (_, map) = NetMap::build(machine).expect("preset topology is valid");
    PerfettoOptions {
        link_names: map.link_names(),
    }
}

/// FNV-1a over the report's counters and the bits of every latency
/// sample, cut to 53 bits so it survives as a JSON number. Equal
/// simulations give equal fingerprints.
pub fn fingerprint(r: &ServingReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for c in [
        r.completed,
        r.cold_starts,
        r.evictions,
        r.shed,
        r.retries,
        r.gpu_failures,
        r.aborted_runs,
        r.replans,
        r.plan_migrations,
        r.quarantines,
        r.reinstates,
        r.canaries,
        r.hedged_transfers,
        r.checksum_refetches,
        r.decode_completed,
        r.tokens_generated,
        r.kv_spills,
        r.kv_recalls,
        r.kv_dha_reads,
        r.kv_alloc_failures,
        r.kv_allocs,
        r.ckpt_sessions,
        r.ckpt_bytes,
        r.sessions_restored,
        r.sessions_reprefilled,
        r.sessions_swapped,
        r.sessions_resumed,
        r.sessions_truncated,
        r.sim_events,
    ] {
        eat(c);
    }
    for samples in [
        &r.latencies,
        &r.queue_wait,
        &r.ttft,
        &r.tpot,
        &r.recovery_restore_ttft,
        &r.recovery_reprefill_ttft,
    ] {
        eat(samples.len() as u64);
        for v in samples.raw() {
            eat(v.to_bits());
        }
    }
    h >> 11
}

/// This process's peak resident set (`VmHWM`) in MiB, 0 where
/// `/proc/self/status` cannot be read.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scaled-down reps: every check passes, twice, with the same
    /// fingerprint — on the default seed and on another one.
    #[test]
    fn every_workload_passes_its_checks_twice_with_one_fingerprint() {
        for seed in [1, 0xBEEF] {
            for w in Workload::ALL {
                let a = run_rep(w, seed, 60, false);
                let b = run_rep(w, seed, 60, false);
                assert!(
                    a.errors.is_empty(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    a.errors
                );
                assert!(
                    b.errors.is_empty(),
                    "{} seed {seed}: {:?}",
                    w.name(),
                    b.errors
                );
                assert!(a.sent > 0);
                assert_eq!(a.fingerprint, b.fingerprint, "{} seed {seed}", w.name());
            }
        }
    }

    #[test]
    fn the_seed_drives_every_generator() {
        for w in Workload::ALL {
            let a = setup(w, 1, 60);
            let b = setup(w, 2, 60);
            assert_ne!(a.trace, b.trace, "{}: arrivals ignore the seed", w.name());
        }
        let lengths = |seed| -> Vec<u32> {
            let mut t = poisson::generate(80.0, 4, 64, SimTime::ZERO, 1);
            assign_lengths(&mut t, LengthDist::default(), seed);
            t.iter().map(|r| r.output_tokens).collect()
        };
        assert_ne!(lengths(1), lengths(2), "assign_lengths ignores the seed");
        let faults = |seed| {
            let horizon = SimTime::ZERO + SimDur::from_secs(30);
            let spec = FaultSpec::parse(DECODE_CHAOS, seed).unwrap();
            format!("{:?}", spec.materialize(horizon))
        };
        assert_ne!(faults(1), faults(2), "the fault schedule ignores the seed");
    }

    #[test]
    fn traced_reps_report_heap_counts() {
        let rep = run_rep(Workload::MafTraced, 3, 60, true);
        let get = |n: &str| rep.metrics.iter().find(|(k, _)| *k == n).map(|(_, v)| *v);
        assert!(get("heap.allocs").unwrap() > 0.0);
        assert!(get("heap.peak_live_mib").unwrap() > 0.0);
        assert!(get("probe.events").unwrap() > 0.0);
        assert!(get("run_s").unwrap() > 0.0);
    }
}
