//! `deepplan-cli` — generate, inspect and simulate execution plans.
//!
//! ```text
//! deepplan-cli models
//! deepplan-cli machines
//! deepplan-cli profile bert-base [--machine p3|single|a5000] [--batch N]
//! deepplan-cli plan bert-base [--mode pt+dha] [--budget-mib N] [--json]
//! deepplan-cli simulate bert-base [--mode pt+dha] [--batch N]
//! deepplan-cli serve bert-base [--mode pt+dha] [--concurrency N] [--requests N]
//!     [--rate R] [--seed S] [--trace-out trace.json] [--events-out events.jsonl]
//!     [--faults SPEC] [--deadline-ms N] [--recovery] [--detection]
//!     [--queue-cap N] [--metrics-out metrics.prom] [--metrics-json series.json]
//!     [--decode] [--page-kib N] [--kv-pool-mib N] [--kv-mode auto|dha|recall]
//!     [--resilience] [--slo-tiers]
//! deepplan-cli analyze events.jsonl
//! ```
//!
//! `--faults` takes the fault DSL (see `simcore::fault::FaultSpec::parse`),
//! e.g. `--faults 'gpu-fail@2s:gpu=1; gpu-recover@4s:gpu=1'` or
//! `--faults 'link-flap:pcie=0,up=2s,down=300ms,factor=0.3'`.
//!
//! `--recovery` turns on the self-healing control plane: every health
//! transition re-plans against the degraded topology, hot-swaps the
//! serving plan, and rolls back when capacity returns. `--queue-cap`
//! bounds each GPU's admission queue (overload backpressure).
//!
//! `--detection` arms the gray-failure detector: per-link / per-GPU
//! statistical baselines over observable load and execution timings,
//! quarantine → probation → reinstate via canary transfers, hedged
//! duplicate weight transfers, and checksum-verify-with-refetch. Pair
//! it with `--recovery` and a *silent* fault spec (e.g.
//! `--faults 'silent-link-slow@2s:pcie=0,factor=0.4'`) to watch the
//! server re-plan around a fault no health oracle ever announced.
//!
//! `--decode` turns the workload autoregressive (decoder models only):
//! every request gets a prompt and output length, prefills stream into a
//! per-GPU continuous batch, and KV pages spill to pinned host memory
//! under pressure — recalled over PCIe or read in place via DHA per the
//! planner's per-page crossover (`--kv-mode` forces one side). The
//! summary then includes TTFT / TPOT percentiles and KV page traffic.
//! `--page-kib` must be a non-zero power of two (pages subdivide the
//! pool evenly); anything else is rejected before the run starts.
//!
//! Flags that do not parse print the usage line and exit 2. Values that
//! parse but are out of range (`--concurrency 0`, a rate that is not a
//! positive finite number or so low that the requests would arrive
//! past the end of simulated time, a deployment whose weights do not fit in
//! pinned host memory, a size or deadline whose unit conversion
//! overflows 64 bits, a fault spec that does not parse, `--resilience`
//! or `--slo-tiers` without `--decode`) print `error: ...` and exit 1
//! before any simulation state is built.
//!
//! `--resilience` (requires `--decode`) arms decode-session resilience:
//! completed-step KV pages mirror incrementally to pinned host memory,
//! a crashed GPU's sessions restore from the mirror or re-prefill per
//! the planner's cost crossover, and whole sessions swap out under KV
//! pool pressure and resume later at the exact token step. `--slo-tiers`
//! additionally installs the default TTFT/TPOT tenant tiers: tiered
//! admission control plus token-level degradation (sessions whose TPOT
//! budget is unrecoverable finish early). Implies `--resilience`.
//!
//! `--metrics-out` streams probe events through the metric registry
//! during the run and writes a Prometheus-style text snapshot;
//! `--metrics-json` writes the windowed JSON time series (per-model
//! p50/p99, completion counters, SLO burn rate). Both arm the
//! multi-window SLO burn-rate monitors, whose alerts land in the event
//! log as `slo_burn_alert` events.
//!
//! `analyze` reconstructs each request's critical path from a JSONL
//! event trace (`--events-out`) and prints the exact per-request
//! latency decomposition plus a p50/p99 blame table per GPU × cause.

use deepplan::excerpt::{excerpt, format_excerpt};
use deepplan::{DeepPlan, ModelId, PlanMode};
use dnn_models::zoo::catalog;
use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use gpu_topology::presets::{a5000_dual, dgx1_like, p3_8xlarge, single_v100};
use model_serving::{
    decode, metrics_spec, poisson, run_server_faulted, DeployedModel, KvMode, ResiliencePolicy,
    ServerConfig,
};
use simcore::attribution::{analyze, render_analysis};
use simcore::fault::FaultSpec;
use simcore::metrics::MetricsSink;
use simcore::probe::{parse_jsonl, to_jsonl, to_perfetto, PerfettoOptions, Probe};
use simcore::time::{SimDur, SimTime};

struct Args {
    cmd: String,
    model: Option<ModelId>,
    mode: PlanMode,
    machine: Machine,
    batch: u32,
    budget_mib: Option<u64>,
    json: bool,
    concurrency: usize,
    requests: usize,
    rate: f64,
    seed: u64,
    trace_out: Option<String>,
    events_out: Option<String>,
    faults: Option<String>,
    deadline_ms: Option<u64>,
    recovery: bool,
    detection: bool,
    queue_cap: Option<usize>,
    metrics_out: Option<String>,
    metrics_json: Option<String>,
    decode: bool,
    page_kib: Option<u64>,
    kv_pool_mib: Option<u64>,
    kv_mode: Option<KvMode>,
    resilience: bool,
    slo_tiers: bool,
    /// Positional input file (the `analyze` trace).
    input: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: deepplan-cli <models|machines|profile|plan|simulate|serve|analyze> \
         [model | trace.jsonl] \
         [--mode baseline|pipeswitch|dha|pt|pt+dha] [--machine p3|single|a5000|dgx1] \
         [--batch N] [--budget-mib N] [--json] [--concurrency N] [--requests N] \
         [--rate R] [--seed S] [--trace-out FILE] [--events-out FILE] \
         [--faults SPEC] [--deadline-ms N] [--recovery] [--detection] [--queue-cap N] \
         [--metrics-out FILE] [--metrics-json FILE] \
         [--decode] [--page-kib N] [--kv-pool-mib N] [--kv-mode auto|dha|recall] \
         [--resilience] [--slo-tiers]"
    );
    std::process::exit(2)
}

/// Latest arrival a `serve` trace may have: half of simulated time
/// (2^63 ns, about 292 years), leaving the other half for the run to
/// drain. A rate too low for the request count would otherwise put
/// arrivals at the end of simulated time, past which the run's own
/// durations cannot be added.
const LAST_ARRIVAL: SimTime = SimTime::from_nanos(1 << 63);

/// Prints `error: <msg>` and exits 1.
fn fail(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1)
}

/// `n` of `flag`'s unit converted by `per_unit` (to bytes or ns); fails
/// instead of wrapping when the product overflows `u64`.
fn in_units(flag: &str, n: u64, per_unit: u64) -> u64 {
    n.checked_mul(per_unit)
        .unwrap_or_else(|| fail(format!("{flag} {n} is out of range (overflows 64 bits)")))
}

/// A rejected `--page-kib` value. The pager subdivides its pools into
/// fixed pages and sizes footprints with power-of-two arithmetic, so a
/// zero or non-power-of-two page would corrupt every byte count — the
/// value is refused before any simulation state exists.
#[derive(Debug, PartialEq, Eq)]
enum PageSizeError {
    Zero,
    NotPowerOfTwo(u64),
}

impl std::fmt::Display for PageSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PageSizeError::Zero => write!(f, "page size must be non-zero"),
            PageSizeError::NotPowerOfTwo(kib) => {
                write!(f, "page size must be a power of two KiB, got {kib}")
            }
        }
    }
}

fn validate_page_kib(kib: u64) -> Result<u64, PageSizeError> {
    if kib == 0 {
        return Err(PageSizeError::Zero);
    }
    if !kib.is_power_of_two() {
        return Err(PageSizeError::NotPowerOfTwo(kib));
    }
    Ok(kib)
}

fn parse_model(s: &str) -> Option<ModelId> {
    let norm = s.to_lowercase().replace('_', "-");
    catalog()
        .into_iter()
        .find(|id| id.display_name().to_lowercase().replace(' ', "-") == norm)
        .or(match norm.as_str() {
            "bert" => Some(ModelId::BertBase),
            "roberta" => Some(ModelId::RobertaBase),
            "gpt2" => Some(ModelId::Gpt2),
            "gpt2-medium" => Some(ModelId::Gpt2Medium),
            "resnet50" => Some(ModelId::ResNet50),
            "resnet101" => Some(ModelId::ResNet101),
            _ => None,
        })
}

fn parse() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else { usage() };
    let mut args = Args {
        cmd: cmd.clone(),
        model: None,
        mode: PlanMode::PtDha,
        machine: p3_8xlarge(),
        batch: 1,
        budget_mib: None,
        json: false,
        concurrency: 140,
        requests: 400,
        rate: 100.0,
        seed: 11,
        trace_out: None,
        events_out: None,
        faults: None,
        deadline_ms: None,
        recovery: false,
        detection: false,
        queue_cap: None,
        metrics_out: None,
        metrics_json: None,
        decode: false,
        page_kib: None,
        kv_pool_mib: None,
        kv_mode: None,
        resilience: false,
        slo_tiers: false,
        input: None,
    };
    let mut it = argv.iter().skip(1).peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--mode" => {
                args.mode = match it.next().map(|s| s.to_lowercase()) {
                    Some(m) => match m.as_str() {
                        "baseline" => PlanMode::Baseline,
                        "pipeswitch" | "ps" => PlanMode::PipeSwitch,
                        "dha" => PlanMode::Dha,
                        "pt" => PlanMode::Pt,
                        "pt+dha" | "ptdha" => PlanMode::PtDha,
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "--machine" => {
                args.machine = match it.next().map(|s| s.to_lowercase()) {
                    Some(m) => match m.as_str() {
                        "p3" | "p3.8xlarge" => p3_8xlarge(),
                        "single" | "v100" => single_v100(),
                        "a5000" => a5000_dual(),
                        "dgx1" => dgx1_like(),
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "--batch" => {
                args.batch = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--budget-mib" => {
                args.budget_mib = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--json" => args.json = true,
            "--concurrency" => {
                args.concurrency = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--requests" => {
                args.requests = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--rate" => {
                args.rate = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                args.seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--trace-out" => args.trace_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--events-out" => args.events_out = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--faults" => args.faults = Some(it.next().cloned().unwrap_or_else(|| usage())),
            "--deadline-ms" => {
                args.deadline_ms = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--metrics-out" => {
                args.metrics_out = Some(it.next().cloned().unwrap_or_else(|| usage()))
            }
            "--metrics-json" => {
                args.metrics_json = Some(it.next().cloned().unwrap_or_else(|| usage()))
            }
            "--recovery" => args.recovery = true,
            "--detection" => args.detection = true,
            "--decode" => args.decode = true,
            "--resilience" => args.resilience = true,
            "--slo-tiers" => args.slo_tiers = true,
            "--kv-pool-mib" => {
                args.kv_pool_mib = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--page-kib" => {
                args.page_kib = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--kv-mode" => {
                args.kv_mode = match it.next().map(|s| s.to_lowercase()) {
                    Some(m) => match m.as_str() {
                        "auto" => Some(KvMode::Auto),
                        "dha" => Some(KvMode::Dha),
                        "recall" => Some(KvMode::Recall),
                        _ => usage(),
                    },
                    None => usage(),
                }
            }
            "--queue-cap" => {
                args.queue_cap = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            other => match parse_model(other) {
                Some(m) => args.model = Some(m),
                None if args.cmd == "analyze" && args.input.is_none() => {
                    args.input = Some(other.to_string())
                }
                None => {
                    eprintln!("unknown model or flag '{other}'");
                    usage()
                }
            },
        }
    }
    args
}

fn main() {
    let args = parse();
    match args.cmd.as_str() {
        "models" => {
            for id in catalog() {
                let m = dnn_models::zoo::build(id);
                println!(
                    "{:<14} {:>7.1} MiB  {:>4} layers  seq {}",
                    id.display_name(),
                    m.param_mib(),
                    m.layer_count(),
                    m.seq_len
                );
            }
        }
        "machines" => {
            for m in [p3_8xlarge(), single_v100(), a5000_dual(), dgx1_like()] {
                println!(
                    "{:<18} {} GPU(s), {} PCIe switch(es), NVLink: {}",
                    m.name,
                    m.gpu_count(),
                    m.switch_count,
                    if m.nvlink.is_some() { "yes" } else { "no" }
                );
            }
        }
        "profile" => {
            let id = args.model.unwrap_or_else(|| usage());
            let dp = DeepPlan::new(args.machine.clone());
            let b = dp.plan_mode(id, args.batch, PlanMode::PipeSwitch);
            println!(
                "{} on {} (batch {}): {} layers, {:.1} MiB",
                id,
                args.machine.name,
                args.batch,
                b.profile.layers.len(),
                b.profile.param_bytes() as f64 / (1 << 20) as f64
            );
            println!(
                "load total {:.2} ms, warm exec total {:.2} ms, profiling cost {:.2} s",
                b.profile.load_total().as_ms_f64(),
                b.profile.exec_inmem_total().as_ms_f64(),
                b.profiling_cost.total().as_secs_f64()
            );
            if args.json {
                println!("{}", b.profile.to_json());
            }
        }
        "plan" => {
            let id = args.model.unwrap_or_else(|| usage());
            let dp = DeepPlan::new(args.machine.clone());
            let b = match args.budget_mib {
                Some(mib) => {
                    dp.plan_with_budget(id, args.batch, in_units("--budget-mib", mib, 1 << 20))
                }
                None => dp.plan_mode(id, args.batch, args.mode),
            };
            println!(
                "{} / {} / batch {}: {} GPU slot(s), resident {} MiB, host {} MiB",
                id,
                args.mode,
                args.batch,
                b.plan.gpu_slots(),
                b.resident_bytes() >> 20,
                b.host_bytes() >> 20
            );
            println!(
                "front: {}",
                format_excerpt(&excerpt(&b.profile, &b.plan, 0, 8))
            );
            println!(
                "estimated cold latency: {:.2} ms",
                b.estimate().total.as_ms_f64()
            );
            if args.json {
                println!("{}", b.plan.to_json());
            }
        }
        "simulate" => {
            let id = args.model.unwrap_or_else(|| usage());
            let dp = DeepPlan::new(args.machine.clone());
            let b = dp.plan_mode(id, args.batch, args.mode);
            let cold = b.simulate_cold(0);
            let warm = b.simulate_warm(0);
            println!(
                "{} / {} / batch {} on {}:",
                id, args.mode, args.batch, args.machine.name
            );
            println!(
                "  cold: {:.2} ms (stall {:.2} ms, {:.0}%)",
                cold.latency().as_ms_f64(),
                cold.stall.as_ms_f64(),
                cold.stall_fraction() * 100.0
            );
            println!("  warm: {:.2} ms", warm.latency().as_ms_f64());
        }
        "serve" => {
            let id = args.model.unwrap_or_else(|| usage());
            if args.concurrency == 0 {
                fail("--concurrency must be at least 1");
            }
            if !(args.rate.is_finite() && args.rate > 0.0) {
                fail(format!(
                    "--rate must be a positive, finite request rate, got {}",
                    args.rate
                ));
            }
            if (args.resilience || args.slo_tiers) && !args.decode {
                fail("--resilience and --slo-tiers require --decode");
            }
            let machine = args.machine.clone();
            let mut cfg = ServerConfig::paper_default(machine.clone(), args.mode);
            if let Some(ms) = args.deadline_ms {
                cfg.faults.deadline =
                    Some(SimDur::from_nanos(in_units("--deadline-ms", ms, 1_000_000)));
            }
            cfg.recovery.enabled = args.recovery;
            cfg.detection.enabled = args.detection;
            cfg.admission.queue_cap = args.queue_cap;
            cfg.decode.enabled = args.decode;
            if let Some(kib) = args.page_kib {
                let kib =
                    validate_page_kib(kib).unwrap_or_else(|e| fail(format!("--page-kib: {e}")));
                cfg.decode.page_bytes = in_units("--page-kib", kib, 1 << 10);
            }
            if let Some(mib) = args.kv_pool_mib {
                cfg.decode.gpu_pool_bytes = in_units("--kv-pool-mib", mib, 1 << 20);
            }
            if let Some(mode) = args.kv_mode {
                cfg.decode.kv_mode = mode;
            }
            if args.resilience || args.slo_tiers {
                cfg.decode_resilience.enabled = true;
            }
            if args.slo_tiers {
                cfg.decode_resilience.tiers = ResiliencePolicy::default_tiers();
            }
            let faults = match &args.faults {
                Some(spec) => FaultSpec::parse(spec, args.seed)
                    .unwrap_or_else(|e| fail(format!("--faults: {e}"))),
                None => FaultSpec::none(),
            };
            let mut trace = poisson::generate(
                args.rate,
                args.concurrency,
                args.requests,
                SimTime::ZERO,
                args.seed,
            );
            if trace.last().is_some_and(|r| r.at > LAST_ARRIVAL) {
                fail(format!(
                    "--rate {:e}: {} request(s) would arrive past the end of simulated time",
                    args.rate, args.requests
                ));
            }
            let model = dnn_models::zoo::build(id);
            let kinds = vec![DeployedModel::prepare(
                &model,
                &machine,
                args.mode,
                cfg.max_pt_gpus,
            )];
            // Every instance pins its weights in host memory; the server
            // asserts they fit, so an oversized deployment stops here.
            let pinned = u128::from(kinds[0].rt.total_bytes) * args.concurrency as u128;
            if pinned > u128::from(cfg.host_mem_bytes) {
                fail(format!(
                    "--concurrency {}: the instances pin {pinned} B of weights, \
                     the machine has {} B of host memory",
                    args.concurrency, cfg.host_mem_bytes
                ));
            }
            let instance_kinds = vec![0usize; args.concurrency];
            if args.decode {
                decode::assign_lengths(&mut trace, decode::LengthDist::default(), args.seed);
            }
            let want_metrics = args.metrics_out.is_some() || args.metrics_json.is_some();
            let want_probe = args.trace_out.is_some() || args.events_out.is_some() || want_metrics;
            let (probe, log, sink) = if want_metrics {
                let spec = metrics_spec(&cfg, &kinds, &instance_kinds);
                let (p, s) = MetricsSink::probe(spec);
                (p, None, Some(s))
            } else if want_probe {
                let (p, l) = Probe::logging();
                (p, Some(l), None)
            } else {
                (Probe::disabled(), None, None)
            };
            let report = run_server_faulted(
                cfg,
                kinds,
                &instance_kinds,
                trace,
                SimTime::ZERO,
                probe,
                &faults,
            );
            println!(
                "{} / {} / {} instance(s), {} request(s) at {:.0} req/s on {}:",
                id, args.mode, args.concurrency, args.requests, args.rate, machine.name
            );
            println!(
                "  completed {}, cold starts {}, evictions {}",
                report.completed, report.cold_starts, report.evictions
            );
            println!(
                "  p99 {:.2} ms, goodput {:.1}%, p99 queue wait {:.2} ms",
                report.p99_ms(),
                report.goodput() * 100.0,
                report.p99_queue_wait_ms()
            );
            if args.decode {
                println!(
                    "  decode: {} streamed, {} token(s), p99 TTFT {:.2} ms, p99 TPOT {:.3} ms",
                    report.decode_completed,
                    report.tokens_generated,
                    report.p99_ttft_ms(),
                    report.p99_tpot_ms()
                );
                println!(
                    "  kv: {} spill(s), {} recall(s), {} dha read(s), {} alloc failure(s)",
                    report.kv_spills,
                    report.kv_recalls,
                    report.kv_dha_reads,
                    report.kv_alloc_failures
                );
            }
            if args.resilience || args.slo_tiers {
                println!(
                    "  resilience: {} checkpointed session(s) ({:.1} MiB), \
                     {} restore / {} re-prefill decision(s), {} restored",
                    report.ckpt_sessions,
                    report.ckpt_bytes as f64 / (1 << 20) as f64,
                    report.restore_decisions,
                    report.reprefill_decisions,
                    report.sessions_restored
                );
                println!(
                    "  resilience: {} swapped out, {} resumed, {} truncated",
                    report.sessions_swapped, report.sessions_resumed, report.sessions_truncated
                );
            }
            if !faults.is_empty() {
                println!(
                    "  faults: {} gpu failure(s), {} aborted run(s), {} retr(ies), {} shed",
                    report.gpu_failures, report.aborted_runs, report.retries, report.shed
                );
            }
            if args.recovery {
                println!(
                    "  recovery: {} re-plan(s), {} live migration(s)",
                    report.replans, report.plan_migrations
                );
            }
            if args.detection {
                println!(
                    "  detection: {} quarantine(s), {} reinstate(s), {} canar(ies), \
                     {} hedged transfer(s), {} checksum refetch(es)",
                    report.quarantines,
                    report.reinstates,
                    report.canaries,
                    report.hedged_transfers,
                    report.checksum_refetches
                );
            }
            if let Some(sink) = &sink {
                sink.borrow_mut().finish();
            }
            // The exporters read the recorded log in place.
            let sink = sink.as_ref().map(|s| s.borrow());
            let log = log.as_ref().map(|l| l.borrow());
            let events = match (&sink, &log) {
                (Some(sink), _) => Some(sink.events()),
                (None, Some(log)) => Some(&log.events[..]),
                (None, None) => None,
            };
            if let Some(sink) = &sink {
                let alerts = sink
                    .events()
                    .iter()
                    .filter(|e| matches!(e.what, simcore::ProbeEvent::SloBurnAlert { .. }))
                    .count();
                println!("  metrics: {alerts} slo burn alert(s)");
                if let Some(path) = &args.metrics_out {
                    if let Err(e) = std::fs::write(path, sink.registry.to_prometheus()) {
                        fail(format!("writing {path}: {e}"));
                    }
                    println!("  wrote metrics snapshot to {path}");
                }
                if let Some(path) = &args.metrics_json {
                    if let Err(e) = std::fs::write(path, sink.to_json_series()) {
                        fail(format!("writing {path}: {e}"));
                    }
                    println!("  wrote metrics time series to {path}");
                }
            }
            if let Some(events) = events {
                if let Some(path) = &args.events_out {
                    if let Err(e) = std::fs::write(path, to_jsonl(events)) {
                        fail(format!("writing {path}: {e}"));
                    }
                    println!("  wrote {} event(s) to {path}", events.len());
                }
                if let Some(path) = &args.trace_out {
                    let (_, map) = NetMap::build(&machine)
                        .unwrap_or_else(|e| fail(format!("invalid machine topology: {e}")));
                    let opts = PerfettoOptions {
                        link_names: map.link_names(),
                    };
                    if let Err(e) = std::fs::write(path, to_perfetto(events, &opts)) {
                        fail(format!("writing {path}: {e}"));
                    }
                    println!("  wrote Perfetto trace to {path}");
                }
            }
        }
        "analyze" => {
            let path = args.input.unwrap_or_else(|| usage());
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| fail(format!("reading {path}: {e}")));
            let events = parse_jsonl(&text).unwrap_or_else(|e| fail(format!("{path}: {e}")));
            print!("{}", render_analysis(&analyze(&events)));
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_kib_validation_rejects_zero_and_non_powers() {
        assert_eq!(validate_page_kib(0), Err(PageSizeError::Zero));
        assert_eq!(validate_page_kib(48), Err(PageSizeError::NotPowerOfTwo(48)));
        assert_eq!(validate_page_kib(3), Err(PageSizeError::NotPowerOfTwo(3)));
        assert_eq!(validate_page_kib(1), Ok(1));
        assert_eq!(validate_page_kib(64), Ok(64));
    }
}
