//! The inference server simulation.
//!
//! Architecture (following the paper's setup, itself modelled on
//! Clockwork): a central router assigns each request to a GPU queue;
//! every GPU runs exactly one inference at a time. A request whose
//! instance is resident runs warm; otherwise the dispatch performs a cold
//! start under the server's plan mode, LRU-evicting idle instances if the
//! GPU's model cache is full. Parallel-transmission cold starts borrow the
//! topology-selected partner GPU's PCIe lane and NVLink; the partner keeps
//! serving its own queue (only its links are shared, which is exactly the
//! interference the paper measures in Table 4).
//!
//! The server is split by concern. This module holds the state every
//! concern shares and the entry points. `dispatch` routes, admits and
//! runs one-shot requests and prefills; `decode` runs the continuous
//! batches over the paged KV cache; `resilience` checkpoints, restores
//! and swaps decode sessions and applies the SLO tiers; `control` applies
//! faults and runs detection, re-planning and migration. Only
//! `ServerState::new` reads the policies' `enabled` flags: an optional
//! concern is an `Option` of its own state, absent when its policy is off.

mod control;
mod decode;
mod dispatch;
mod resilience;

use std::collections::VecDeque;
use std::sync::Arc;

use exec_engine::hw::{HasHw, HwState, RunRef};
use exec_planner::plan::ExecutionPlan;
use gpu_topology::health::{GpuHealth, LinkHealth};
use simcore::driver::{FlowDriver, HasFlowDriver};
use simcore::fault::FaultSpec;
use simcore::flow::LinkId;
use simcore::probe::{DetectState, Probe, ProbeEvent, ShedCause};
use simcore::sim::Sim;
use simcore::time::{SimDur, SimTime};

use crate::catalog::DeployedModel;
use crate::config::ServerConfig;
use crate::detect::Detector;
use crate::instance::{Instance, Residency};
use crate::memory::GpuCache;
use crate::metrics::ServingReport;
use crate::workload::Request;
use control::Recovery;
use decode::DecodeState;
use resilience::ResilienceState;

/// Retry budget after a run is lost to a GPU failure; exhausting it
/// sheds the request.
const MAX_RETRIES: u32 = 3;

/// Base crash-retry backoff: attempt `n` waits `n × RETRY_BACKOFF`
/// before re-queueing on a healthy GPU.
const RETRY_BACKOFF: SimDur = SimDur::from_millis(2);

/// A request waiting in a GPU queue or for its retry.
#[derive(Clone, Copy)]
struct Queued {
    /// Request id, unique within the experiment (for request spans).
    req: u64,
    instance: usize,
    arrival: SimTime,
    /// Failure-retry attempt this entry represents (0 = first try).
    attempt: u32,
    priority: u8,
    /// Prompt length in tokens (decode requests only; 0 otherwise).
    prompt_tokens: u32,
    /// Output tokens requested; > 1 makes this a decode request. A
    /// truncated decode session lowers it to the tokens it produced.
    output_tokens: u32,
}

/// The request currently executing on a GPU, kept so a GPU failure can
/// abort the run and retry the request elsewhere.
struct RunningReq {
    q: Queued,
    run: RunRef,
}

/// The simulation world of one serving experiment.
pub struct ServerState {
    hw: HwState<ServerState>,
    flows: FlowDriver<ServerState>,
    cfg: ServerConfig,
    kinds: Vec<DeployedModel>,
    sizes: Vec<u64>,
    instances: Vec<Instance>,
    caches: Vec<GpuCache>,
    busy: Vec<bool>,
    queues: Vec<VecDeque<Queued>>,
    pending: VecDeque<Request>,
    report: ServingReport,
    measure_from: SimTime,
    probe: Probe,
    next_req: u64,
    // --- fault state (inert on healthy runs) ---
    gpu_up: GpuHealth,
    link_health: LinkHealth,
    running: Vec<Option<RunningReq>>,
    /// Pinned host bytes each instance's weights occupy.
    inst_pinned: Vec<u64>,
    /// Instances whose host copy was reclaimed under memory pressure.
    unpinned: Vec<bool>,
    pinned_total: u64,
    /// Compute-time multiplier applied to newly dispatched runs.
    slowdown: f64,
    /// Ground-truth silent capacity factor per link. Fault plumbing
    /// only — the detector never reads it; it multiplies into effective
    /// link capacity without any health event or announcement.
    silent_link_factor: Vec<f64>,
    /// Ground-truth silent compute multiplier per GPU (> 1 is slower).
    /// Folded into dispatched runs' `exec_scale`, never announced.
    silent_gpu_factor: Vec<f64>,
    /// The plan each kind currently dispatches with. Starts as the same
    /// `Arc` as `kinds[k].plan`; re-planning swaps in degraded plans and
    /// rolls back to the original when health returns.
    active_plans: Vec<Arc<ExecutionPlan>>,
    /// GPU bytes each *instance* currently occupies. Tracked per
    /// instance (not per kind) because after a plan swap, instances
    /// loaded under the old plan keep their old footprint until evicted
    /// or migrated.
    inst_resident: Vec<u64>,
    // --- optional concerns: `Some` iff their policy is enabled ---
    /// Continuous batches and the paged KV allocator.
    decode: Option<DecodeState>,
    /// Session checkpoints, the checkpoint bandwidth bucket, swapped-out
    /// sessions and crash times.
    resilience: Option<ResilienceState>,
    /// Re-planning hysteresis and the active plans' topology signature.
    recovery: Option<Recovery>,
    /// Observation-driven health inference.
    detector: Option<Detector>,
}

impl HasFlowDriver for ServerState {
    fn flow_driver(&mut self) -> &mut FlowDriver<ServerState> {
        &mut self.flows
    }
}

impl HasHw for ServerState {
    fn hw(&mut self) -> &mut HwState<ServerState> {
        &mut self.hw
    }
}

impl ServerState {
    fn new(
        cfg: ServerConfig,
        kinds: Vec<DeployedModel>,
        instance_kinds: &[usize],
        trace: Vec<Request>,
        measure_from: SimTime,
    ) -> Self {
        let (hw, flows) = HwState::new(cfg.machine.clone());
        let n_gpus = cfg.machine.gpu_count();
        let n_links = flows.net.link_count();
        let sizes: Vec<u64> = kinds.iter().map(|k| k.resident_bytes).collect();
        let inst_pinned: Vec<u64> = instance_kinds
            .iter()
            .map(|&k| kinds[k].rt.total_bytes)
            .collect();
        let (dec, res, det) = (&cfg.decode, &cfg.decode_resilience, &cfg.detection);
        ServerState {
            caches: (0..n_gpus)
                .map(|g| GpuCache::new(cfg.cache_bytes(g)))
                .collect(),
            instances: instance_kinds.iter().map(|&k| Instance::new(k)).collect(),
            busy: vec![false; n_gpus],
            queues: (0..n_gpus).map(|_| VecDeque::new()).collect(),
            pending: trace.into(),
            report: ServingReport::new(),
            measure_from,
            probe: Probe::disabled(),
            next_req: 0,
            gpu_up: GpuHealth::all_up(n_gpus),
            link_health: LinkHealth::snapshot(&flows.net),
            running: (0..n_gpus).map(|_| None).collect(),
            unpinned: vec![false; instance_kinds.len()],
            pinned_total: inst_pinned.iter().sum(),
            inst_pinned,
            slowdown: 1.0,
            silent_link_factor: vec![1.0; n_links],
            silent_gpu_factor: vec![1.0; n_gpus],
            active_plans: kinds.iter().map(|k| k.plan.clone()).collect(),
            inst_resident: instance_kinds.iter().map(|&k| sizes[k]).collect(),
            // The only reads of the policies' `enabled` flags.
            decode: dec.enabled.then(|| DecodeState::new(dec, n_gpus)),
            resilience: res.enabled.then(|| ResilienceState::new(n_gpus)),
            recovery: cfg.recovery.enabled.then(Recovery::default),
            detector: det
                .enabled
                .then(|| Detector::new(det.clone(), n_links, n_gpus)),
            sizes,
            kinds,
            hw,
            flows,
            cfg,
        }
    }

    /// Installs `probe` on the server and its embedded engine/network so
    /// every layer publishes onto the same bus.
    fn set_probe(&mut self, probe: Probe) {
        self.hw.probe = probe.clone();
        self.flows.probe = probe.clone();
        self.probe = probe;
    }

    fn emit_queue_depth(&self, at: SimTime, g: usize) {
        self.probe.emit(
            at,
            ProbeEvent::QueueDepth {
                gpu: g,
                depth: self.queues[g].len(),
            },
        );
    }

    fn emit_cache(&self, at: SimTime, g: usize) {
        self.probe.emit(
            at,
            ProbeEvent::CacheOccupancy {
                gpu: g,
                used_bytes: self.caches[g].used,
                capacity_bytes: self.caches[g].capacity,
            },
        );
    }

    /// Pre-places instances round-robin until every cache is full — the
    /// paper's "after warming up the instances" step.
    fn preload(&mut self) {
        let n_gpus = self.caches.len();
        let mut g = 0usize;
        for inst in self.instances.iter_mut() {
            let bytes = self.sizes[inst.kind];
            // First GPU (starting from the round-robin cursor) with room.
            let mut placed = false;
            for off in 0..n_gpus {
                let cand = (g + off) % n_gpus;
                if self.caches[cand].free() >= bytes {
                    self.caches[cand].used += bytes;
                    inst.residency = Residency::Resident(cand);
                    g = (cand + 1) % n_gpus;
                    placed = true;
                    break;
                }
            }
            if !placed {
                break; // Caches full; the rest start non-resident.
            }
        }
    }

    /// Marks instance `i` resident on GPU `g` if its weights were
    /// loading there.
    fn mark_loaded(&mut self, i: usize, g: usize) {
        let inst = &mut self.instances[i];
        if inst.residency == Residency::Loading(g) {
            inst.residency = Residency::Resident(g);
        }
    }

    /// Whether GPU `g` may take *new* placements: up per the oracle and
    /// not quarantined by the detector. A quarantined GPU keeps serving
    /// its already-resident instances (it is slow, not dead — re-routing
    /// them would cold-start every one elsewhere), but new instances,
    /// parallel-transmission lending and re-planning avoid it.
    fn gpu_ok(&self, g: usize) -> bool {
        self.gpu_up.is_up(g)
            && self
                .detector
                .as_ref()
                .is_none_or(|d| d.gpu_state(g) != DetectState::Quarantined)
    }

    /// GPU `g`'s host path: its switch uplink, then its own PCIe lane.
    fn host_path(&self, g: usize) -> [LinkId; 2] {
        self.hw.map.host_path(&self.cfg.machine, g)
    }

    /// Believed capacity factor of GPU `g`'s host path, by announced
    /// `link-degrade` *or* detector inference: a GPU's host bandwidth is
    /// capped by the slower of its two links. The re-planner plans with
    /// it, and cold placement demotes GPUs whose path is below 1: a cold
    /// start routed onto a slow wire pays the slowdown on every weight
    /// byte, so steering new instances to clean paths is the serving
    /// layer's main lever against a sick link (re-planning only
    /// rebalances Load vs DHA). Oracle and detector pull the same lever,
    /// which is what makes their fault-window tails comparable.
    fn path_factor(&self, g: usize) -> f64 {
        let [uplink, pcie] = self.host_path(g);
        let announced = self
            .link_health
            .factor(uplink)
            .min(self.link_health.factor(pcie));
        match &self.detector {
            Some(d) => announced
                .min(d.link_factor(uplink))
                .min(d.link_factor(pcie)),
            None => announced,
        }
    }

    /// GPU choice for a non-resident instance: clean host path first,
    /// then shortest queue, then most free cache, then lowest index —
    /// healthy GPUs only. `None` when every GPU is down.
    fn pick_gpu(&self) -> Option<usize> {
        (0..self.queues.len())
            .filter(|&g| self.gpu_ok(g))
            .min_by_key(|&g| {
                (
                    self.path_factor(g) < 1.0,
                    self.queues[g].len() + usize::from(self.busy[g]),
                    u64::MAX - self.caches[g].free(),
                    g,
                )
            })
    }

    /// Where instance `i`'s requests go: the GPU it is resident on while
    /// that GPU is up, else [`Self::pick_gpu`].
    fn home_gpu(&self, i: usize) -> Option<usize> {
        match self.instances[i].gpu() {
            Some(g) if self.gpu_up.is_up(g) => Some(g),
            _ => self.pick_gpu(),
        }
    }

    /// Whether the cluster is running below healthy capacity (a GPU down
    /// or any link degraded, per announcement *or* inference) — the
    /// trigger for priority shedding.
    fn degraded(&self) -> bool {
        self.gpu_up.up_count() < self.gpu_up.len()
            || self.link_health.any_degraded()
            || self.detector.as_ref().is_some_and(|d| d.any_suspected())
    }

    /// Believed solo transfer rate of GPU `g`'s host path: healthy
    /// capacity times *announced* health factor, minimum over the path.
    /// Deliberately ignorant of silent faults — this is the performance
    /// model's expectation, and the gap between it and observed wire
    /// time is exactly the detector's signal.
    fn believed_path_rate(&self, g: usize) -> f64 {
        self.host_path(g)
            .iter()
            .map(|&l| self.link_health.healthy_capacity(l) * self.link_health.factor(l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Whether any serving work remains (pending arrivals, queued or
    /// executing requests). The detector's probation timers and canary
    /// probes re-arm only while this holds — otherwise a permanently
    /// sick link would keep the quarantine → probation → dirty-canary
    /// cycle alive forever and the simulation would never go idle.
    fn serving_active(&self) -> bool {
        !self.pending.is_empty()
            || self.busy.iter().any(|&b| b)
            || self.queues.iter().any(|q| !q.is_empty())
            || self.decode.as_ref().is_some_and(DecodeState::active)
            || self
                .resilience
                .as_ref()
                .is_some_and(|r| !r.swapped.is_empty())
    }

    /// Crash-retry wait before attempt `attempt`: `attempt` times
    /// [`RETRY_BACKOFF`].
    fn crash_backoff(&self, attempt: u32) -> SimDur {
        SimDur::from_nanos(RETRY_BACKOFF.as_nanos() * u64::from(attempt))
    }

    /// Sheds a request: counted, never served.
    fn shed(&mut self, at: SimTime, q: &Queued, cause: ShedCause) {
        if let Some(r) = &mut self.resilience {
            // A shed session will never resume or restore.
            r.forget(q.req);
        }
        self.report.shed += 1;
        if q.arrival >= self.measure_from {
            self.report.shed_measured += 1;
        }
        self.probe.emit(
            at,
            ProbeEvent::RequestShed {
                req: q.req,
                instance: q.instance,
                cause,
            },
        );
    }

    /// The report at the end of a run. The counters the kernel, the flow
    /// network, the engine and the KV pager keep for themselves are
    /// copied in here; every other counter was set as it happened.
    fn into_report(mut self, sim_events: u64) -> ServingReport {
        self.report.sim_events = sim_events;
        self.report.hedged_transfers = self.flows.hedged;
        self.report.checksum_refetches = self.hw.refetches;
        if let Some(d) = &self.decode {
            d.close_books(&mut self.report);
        }
        self.report
    }
}

/// Runs one serving experiment to completion and returns the report.
///
/// * `kinds` — the deployed model kinds;
/// * `instance_kinds` — kind index per instance (its length is the
///   instance count / concurrency);
/// * `trace` — time-sorted requests over those instances;
/// * `measure_from` — requests arriving earlier are executed but not
///   recorded (warm-up window).
///
/// # Panics
///
/// Panics if the trace references an unknown instance or an instance an
/// unknown kind.
pub fn run_server(
    cfg: ServerConfig,
    kinds: Vec<DeployedModel>,
    instance_kinds: &[usize],
    trace: Vec<Request>,
    measure_from: SimTime,
) -> ServingReport {
    run_server_probed(
        cfg,
        kinds,
        instance_kinds,
        trace,
        measure_from,
        Probe::disabled(),
    )
}

/// [`run_server`] with an observability probe installed across the
/// serving layer, execution engine and flow network.
///
/// With [`Probe::disabled`] this is exactly `run_server`; with a
/// recording probe the event log captures request spans, run phases and
/// counter tracks for the JSONL / Perfetto exporters
/// ([`simcore::probe::to_jsonl`], [`simcore::probe::to_perfetto`]).
///
/// # Panics
///
/// Same conditions as [`run_server`].
pub fn run_server_probed(
    cfg: ServerConfig,
    kinds: Vec<DeployedModel>,
    instance_kinds: &[usize],
    trace: Vec<Request>,
    measure_from: SimTime,
    probe: Probe,
) -> ServingReport {
    run_server_faulted(
        cfg,
        kinds,
        instance_kinds,
        trace,
        measure_from,
        probe,
        &FaultSpec::none(),
    )
}

/// [`run_server_probed`] under a fault scenario.
///
/// The spec is materialized up front into a deterministic event
/// timeline (horizon: one second past the last trace arrival) and its
/// events are injected through the discrete-event kernel, so failures
/// compose with in-flight flows and streams. With [`FaultSpec::none`]
/// no fault event is scheduled and the run is byte-identical to
/// [`run_server_probed`].
///
/// # Panics
///
/// Same conditions as [`run_server`].
#[allow(clippy::too_many_arguments)]
pub fn run_server_faulted(
    cfg: ServerConfig,
    kinds: Vec<DeployedModel>,
    instance_kinds: &[usize],
    trace: Vec<Request>,
    measure_from: SimTime,
    probe: Probe,
    faults: &FaultSpec,
) -> ServingReport {
    for &k in instance_kinds {
        assert!(k < kinds.len(), "instance references unknown kind {k}");
    }
    let n = instance_kinds.len();
    assert!(
        trace.iter().all(|r| r.instance < n),
        "trace references unknown instance"
    );
    let mut state = ServerState::new(cfg, kinds, instance_kinds, trace, measure_from);
    // Every deployed instance keeps its full weights pinned in host
    // memory (that is the model store cold starts copy / DHA-read from).
    let host_pinned = state.pinned_total;
    assert!(
        host_pinned <= state.cfg.host_mem_bytes,
        "deployment needs {host_pinned} B of pinned host memory, machine has {}",
        state.cfg.host_mem_bytes
    );
    state.set_probe(probe);
    state.report.host_pinned_bytes = host_pinned;
    state.preload();
    state
        .probe
        .emit(SimTime::ZERO, ProbeEvent::HostPinned { bytes: host_pinned });
    if state.probe.is_enabled() {
        for g in 0..state.caches.len() {
            state.emit_cache(SimTime::ZERO, g);
            state.emit_queue_depth(SimTime::ZERO, g);
        }
    }
    let mut sim = Sim::new(state);
    sim.schedule_at(
        SimTime::ZERO,
        Box::new(|s: &mut ServerState, ctx| dispatch::schedule_next_arrival(s, ctx)),
    );
    if !faults.is_empty() {
        let horizon = sim
            .state()
            .pending
            .iter()
            .map(|r| r.at)
            .max()
            .unwrap_or(SimTime::ZERO)
            .saturating_add(SimDur::from_secs(1));
        for ev in faults.materialize(horizon) {
            let kind = ev.kind;
            sim.schedule_at(
                ev.at,
                Box::new(move |s: &mut ServerState, ctx| control::apply_fault(s, ctx, kind)),
            );
        }
    }
    sim.run_until_idle();
    let events = sim.executed_events();
    sim.into_state().into_report(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::poisson;
    use dnn_models::zoo::{build, ModelId};
    use exec_planner::generate::PlanMode;
    use gpu_topology::presets::p3_8xlarge;

    fn bert_kind(mode: PlanMode) -> DeployedModel {
        let m = p3_8xlarge();
        DeployedModel::prepare(&build(ModelId::BertBase), &m, mode, 2)
    }

    fn run(mode: PlanMode, concurrency: usize, requests: usize) -> ServingReport {
        let cfg = ServerConfig::paper_default(p3_8xlarge(), mode);
        let kinds = vec![bert_kind(mode)];
        let instance_kinds = vec![0usize; concurrency];
        let trace = poisson::generate(100.0, concurrency, requests, SimTime::ZERO, 11);
        run_server(cfg, kinds, &instance_kinds, trace, SimTime::ZERO)
    }

    #[test]
    fn low_concurrency_is_all_warm_and_fast() {
        let r = run(PlanMode::PipeSwitch, 40, 500);
        assert_eq!(r.completed, 500);
        assert_eq!(r.cold_starts, 0, "everything fits in memory");
        let p99 = r.p99_ms();
        assert!(p99 < 50.0, "p99 {p99:.1} ms");
        assert!(r.goodput() > 0.99);
    }

    #[test]
    fn oversubscription_triggers_cold_starts_and_evictions() {
        let r = run(PlanMode::PipeSwitch, 140, 1_000);
        assert_eq!(r.completed, 1_000);
        assert!(r.cold_starts > 50, "cold starts {}", r.cold_starts);
        assert!(r.evictions > 0);
        assert!(r.p99_ms() > 40.0);
    }

    #[test]
    fn deepplan_beats_pipeswitch_when_oversubscribed() {
        // Figure 13 at concurrency 140: PipeSwitch's p99 blows past the
        // SLO while DeepPlan (PT+DHA) stays low.
        let ps = run(PlanMode::PipeSwitch, 150, 1_500);
        let dp = run(PlanMode::PtDha, 150, 1_500);
        assert!(
            dp.p99_ms() < ps.p99_ms(),
            "PT+DHA p99 {:.1} !< PipeSwitch p99 {:.1}",
            dp.p99_ms(),
            ps.p99_ms()
        );
        assert!(dp.goodput() >= ps.goodput());
        // DHA plans fit more instances, so fewer cold starts.
        assert!(dp.cold_starts <= ps.cold_starts);
    }

    #[test]
    fn all_requests_complete_under_heavy_load() {
        let r = run(PlanMode::Dha, 200, 2_000);
        assert_eq!(r.completed, 2_000);
        assert!(r.p99_ms() > 0.0);
    }

    fn decode_run(
        tweak: impl FnOnce(&mut ServerConfig),
        concurrency: usize,
        requests: usize,
    ) -> ServingReport {
        let m = p3_8xlarge();
        let mut cfg = ServerConfig::paper_default(m.clone(), PlanMode::Dha);
        cfg.decode.enabled = true;
        tweak(&mut cfg);
        let kinds = vec![DeployedModel::prepare(
            &build(ModelId::Gpt2),
            &m,
            PlanMode::Dha,
            2,
        )];
        let instance_kinds = vec![0usize; concurrency];
        let mut trace = poisson::generate(50.0, concurrency, requests, SimTime::ZERO, 11);
        crate::workload::decode::assign_lengths(
            &mut trace,
            crate::workload::decode::LengthDist::default(),
            42,
        );
        run_server(cfg, kinds, &instance_kinds, trace, SimTime::ZERO)
    }

    #[test]
    fn decode_streams_every_request_to_completion() {
        let r = decode_run(|_| {}, 8, 120);
        assert_eq!(r.completed, 120);
        assert_eq!(r.decode_completed, 120, "all requests want >= 2 tokens");
        assert_eq!(r.ttft.len(), 120);
        assert_eq!(r.tpot.len(), 120);
        // Every request generated at least its prefill token plus one.
        assert!(r.tokens_generated >= 2 * 120);
        assert!(r.p99_ttft_ms() > 0.0);
        assert!(r.p99_tpot_ms() > 0.0);
        // TTFT is bounded by end-to-end latency.
        assert!(r.p99_ttft_ms() <= r.p99_ms());
        assert_eq!(r.kv_alloc_failures, 0);
    }

    #[test]
    fn tight_device_pool_spills_and_dha_reads_kv() {
        let r = decode_run(
            |cfg| {
                // ~36 pages of 64 KiB per GPU: long sequences must spill.
                cfg.decode.gpu_pool_bytes = 36 * (64 << 10);
                cfg.decode.page_bytes = 64 << 10;
            },
            8,
            120,
        );
        assert_eq!(r.completed, 120);
        assert!(r.kv_spills > 0, "tight pool must spill");
        assert!(
            r.kv_dha_reads + r.kv_recalls > 0,
            "spilled pages must be accessed"
        );
        // A pool this small cannot materialise a long prompt in one step
        // (fresh pages are touch-protected from spilling); the server
        // degrades to counted allocation failures instead of stalling.
        assert!(r.kv_alloc_failures > 0);
    }

    #[test]
    fn decode_disabled_ignores_token_fields() {
        // Same trace with token lengths assigned, decode off: the server
        // must serve everything one-shot, no decode accounting at all.
        let m = p3_8xlarge();
        let cfg = ServerConfig::paper_default(m.clone(), PlanMode::Dha);
        assert!(!cfg.decode.enabled);
        let kinds = vec![DeployedModel::prepare(
            &build(ModelId::Gpt2),
            &m,
            PlanMode::Dha,
            2,
        )];
        let instance_kinds = vec![0usize; 8];
        let mut trace = poisson::generate(50.0, 8, 120, SimTime::ZERO, 11);
        crate::workload::decode::assign_lengths(
            &mut trace,
            crate::workload::decode::LengthDist::default(),
            42,
        );
        let r = run_server(cfg, kinds, &instance_kinds, trace, SimTime::ZERO);
        assert_eq!(r.completed, 120);
        assert_eq!(r.decode_completed, 0);
        assert_eq!(r.tokens_generated, 0);
        assert_eq!(r.ttft.len(), 0);
        assert_eq!(r.kv_spills + r.kv_recalls + r.kv_dha_reads, 0);
    }
}
