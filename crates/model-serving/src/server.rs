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

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use exec_engine::decode::{abort_decode, begin_decode, start_token_step, stream_kv, StepSpec};
use exec_engine::hw::{DecodeRef, HasHw, HwState, RunRef};
use exec_engine::launch::{abort_run, start_inference, DoneFn, HedgeSpec, LaunchSpec};
use exec_engine::result::InferenceResult;
use exec_planner::generate_degraded;
use exec_planner::kvplan::{choose_kv, choose_restore, KvPlacement, RestoreChoice};
use exec_planner::plan::ExecutionPlan;
use gpu_topology::health::{GpuHealth, LinkHealth};
use gpu_topology::select::pt_group;
use simcore::driver::{set_link_capacity, start_flow, FlowDriver, HasFlowDriver};
use simcore::fault::{FaultKind, FaultSpec};
use simcore::flow::LinkId;
use simcore::probe::{DetectState, Probe, ProbeEvent, ShedCause, SilentFaultKind};
use simcore::sim::{Ctx, Sim};
use simcore::time::{SimDur, SimTime};

use crate::catalog::DeployedModel;
use crate::config::{KvMode, ServerConfig};
use crate::detect::{Detector, Transition};
use crate::instance::{Instance, Residency};
use crate::kvcache::{KvPager, PageHome, PageId};
use crate::memory::{make_room_with, GpuCache};
use crate::metrics::ServingReport;
use crate::workload::Request;

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
    /// Output tokens requested; > 1 makes this a decode request.
    output_tokens: u32,
}

/// The request currently executing on a GPU, kept so a GPU failure can
/// abort the run and retry the request elsewhere.
struct RunningReq {
    req: u64,
    instance: usize,
    arrival: SimTime,
    attempt: u32,
    priority: u8,
    prompt_tokens: u32,
    output_tokens: u32,
    run: RunRef,
}

/// One request streaming tokens in a GPU's continuous batch. The prefill
/// (one-shot inference) produced the first token; each subsequent token
/// comes from a batch-wide token step.
#[derive(Clone, Copy)]
struct DecodeEntry {
    req: u64,
    instance: usize,
    arrival: SimTime,
    dispatched: SimTime,
    /// When the prefill finished (= first-token time).
    prefill_done: SimTime,
    /// Tokens produced so far (prefill counts as the first).
    tokens_done: u64,
    /// Total output tokens requested.
    tokens_target: u64,
    prompt_tokens: u64,
    attempt: u32,
    priority: u8,
    /// Whether the prefill ran cold (for completion accounting).
    cold: bool,
}

/// Host-side checkpoint record of one decode session: the token step the
/// pinned-host mirror covers and the page-rounded bytes mirrored.
/// Deliberately *not* pager state — it must survive the session's batch
/// and GPU, since crash recovery reads it after `gpu_fail` freed every
/// one of the session's pages.
#[derive(Clone, Copy, Default)]
struct CkptState {
    /// Token step the mirror covers.
    tokens: u64,
    /// Page-rounded KV footprint mirrored at that step.
    bytes: u64,
}

/// Per-GPU continuous batch: requests join at token boundaries as their
/// prefills finish and leave as they hit their target length. At most
/// one token step is in flight per GPU, and prefills alternate with
/// steps (`busy` excludes steps; `stepping` excludes dispatches).
#[derive(Default)]
struct DecodeBatch {
    entries: Vec<DecodeEntry>,
    /// A token step is in flight.
    stepping: bool,
    /// Monotonic step counter (this GPU), also the pager's touch step.
    step_id: u64,
    /// Live engine decode process, one per GPU with a non-empty batch.
    run: Option<DecodeRef>,
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
    // --- decode state (inert unless cfg.decode.enabled) ---
    /// Per-GPU continuous batches.
    batches: Vec<DecodeBatch>,
    /// Paged KV allocator; `Some` iff decode is enabled.
    pager: Option<KvPager>,
    // --- fault state (inert on healthy runs) ---
    gpu_up: GpuHealth,
    link_health: LinkHealth,
    running: Vec<Option<RunningReq>>,
    /// Pinned host bytes each instance's weights occupy.
    inst_pinned: Vec<u64>,
    /// Instances whose host copy was reclaimed under memory pressure.
    unpinned: Vec<bool>,
    pinned_total: u64,
    pressure_bytes: u64,
    /// Compute-time multiplier applied to newly dispatched runs.
    slowdown: f64,
    // --- recovery state (inert unless cfg.recovery.enabled) ---
    /// Monotonic counter of health transitions; a settle timer only
    /// fires a re-plan if no newer transition superseded it (hysteresis).
    topo_epoch: u64,
    /// The plan each kind currently dispatches with. Starts as the same
    /// `Arc` as `kinds[k].plan`; the recovery manager swaps in degraded
    /// plans and rolls back to the original when health returns.
    active_plans: Vec<Arc<ExecutionPlan>>,
    /// Topology signature (`gpu_up`, per-GPU host-path factor bits) the
    /// active plans were generated for; re-plans that resolve to the
    /// same signature are skipped.
    plan_signature: Option<(Vec<bool>, Vec<u64>)>,
    /// GPU bytes each *instance* currently occupies. Tracked per
    /// instance (not per kind) because after a plan swap, instances
    /// loaded under the old plan keep their old footprint until evicted
    /// or migrated.
    inst_resident: Vec<u64>,
    // --- resilience state (inert unless cfg.decode_resilience.enabled) ---
    /// Per-session checkpoint records, by request id.
    ckpts: BTreeMap<u64, CkptState>,
    /// Whether a checkpoint mirror flow is in flight, per GPU (at most
    /// one, so mirrors never pile onto a struggling wire).
    ckpt_inflight: Vec<bool>,
    /// Per-GPU checkpoint epoch; a crash bumps it so an in-flight
    /// mirror's completion commits nothing.
    ckpt_epoch: Vec<u64>,
    /// Checkpoint bandwidth token bucket: bytes currently available.
    ckpt_tokens: f64,
    /// Last lazy refill of the checkpoint token bucket.
    ckpt_refilled: SimTime,
    /// Sessions frozen by preemptive swap-out, in FIFO resume order.
    swapped: VecDeque<DecodeEntry>,
    /// Crash time per victim session, for TTFT-to-recovery samples.
    crashed_at: BTreeMap<u64, SimTime>,
    // --- detection state (inert unless cfg.detection.enabled) ---
    /// Observation-driven health inference; `Some` iff detection is on.
    detector: Option<Detector>,
    /// Ground-truth silent capacity factor per link. Fault plumbing
    /// only — the detector never reads it; it multiplies into effective
    /// link capacity without any health event or announcement.
    silent_link_factor: Vec<f64>,
    /// Ground-truth silent compute multiplier per GPU (> 1 is slower).
    /// Folded into dispatched runs' `exec_scale`, never announced.
    silent_gpu_factor: Vec<f64>,
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
        let caches = (0..n_gpus)
            .map(|g| GpuCache::new(cfg.cache_bytes(g)))
            .collect();
        let sizes: Vec<u64> = kinds.iter().map(|k| k.resident_bytes).collect();
        let inst_pinned: Vec<u64> = instance_kinds
            .iter()
            .map(|&k| kinds[k].rt.total_bytes)
            .collect();
        let pinned_total = inst_pinned.iter().sum();
        let n_inst = instance_kinds.len();
        let report = ServingReport::new(cfg.slo, cfg.bucket);
        let link_health = LinkHealth::snapshot(&flows.net);
        let active_plans: Vec<Arc<ExecutionPlan>> = kinds.iter().map(|k| k.plan.clone()).collect();
        let inst_resident: Vec<u64> = instance_kinds.iter().map(|&k| sizes[k]).collect();
        let n_links = flows.net.link_count();
        let detector = cfg
            .detection
            .enabled
            .then(|| Detector::new(cfg.detection.clone(), n_links, n_gpus));
        let pager = cfg.decode.enabled.then(|| {
            KvPager::new(
                cfg.decode.page_bytes,
                n_gpus,
                cfg.decode.gpu_pool_bytes,
                cfg.decode.host_pool_bytes,
            )
        });
        ServerState {
            hw,
            flows,
            cfg,
            kinds,
            sizes,
            instances: instance_kinds.iter().map(|&k| Instance::new(k)).collect(),
            caches,
            busy: vec![false; n_gpus],
            queues: (0..n_gpus).map(|_| VecDeque::new()).collect(),
            pending: trace.into(),
            report,
            measure_from,
            probe: Probe::disabled(),
            next_req: 0,
            batches: (0..n_gpus).map(|_| DecodeBatch::default()).collect(),
            pager,
            gpu_up: GpuHealth::all_up(n_gpus),
            link_health,
            running: (0..n_gpus).map(|_| None).collect(),
            inst_pinned,
            unpinned: vec![false; n_inst],
            pinned_total,
            pressure_bytes: 0,
            slowdown: 1.0,
            topo_epoch: 0,
            active_plans,
            plan_signature: None,
            inst_resident,
            ckpts: BTreeMap::new(),
            ckpt_inflight: vec![false; n_gpus],
            ckpt_epoch: vec![0; n_gpus],
            ckpt_tokens: 0.0,
            ckpt_refilled: SimTime::ZERO,
            swapped: VecDeque::new(),
            crashed_at: BTreeMap::new(),
            detector,
            silent_link_factor: vec![1.0; n_links],
            silent_gpu_factor: vec![1.0; n_gpus],
        }
    }

    /// The KV pager; only decode paths call this.
    fn pager(&self) -> &KvPager {
        self.pager.as_ref().expect("decode enabled implies pager")
    }

    fn pager_mut(&mut self) -> &mut KvPager {
        self.pager.as_mut().expect("decode enabled implies pager")
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

    /// Whether GPU `g` may take *new* placements: up per the oracle and
    /// not quarantined by the detector. A quarantined GPU keeps serving
    /// its already-resident instances (it is slow, not dead — re-routing
    /// them would cold-start every one elsewhere), but new instances and
    /// parallel-transmission lending avoid it.
    fn gpu_ok(&self, g: usize) -> bool {
        self.gpu_up.is_up(g)
            && self
                .detector
                .as_ref()
                .is_none_or(|d| d.gpu_state(g) != DetectState::Quarantined)
    }

    /// Whether GPU `g`'s host path is believed degraded — by an
    /// announced `link-degrade` *or* by detector inference. Cold
    /// placement demotes such GPUs: a cold start routed onto a slow
    /// wire pays the slowdown on every weight byte, so steering new
    /// instances to clean paths is the serving layer's main lever
    /// against a sick link (re-planning only rebalances Load vs DHA).
    /// Oracle and detector pull the same lever, which is what makes
    /// their fault-window tails comparable.
    fn path_impaired(&self, g: usize) -> bool {
        let uplink = self.hw.map.switch_uplink[self.cfg.machine.switch_of(g)];
        let pcie = self.hw.map.gpu_pcie[g];
        if self.link_health.factor(uplink) < 1.0 || self.link_health.factor(pcie) < 1.0 {
            return true;
        }
        self.detector
            .as_ref()
            .is_some_and(|d| d.link_factor(uplink) < 1.0 || d.link_factor(pcie) < 1.0)
    }

    /// GPU choice for a non-resident instance: clean host path first,
    /// then shortest queue, then most free cache, then lowest index —
    /// healthy GPUs only. `None` when every GPU is down.
    fn pick_gpu(&self) -> Option<usize> {
        (0..self.queues.len())
            .filter(|&g| self.gpu_ok(g))
            .min_by_key(|&g| {
                (
                    self.path_impaired(g),
                    self.queues[g].len() + usize::from(self.busy[g]),
                    u64::MAX - self.caches[g].free(),
                    g,
                )
            })
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
        let uplink = self.hw.map.switch_uplink[self.cfg.machine.switch_of(g)];
        let pcie = self.hw.map.gpu_pcie[g];
        [uplink, pcie]
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
            || self.batches.iter().any(|b| !b.entries.is_empty())
            || !self.swapped.is_empty()
    }

    /// Sheds a request: counted, never served.
    fn shed(&mut self, at: SimTime, req: u64, instance: usize, cause: ShedCause) {
        if self.cfg.decode_resilience.enabled {
            // A shed session will never resume or restore; drop its
            // recovery bookkeeping so the maps stay bounded.
            self.ckpts.remove(&req);
            self.crashed_at.remove(&req);
        }
        self.report.shed += 1;
        self.probe.emit(
            at,
            ProbeEvent::RequestShed {
                req,
                instance,
                cause,
            },
        );
    }
}

/// Pulls the next trace arrival and schedules its routing event.
fn schedule_next_arrival(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    let Some(req) = s.pending.pop_front() else {
        return;
    };
    ctx.schedule_at(
        req.at,
        Box::new(move |s: &mut ServerState, ctx| {
            route(s, ctx, req);
            schedule_next_arrival(s, ctx);
        }),
    );
}

/// Routes one request to a GPU queue, or sheds it when the cluster
/// cannot take it (no healthy GPU, its host copy reclaimed, or priority
/// below the degradation floor).
fn route(s: &mut ServerState, ctx: &mut Ctx<ServerState>, req: Request) {
    let req_id = s.next_req;
    s.next_req += 1;
    if s.unpinned[req.instance] {
        s.shed(ctx.now(), req_id, req.instance, ShedCause::Pressure);
        return;
    }
    if req.priority < s.cfg.faults.shed_priority_floor && s.degraded() {
        s.shed(ctx.now(), req_id, req.instance, ShedCause::Priority);
        return;
    }
    let g = match s.instances[req.instance].gpu() {
        Some(g) if s.gpu_up.is_up(g) => g,
        _ => match s.pick_gpu() {
            Some(g) => g,
            None => {
                s.shed(ctx.now(), req_id, req.instance, ShedCause::NoCapacity);
                return;
            }
        },
    };
    if !admit(s, ctx, req_id, &req, g) {
        return;
    }
    s.queues[g].push_back(Queued {
        req: req_id,
        instance: req.instance,
        arrival: ctx.now(),
        attempt: 0,
        priority: req.priority,
        prompt_tokens: req.prompt_tokens,
        output_tokens: req.output_tokens,
    });
    s.probe.emit(
        ctx.now(),
        ProbeEvent::RequestEnqueued {
            req: req_id,
            instance: req.instance,
            gpu: g,
        },
    );
    s.emit_queue_depth(ctx.now(), g);
    try_dispatch(s, ctx, g);
}

/// Overload control at the admission edge (backpressure instead of
/// collapse): bounded queues, priority escalation as a queue fills, and
/// SLO-aware early rejection. Returns whether the request may enqueue on
/// GPU `g`; a rejected request is shed here. All checks are inert under
/// the default [`crate::config::AdmissionPolicy`].
fn admit(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    req_id: u64,
    req: &Request,
    g: usize,
) -> bool {
    let depth = s.queues[g].len() + usize::from(s.busy[g]);
    if let Some(cap) = s.cfg.admission.queue_cap {
        if depth >= cap {
            s.shed(ctx.now(), req_id, req.instance, ShedCause::QueueFull);
            return false;
        }
        // Shedding escalation: past half the cap, the minimum admitted
        // priority ramps linearly toward `escalate_priority` at the cap,
        // so low-priority traffic backs off before the queue is full.
        let esc = u64::from(s.cfg.admission.escalate_priority);
        let half = cap - cap / 2;
        if esc > 0 && depth >= cap / 2 && half > 0 {
            let over = (depth - cap / 2) as u64;
            let floor = esc * over / half as u64;
            if u64::from(req.priority) < floor {
                s.shed(ctx.now(), req_id, req.instance, ShedCause::QueueFull);
                return false;
            }
        }
    }
    if let Some(factor) = s.cfg.admission.slo_reject_factor {
        // Optimistic wait estimate: everything ahead runs warm. If even
        // that already blows `factor × SLO`, serving this request late
        // only wastes capacity — reject it now.
        let kind = s.instances[req.instance].kind;
        let per_req = s.kinds[kind].profile.exec_inmem_total().as_nanos() as f64;
        let est_wait = per_req * depth as f64;
        if est_wait > factor * s.cfg.slo.as_nanos() as f64 {
            s.shed(ctx.now(), req_id, req.instance, ShedCause::SloReject);
            return false;
        }
    }
    if s.cfg.decode_resilience.enabled {
        // Tiered TTFT admission: a tenant class whose first token cannot
        // plausibly land inside its tier's TTFT budget is rejected at
        // the edge rather than served hopelessly late. The same
        // optimistic everything-ahead-runs-warm wait estimate as
        // `slo_reject_factor`, judged against the per-tier budget.
        let tier = s.cfg.decode_resilience.tier_for(req.priority).copied();
        if let Some(tier) = tier {
            let kind = s.instances[req.instance].kind;
            let per_req = s.kinds[kind].profile.exec_inmem_total().as_nanos() as f64;
            let est_wait = per_req * depth as f64;
            if est_wait > tier.ttft_slo.as_nanos() as f64 {
                s.shed(ctx.now(), req_id, req.instance, ShedCause::SloReject);
                return false;
            }
        }
    }
    true
}

/// Dispatches the head of GPU `g`'s queue if the GPU is idle and up.
fn try_dispatch(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if s.busy[g] || !s.gpu_up.is_up(g) {
        return;
    }
    if s.cfg.decode.enabled && s.batches[g].stepping {
        // A token step owns the GPU; prefills resume at the boundary.
        return;
    }
    let q = loop {
        let Some(q) = s.queues[g].pop_front() else {
            return;
        };
        // Deadline check happens at dispatch: a request that waited past
        // its deadline is shed rather than served late.
        if let Some(deadline) = s.cfg.faults.deadline {
            if ctx.now() - q.arrival > deadline {
                s.shed(ctx.now(), q.req, q.instance, ShedCause::Deadline);
                s.emit_queue_depth(ctx.now(), g);
                continue;
            }
        }
        break q;
    };
    let inst_id = q.instance;

    // Re-route if the instance moved to another GPU while queued.
    if let Some(owner) = s.instances[inst_id].gpu() {
        if owner != g {
            s.queues[owner].push_back(q);
            s.emit_queue_depth(ctx.now(), g);
            s.emit_queue_depth(ctx.now(), owner);
            try_dispatch(s, ctx, owner);
            // This GPU may still have more queued work.
            try_dispatch(s, ctx, g);
            return;
        }
    }

    let kind = s.instances[inst_id].kind;
    let warm = s.instances[inst_id].residency == Residency::Resident(g);
    if !warm && s.instances[inst_id].residency == Residency::NotResident {
        // Allocate cache space, LRU-evicting idle residents.
        let bytes = s.sizes[kind];
        let evicted = {
            let (caches, instances) = (&mut s.caches, &mut s.instances);
            make_room_with(
                &mut caches[g],
                g,
                instances,
                &s.inst_resident,
                bytes,
                s.cfg.eviction,
                ctx.now().as_nanos(),
            )
        };
        match evicted {
            Some(victims) => {
                s.report.evictions += victims.len() as u64;
                s.caches[g].used += bytes;
                s.inst_resident[inst_id] = bytes;
                s.instances[inst_id].residency = Residency::Loading(g);
                s.emit_cache(ctx.now(), g);
            }
            None => {
                // Cache full of busy instances; retry after the current
                // runs drain (a completion always re-dispatches).
                s.queues[g].push_front(q);
                return;
            }
        }
    }

    s.busy[g] = true;
    s.instances[inst_id].active += 1;
    s.instances[inst_id].last_used = ctx.now();
    s.emit_queue_depth(ctx.now(), g);
    if q.arrival >= s.measure_from {
        s.report
            .queue_wait
            .push((ctx.now() - q.arrival).as_ms_f64());
    }

    let rt = s.kinds[kind].rt.clone();
    let plan = s.active_plans[kind].clone();
    let secondaries: Vec<usize> = if !warm && plan.gpu_slots() > 1 {
        pt_group(&s.cfg.machine, g, s.cfg.max_pt_gpus)
            .map(|grp| {
                grp.into_iter()
                    .skip(1)
                    // A downed (or detector-quarantined) partner cannot
                    // lend its PCIe lane; the surplus partition folds
                    // back onto the primary.
                    .filter(|&sg| s.gpu_ok(sg))
                    .collect()
            })
            .unwrap_or_default()
    } else {
        Vec::new()
    };
    // The *announced* slowdown is the cost model's expectation; a
    // silent GPU fault multiplies on top without being announced, and
    // the gap is what the detector scores.
    let disp_slowdown = s.slowdown;
    let silent = s.silent_gpu_factor[g];
    let exec_scale = if silent == 1.0 {
        s.slowdown
    } else {
        s.slowdown * silent
    };
    let verify_loads = s.detector.as_ref().is_some_and(|d| d.policy().checksum);
    // With detection on, every host→GPU weight transfer of the run —
    // cold load blocks and DHA reads alike (warm runs still issue DHA
    // reads) — is eligible to hedge: the watchdog only fires when a
    // transfer overruns several times its contention-aware expectation,
    // so healthy transfers never duplicate, while a stuck or
    // silently-slow path gets raced.
    let hedge = s
        .detector
        .as_ref()
        .filter(|d| d.policy().hedge)
        .map(|_| HedgeSpec {
            rate_bps: s.believed_path_rate(g),
            factor: 4.0,
            floor: SimDur::from_millis(10),
        });
    let spec = LaunchSpec {
        rt: rt.clone(),
        plan: plan.clone(),
        primary: g,
        secondaries,
        warm,
        skip_exec: false,
        bulk_migrate: false,
        distributed: false,
        exec_scale,
        verify_loads,
        hedge,
    };
    let arrival = q.arrival;
    let req_id = q.req;
    let attempt = q.attempt;
    let priority = q.priority;
    let prompt_tokens = q.prompt_tokens;
    let output_tokens = q.output_tokens;
    // Autoregressive request: after the prefill, join the GPU's
    // continuous batch instead of completing. Requires the kind to be a
    // decoder (non-decoder kinds never stream, whatever the trace says).
    let decode = s.cfg.decode.enabled && output_tokens > 1 && s.kinds[kind].decode.is_some();
    let dispatched = ctx.now();
    // Published before the launch so the span's dispatch precedes the
    // engine events it causes; the run slot is the one the next insert
    // will use.
    s.probe.emit(
        dispatched,
        ProbeEvent::RequestDispatched {
            req: req_id,
            instance: inst_id,
            gpu: g,
            warm,
            run: s.hw.runs.vacant_key(),
        },
    );
    // All captures are `Copy`, so the completion callback can be minted
    // twice: once for the launch and once for the NVLink-less fallback.
    let make_done = move || -> DoneFn<ServerState> {
        Box::new(move |s: &mut ServerState, ctx, res| {
            if decode {
                s.probe.emit(
                    res.finished,
                    ProbeEvent::FirstToken {
                        req: req_id,
                        instance: inst_id,
                        gpu: g,
                        ttft_ns: (res.finished - arrival).as_nanos(),
                    },
                );
                note_observation(s, ctx, g, inst_id, warm, disp_slowdown, &res);
                join_batch(
                    s,
                    ctx,
                    g,
                    DecodeEntry {
                        req: req_id,
                        instance: inst_id,
                        arrival,
                        dispatched,
                        prefill_done: res.finished,
                        tokens_done: 1,
                        tokens_target: u64::from(output_tokens),
                        prompt_tokens: u64::from(prompt_tokens),
                        attempt,
                        priority,
                        cold: !warm,
                    },
                );
                return;
            }
            s.probe.emit(
                res.finished,
                ProbeEvent::RequestCompleted {
                    req: req_id,
                    instance: inst_id,
                    gpu: g,
                    cold: !warm,
                    latency_ns: (res.finished - arrival).as_nanos(),
                    queue_wait_ns: (dispatched - arrival).as_nanos(),
                },
            );
            note_observation(s, ctx, g, inst_id, warm, disp_slowdown, &res);
            on_complete(s, ctx, g, inst_id, warm, arrival, res.finished);
        })
    };
    let run = match start_inference(s, ctx, spec, make_done()) {
        Ok(run) => run,
        Err(_) => {
            // A stale plan can demand NVLink a freshly degraded topology
            // no longer has. A failed launch touches no state, so fall
            // back to a primary-only launch — always valid, the surplus
            // partitions fold onto the primary's own PCIe lane.
            let fallback = LaunchSpec {
                rt,
                plan,
                primary: g,
                secondaries: Vec::new(),
                warm,
                skip_exec: false,
                bulk_migrate: false,
                distributed: false,
                exec_scale,
                verify_loads,
                hedge,
            };
            start_inference(s, ctx, fallback, make_done())
                .expect("primary-only launch cannot require NVLink")
        }
    };
    s.running[g] = Some(RunningReq {
        req: req_id,
        instance: inst_id,
        arrival,
        attempt,
        priority,
        prompt_tokens,
        output_tokens,
        run,
    });
}

/// An inference finished on GPU `g`.
fn on_complete(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    inst_id: usize,
    warm: bool,
    arrival: SimTime,
    finished: SimTime,
) {
    s.busy[g] = false;
    s.running[g] = None;
    let inst = &mut s.instances[inst_id];
    inst.active -= 1;
    if inst.residency == Residency::Loading(g) {
        inst.residency = Residency::Resident(g);
    }
    if arrival >= s.measure_from {
        s.report.record(finished, finished - arrival, !warm);
    }
    try_dispatch(s, ctx, g);
    decode_pump(s, ctx, g);
}

/// A prefill finished and its request joins GPU `g`'s continuous batch.
/// The instance's `active` count stays elevated until the decode
/// completes, pinning it (and therefore its weights) while its KV lives.
fn join_batch(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize, e: DecodeEntry) {
    s.busy[g] = false;
    s.running[g] = None;
    let inst = &mut s.instances[e.instance];
    if inst.residency == Residency::Loading(g) {
        inst.residency = Residency::Resident(g);
    }
    if e.arrival >= s.measure_from {
        s.report.ttft.push((e.prefill_done - e.arrival).as_ms_f64());
    }
    if s.cfg.decode_resilience.enabled {
        // A crash victim re-entering through a fresh prefill just
        // recomputed its KV from scratch; its recovery latency is the
        // crash-to-first-new-token span.
        if let Some(t0) = s.crashed_at.remove(&e.req) {
            s.report.sessions_reprefilled += 1;
            s.report
                .recovery_reprefill_ttft
                .push((e.prefill_done - t0).as_ms_f64());
        }
    }
    s.batches[g].entries.push(e);
    decode_pump(s, ctx, g);
}

/// Drives GPU `g`'s decode loop: admit prefills into the batch at the
/// token boundary (continuous batching — joins happen between steps,
/// never mid-step), then run the next token step. No-op while a prefill
/// or step is in flight; their completions re-enter the pump.
fn decode_pump(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if !s.cfg.decode.enabled {
        return;
    }
    if s.busy[g] || s.batches[g].stepping || !s.gpu_up.is_up(g) {
        return;
    }
    if s.cfg.decode_resilience.enabled {
        maybe_swap(s, ctx, g);
    }
    if !s.queues[g].is_empty() && s.batches[g].entries.len() < s.cfg.decode.max_batch {
        try_dispatch(s, ctx, g);
        if s.busy[g] {
            return; // Prefill in flight; it joins at the next boundary.
        }
    }
    if s.batches[g].entries.is_empty() {
        return;
    }
    start_step(s, ctx, g);
}

/// Preemptive session swap at the token boundary of GPU `g` (resilience
/// only). Swap-out freezes the batch's lowest-priority session when the
/// device pool is nearly full — or when a higher-priority prefill is
/// stuck behind a full batch (priority inversion) — batch-spilling its
/// device pages to the pinned-host pool and parking the entry off-batch
/// with its exact token step. Resume is the reverse, FIFO, once pressure
/// clears (hysteresis: `resume_below < swap_out_above`) or the batch
/// goes idle; the session's pages flow back through the ordinary
/// recall/DHA placement of its next step.
fn maybe_swap(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if !s.cfg.decode_resilience.swap {
        return;
    }
    let now = ctx.now();
    let occupancy = |s: &ServerState| -> f64 {
        let pager = s.pager();
        let cap = pager.gpu_cap_pages(g);
        if cap == 0 {
            return 0.0;
        }
        pager.gpu_used_pages(g) as f64 / cap as f64
    };
    if s.pager.is_none() {
        return;
    }
    let mut swapped_now = false;
    let inversion = s.batches[g].entries.len() >= s.cfg.decode.max_batch
        && s.queues[g]
            .front()
            .is_some_and(|q| s.batches[g].entries.iter().any(|e| e.priority < q.priority));
    if (occupancy(s) >= s.cfg.decode_resilience.swap_out_above || inversion)
        && s.batches[g].entries.len() > 1
    {
        // Victim: lowest priority; ties break to the youngest session
        // (largest request id) — it has the least KV to move.
        let vi = s.batches[g]
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| (e.priority, u64::MAX - e.req))
            .map(|(i, _)| i)
            .expect("batch non-empty");
        let e = s.batches[g].entries.remove(vi);
        let mut spilled = 0u64;
        for p in s.pager().pages_of(e.req).to_vec() {
            let on_g = s.pager().page(p).map(|pg| pg.home) == Some(PageHome::Gpu(g));
            if on_g && spill_page(s, now, g, p) {
                spilled += 1;
            }
        }
        s.report.sessions_swapped += 1;
        s.probe.emit(
            now,
            ProbeEvent::SessionSwappedOut {
                req: e.req,
                gpu: g,
                tokens: e.tokens_done,
                pages: spilled,
            },
        );
        s.swapped.push_back(e);
        swapped_now = true;
    }
    if swapped_now || s.swapped.is_empty() {
        return;
    }
    let room = s.batches[g].entries.len() < s.cfg.decode.max_batch;
    if room
        && (occupancy(s) < s.cfg.decode_resilience.resume_below || s.batches[g].entries.is_empty())
    {
        let e = s.swapped.pop_front().expect("checked non-empty");
        let host_pages = s.pager().host_pages_of(e.req);
        s.report.sessions_resumed += 1;
        s.probe.emit(
            now,
            ProbeEvent::SessionResumed {
                req: e.req,
                gpu: g,
                tokens: e.tokens_done,
                pages: host_pages,
            },
        );
        s.batches[g].entries.push(e);
    }
}

/// Spills `page` from GPU `g` to the pinned-host pool and emits its
/// spill event. Returns `false`, spilling nothing, when the page is not
/// device-resident or the host pool is full.
fn spill_page(s: &mut ServerState, now: SimTime, g: usize, page: PageId) -> bool {
    let pager = s.pager_mut();
    let owner = pager.page(page).map(|p| p.owner);
    if !pager.spill(page) {
        return false;
    }
    s.report.kv_spills += 1;
    s.probe.emit(
        now,
        ProbeEvent::KvPageSpill {
            req: owner.expect("a spilled page is live"),
            gpu: g,
            page,
        },
    );
    true
}

/// Spills the `k` least recently touched pages on GPU `g` that were not
/// touched in `step` (fewer if the host pool fills), returning them.
fn spill_lru(s: &mut ServerState, now: SimTime, g: usize, step: u64, k: u64) -> Vec<PageId> {
    let victims = s
        .pager()
        .spill_victims(g, step, usize::try_from(k).unwrap_or(0));
    for &victim in &victims {
        let spilled = spill_page(s, now, g, victim);
        debug_assert!(spilled, "victims are device-resident and fit the host pool");
    }
    victims
}

/// Launches one token step on GPU `g`: grows each entry's paged KV by
/// its newly appended token (spilling LRU pages to pinned host memory
/// when the device pool fills), places every host-resident page —
/// recall over PCIe or zero-copy DHA — per the configured [`KvMode`],
/// and prices the step with the decode roofline.
fn start_step(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let now = ctx.now();
    let step_id = s.batches[g].step_id + 1;
    s.batches[g].step_id = step_id;
    s.batches[g].stepping = true;
    let page_bytes = s.cfg.decode.page_bytes;
    let kv_mode = s.cfg.decode.kv_mode;
    let batch = s.batches[g].entries.len();
    // Phase 1: grow KV footprints. The pager never victimises a page
    // touched this step; a full host pool surfaces as an allocation
    // failure (the step proceeds and only under-counts its bytes).
    for i in 0..batch {
        let e = s.batches[g].entries[i];
        let kind = s.instances[e.instance].kind;
        let prof = s.kinds[kind]
            .decode
            .expect("batch entries are decoder kinds");
        let needed = prof.kv_bytes(e.prompt_tokens + e.tokens_done);
        let pager = s.pager();
        let want = pager
            .pages_for(needed)
            .saturating_sub(pager.pages_of(e.req).len() as u64);
        let deficit = want.saturating_sub(pager.gpu_free_pages(g));
        spill_lru(s, now, g, step_id, deficit);
        for _ in 0..want {
            let Some(p) = s.pager_mut().try_alloc(e.req, g, step_id) else {
                // Pool full and every resident page pinned (or the host
                // pool is full): the step proceeds under-counting bytes.
                s.report.kv_alloc_failures += 1;
                break;
            };
            s.probe.emit(
                now,
                ProbeEvent::KvPageAlloc {
                    req: e.req,
                    gpu: g,
                    page: p,
                },
            );
        }
        // The step appends to the tail page: mark it hot so the spill
        // policy cannot victimise it mid-step.
        let pager = s.pager_mut();
        if let Some(&tail) = pager.pages_of(e.req).last() {
            pager.touch(tail, step_id);
        }
    }
    // The step's HBM-read set is fixed here, after growth and before
    // placement: pages resident now are priced at device bandwidth,
    // pages host-resident now are priced on the wire (recall or DHA)
    // below. Phase-2 evictions shuffle homes but never re-price a page.
    let resident_kv = s.pager().gpu_used_bytes(g);
    // Phase 2: place host-resident pages. The per-page load-vs-DHA
    // decision mirrors the planner's layer rule: recall when the page's
    // remaining accesses amortise the copy, DHA when it is wire-bound.
    let gpu_spec = s.cfg.machine.gpu(g).clone();
    let mut dha_pages = 0u64;
    let mut recall_transfers = 0u64;
    for i in 0..batch {
        let e = s.batches[g].entries[i];
        // The entry's wire set is its host-resident pages now, before
        // its own evictions below: a page they spill was priced as
        // resident.
        let host = s.pager().host_pages_of(e.req);
        if host == 0 {
            continue;
        }
        let remaining = (e.tokens_target - e.tokens_done) as f64;
        // Page size and remaining horizon are uniform across one
        // entry's pages, so the placement is too.
        let place = match kv_mode {
            KvMode::Dha => KvPlacement::Dha,
            KvMode::Recall => KvPlacement::Recall,
            KvMode::Auto => choose_kv(page_bytes, remaining, &gpu_spec.pcie, gpu_spec.mem_bw),
        };
        let evicted = if place == KvPlacement::Recall && kv_mode == KvMode::Recall {
            // Forced recall evicts cold pages to make room; Auto only
            // recalls into free space — its crossover math assumes
            // recalled pages then stay resident, which an eviction
            // cascade would violate.
            let deficit = host.saturating_sub(s.pager().gpu_free_pages(g));
            spill_lru(s, now, g, step_id, deficit)
        } else {
            Vec::new()
        };
        // Recalls land in allocation order while the device pool has
        // room; the remaining pages are read in place over PCIe,
        // overlapped with compute.
        let recalls = match place {
            KvPlacement::Recall => host.min(s.pager().gpu_free_pages(g)),
            KvPlacement::Dha => 0,
        };
        let mut at = 0;
        for _ in 0..recalls {
            let pager = s.pager();
            let (skip, p) = pager.pages_of(e.req)[at..]
                .iter()
                .copied()
                .enumerate()
                .find(|&(_, p)| {
                    pager.page(p).map(|pg| pg.home) == Some(PageHome::Host) && !evicted.contains(&p)
                })
                .expect("every recall that can land has a host page");
            at += skip + 1;
            let recalled = s.pager_mut().recall(p, g, step_id);
            debug_assert!(recalled, "a host page recalls into free room");
            s.report.kv_recalls += 1;
            s.probe.emit(
                now,
                ProbeEvent::KvPageRecall {
                    req: e.req,
                    gpu: g,
                    page: p,
                },
            );
        }
        recall_transfers += recalls;
        dha_pages += host - recalls;
        s.report.kv_dha_reads += host - recalls;
    }
    // Phase 3: price the device side. Weights are read once per distinct
    // kind in the batch, device-resident KV once, all at HBM bandwidth;
    // announced slowdowns and silent gray faults stretch it exactly as
    // they stretch one-shot execution.
    let mut kinds_seen: Vec<usize> = Vec::new();
    let mut weight_bytes = 0u64;
    for e in &s.batches[g].entries {
        let kind = s.instances[e.instance].kind;
        if !kinds_seen.contains(&kind) {
            kinds_seen.push(kind);
            weight_bytes += s.kinds[kind]
                .decode
                .expect("batch entries are decoder kinds")
                .weight_bytes;
        }
    }
    let scale = s.slowdown * s.silent_gpu_factor[g];
    let compute =
        SimDur::from_secs_f64((weight_bytes + resident_kv) as f64 / gpu_spec.mem_bw * scale);
    // Integer page counts times the page size are exact in f64 (far
    // below 2^53), equal to summing the bytes page by page.
    let spec = StepSpec {
        step: step_id,
        batch,
        compute,
        dha_bytes: (dha_pages * page_bytes) as f64,
        moved_bytes: (recall_transfers * page_bytes) as f64,
        recall_transfers,
    };
    let run = match s.batches[g].run {
        Some(r) => r,
        None => {
            let r = begin_decode(s, g);
            s.batches[g].run = Some(r);
            r
        }
    };
    let started = start_token_step(
        s,
        ctx,
        run,
        spec,
        Box::new(move |s: &mut ServerState, ctx| step_done(s, ctx, g, step_id)),
    );
    debug_assert!(started, "live batch implies live decode ref");
}

/// A token step finished on GPU `g`: every entry gained one token, and
/// finished requests leave the batch in join order — completions of
/// equal-priority requests are never reordered — before the pump
/// continues with joins and the next step.
fn step_done(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize, step_id: u64) {
    if s.batches[g].step_id != step_id || !s.batches[g].stepping {
        return; // Stale: the batch was torn down under this step.
    }
    s.batches[g].stepping = false;
    let now = ctx.now();
    for e in s.batches[g].entries.iter_mut() {
        e.tokens_done += 1;
    }
    if s.cfg.decode_resilience.enabled && !s.cfg.decode_resilience.tiers.is_empty() {
        // Token-level degradation: once a session's elapsed decode time
        // already exceeds its tier's whole-session TPOT budget, no
        // finite remaining speed can bring the mean TPOT back under the
        // SLO — finish it at the current token instead of burning steps
        // on an SLO-dead stream.
        for i in 0..s.batches[g].entries.len() {
            let e = s.batches[g].entries[i];
            if e.tokens_done >= e.tokens_target {
                continue;
            }
            let Some(tier) = s.cfg.decode_resilience.tier_for(e.priority).copied() else {
                continue;
            };
            let budget = tier.tpot_slo.as_nanos() * (e.tokens_target - 1).max(1);
            if (now - e.prefill_done).as_nanos() > budget {
                s.report.sessions_truncated += 1;
                s.probe.emit(
                    now,
                    ProbeEvent::SessionTruncated {
                        req: e.req,
                        gpu: g,
                        tokens: e.tokens_done,
                        target: e.tokens_target,
                    },
                );
                s.batches[g].entries[i].tokens_target = e.tokens_done;
            }
        }
    }
    let mut finished: Vec<DecodeEntry> = Vec::new();
    s.batches[g].entries.retain(|e| {
        if e.tokens_done >= e.tokens_target {
            finished.push(*e);
            false
        } else {
            true
        }
    });
    for e in finished {
        s.probe.emit(
            now,
            ProbeEvent::RequestCompleted {
                req: e.req,
                instance: e.instance,
                gpu: g,
                cold: e.cold,
                latency_ns: (now - e.arrival).as_nanos(),
                queue_wait_ns: (e.dispatched - e.arrival).as_nanos(),
            },
        );
        let steps = (e.tokens_target - 1).max(1);
        let tpot_ns = (now - e.prefill_done).as_nanos() / steps;
        s.probe.emit(
            now,
            ProbeEvent::DecodeFinished {
                req: e.req,
                gpu: g,
                tokens: e.tokens_target,
                ttft_ns: (e.prefill_done - e.arrival).as_nanos(),
                tpot_ns,
            },
        );
        if let Some(p) = s.pager.as_mut() {
            p.free_request(e.req);
        }
        let inst = &mut s.instances[e.instance];
        inst.active -= 1;
        inst.last_used = now;
        if e.arrival >= s.measure_from {
            s.report.record(now, now - e.arrival, e.cold);
            s.report.tpot.push(tpot_ns as f64 / 1e6);
            s.report.decode_completed += 1;
            s.report.tokens_generated += e.tokens_target;
        }
        if s.cfg.decode_resilience.enabled {
            s.ckpts.remove(&e.req);
            s.crashed_at.remove(&e.req);
        }
    }
    if s.batches[g].entries.is_empty() {
        if let Some(r) = s.batches[g].run.take() {
            abort_decode(s, ctx, r);
        }
    }
    if s.cfg.decode_resilience.enabled {
        maybe_checkpoint(s, ctx, g);
    }
    decode_pump(s, ctx, g);
}

/// Incremental KV checkpointing at the token boundary of GPU `g`
/// (resilience only). Sessions whose last mirror is `checkpoint_every`
/// or more tokens stale re-mirror their page-rounded footprint delta
/// (plus the always-dirty tail page) to the pinned-host pool, in batch
/// order, until the checkpoint bandwidth token bucket runs dry. The
/// mirror is one merged device→host stream through the flow network —
/// it genuinely contends with recalls, DHA reads and weight loads — and
/// commits only if no crash bumped the GPU's checkpoint epoch while it
/// was on the wire.
fn maybe_checkpoint(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let pol = &s.cfg.decode_resilience;
    if !pol.enabled
        || pol.checkpoint_bw <= 0.0
        || s.ckpt_inflight[g]
        || s.batches[g].entries.is_empty()
    {
        return;
    }
    let every = pol.checkpoint_every.max(1);
    let bw = pol.checkpoint_bw;
    let burst = pol.checkpoint_burst as f64;
    let now = ctx.now();
    // Lazy token-bucket refill from sim time — deterministic, no timers.
    let dt = (now - s.ckpt_refilled).as_secs_f64();
    s.ckpt_tokens = (s.ckpt_tokens + dt * bw).min(burst);
    s.ckpt_refilled = now;
    let page_bytes = s.pager().page_bytes();
    let entries: Vec<DecodeEntry> = s.batches[g].entries.clone();
    // (req, covered tokens, covered bytes, bytes crossing the wire now)
    let mut batch: Vec<(u64, u64, u64, u64)> = Vec::new();
    let mut spend = 0u64;
    for e in &entries {
        let prev = s.ckpts.get(&e.req).copied().unwrap_or_default();
        if e.tokens_done < prev.tokens + every {
            continue;
        }
        let kind = s.instances[e.instance].kind;
        let prof = s.kinds[kind]
            .decode
            .expect("batch entries are decoder kinds");
        let total = s
            .pager()
            .pages_for(prof.kv_bytes(e.prompt_tokens + e.tokens_done))
            * page_bytes;
        // The tail page is always dirty — tokens appended since the last
        // mirror landed inside it — so a delta of zero whole pages still
        // re-ships one page.
        let delta = total.saturating_sub(prev.bytes).max(page_bytes);
        if spend + delta > s.ckpt_tokens as u64 {
            // A first mirror bigger than the whole burst would starve
            // forever behind a brim-full bucket; ship it alone and run
            // the bucket dry (the debt throttles later mirrors).
            if batch.is_empty() && s.ckpt_tokens >= burst {
                spend = delta;
                batch.push((e.req, e.tokens_done, total, delta));
            }
            break; // Budget exhausted; later sessions wait their turn.
        }
        spend += delta;
        batch.push((e.req, e.tokens_done, total, delta));
    }
    if batch.is_empty() {
        return;
    }
    s.ckpt_tokens = (s.ckpt_tokens - spend as f64).max(0.0);
    s.ckpt_inflight[g] = true;
    let epoch = s.ckpt_epoch[g];
    stream_kv(
        s,
        ctx,
        g,
        spend as f64,
        Box::new(move |s: &mut ServerState, ctx| ckpt_done(s, ctx, g, epoch, batch)),
    );
}

/// A checkpoint mirror stream drained on GPU `g`: commit the covered
/// sessions' records, unless a crash invalidated the stream (epoch
/// mismatch — the device-side pages it was copying died with the GPU).
/// Sessions that left the batch while the mirror was on the wire
/// (finished, swapped out) commit nothing.
fn ckpt_done(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    epoch: u64,
    batch: Vec<(u64, u64, u64, u64)>,
) {
    if s.ckpt_epoch[g] != epoch {
        return; // The GPU crashed mid-mirror; gpu_fail reset inflight.
    }
    s.ckpt_inflight[g] = false;
    let now = ctx.now();
    for (req, tokens, total, delta) in batch {
        if !s.batches[g].entries.iter().any(|e| e.req == req) {
            continue;
        }
        if s.ckpts
            .insert(
                req,
                CkptState {
                    tokens,
                    bytes: total,
                },
            )
            .is_none()
        {
            s.report.ckpt_sessions += 1;
        }
        s.report.ckpt_bytes += delta;
        s.probe.emit(
            now,
            ProbeEvent::KvCheckpoint {
                req,
                gpu: g,
                tokens,
                bytes: delta,
            },
        );
    }
    maybe_checkpoint(s, ctx, g);
}

/// Feeds the detector everything observable from one completed run:
/// warm executions score the primary GPU against the cost model's
/// expected execution time, and each loading slot scores every link of
/// its host path against the flow model's expected wire time. The
/// expectations use healthy capacities and *announced* health only —
/// no oracle state — so a silent fault shows up as a ratio well above
/// the learned baseline. No-op without a detector.
fn note_observation(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    inst_id: usize,
    warm: bool,
    disp_slowdown: f64,
    res: &InferenceResult,
) {
    if s.detector.is_none() {
        return;
    }
    let mut transitions: Vec<Transition> = Vec::new();
    if warm {
        let kind = s.instances[inst_id].kind;
        let expected = s.kinds[kind].profile.exec_inmem_total().as_secs_f64() * disp_slowdown;
        if expected > 0.0 {
            let ratio = res.exec_busy.as_secs_f64() / expected;
            let d = s.detector.as_mut().expect("checked above");
            transitions.extend(d.observe_gpu(g, ratio));
        }
    }
    for obs in &res.slot_loads {
        let believed = s.believed_path_rate(obs.gpu);
        if believed <= 0.0 || !believed.is_finite() || obs.bytes <= 0.0 {
            continue;
        }
        let expected = obs.bytes / believed;
        let ratio = obs.span.as_secs_f64() / expected;
        // Blame lands on the path's *leaf* (the GPU's own PCIe lane)
        // only. A single observation cannot tell the lane from the
        // shared switch uplink apart, and blaming both would let one
        // sick lane falsely quarantine the uplink — and with it every
        // healthy sibling behind the switch. A genuinely slow uplink is
        // still caught: it degrades the observations of *all* lanes
        // behind it, and per-GPU path factors fold the lane tracks the
        // same way they would an uplink track.
        let leaf = s.hw.map.gpu_pcie[obs.gpu];
        let d = s.detector.as_mut().expect("checked above");
        transitions.extend(d.observe_link(leaf, ratio));
    }
    for t in transitions {
        handle_transition(s, ctx, t);
    }
}

/// Maps one detector state change onto the serving plane: probe events,
/// counters, probation timers, canary traffic, and — through
/// [`note_topology_change`] — the same re-plan/migrate/rollback path an
/// announced health transition takes. The recovery manager cannot tell
/// an inferred signature from an oracle one.
fn handle_transition(s: &mut ServerState, ctx: &mut Ctx<ServerState>, t: Transition) {
    let now = ctx.now();
    match t {
        Transition::LinkQuarantined(l) => {
            s.report.quarantines += 1;
            let d = s.detector.as_ref().expect("transition implies detector");
            let (score, epoch) = (d.link_score_milli(l), d.link_epoch(l));
            s.probe.emit(
                now,
                ProbeEvent::LinkInferred {
                    link: l.0,
                    state: DetectState::Quarantined,
                    score_milli: score,
                },
            );
            if s.serving_active() {
                ctx.schedule_in(
                    s.cfg.detection.probation,
                    Box::new(move |s: &mut ServerState, ctx| {
                        let t = s.detector.as_mut().and_then(|d| d.link_probation(l, epoch));
                        if let Some(t) = t {
                            handle_transition(s, ctx, t);
                        }
                    }),
                );
            }
            note_topology_change(s, ctx);
        }
        Transition::LinkProbation(l) => {
            let score = s.detector.as_ref().map_or(0, |d| d.link_score_milli(l));
            s.probe.emit(
                now,
                ProbeEvent::LinkInferred {
                    link: l.0,
                    state: DetectState::Probation,
                    score_milli: score,
                },
            );
            send_canary(s, ctx, l);
        }
        Transition::LinkReinstated(l) => {
            s.report.reinstates += 1;
            let score = s.detector.as_ref().map_or(0, |d| d.link_score_milli(l));
            s.probe.emit(
                now,
                ProbeEvent::LinkInferred {
                    link: l.0,
                    state: DetectState::Healthy,
                    score_milli: score,
                },
            );
            note_topology_change(s, ctx);
        }
        Transition::GpuQuarantined(g) => {
            s.report.quarantines += 1;
            let d = s.detector.as_ref().expect("transition implies detector");
            let (score, epoch) = (d.gpu_score_milli(g), d.gpu_epoch(g));
            s.probe.emit(
                now,
                ProbeEvent::GpuInferred {
                    gpu: g,
                    state: DetectState::Quarantined,
                    score_milli: score,
                },
            );
            if s.serving_active() {
                ctx.schedule_in(
                    s.cfg.detection.probation,
                    Box::new(move |s: &mut ServerState, ctx| {
                        let t = s.detector.as_mut().and_then(|d| d.gpu_probation(g, epoch));
                        if let Some(t) = t {
                            handle_transition(s, ctx, t);
                        }
                    }),
                );
            }
            note_topology_change(s, ctx);
        }
        Transition::GpuReinstated(g) => {
            s.report.reinstates += 1;
            let score = s.detector.as_ref().map_or(0, |d| d.gpu_score_milli(g));
            s.probe.emit(
                now,
                ProbeEvent::GpuInferred {
                    gpu: g,
                    state: DetectState::Healthy,
                    score_milli: score,
                },
            );
            note_topology_change(s, ctx);
            try_dispatch(s, ctx, g);
        }
    }
}

/// Sends one canary transfer over a probing link's host path and scores
/// it against the believed healthy rate (contention-adjusted via the
/// host-flow counts). Each completion either resolves probation — clean
/// canaries accumulate toward reinstatement, a dirty one re-quarantines
/// — or triggers the next canary.
fn send_canary(s: &mut ServerState, ctx: &mut Ctx<ServerState>, l: LinkId) {
    if !s.serving_active() {
        return; // Trace drained — let the simulation wind down.
    }
    let Some(&g0) = s.hw.map.host_gpus_behind(&s.cfg.machine, l).first() else {
        // NVLinks carry no host traffic, are never observed, and so can
        // never reach probation; nothing to probe.
        return;
    };
    let path = s.hw.map.host_to_gpu(&s.cfg.machine, g0);
    let bytes = s.cfg.detection.canary_bytes as f64;
    let believed = s.believed_path_rate(g0);
    if believed <= 0.0 || !believed.is_finite() || bytes <= 0.0 {
        return;
    }
    let n_shared = s.hw.host_flow_started(&path);
    let expected = bytes * f64::from(n_shared) / believed;
    s.report.canaries += 1;
    s.probe.emit(
        ctx.now(),
        ProbeEvent::CanarySent {
            link: l.0,
            bytes: s.cfg.detection.canary_bytes,
        },
    );
    let sent = ctx.now();
    let obs_path = path.clone();
    start_flow(
        s,
        ctx,
        bytes,
        path,
        Box::new(move |s: &mut ServerState, ctx| {
            s.hw.host_flow_finished(&obs_path);
            let ratio = (ctx.now() - sent).as_secs_f64() / expected;
            let t = s.detector.as_mut().and_then(|d| d.observe_canary(l, ratio));
            match t {
                Some(t) => handle_transition(s, ctx, t),
                None => {
                    // Clean but not yet enough: keep probing.
                    if s.detector
                        .as_ref()
                        .is_some_and(|d| d.link_state(l) == DetectState::Probation)
                    {
                        send_canary(s, ctx, l);
                    }
                }
            }
        }),
    );
}

/// Re-queues a request on a healthy GPU, counting it as a retry. Sheds
/// when the retry budget is spent or no GPU is up.
fn requeue(s: &mut ServerState, ctx: &mut Ctx<ServerState>, q: Queued) {
    if q.attempt > s.cfg.faults.max_retries {
        s.shed(ctx.now(), q.req, q.instance, ShedCause::RetriesExhausted);
        return;
    }
    let g = match s.instances[q.instance].gpu() {
        Some(g) if s.gpu_up.is_up(g) => g,
        _ => match s.pick_gpu() {
            Some(g) => g,
            None => {
                s.shed(ctx.now(), q.req, q.instance, ShedCause::NoCapacity);
                return;
            }
        },
    };
    s.report.retries += 1;
    s.probe.emit(
        ctx.now(),
        ProbeEvent::RequestRetried {
            req: q.req,
            instance: q.instance,
            gpu: g,
            attempt: q.attempt,
        },
    );
    s.queues[g].push_back(q);
    s.emit_queue_depth(ctx.now(), g);
    try_dispatch(s, ctx, g);
}

/// GPU `g` died: abort its run, lose its memory, re-route its queue.
fn gpu_fail(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if g >= s.gpu_up.len() || !s.gpu_up.fail(g) {
        return; // Unknown or already down.
    }
    let now = ctx.now();
    s.report.gpu_failures += 1;
    s.probe.emit(now, ProbeEvent::GpuFailed { gpu: g });
    // Abort the in-flight inference; its request retries with backoff on
    // a surviving GPU. In-flight flows drain as no-ops through the run's
    // generation guard.
    if let Some(rr) = s.running[g].take() {
        if abort_run(s, ctx, rr.run) {
            s.report.aborted_runs += 1;
            s.instances[rr.instance].active -= 1;
            let attempt = rr.attempt + 1;
            let backoff =
                SimDur::from_nanos(s.cfg.faults.retry_backoff.as_nanos() * u64::from(attempt));
            let q = Queued {
                req: rr.req,
                instance: rr.instance,
                arrival: rr.arrival,
                attempt,
                priority: rr.priority,
                prompt_tokens: rr.prompt_tokens,
                output_tokens: rr.output_tokens,
            };
            ctx.schedule_in(
                backoff,
                Box::new(move |s: &mut ServerState, ctx| requeue(s, ctx, q)),
            );
        }
    }
    // Tear down the GPU's continuous batch: the in-flight step's timers
    // and flows land as no-ops through the decode generation guard, all
    // of its KV pages (device *and* spilled) are freed, and every
    // streaming request retries from its prompt on a survivor.
    if s.cfg.decode.enabled {
        s.batches[g].stepping = false;
        if let Some(r) = s.batches[g].run.take() {
            abort_decode(s, ctx, r);
        }
        if s.cfg.decode_resilience.enabled {
            // Invalidate any checkpoint mirror on the wire: the device
            // pages it was copying died with the GPU.
            s.ckpt_epoch[g] += 1;
            s.ckpt_inflight[g] = false;
        }
        let entries: Vec<DecodeEntry> = s.batches[g].entries.drain(..).collect();
        for e in entries {
            if let Some(p) = s.pager.as_mut() {
                p.free_request(e.req);
            }
            s.instances[e.instance].active -= 1;
            s.report.aborted_runs += 1;
            if s.cfg.decode_resilience.enabled {
                crash_recover_session(s, ctx, g, e);
                continue;
            }
            let attempt = e.attempt + 1;
            let backoff =
                SimDur::from_nanos(s.cfg.faults.retry_backoff.as_nanos() * u64::from(attempt));
            let q = Queued {
                req: e.req,
                instance: e.instance,
                arrival: e.arrival,
                attempt,
                priority: e.priority,
                prompt_tokens: e.prompt_tokens as u32,
                output_tokens: e.tokens_target as u32,
            };
            ctx.schedule_in(
                backoff,
                Box::new(move |s: &mut ServerState, ctx| requeue(s, ctx, q)),
            );
        }
    }
    s.busy[g] = false;
    // Device memory is gone: every instance on this GPU is cold again.
    for inst in s.instances.iter_mut() {
        if inst.gpu() == Some(g) {
            inst.residency = Residency::NotResident;
        }
    }
    s.caches[g].used = 0;
    s.emit_cache(now, g);
    // Queued requests immediately re-route to survivors (no backoff —
    // they were not mid-run, routing is the router's own failure).
    let drained: Vec<Queued> = s.queues[g].drain(..).collect();
    s.emit_queue_depth(now, g);
    for q in drained {
        requeue(
            s,
            ctx,
            Queued {
                attempt: q.attempt + 1,
                ..q
            },
        );
    }
    if s.cfg.decode_resilience.enabled && !s.swapped.is_empty() {
        // Swapped-out sessions are not tied to the dead GPU; give every
        // survivor's pump a chance to resume them so none strand.
        for g2 in 0..s.gpu_up.len() {
            if s.gpu_up.is_up(g2) {
                decode_pump(s, ctx, g2);
            }
        }
    }
    note_topology_change(s, ctx);
}

/// Crash recovery for one decode session whose GPU died (resilience
/// only): restore-from-checkpoint or re-prefill, chosen per victim with
/// the planner's cost crossover — wire time of the checkpointed bytes at
/// the survivor's *believed* host-path rate (detector quarantines steer
/// `pick_gpu`, announced degradations stretch the rate) plus one decode
/// step, against the prefill's in-memory recompute time. An
/// uncheckpointed session always re-prefills. Re-prefill rides the
/// existing backoff/retry path; restore replays the pinned-host mirror
/// onto the survivor and rejoins its batch at the exact checkpointed
/// token step.
fn crash_recover_session(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    dead: usize,
    e: DecodeEntry,
) {
    let now = ctx.now();
    // Keep the first crash time: a victim that crashes again
    // mid-recovery still measures recovery from the original loss.
    s.crashed_at.entry(e.req).or_insert(now);
    let ckpt = s.ckpts.get(&e.req).copied().unwrap_or_default();
    let survivor = s.pick_gpu();
    let kind = s.instances[e.instance].kind;
    let prefill_secs = s.kinds[kind].profile.exec_inmem_total().as_secs_f64();
    let choice = match survivor {
        Some(g2) => {
            let step_secs = s.kinds[kind]
                .decode
                .expect("decode entries are decoder kinds")
                .weight_bytes as f64
                / s.cfg.machine.gpu(g2).mem_bw;
            choose_restore(
                ckpt.bytes,
                s.believed_path_rate(g2),
                s.cfg.machine.gpu(g2).pcie.launch_overhead_ns,
                prefill_secs,
                step_secs,
            )
        }
        None => RestoreChoice::Reprefill,
    };
    let restore = choice == RestoreChoice::Restore;
    s.probe.emit(
        now,
        ProbeEvent::RestoreDecision {
            req: e.req,
            gpu: survivor.unwrap_or(dead),
            restore,
            ckpt_tokens: ckpt.tokens,
            ckpt_bytes: ckpt.bytes,
        },
    );
    let attempt = e.attempt + 1;
    let backoff = SimDur::from_nanos(s.cfg.faults.retry_backoff.as_nanos() * u64::from(attempt));
    if restore {
        s.report.restore_decisions += 1;
        let job = DecodeEntry { attempt, ..e };
        ctx.schedule_in(
            backoff,
            Box::new(move |s: &mut ServerState, ctx| start_restore(s, ctx, job, ckpt)),
        );
    } else {
        s.report.reprefill_decisions += 1;
        // The mirror's backing pages died with the session's pager
        // state; a re-prefilled session re-checkpoints from scratch.
        s.ckpts.remove(&e.req);
        let q = Queued {
            req: e.req,
            instance: e.instance,
            arrival: e.arrival,
            attempt,
            priority: e.priority,
            prompt_tokens: e.prompt_tokens as u32,
            output_tokens: e.tokens_target as u32,
        };
        ctx.schedule_in(
            backoff,
            Box::new(move |s: &mut ServerState, ctx| requeue(s, ctx, q)),
        );
    }
}

/// Fires after the crash backoff: re-pick the restore target against the
/// *current* topology, re-pin the instance, and replay the checkpoint
/// mirror (plus the weights when they are cold) onto the target as one
/// host→device stream.
fn start_restore(s: &mut ServerState, ctx: &mut Ctx<ServerState>, e: DecodeEntry, ckpt: CkptState) {
    let now = ctx.now();
    if e.attempt > s.cfg.faults.max_retries {
        s.shed(now, e.req, e.instance, ShedCause::RetriesExhausted);
        return;
    }
    // Decode must run where the weights are: follow the instance if it
    // came back resident elsewhere during the backoff.
    let target = match s.instances[e.instance].gpu() {
        Some(gi) if s.gpu_up.is_up(gi) => Some(gi),
        _ => s.pick_gpu(),
    };
    let Some(g2) = target else {
        s.shed(now, e.req, e.instance, ShedCause::NoCapacity);
        return;
    };
    let mut stream_bytes = ckpt.bytes;
    if s.instances[e.instance].residency == Residency::NotResident {
        let kind = s.instances[e.instance].kind;
        let bytes = s.sizes[kind];
        let evicted = {
            let (caches, instances) = (&mut s.caches, &mut s.instances);
            make_room_with(
                &mut caches[g2],
                g2,
                instances,
                &s.inst_resident,
                bytes,
                s.cfg.eviction,
                now.as_nanos(),
            )
        };
        match evicted {
            Some(victims) => {
                s.report.evictions += victims.len() as u64;
                s.caches[g2].used += bytes;
                s.inst_resident[e.instance] = bytes;
                s.instances[e.instance].residency = Residency::Loading(g2);
                s.emit_cache(now, g2);
                // Cold weights ride the same replay stream as the KV.
                stream_bytes += bytes;
            }
            None => {
                // Cache full of busy instances: fall back to the
                // ordinary re-prefill retry path, which waits for a
                // drain instead of spinning here.
                s.ckpts.remove(&e.req);
                requeue(
                    s,
                    ctx,
                    Queued {
                        req: e.req,
                        instance: e.instance,
                        arrival: e.arrival,
                        attempt: e.attempt,
                        priority: e.priority,
                        prompt_tokens: e.prompt_tokens as u32,
                        output_tokens: e.tokens_target as u32,
                    },
                );
                return;
            }
        }
    }
    s.report.retries += 1;
    s.probe.emit(
        now,
        ProbeEvent::RequestRetried {
            req: e.req,
            instance: e.instance,
            gpu: g2,
            attempt: e.attempt,
        },
    );
    s.instances[e.instance].active += 1;
    s.instances[e.instance].last_used = now;
    stream_kv(
        s,
        ctx,
        g2,
        stream_bytes as f64,
        Box::new(move |s: &mut ServerState, ctx| finish_restore(s, ctx, g2, e, ckpt)),
    );
}

/// A restore replay drained on GPU `g`: the session rejoins the batch at
/// its exact checkpointed token step. If `g` died while the replay was
/// on the wire, the whole recovery decision is retried against the new
/// topology (the attempt counter still climbs, so a flapping cluster
/// exhausts retries rather than looping forever).
fn finish_restore(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    e: DecodeEntry,
    ckpt: CkptState,
) {
    let now = ctx.now();
    if !s.gpu_up.is_up(g) {
        s.instances[e.instance].active -= 1;
        crash_recover_session(s, ctx, g, e);
        return;
    }
    if s.instances[e.instance].residency == Residency::Loading(g) {
        s.instances[e.instance].residency = Residency::Resident(g);
    }
    let entry = DecodeEntry {
        prefill_done: now,
        tokens_done: ckpt.tokens.max(1),
        ..e
    };
    s.report.sessions_restored += 1;
    let t0 = s.crashed_at.remove(&e.req).unwrap_or(now);
    s.report.recovery_restore_ttft.push((now - t0).as_ms_f64());
    s.probe.emit(
        now,
        ProbeEvent::SessionRestored {
            req: e.req,
            gpu: g,
            tokens: entry.tokens_done,
            bytes: ckpt.bytes,
        },
    );
    s.batches[g].entries.push(entry);
    decode_pump(s, ctx, g);
}

/// GPU `g` came back — empty: cold caches, fresh contexts.
fn gpu_recover(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if g >= s.gpu_up.len() || !s.gpu_up.recover(g) {
        return; // Unknown or already up.
    }
    s.probe.emit(ctx.now(), ProbeEvent::GpuRecovered { gpu: g });
    note_topology_change(s, ctx);
    try_dispatch(s, ctx, g);
    if s.cfg.decode_resilience.enabled {
        // A recovered GPU can adopt swapped-out sessions immediately.
        decode_pump(s, ctx, g);
    }
}

/// A health transition happened (GPU up/down, link degrade/restore):
/// arm a re-plan after the hysteresis window. Each transition bumps the
/// epoch and only the timer matching the *latest* epoch fires, so a
/// flapping link re-plans once after it settles rather than once per
/// flap edge. No-op unless recovery is enabled.
fn note_topology_change(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    if !s.cfg.recovery.enabled {
        return;
    }
    s.topo_epoch += 1;
    let epoch = s.topo_epoch;
    ctx.schedule_in(
        s.cfg.recovery.settle,
        Box::new(move |s: &mut ServerState, ctx| {
            if s.topo_epoch == epoch {
                replan(s, ctx);
            }
        }),
    );
}

/// Re-invokes the planner against the *current* (possibly degraded)
/// topology and hot-swaps each kind's active plan:
///
/// * dead GPUs are excluded from parallel-transmission groups;
/// * degraded host-path capacities stretch the load/DHA cost model, so
///   the stall analysis re-balances Load vs DHA for the slower wires;
/// * a fully healthy signature rolls every kind back to its original
///   plan (the same `Arc` it booted with);
/// * with `recovery.migrate`, already-resident instances whose new plan
///   needs more GPU bytes are grown in place over the host link while
///   they keep serving.
fn replan(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    let now = ctx.now();
    let n = s.gpu_up.len();
    // Inferred health folds into the same planner inputs as announced
    // health: a quarantined GPU plans as down, a quarantined/probation
    // link contributes its inferred slowdown factor. The signature (and
    // therefore the whole swap/migrate/rollback machinery) cannot tell
    // oracle knowledge from detector knowledge.
    let gpu_up: Vec<bool> = (0..n)
        .map(|g| {
            s.gpu_up.is_up(g)
                && s.detector
                    .as_ref()
                    .is_none_or(|d| d.gpu_state(g) != DetectState::Quarantined)
        })
        .collect();
    // A GPU's effective host bandwidth is capped by the slower of its
    // switch uplink and its own PCIe lane.
    let factors: Vec<f64> = (0..n)
        .map(|g| {
            let uplink = s.hw.map.switch_uplink[s.cfg.machine.switch_of(g)];
            let pcie = s.hw.map.gpu_pcie[g];
            let announced = s.link_health.factor(uplink).min(s.link_health.factor(pcie));
            match &s.detector {
                Some(d) => announced
                    .min(d.link_factor(uplink))
                    .min(d.link_factor(pcie)),
                None => announced,
            }
        })
        .collect();
    let signature = (
        gpu_up.clone(),
        factors.iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
    );
    if s.plan_signature.as_ref() == Some(&signature) {
        return; // The active plans already target this topology.
    }
    s.plan_signature = Some(signature);
    let healthy = gpu_up.iter().all(|&u| u) && factors.iter().all(|&f| f == 1.0);
    let degraded_links = (0..s.flows.net.link_count())
        .filter(|&i| s.link_health.factor(LinkId(i)) < 1.0)
        .count();
    s.report.replans += 1;
    s.probe.emit(
        now,
        ProbeEvent::ReplanTriggered {
            epoch: s.topo_epoch,
            up_gpus: s.gpu_up.up_count(),
            degraded_links,
        },
    );
    for k in 0..s.kinds.len() {
        let new_plan: Arc<ExecutionPlan> = if healthy {
            // Rollback: the recovered topology gets the boot-time plan
            // back, byte-for-byte (same Arc, no regeneration drift).
            s.kinds[k].plan.clone()
        } else {
            Arc::new(generate_degraded(
                &s.kinds[k].profile,
                &s.cfg.machine,
                s.cfg.mode,
                s.cfg.max_pt_gpus,
                &gpu_up,
                &factors,
            ))
        };
        if *new_plan == *s.active_plans[k] {
            continue; // Same plan content — nothing to swap or migrate.
        }
        let new_bytes = new_plan.resident_bytes(&s.kinds[k].rt.param_bytes_vec());
        s.probe.emit(
            now,
            ProbeEvent::PlanSwapped {
                kind: k,
                slots: new_plan.gpu_slots(),
                resident_bytes: new_bytes,
            },
        );
        s.active_plans[k] = new_plan;
        s.sizes[k] = new_bytes;
        if s.cfg.recovery.migrate {
            migrate_kind(s, ctx, k, new_bytes);
        }
    }
}

/// Live migration after a plan swap: adjust the footprint of every
/// already-loaded instance of kind `k` to the new plan's resident bytes.
/// Shrinks free GPU memory immediately (the old surplus layers are
/// simply dropped); growth streams the delta from pinned host memory
/// over the GPU's host path while the instance keeps serving. An idle
/// instance whose growth cannot fit is deprovisioned instead (it cold
/// starts under the new plan on next use); a busy one keeps its old
/// footprint until it goes idle and is evicted naturally.
fn migrate_kind(s: &mut ServerState, ctx: &mut Ctx<ServerState>, k: usize, new_bytes: u64) {
    let now = ctx.now();
    for i in 0..s.instances.len() {
        if s.instances[i].kind != k {
            continue;
        }
        let Some(g) = s.instances[i].gpu() else {
            continue;
        };
        if !s.gpu_up.is_up(g) {
            continue;
        }
        let old = s.inst_resident[i];
        if new_bytes < old {
            s.caches[g].used = s.caches[g].used.saturating_sub(old - new_bytes);
            s.inst_resident[i] = new_bytes;
            s.emit_cache(now, g);
            continue;
        }
        if new_bytes == old {
            continue;
        }
        let delta = new_bytes - old;
        // Pin the instance so it cannot be chosen as its own eviction
        // victim while making room for its growth.
        s.instances[i].active += 1;
        let room = {
            let (caches, instances) = (&mut s.caches, &mut s.instances);
            make_room_with(
                &mut caches[g],
                g,
                instances,
                &s.inst_resident,
                delta,
                s.cfg.eviction,
                now.as_nanos(),
            )
        };
        s.instances[i].active -= 1;
        match room {
            Some(victims) => {
                s.report.evictions += victims.len() as u64;
                s.caches[g].used += delta;
                s.inst_resident[i] = new_bytes;
                s.report.plan_migrations += 1;
                s.probe.emit(
                    now,
                    ProbeEvent::PlanMigrationStarted {
                        kind: k,
                        gpu: g,
                        bytes: delta,
                    },
                );
                let path = s.hw.map.host_to_gpu(&s.cfg.machine, g);
                start_flow(
                    s,
                    ctx,
                    delta as f64,
                    path,
                    Box::new(move |s: &mut ServerState, ctx| {
                        s.probe.emit(
                            ctx.now(),
                            ProbeEvent::PlanMigrationFinished { kind: k, gpu: g },
                        );
                    }),
                );
            }
            None if s.instances[i].active == 0 => {
                s.caches[g].used = s.caches[g].used.saturating_sub(old);
                s.instances[i].residency = Residency::NotResident;
            }
            None => {}
        }
        s.emit_cache(now, g);
    }
}

/// Applies host pinned-memory pressure: unpin instances (highest id
/// first — latest deployed, lowest priority) until the rest fit in what
/// the external claimant left.
fn apply_mem_pressure(s: &mut ServerState, ctx: &mut Ctx<ServerState>, bytes: u64) {
    let now = ctx.now();
    s.pressure_bytes = bytes;
    let available = s.cfg.host_mem_bytes.saturating_sub(bytes);
    for i in (0..s.instances.len()).rev() {
        if s.pinned_total <= available {
            break;
        }
        if s.unpinned[i] || s.instances[i].active > 0 {
            continue; // Active instances keep their pinned weights.
        }
        s.unpinned[i] = true;
        s.pinned_total -= s.inst_pinned[i];
        // The host copy is the source of truth; without it the GPU
        // replica cannot be trusted (DHA layers read host memory every
        // execution), so the instance is fully deprovisioned.
        if let Some(g) = s.instances[i].gpu() {
            s.caches[g].used = s.caches[g].used.saturating_sub(s.inst_resident[i]);
            s.instances[i].residency = Residency::NotResident;
            s.emit_cache(now, g);
        }
    }
    s.probe.emit(
        now,
        ProbeEvent::HostPinned {
            bytes: s.pinned_total,
        },
    );
    s.probe
        .emit(now, ProbeEvent::HostMemAvailable { bytes: available });
}

/// Pressure released: re-pin every reclaimed instance's weights.
fn release_mem_pressure(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    let now = ctx.now();
    s.pressure_bytes = 0;
    for i in 0..s.instances.len() {
        if s.unpinned[i] {
            s.unpinned[i] = false;
            s.pinned_total += s.inst_pinned[i];
        }
    }
    s.probe.emit(
        now,
        ProbeEvent::HostPinned {
            bytes: s.pinned_total,
        },
    );
    s.probe.emit(
        now,
        ProbeEvent::HostMemAvailable {
            bytes: s.cfg.host_mem_bytes,
        },
    );
}

/// Applies one materialized fault event to the serving world.
fn apply_fault(s: &mut ServerState, ctx: &mut Ctx<ServerState>, kind: FaultKind) {
    match kind {
        FaultKind::GpuFail { gpu } => gpu_fail(s, ctx, gpu),
        FaultKind::GpuRecover { gpu } => gpu_recover(s, ctx, gpu),
        FaultKind::LinkDegrade { link, factor } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                let cap = s.link_health.degrade(l, factor);
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::LinkCapacity {
                        link: l.0,
                        capacity_bps: cap,
                    },
                );
                // Any silent slowdown on the same wire compounds with
                // the announced degradation.
                let silent = s.silent_link_factor[l.0];
                let eff = if silent == 1.0 { cap } else { cap * silent };
                set_link_capacity(s, ctx, l, eff);
                note_topology_change(s, ctx);
            }
        }
        FaultKind::LinkRestore { link } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                let cap = s.link_health.restore(l);
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::LinkCapacity {
                        link: l.0,
                        capacity_bps: cap,
                    },
                );
                let silent = s.silent_link_factor[l.0];
                let eff = if silent == 1.0 { cap } else { cap * silent };
                set_link_capacity(s, ctx, l, eff);
                note_topology_change(s, ctx);
            }
        }
        // Silent (gray) faults: the physics changes but *no* health
        // announcement is made — link_health / gpu_up never hear about
        // it, no LinkCapacity probe fires, and the recovery plane is not
        // nudged. Only inference from observable timings can catch them.
        FaultKind::SilentLinkSlow { link, factor } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                if factor.is_finite() && factor > 0.0 {
                    s.silent_link_factor[l.0] = factor;
                    s.probe.emit(
                        ctx.now(),
                        ProbeEvent::SilentFaultInjected {
                            kind: SilentFaultKind::LinkSlow,
                            target: l.0,
                        },
                    );
                    let cap = s.link_health.healthy_capacity(l) * s.link_health.factor(l) * factor;
                    set_link_capacity(s, ctx, l, cap);
                }
            }
        }
        FaultKind::SilentLinkRestore { link } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.silent_link_factor[l.0] = 1.0;
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::SilentFaultInjected {
                        kind: SilentFaultKind::LinkRestore,
                        target: l.0,
                    },
                );
                let cap = s.link_health.healthy_capacity(l) * s.link_health.factor(l);
                set_link_capacity(s, ctx, l, cap);
            }
        }
        FaultKind::SilentGpuSlow { gpu, factor } => {
            if gpu < s.silent_gpu_factor.len() && factor.is_finite() && factor > 0.0 {
                s.silent_gpu_factor[gpu] = factor;
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::SilentFaultInjected {
                        kind: SilentFaultKind::GpuSlow,
                        target: gpu,
                    },
                );
            }
        }
        FaultKind::SilentGpuRestore { gpu } => {
            if gpu < s.silent_gpu_factor.len() {
                s.silent_gpu_factor[gpu] = 1.0;
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::SilentFaultInjected {
                        kind: SilentFaultKind::GpuRestore,
                        target: gpu,
                    },
                );
            }
        }
        FaultKind::StuckFlow { link, stall } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.flows.arm_stuck(l, stall);
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::SilentFaultInjected {
                        kind: SilentFaultKind::StuckFlow,
                        target: l.0,
                    },
                );
            }
        }
        FaultKind::CorruptTransfer { link } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.flows.arm_corrupt(l);
                s.probe.emit(
                    ctx.now(),
                    ProbeEvent::SilentFaultInjected {
                        kind: SilentFaultKind::CorruptTransfer,
                        target: l.0,
                    },
                );
            }
        }
        FaultKind::HostMemPressure { bytes } => apply_mem_pressure(s, ctx, bytes),
        FaultKind::HostMemRelease => release_mem_pressure(s, ctx),
        FaultKind::Slowdown { factor } => {
            if factor.is_finite() && factor > 0.0 {
                s.slowdown = factor;
            }
        }
        FaultKind::SlowdownEnd => s.slowdown = 1.0,
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
    // Every deployed instance keeps its full weights pinned in host
    // memory (that is the model store cold starts copy / DHA-read from).
    let host_pinned: u64 = instance_kinds
        .iter()
        .map(|&k| kinds[k].rt.total_bytes)
        .sum();
    assert!(
        host_pinned <= cfg.host_mem_bytes,
        "deployment needs {host_pinned} B of pinned host memory, machine has {}",
        cfg.host_mem_bytes
    );
    let mut state = ServerState::new(cfg, kinds, instance_kinds, trace, measure_from);
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
        Box::new(|s: &mut ServerState, ctx| schedule_next_arrival(s, ctx)),
    );
    if !faults.is_empty() {
        let horizon = sim
            .state()
            .pending
            .iter()
            .map(|r| r.at)
            .max()
            .unwrap_or(SimTime::ZERO)
            + SimDur::from_secs(1);
        for ev in faults.materialize(horizon) {
            let kind = ev.kind;
            sim.schedule_at(
                ev.at,
                Box::new(move |s: &mut ServerState, ctx| apply_fault(s, ctx, kind)),
            );
        }
    }
    sim.run_until_idle();
    let events = sim.executed_events();
    let mut state = sim.into_state();
    state.report.sim_events = events;
    state.report.hedged_transfers = state.flows.hedged;
    state.report.checksum_refetches = state.hw.refetches;
    state.report.kv_live_pages_at_end = state.pager.as_ref().map_or(0, |p| p.live_pages() as u64);
    if let Some(p) = state.pager.as_ref() {
        state.report.kv_allocs = p.allocs;
        state.report.kv_frees_gpu = p.frees_gpu;
        state.report.kv_frees_host = p.frees_host;
    }
    state.report
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
