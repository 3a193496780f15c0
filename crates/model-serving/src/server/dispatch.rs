//! One-shot serving: arrivals, routing, admission, dispatch and
//! completion, and re-queueing after a failure. A decode request's
//! prefill runs through the same dispatch and joins its GPU's batch in
//! [`super::decode`] when it finishes.

use exec_engine::launch::{start_inference, DoneFn, HedgeSpec, LaunchSpec};
use gpu_topology::select::pt_group;
use simcore::probe::{ProbeEvent, ShedCause};
use simcore::sim::Ctx;
use simcore::time::SimTime;

use super::control::note_observation;
use super::decode::{self, DecodeEntry};
use super::{resilience, Queued, RunningReq, ServerState, MAX_RETRIES};
use crate::instance::Residency;
use crate::memory::make_room;
use crate::metrics::SLO;
use crate::workload::Request;

/// Pulls the next trace arrival and schedules its routing event.
pub(super) fn schedule_next_arrival(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
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
    let q = Queued {
        req: s.next_req,
        instance: req.instance,
        arrival: ctx.now(),
        attempt: 0,
        priority: req.priority,
        prompt_tokens: req.prompt_tokens,
        output_tokens: req.output_tokens,
    };
    s.next_req += 1;
    if s.unpinned[q.instance] {
        s.shed(ctx.now(), &q, ShedCause::Pressure);
        return;
    }
    if q.priority < s.cfg.faults.shed_priority_floor && s.degraded() {
        s.shed(ctx.now(), &q, ShedCause::Priority);
        return;
    }
    let Some(g) = s.home_gpu(q.instance) else {
        s.shed(ctx.now(), &q, ShedCause::NoCapacity);
        return;
    };
    if !admit(s, ctx, &q, g) {
        return;
    }
    s.queues[g].push_back(q);
    s.probe.emit(
        ctx.now(),
        ProbeEvent::RequestEnqueued {
            req: q.req,
            instance: q.instance,
            gpu: g,
        },
    );
    s.emit_queue_depth(ctx.now(), g);
    try_dispatch(s, ctx, g);
}

/// Overload control at the admission edge (backpressure instead of
/// collapse): bounded queues, priority escalation as a queue fills,
/// SLO-aware early rejection and tiered TTFT admission. Returns whether
/// the request may enqueue on GPU `g`; a rejected request is shed here.
/// All checks are inert under the default
/// [`crate::config::AdmissionPolicy`] with resilience off.
fn admit(s: &mut ServerState, ctx: &mut Ctx<ServerState>, q: &Queued, g: usize) -> bool {
    let depth = s.queues[g].len() + usize::from(s.running[g].is_some());
    if let Some(cap) = s.cfg.admission.queue_cap {
        if depth >= cap {
            s.shed(ctx.now(), q, ShedCause::QueueFull);
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
            if u64::from(q.priority) < floor {
                s.shed(ctx.now(), q, ShedCause::QueueFull);
                return false;
            }
        }
    }
    // Optimistic wait estimate: everything ahead runs warm. If even that
    // already blows `factor × SLO`, or the TTFT budget of the request's
    // tier, serving it late only wastes capacity — reject it now.
    let est_wait = |s: &ServerState| {
        let kind = s.instances[q.instance].kind;
        s.kinds[kind].profile.exec_inmem_total().as_nanos() as f64 * depth as f64
    };
    let budgets = [
        s.cfg
            .admission
            .slo_reject_factor
            .map(|factor| factor * SLO.as_nanos() as f64),
        resilience::ttft_budget(s, q.priority).map(|b| b.as_nanos() as f64),
    ];
    for budget in budgets.into_iter().flatten() {
        if est_wait(s) > budget {
            s.shed(ctx.now(), q, ShedCause::SloReject);
            return false;
        }
    }
    true
}

/// Makes room on GPU `g` for non-resident instance `i`, LRU-evicting idle
/// residents, and marks it loading there. Returns the bytes to load, or
/// `None` when the cache is full of busy instances.
pub(super) fn place_cold(s: &mut ServerState, now: SimTime, g: usize, i: usize) -> Option<u64> {
    let bytes = s.sizes[s.instances[i].kind];
    let victims = make_room(
        &mut s.caches[g],
        g,
        &mut s.instances,
        &s.inst_resident,
        bytes,
        s.cfg.eviction,
        now.as_nanos(),
    )?;
    s.report.evictions += victims.len() as u64;
    s.caches[g].used += bytes;
    s.inst_resident[i] = bytes;
    s.instances[i].residency = Residency::Loading(g);
    s.emit_cache(now, g);
    Some(bytes)
}

/// Dispatches the head of GPU `g`'s queue if the GPU is idle and up.
pub(super) fn try_dispatch(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if s.running[g].is_some() || !s.gpu_up.is_up(g) {
        return;
    }
    if s.decode.as_ref().is_some_and(|d| d.batches[g].stepping) {
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
                s.shed(ctx.now(), &q, ShedCause::Deadline);
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
    if s.instances[inst_id].residency == Residency::NotResident
        && place_cold(s, ctx.now(), g, inst_id).is_none()
    {
        // Cache full of busy instances; retry after the current runs
        // drain (a completion always re-dispatches).
        s.queues[g].push_front(q);
        return;
    }

    s.instances[inst_id].active += 1;
    s.instances[inst_id].last_used = ctx.now();
    s.emit_queue_depth(ctx.now(), g);
    if q.arrival >= s.measure_from {
        s.report
            .queue_wait
            .push((ctx.now() - q.arrival).as_ms_f64());
    }

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
    let exec_scale = s.slowdown * s.silent_gpu_factor[g];
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
        });
    let spec = LaunchSpec {
        secondaries,
        warm,
        exec_scale,
        verify_loads,
        hedge,
        ..LaunchSpec::new(s.kinds[kind].rt.clone(), plan, g)
    };
    // Autoregressive request: after the prefill, join the GPU's
    // continuous batch instead of completing. Requires the kind to be a
    // decoder (non-decoder kinds never stream, whatever the trace says).
    let decode = s.decode.is_some() && q.output_tokens > 1 && s.kinds[kind].decode.is_some();
    let dispatched = ctx.now();
    // Published before the launch so the span's dispatch precedes the
    // engine events it causes; the run slot is the one the next insert
    // will use.
    s.probe.emit(
        dispatched,
        ProbeEvent::RequestDispatched {
            req: q.req,
            instance: inst_id,
            gpu: g,
            warm,
            run: s.hw.runs.vacant_index(),
        },
    );
    let done: DoneFn<ServerState> = Box::new(move |s: &mut ServerState, ctx, res| {
        if decode {
            s.probe.emit(
                res.finished,
                ProbeEvent::FirstToken {
                    req: q.req,
                    instance: inst_id,
                    gpu: g,
                    ttft_ns: (res.finished - q.arrival).as_nanos(),
                },
            );
            note_observation(s, ctx, g, inst_id, warm, disp_slowdown, &res);
            let entry = DecodeEntry {
                q,
                dispatched,
                prefill_done: res.finished,
                tokens_done: 1,
                cold: !warm,
            };
            decode::join(s, ctx, g, entry);
            return;
        }
        s.probe.emit(
            res.finished,
            ProbeEvent::RequestCompleted {
                req: q.req,
                instance: inst_id,
                gpu: g,
                cold: !warm,
                latency_ns: (res.finished - q.arrival).as_nanos(),
                queue_wait_ns: (dispatched - q.arrival).as_nanos(),
            },
        );
        note_observation(s, ctx, g, inst_id, warm, disp_slowdown, &res);
        on_complete(s, ctx, g, &q, warm, res.finished);
    });
    // Every secondary is an NVLink partner of the primary (`pt_group`
    // admits no other) and the network has a link for each NVLinked
    // pair, so the launch never lacks a path.
    let run = start_inference(s, ctx, spec, done);
    s.running[g] = Some(RunningReq { q, run });
}

/// GPU `g` finished the prefill or one-shot run of instance `i`: the GPU
/// is free again and the instance's weights are resident.
pub(super) fn release_gpu(s: &mut ServerState, g: usize, i: usize) {
    s.running[g] = None;
    s.mark_loaded(i, g);
}

/// A one-shot inference of `q` finished on GPU `g`.
fn on_complete(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    q: &Queued,
    warm: bool,
    finished: SimTime,
) {
    release_gpu(s, g, q.instance);
    s.instances[q.instance].active -= 1;
    if q.arrival >= s.measure_from {
        s.report.record(finished, finished - q.arrival, !warm);
    }
    try_dispatch(s, ctx, g);
    decode::pump(s, ctx, g);
}

/// Counts a retry of `q` on GPU `g` and publishes it.
pub(super) fn note_retry(s: &mut ServerState, now: SimTime, q: &Queued, g: usize) {
    s.report.retries += 1;
    s.probe.emit(
        now,
        ProbeEvent::RequestRetried {
            req: q.req,
            instance: q.instance,
            gpu: g,
            attempt: q.attempt,
        },
    );
}

/// Re-queues a request on a healthy GPU, counting it as a retry. Sheds
/// when the retry budget is spent or no GPU is up.
pub(super) fn requeue(s: &mut ServerState, ctx: &mut Ctx<ServerState>, q: Queued) {
    if q.attempt > MAX_RETRIES {
        s.shed(ctx.now(), &q, ShedCause::RetriesExhausted);
        return;
    }
    let Some(g) = s.home_gpu(q.instance) else {
        s.shed(ctx.now(), &q, ShedCause::NoCapacity);
        return;
    };
    note_retry(s, ctx.now(), &q, g);
    s.queues[g].push_back(q);
    s.emit_queue_depth(ctx.now(), g);
    try_dispatch(s, ctx, g);
}

/// Retries `q`, whose run a GPU crash lost, as its next attempt: it
/// re-queues on a survivor after the crash backoff.
pub(super) fn retry_after_crash(s: &ServerState, ctx: &mut Ctx<ServerState>, q: Queued) {
    let q = Queued {
        attempt: q.attempt + 1,
        ..q
    };
    ctx.schedule_in(
        s.crash_backoff(q.attempt),
        Box::new(move |s: &mut ServerState, ctx| requeue(s, ctx, q)),
    );
}
