//! The control plane: applying injected faults, GPU failure and
//! recovery, host memory pressure, gray-failure detection (observations,
//! quarantine, probation and canaries) and self-healing (re-planning
//! around a changed topology and migrating resident instances).

use std::sync::Arc;

use exec_engine::hw::{start_host_flow, HostDone};
use exec_engine::launch::abort_run;
use exec_engine::result::InferenceResult;
use exec_planner::generate_degraded;
use exec_planner::plan::ExecutionPlan;
use simcore::driver::set_link_capacity;
use simcore::fault::{FaultKind, LinkRef};
use simcore::flow::LinkId;
use simcore::probe::{DetectState, ProbeEvent, SilentFaultKind};
use simcore::sim::Ctx;
use simcore::time::{SimDur, SimTime};

use super::dispatch::{requeue, retry_after_crash, try_dispatch};
use super::{decode, Queued, ServerState};
use crate::detect::{Detector, Transition};
use crate::instance::Residency;
use crate::memory::make_room;

/// Re-plan hysteresis: a health transition arms a re-plan that only
/// fires if no further transition lands within this window, so a
/// flapping link produces one re-plan, not one per flap edge.
const SETTLE: SimDur = SimDur::from_millis(100);

/// Time a quarantined target waits before entering probation and
/// receiving canary traffic.
const PROBATION: SimDur = SimDur::from_millis(200);

/// Size of each canary transfer over a probing link.
const CANARY_BYTES: u64 = 32 << 20;

/// Recovery state; exists only when the recovery policy is on.
#[derive(Default)]
pub(super) struct Recovery {
    /// Monotonic counter of health transitions; a settle timer only
    /// fires a re-plan if no newer transition superseded it (hysteresis).
    epoch: u64,
    /// Topology signature (usable GPUs, per-GPU host-path factor bits)
    /// the active plans were generated for; re-plans that resolve to the
    /// same signature are skipped.
    signature: Option<(Vec<bool>, Vec<u64>)>,
}

/// Applies one materialized fault event to the serving world.
pub(super) fn apply_fault(s: &mut ServerState, ctx: &mut Ctx<ServerState>, kind: FaultKind) {
    let now = ctx.now();
    match kind {
        FaultKind::GpuFail { gpu } => gpu_fail(s, ctx, gpu),
        FaultKind::GpuRecover { gpu } => gpu_recover(s, ctx, gpu),
        FaultKind::LinkDegrade { link, factor } => announce_link(s, ctx, link, Some(factor)),
        FaultKind::LinkRestore { link } => announce_link(s, ctx, link, None),
        // Silent (gray) faults: the physics changes but *no* health
        // announcement is made — link_health / gpu_up never hear about
        // it, no LinkCapacity probe fires, and the recovery plane is not
        // nudged. Only inference from observable timings can catch them.
        FaultKind::SilentLinkSlow { link, factor } => {
            let valid = factor.is_finite() && factor > 0.0;
            if let Some(l) = s.hw.map.resolve_link(&link).filter(|_| valid) {
                s.silent_link_factor[l.0] = factor;
                mark_silent(s, now, SilentFaultKind::LinkSlow, l.0);
                apply_link_capacity(s, ctx, l);
            }
        }
        FaultKind::SilentLinkRestore { link } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.silent_link_factor[l.0] = 1.0;
                mark_silent(s, now, SilentFaultKind::LinkRestore, l.0);
                apply_link_capacity(s, ctx, l);
            }
        }
        FaultKind::SilentGpuSlow { gpu, factor } => {
            if gpu < s.silent_gpu_factor.len() && factor.is_finite() && factor > 0.0 {
                s.silent_gpu_factor[gpu] = factor;
                mark_silent(s, now, SilentFaultKind::GpuSlow, gpu);
            }
        }
        FaultKind::SilentGpuRestore { gpu } => {
            if gpu < s.silent_gpu_factor.len() {
                s.silent_gpu_factor[gpu] = 1.0;
                mark_silent(s, now, SilentFaultKind::GpuRestore, gpu);
            }
        }
        FaultKind::StuckFlow { link, stall } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.flows.arm_stuck(l, stall);
                mark_silent(s, now, SilentFaultKind::StuckFlow, l.0);
            }
        }
        FaultKind::CorruptTransfer { link } => {
            if let Some(l) = s.hw.map.resolve_link(&link) {
                s.hw.arm_corrupt(l);
                mark_silent(s, now, SilentFaultKind::CorruptTransfer, l.0);
            }
        }
        FaultKind::HostMemPressure { bytes } => apply_mem_pressure(s, now, bytes),
        FaultKind::HostMemRelease => release_mem_pressure(s, now),
        FaultKind::Slowdown { factor } => {
            if factor.is_finite() && factor > 0.0 {
                s.slowdown = factor;
            }
        }
        FaultKind::SlowdownEnd => s.slowdown = 1.0,
    }
}

/// Publishes the ground-truth marker of an injected silent fault.
fn mark_silent(s: &ServerState, now: SimTime, kind: SilentFaultKind, target: usize) {
    s.probe
        .emit(now, ProbeEvent::SilentFaultInjected { kind, target });
}

/// An announced link fault: degrades `link` to `factor` of its healthy
/// capacity, or restores it with `None`, publishes the announced
/// capacity and arms a re-plan.
fn announce_link(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    link: LinkRef,
    factor: Option<f64>,
) {
    let Some(l) = s.hw.map.resolve_link(&link) else {
        return;
    };
    let cap = match factor {
        Some(f) => s.link_health.degrade(l, f),
        None => s.link_health.restore(l),
    };
    s.probe.emit(
        ctx.now(),
        ProbeEvent::LinkCapacity {
            link: l.0,
            capacity_bps: cap,
        },
    );
    apply_link_capacity(s, ctx, l);
    note_topology_change(s, ctx);
}

/// Sets link `l`'s physical capacity: healthy capacity times its
/// announced factor times its silent factor.
fn apply_link_capacity(s: &mut ServerState, ctx: &mut Ctx<ServerState>, l: LinkId) {
    let cap =
        s.link_health.healthy_capacity(l) * s.link_health.factor(l) * s.silent_link_factor[l.0];
    set_link_capacity(s, ctx, l, cap);
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
            s.instances[rr.q.instance].active -= 1;
            retry_after_crash(s, ctx, rr.q);
        }
    }
    decode::abort_batch(s, ctx, g);
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
    if s.resilience.as_ref().is_some_and(|r| !r.swapped.is_empty()) {
        // Swapped-out sessions are not tied to the dead GPU; give every
        // survivor's pump a chance to resume them so none strand.
        for g2 in 0..s.gpu_up.len() {
            if s.gpu_up.is_up(g2) {
                decode::pump(s, ctx, g2);
            }
        }
    }
    note_topology_change(s, ctx);
}

/// GPU `g` came back — empty: cold caches, fresh contexts.
fn gpu_recover(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    if g >= s.gpu_up.len() || !s.gpu_up.recover(g) {
        return; // Unknown or already up.
    }
    s.probe.emit(ctx.now(), ProbeEvent::GpuRecovered { gpu: g });
    note_topology_change(s, ctx);
    try_dispatch(s, ctx, g);
    if s.resilience.is_some() {
        // A recovered GPU can adopt swapped-out sessions immediately.
        decode::pump(s, ctx, g);
    }
}

/// Applies host pinned-memory pressure: unpin instances (highest id
/// first — latest deployed, lowest priority) until the rest fit in what
/// the external claimant left.
fn apply_mem_pressure(s: &mut ServerState, now: SimTime, bytes: u64) {
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
    emit_host_mem(s, now, available);
}

/// Pressure released: re-pin every reclaimed instance's weights.
fn release_mem_pressure(s: &mut ServerState, now: SimTime) {
    for i in 0..s.instances.len() {
        if s.unpinned[i] {
            s.unpinned[i] = false;
            s.pinned_total += s.inst_pinned[i];
        }
    }
    emit_host_mem(s, now, s.cfg.host_mem_bytes);
}

/// Publishes the model store's pinned bytes and the host memory left to
/// it.
fn emit_host_mem(s: &ServerState, now: SimTime, available: u64) {
    s.probe.emit(
        now,
        ProbeEvent::HostPinned {
            bytes: s.pinned_total,
        },
    );
    s.probe
        .emit(now, ProbeEvent::HostMemAvailable { bytes: available });
}

/// Feeds the detector everything observable from one completed run:
/// warm executions score the primary GPU against the cost model's
/// expected execution time, and each loading slot scores every link of
/// its host path against the flow model's expected wire time. The
/// expectations use healthy capacities and *announced* health only —
/// no oracle state — so a silent fault shows up as a ratio well above
/// the learned baseline. No-op without a detector.
pub(super) fn note_observation(
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
            transitions.extend(s.detector.as_mut().and_then(|d| d.observe_gpu(g, ratio)));
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
        transitions.extend(
            s.detector
                .as_mut()
                .and_then(|d| d.observe_link(leaf, ratio)),
        );
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
    let Some(d) = &s.detector else {
        return;
    };
    let state = match t {
        Transition::LinkQuarantined(_) | Transition::GpuQuarantined(_) => DetectState::Quarantined,
        Transition::LinkProbation(_) => DetectState::Probation,
        Transition::LinkReinstated(_) | Transition::GpuReinstated(_) => DetectState::Healthy,
    };
    let event = match t {
        Transition::LinkQuarantined(l)
        | Transition::LinkProbation(l)
        | Transition::LinkReinstated(l) => ProbeEvent::LinkInferred {
            link: l.0,
            state,
            score_milli: d.link_score_milli(l),
        },
        Transition::GpuQuarantined(g) | Transition::GpuReinstated(g) => ProbeEvent::GpuInferred {
            gpu: g,
            state,
            score_milli: d.gpu_score_milli(g),
        },
    };
    s.probe.emit(ctx.now(), event);
    match t {
        Transition::LinkQuarantined(l) => {
            let epoch = d.link_epoch(l);
            quarantined(s, ctx, move |d| d.link_probation(l, epoch));
        }
        Transition::GpuQuarantined(g) => {
            let epoch = d.gpu_epoch(g);
            quarantined(s, ctx, move |d| d.gpu_probation(g, epoch));
        }
        Transition::LinkProbation(l) => send_canary(s, ctx, l),
        Transition::LinkReinstated(_) | Transition::GpuReinstated(_) => {
            s.report.reinstates += 1;
            note_topology_change(s, ctx);
            if let Transition::GpuReinstated(g) = t {
                try_dispatch(s, ctx, g);
            }
        }
    }
}

/// A link or GPU was quarantined: count it, arm its probation timer
/// while serving work remains, and re-plan around it. `probation` moves
/// the target on when the timer fires, unless a newer transition of the
/// target superseded the timer.
fn quarantined(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    probation: impl FnOnce(&mut Detector) -> Option<Transition> + 'static,
) {
    s.report.quarantines += 1;
    if s.serving_active() {
        ctx.schedule_in(
            PROBATION,
            Box::new(move |s: &mut ServerState, ctx| {
                if let Some(t) = s.detector.as_mut().and_then(probation) {
                    handle_transition(s, ctx, t);
                }
            }),
        );
    }
    note_topology_change(s, ctx);
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
    let bytes = CANARY_BYTES as f64;
    let believed = s.believed_path_rate(g0);
    if believed <= 0.0 || !believed.is_finite() {
        return;
    }
    s.report.canaries += 1;
    s.probe.emit(
        ctx.now(),
        ProbeEvent::CanarySent {
            link: l.0,
            bytes: CANARY_BYTES,
        },
    );
    let sent = ctx.now();
    let landed = HostDone::closure(move |s: &mut ServerState, ctx, n_shared| {
        let expected = bytes * f64::from(n_shared) / believed;
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
    });
    start_host_flow(s, ctx, g0, bytes, None, landed);
}

/// A health transition happened (GPU up/down, link degrade/restore, a
/// detector verdict): arm a re-plan after the hysteresis window. Each
/// transition bumps the epoch and only the timer matching the *latest*
/// epoch fires, so a flapping link re-plans once after it settles rather
/// than once per flap edge. No-op without recovery.
fn note_topology_change(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    let Some(rec) = &mut s.recovery else {
        return;
    };
    rec.epoch += 1;
    let epoch = rec.epoch;
    ctx.schedule_in(
        SETTLE,
        Box::new(move |s: &mut ServerState, ctx| {
            if s.recovery.as_ref().is_some_and(|r| r.epoch == epoch) {
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
/// * already-resident instances whose new plan needs more GPU bytes are
///   grown in place over the host link while they keep serving.
///
/// Inferred health folds into the same planner inputs as announced
/// health: a quarantined GPU plans as down, a quarantined or probing
/// link contributes its inferred slowdown factor. The signature (and
/// therefore the whole swap/migrate/rollback machinery) cannot tell
/// oracle knowledge from detector knowledge.
fn replan(s: &mut ServerState, ctx: &mut Ctx<ServerState>) {
    let now = ctx.now();
    let n = s.gpu_up.len();
    let gpu_up: Vec<bool> = (0..n).map(|g| s.gpu_ok(g)).collect();
    let factors: Vec<f64> = (0..n).map(|g| s.path_factor(g)).collect();
    let signature = (
        gpu_up.clone(),
        factors.iter().map(|f| f.to_bits()).collect::<Vec<u64>>(),
    );
    let Some(rec) = &mut s.recovery else {
        return;
    };
    if rec.signature.as_ref() == Some(&signature) {
        return; // The active plans already target this topology.
    }
    rec.signature = Some(signature);
    let epoch = rec.epoch;
    let healthy = gpu_up.iter().all(|&u| u) && factors.iter().all(|&f| f == 1.0);
    let degraded_links = (0..s.flows.net.link_count())
        .filter(|&i| s.link_health.factor(LinkId(i)) < 1.0)
        .count();
    s.report.replans += 1;
    s.probe.emit(
        now,
        ProbeEvent::ReplanTriggered {
            epoch,
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
        migrate_kind(s, ctx, k, new_bytes);
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
        let room = make_room(
            &mut s.caches[g],
            g,
            &mut s.instances,
            &s.inst_resident,
            delta,
            s.cfg.eviction,
            now.as_nanos(),
        );
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
                let landed = HostDone::closure(move |s: &mut ServerState, ctx, _| {
                    s.probe.emit(
                        ctx.now(),
                        ProbeEvent::PlanMigrationFinished { kind: k, gpu: g },
                    );
                });
                start_host_flow(s, ctx, g, delta as f64, None, landed);
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

#[cfg(test)]
mod tests {
    use dnn_models::zoo::{build, ModelId};
    use exec_planner::generate::PlanMode;
    use gpu_topology::presets::p3_8xlarge;
    use simcore::sim::Sim;

    use super::*;
    use crate::catalog::DeployedModel;
    use crate::config::ServerConfig;

    #[test]
    fn plan_migration_stream_shares_the_host_path() {
        let machine = p3_8xlarge();
        let cfg = ServerConfig::paper_default(machine.clone(), PlanMode::PtDha);
        let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, PlanMode::PtDha, 2);
        let mut s = ServerState::new(cfg, vec![kind], &[0], Vec::new(), SimTime::ZERO);
        // Instance 0 is resident on GPU 0 under its boot plan.
        let (g, old) = (0, s.sizes[0]);
        s.instances[0].residency = Residency::Resident(g);
        s.caches[g].used = old;
        let mut sim = Sim::new(s);
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |s: &mut ServerState, ctx| {
                // A plan swap grows the instance by 64 MiB: the delta
                // streams over GPU 0's host path...
                migrate_kind(s, ctx, 0, old + (64 << 20));
                // ...so a transfer issued there now shares it.
                let n_shared =
                    start_host_flow(s, ctx, g, 1e6, None, HostDone::Word(|_, _, _| {}, 0));
                assert_eq!(n_shared, 2);
            }),
        );
        sim.run_until_idle();
        assert_eq!(sim.state().report.plan_migrations, 1);
    }
}
