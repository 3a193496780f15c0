//! Launching and driving inference runs.
//!
//! One run = one inference (or transfer-only measurement) of one model on
//! one primary GPU. Three kinds of processes cooperate, mirroring the
//! paper's stream design (§4.3.4):
//!
//! * **load streams** — one per transmission slot; copy the slot's
//!   partition layer-by-layer over PCIe (launch overhead, then a flow);
//! * **migration streams** — one per secondary GPU; forward arrived
//!   layers to the primary over NVLink, pipelined with the loads;
//! * **execution stream** — runs layers in order on the primary; a `Load`
//!   layer waits for its readiness flag (the `cudaStreamWaitEvent`
//!   analogue), a DHA layer starts immediately and occupies both the SMs
//!   and a PCIe read flow.
//!
//! Bytes move over two kinds of path, each through one primitive: host
//! →GPU PCIe through [`crate::hw::start_host_flow`] (weight blocks, DHA
//! reads) and GPU→GPU NVLink through `nvlink_flow` (migration forwards,
//! distributed-execution hops). Every event a run schedules holds its
//! [`RunRef`] and resolves it first, so an aborted run's pending timers
//! and flows land as no-ops.

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::Arc;

use exec_planner::plan::{ExecutionPlan, LayerExec};
use simcore::driver::start_flow;
use simcore::probe::{ProbeEvent, StallCause};
use simcore::sim::Ctx;
use simcore::slab::GenKey;
use simcore::time::{SimDur, SimTime};

use crate::hw::{start_host_flow, HasHw, RunRef};
use crate::result::{InferenceResult, SlotLoadObs};
use crate::runtime::ModelRuntime;

/// Completion callback of a run.
pub type DoneFn<S> = Box<dyn FnOnce(&mut S, &mut Ctx<S>, InferenceResult)>;

/// Everything needed to launch one run.
pub struct LaunchSpec {
    /// Runtime table of the model at the request's batch size.
    pub rt: Arc<ModelRuntime>,
    /// The execution plan to follow.
    pub plan: Arc<ExecutionPlan>,
    /// Primary GPU id (where execution happens).
    pub primary: usize,
    /// Secondary GPU ids for transmission slots 1.. (may be shorter than
    /// the plan's partitions; surplus partitions fold onto the primary).
    pub secondaries: Vec<usize>,
    /// Whether all weights are already resident (warm request).
    pub warm: bool,
    /// Transfer-only measurement: skip the execution stream and complete
    /// when every `Load` layer is resident (Figure 6 experiments).
    pub skip_exec: bool,
    /// Forward each secondary partition as one bulk NVLink copy after it
    /// has fully arrived, instead of layer-by-layer — the paper's plain
    /// "parallel" mode of Figure 6 (versus "parallel-pipeline").
    pub bulk_migrate: bool,
    /// Distributed execution (the §2.3 alternative the paper rejects):
    /// partitions stay on the GPUs that loaded them and the execution
    /// stream *hops* between GPUs, paying an NVLink activation transfer
    /// at every partition boundary — on every inference, warm or cold.
    pub distributed: bool,
    /// Compute-time multiplier for this run (fault injection: clock
    /// capping / MPS interference). `1.0` is the exact healthy path —
    /// durations are passed through untouched, not re-derived through
    /// float math.
    pub exec_scale: f64,
    /// Verify each arriving weight block and re-fetch it on a checksum
    /// mismatch. When off, a corrupt transfer delivers silently (ground
    /// truth is visible only through the injection marker events).
    pub verify_loads: bool,
    /// Hedging policy for this run's host→GPU weight blocks: when a
    /// block overruns its expected wire time, race a duplicate transfer
    /// and take whichever finishes first. `None` (the default) is the
    /// exact unhedged path.
    pub hedge: Option<HedgeSpec>,
}

/// Hedged-transfer policy for a run's weight loads (set by a serving
/// host when a failure detector suspects a link on the run's path).
/// [`crate::hw::start_host_flow`] sets each block's hedge timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HedgeSpec {
    /// Believed healthy transfer rate over the run's host path (B/s);
    /// the hedge timeout for a block is derived from it.
    pub rate_bps: f64,
}

/// Scales a duration by `k`, preserving `k == 1.0` as the exact
/// identity so healthy runs are bit-identical with fault plumbing
/// compiled in.
fn scaled(d: SimDur, k: f64) -> SimDur {
    if k == 1.0 {
        d
    } else {
        d.mul_f64(k)
    }
}

impl LaunchSpec {
    /// A cold run of `plan` on `primary` alone: full execution with
    /// per-layer NVLink migration, healthy compute, no checksum and no
    /// hedge. Callers change the rest with struct-update syntax.
    pub fn new(rt: Arc<ModelRuntime>, plan: Arc<ExecutionPlan>, primary: usize) -> Self {
        LaunchSpec {
            rt,
            plan,
            primary,
            secondaries: Vec::new(),
            warm: false,
            skip_exec: false,
            bulk_migrate: false,
            distributed: false,
            exec_scale: 1.0,
            verify_loads: false,
            hedge: None,
        }
    }

    /// Owning GPU per layer: the primary except, under distributed
    /// execution, layers of secondary partitions.
    fn owners(&self) -> Vec<usize> {
        let n = self.rt.layer_count();
        let mut owner = vec![self.primary; n];
        if self.distributed {
            for (slot, part) in self.plan.partitions.iter().enumerate().skip(1) {
                if let Some(&g) = self.secondaries.get(slot - 1) {
                    for &i in part {
                        owner[i] = g;
                    }
                }
            }
        }
        owner
    }
}

/// Internal state of an in-flight run. Public only because it lives in
/// [`crate::hw::HwState`]; fields are crate-private.
pub struct RunState<S> {
    spec: LaunchSpec,
    ready: Vec<bool>,
    loads_pending: usize,
    exec_next: usize,
    blocked_since: Option<SimTime>,
    pending_parts: u8,
    layer_started: SimTime,
    started: SimTime,
    stall: SimDur,
    exec_busy: SimDur,
    mig_queue: Vec<VecDeque<usize>>,
    mig_busy: Vec<bool>,
    slot_loaded: Vec<usize>,
    /// Per-slot accumulated load bytes and wire time (detector signal).
    slot_obs: Vec<(f64, SimDur)>,
    /// Warm fast path: merged `(compute, dha_wire_bytes)` steps. Runs of
    /// consecutive in-memory layers collapse into one timer event, which
    /// makes million-request serving traces cheap to simulate without
    /// changing any timing (no gating can occur on a warm run). Not used
    /// under distributed execution (hops break the merge).
    warm_steps: Vec<(SimDur, f64)>,
    use_warm_fast: bool,
    /// GPU owning each layer's weights (distributed execution).
    owner: Vec<usize>,
    /// GPU the execution stream currently sits on.
    current_gpu: usize,
    on_done: Option<DoneFn<S>>,
}

/// Builds the merged warm-step list for a spec.
fn build_warm_steps(spec: &LaunchSpec) -> Vec<(SimDur, f64)> {
    let mut steps: Vec<(SimDur, f64)> = Vec::new();
    for (layer, d) in spec.rt.layers.iter().zip(&spec.plan.decisions) {
        let wire = if *d == LayerExec::Dha {
            layer.dha_wire_bytes
        } else {
            0.0
        };
        if wire > 0.0 {
            steps.push((layer.exec_inmem, wire));
        } else {
            match steps.last_mut() {
                Some((dur, w)) if *w == 0.0 => *dur += layer.exec_inmem,
                _ => steps.push((layer.exec_inmem, 0.0)),
            }
        }
    }
    steps
}

/// GPU a transmission slot loads into, plus whether the layer must still
/// be forwarded to the primary afterwards (never under distributed
/// execution — layers are consumed where they land).
fn slot_gpu(spec: &LaunchSpec, slot: usize) -> (usize, bool) {
    if slot == 0 {
        return (spec.primary, false);
    }
    match spec.secondaries.get(slot - 1) {
        Some(&g) if g != spec.primary => (g, !spec.distributed),
        _ => (spec.primary, false),
    }
}

/// Every GPU→GPU pair `spec` will transfer over: secondary partitions
/// forwarded to the primary, and (under distributed execution) the hops
/// between consecutive layer owners plus the final back-hop. NVLink
/// connectivity in the [`gpu_topology::netmap::NetMap`] is static —
/// capacities change mid-run, path *existence* never does — so checking
/// these pairs at launch time fully decides executability.
fn required_nvlink_pairs(spec: &LaunchSpec) -> Vec<(usize, usize)> {
    let mut pairs = Vec::new();
    for (slot, part) in spec.plan.partitions.iter().enumerate().skip(1) {
        if part.is_empty() {
            continue;
        }
        let (gpu, migrates) = slot_gpu(spec, slot);
        if migrates {
            pairs.push((gpu, spec.primary));
        }
    }
    if spec.distributed {
        let mut current = spec.primary;
        for o in spec.owners().into_iter().chain([spec.primary]) {
            if o != current {
                pairs.push((current, o));
                current = o;
            }
        }
    }
    pairs
}

/// Launches a run; `on_done` fires with the [`InferenceResult`].
///
/// Must be called from inside an event handler.
///
/// # Panics
///
/// Panics if the plan's decision vector does not match the runtime's
/// layer count, or if the spec moves data between two GPUs that are not
/// NVLinked: every secondary must be an NVLink partner of the primary,
/// as `pt_group` guarantees for the server's.
pub fn start_inference<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    spec: LaunchSpec,
    on_done: DoneFn<S>,
) -> RunRef {
    let n = spec.rt.layer_count();
    assert_eq!(
        spec.plan.decisions.len(),
        n,
        "plan/runtime layer count mismatch"
    );
    assert!(
        spec.exec_scale.is_finite() && spec.exec_scale > 0.0,
        "exec_scale must be positive and finite"
    );
    for (from, to) in required_nvlink_pairs(&spec) {
        let hw = state.hw();
        assert!(
            hw.map.nvlink_between(&hw.machine, from, to).is_some(),
            "every GPU pair a run moves data over must be NVLinked; GPUs {from} and {to} are not"
        );
    }
    let now = ctx.now();
    let mut ready = vec![false; n];
    let mut loads_pending = 0usize;
    for (i, rdy) in ready.iter_mut().enumerate() {
        let needs_load = spec.plan.decisions[i] == LayerExec::Load
            && spec.rt.layers[i].param_bytes > 0
            && !spec.warm;
        if needs_load {
            loads_pending += 1;
        } else {
            *rdy = true;
        }
    }
    let slots = spec.plan.partitions.len();
    let use_warm_fast = spec.warm && !spec.skip_exec && !spec.distributed;
    let warm_steps = if use_warm_fast {
        build_warm_steps(&spec)
    } else {
        Vec::new()
    };
    let owner = spec.owners();
    let primary = spec.primary;
    let run = RunState {
        spec,
        ready,
        loads_pending,
        exec_next: 0,
        blocked_since: None,
        pending_parts: 0,
        layer_started: now,
        started: now,
        stall: SimDur::ZERO,
        exec_busy: SimDur::ZERO,
        mig_queue: vec![VecDeque::new(); slots.saturating_sub(1)],
        mig_busy: vec![false; slots.saturating_sub(1)],
        slot_loaded: vec![0; slots],
        slot_obs: vec![(0.0, SimDur::ZERO); slots],
        warm_steps,
        use_warm_fast,
        owner,
        current_gpu: primary,
        on_done: Some(on_done),
    };
    let (skip_exec, warm) = (run.spec.skip_exec, run.spec.warm);
    let r = RunRef(state.hw().runs.insert(run));
    if !warm {
        for s in 0..slots {
            load_next(state, ctx, r, s, 0);
        }
    }
    if skip_exec {
        if state.hw().run_mut(r).map(|x| x.loads_pending) == Some(0) {
            complete(state, ctx, r);
        }
    } else {
        exec_try(state, ctx, r);
    }
    r
}

/// Issues position `pos` of transmission slot `slot`'s partition.
fn load_next<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize, pos: usize) {
    // Gather the next transmission block: one layer by default, or
    // consecutive layers up to `plan.block_bytes` when grouping is on
    // (PipeSwitch-style amortisation of the per-transfer overhead).
    let (block, bytes, gpu) = {
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        let part = &run.spec.plan.partitions[slot];
        if pos >= part.len() {
            return;
        }
        let cap = run.spec.plan.block_bytes.unwrap_or(0);
        let mut bytes = run.spec.rt.layers[part[pos]].param_bytes;
        let mut end = pos + 1;
        while end < part.len() && bytes < cap {
            let next_bytes = run.spec.rt.layers[part[end]].param_bytes;
            if bytes + next_bytes > cap {
                break;
            }
            bytes += next_bytes;
            end += 1;
        }
        let (gpu, _) = slot_gpu(&run.spec, slot);
        (pos..end, bytes as f64, gpu)
    };
    let overhead = {
        let hw = state.hw();
        SimDur::from_nanos(hw.machine.gpu(gpu).pcie.launch_overhead_ns)
    };
    ctx.schedule_in(
        overhead,
        Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
            issue_block(state, ctx, r, slot, block, bytes, gpu, true);
        }),
    );
}

/// Starts (or restarts, after a checksum mismatch) one weight block's
/// host→GPU flow: positions `block` of slot `slot`'s partition.
/// `announce` is false on a re-fetch so load-start probe events are not
/// duplicated.
#[allow(clippy::too_many_arguments)]
fn issue_block<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    r: RunRef,
    slot: usize,
    block: Range<usize>,
    bytes: f64,
    gpu: usize,
    announce: bool,
) {
    let started = ctx.now();
    let hw = state.hw();
    let Some(run) = hw.run_mut(r) else {
        return;
    };
    let (verify, hedge) = (run.spec.verify_loads, run.spec.hedge);
    let plan = Arc::clone(&run.spec.plan);
    if announce {
        for &layer in &plan.partitions[slot][block.clone()] {
            hw.probe.emit(
                started,
                ProbeEvent::LoadStarted {
                    run: r.slot(),
                    layer,
                    gpu,
                    slot,
                },
            );
        }
    }
    // A corrupt-transfer arm on the path poisons this block. The arm is
    // consumed either way; whether anyone *notices* depends on
    // `verify_loads`.
    let path = hw.map.host_path(&hw.machine, gpu);
    let corrupt = hw.take_corrupt(&path);
    let done = move |state: &mut S, ctx: &mut Ctx<S>, n_shared: u32| {
        let now = ctx.now();
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        // The observation records *expected work* (bytes weighted by the
        // concurrent host flows sharing the path), so that span ÷
        // (obs_bytes / believed_rate) stays near 1.0 under contention and
        // only a genuinely degraded link pushes it up.
        run.slot_obs[slot].0 += bytes * f64::from(n_shared);
        run.slot_obs[slot].1 += now.since(started);
        let layers = &plan.partitions[slot][block.clone()];
        if corrupt && verify {
            // Checksum mismatch: discard the block and fetch it again.
            let hw = state.hw();
            hw.refetches += 1;
            hw.probe.emit(
                now,
                ProbeEvent::ChecksumMismatch {
                    run: r.slot(),
                    layer: layers[0],
                    gpu,
                    slot,
                },
            );
            hw.probe.emit(
                now,
                ProbeEvent::LoadRefetched {
                    run: r.slot(),
                    layer: layers[0],
                    gpu,
                    slot,
                },
            );
            issue_block(state, ctx, r, slot, block, bytes, gpu, false);
            return;
        }
        for &layer in layers {
            state.hw().probe.emit(
                now,
                ProbeEvent::LoadFinished {
                    run: r.slot(),
                    layer,
                    gpu,
                    slot,
                },
            );
            on_load_done(state, ctx, r, slot, layer);
        }
        load_next(state, ctx, r, slot, block.end);
    };
    start_host_flow(state, ctx, gpu, bytes, hedge, done);
}

/// A layer finished its host→GPU copy.
fn on_load_done<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    r: RunRef,
    slot: usize,
    layer_idx: usize,
) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    run.slot_loaded[slot] += 1;
    let (_, migrates) = slot_gpu(&run.spec, slot);
    if !migrates {
        mark_ready(state, ctx, r, layer_idx);
        return;
    }
    if run.spec.bulk_migrate {
        // Plain "parallel" mode: wait for the whole partition, then one
        // bulk NVLink copy.
        if run.slot_loaded[slot] == run.spec.plan.partitions[slot].len() {
            bulk_forward(state, ctx, r, slot);
        }
    } else {
        run.mig_queue[slot - 1].push_back(layer_idx);
        mig_pump(state, ctx, r, slot);
    }
}

/// Forwards a fully-arrived partition to the primary as one NVLink flow.
fn bulk_forward<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    let plan = Arc::clone(&run.spec.plan);
    let bytes: f64 = plan.partitions[slot]
        .iter()
        .map(|&i| run.spec.rt.layers[i].param_bytes as f64)
        .sum();
    let (sec, _) = slot_gpu(&run.spec, slot);
    let primary = run.spec.primary;
    nvlink_flow(
        state,
        ctx,
        r,
        sec,
        primary,
        bytes,
        None,
        move |state, ctx| {
            for &idx in &plan.partitions[slot] {
                mark_ready(state, ctx, r, idx);
            }
        },
    );
}

/// Starts the next NVLink forward on secondary slot `slot` if idle.
fn mig_pump<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    if run.mig_busy[slot - 1] {
        return;
    }
    let Some(layer) = run.mig_queue[slot - 1].pop_front() else {
        return;
    };
    run.mig_busy[slot - 1] = true;
    let bytes = run.spec.rt.layers[layer].param_bytes as f64;
    let (from, _) = slot_gpu(&run.spec, slot);
    let primary = run.spec.primary;
    let id = r.slot();
    let started = ProbeEvent::MigrateStarted {
        run: id,
        layer,
        from,
    };
    nvlink_flow(
        state,
        ctx,
        r,
        from,
        primary,
        bytes,
        Some(started),
        move |state, ctx| {
            let hw = state.hw();
            if let Some(run) = hw.run_mut(r) {
                run.mig_busy[slot - 1] = false;
            }
            let finished = ProbeEvent::MigrateFinished {
                run: id,
                layer,
                from,
            };
            hw.probe.emit(ctx.now(), finished);
            mark_ready(state, ctx, r, layer);
            mig_pump(state, ctx, r, slot);
        },
    );
}

/// Copies `bytes` from GPU `from` to GPU `to` over their NVLink for run
/// `r`: the NVLink launch overhead, then one flow. `started` is published
/// as the flow starts and `on_done` runs when it drains, each only while
/// `r` is live, so an aborted run's forwards and hops land as no-ops.
/// The pair is NVLinked: [`start_inference`] asserts that of every pair
/// [`required_nvlink_pairs`] lists, and NVLink connectivity is static.
#[allow(clippy::too_many_arguments)]
fn nvlink_flow<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    r: RunRef,
    from: usize,
    to: usize,
    bytes: f64,
    started: Option<ProbeEvent>,
    on_done: impl FnOnce(&mut S, &mut Ctx<S>) + 'static,
) {
    let hw = state.hw();
    let overhead = SimDur::from_nanos(hw.machine.nvlink.map_or(0, |nv| nv.launch_overhead_ns));
    let link = hw
        .map
        .nvlink_between(&hw.machine, from, to)
        .expect("start_inference admits a run only if every pair it moves over is NVLinked");
    ctx.schedule_in(
        overhead,
        Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
            let hw = state.hw();
            if hw.run_mut(r).is_none() {
                return;
            }
            if let Some(e) = started {
                hw.probe.emit(ctx.now(), e);
            }
            let done = move |state: &mut S, ctx: &mut Ctx<S>| {
                if state.hw().run_mut(r).is_some() {
                    on_done(state, ctx);
                }
            };
            start_flow(state, ctx, bytes, &[link], Box::new(done));
        }),
    );
}

/// Marks a layer's weights resident on the primary GPU.
fn mark_ready<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, layer_idx: usize) {
    let now = ctx.now();
    let (unblock, done, stall_ns, gpu) = {
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        if !run.ready[layer_idx] {
            run.ready[layer_idx] = true;
            run.loads_pending -= 1;
        }
        let gate = gate_open(run);
        let unblock = run.blocked_since.is_some() && gate && !run.spec.skip_exec;
        let mut stall_ns = 0;
        if unblock {
            let since = run.blocked_since.take().expect("checked");
            let stall = now - since;
            run.stall += stall;
            stall_ns = stall.as_nanos();
        }
        let done = run.spec.skip_exec && run.loads_pending == 0;
        (unblock, done, stall_ns, run.current_gpu)
    };
    if unblock {
        state.hw().probe.emit(
            now,
            ProbeEvent::StallEnded {
                run: r.slot(),
                layer: layer_idx,
                gpu,
                ns: stall_ns,
            },
        );
        exec_start_layer(state, ctx, r);
    }
    if done {
        complete(state, ctx, r);
    }
}

/// Whether the execution stream may run its next layer.
fn gate_open<S>(run: &RunState<S>) -> bool {
    if run.use_warm_fast {
        return run.exec_next < run.warm_steps.len();
    }
    let i = run.exec_next;
    if i >= run.ready.len() {
        return false;
    }
    if run.spec.plan.pipelined {
        run.ready[i]
    } else {
        run.loads_pending == 0
    }
}

/// Number of execution steps for a run (layers, or merged warm steps).
fn exec_len<S>(run: &RunState<S>) -> usize {
    if run.use_warm_fast {
        run.warm_steps.len()
    } else {
        run.ready.len()
    }
}

/// Advances the execution stream: complete, block, or start a layer.
fn exec_try<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let now = ctx.now();
    enum Next {
        Done,
        Blocked {
            layer: usize,
            gpu: usize,
            cause: StallCause,
        },
        Start,
    }
    let next = {
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        if run.exec_next >= exec_len(run) {
            Next::Done
        } else if !gate_open(run) {
            run.blocked_since = Some(now);
            Next::Blocked {
                layer: run.exec_next,
                gpu: run.current_gpu,
                cause: stall_cause(run),
            }
        } else {
            Next::Start
        }
    };
    match next {
        Next::Done => exec_finish(state, ctx, r),
        Next::Blocked { layer, gpu, cause } => {
            state.hw().probe.emit(
                now,
                ProbeEvent::StallStarted {
                    run: r.slot(),
                    layer,
                    gpu,
                    cause,
                },
            );
        }
        Next::Start => exec_start_layer(state, ctx, r),
    }
}

/// Attributes a just-started stall to its cause: non-pipelined plans wait
/// on the whole load barrier; pipelined plans wait on the pending layer's
/// transfer leg — NVLink when the layer lands on a migrating secondary
/// slot (its readiness is gated on the NVLink forward), PCIe otherwise.
fn stall_cause<S>(run: &RunState<S>) -> StallCause {
    if !run.spec.plan.pipelined {
        return StallCause::Barrier;
    }
    let layer = run.exec_next;
    match run
        .spec
        .plan
        .partitions
        .iter()
        .position(|p| p.contains(&layer))
    {
        Some(slot) if slot > 0 && slot_gpu(&run.spec, slot).1 => StallCause::NvlinkMigrate,
        _ => StallCause::PcieLoad,
    }
}

/// All layers ran; under distributed execution the result must first hop
/// back to the primary GPU.
fn exec_finish<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    if !run.spec.distributed || run.current_gpu == run.spec.primary {
        complete(state, ctx, r);
        return;
    }
    let bytes = run.spec.rt.layers.last().map_or(0.0, |l| l.act_out_bytes);
    let (from, to) = (run.current_gpu, run.spec.primary);
    run.current_gpu = to;
    nvlink_flow(state, ctx, r, from, to, bytes, None, move |state, ctx| {
        complete(state, ctx, r)
    });
}

/// Starts executing layer `exec_next` (gate already open), first hopping
/// the activations to the layer's owner under distributed execution.
fn exec_start_layer<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    let i = run.exec_next;
    if run.use_warm_fast || !run.spec.distributed || run.owner[i] == run.current_gpu {
        exec_run_layer(state, ctx, r);
        return;
    }
    let bytes = if i > 0 {
        run.spec.rt.layers[i - 1].act_out_bytes
    } else {
        0.0
    };
    let (from, to) = (run.current_gpu, run.owner[i]);
    run.current_gpu = to;
    nvlink_flow(state, ctx, r, from, to, bytes, None, move |state, ctx| {
        exec_run_layer(state, ctx, r)
    });
}

/// Runs the compute (and DHA flow) of the current layer on the current
/// GPU.
fn exec_run_layer<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let now = ctx.now();
    let (compute, dha_wire, gpu, layer_idx, hedge) = {
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        let i = run.exec_next;
        let (compute, wire) = if run.use_warm_fast {
            run.warm_steps[i]
        } else {
            let layer = &run.spec.rt.layers[i];
            // DHA layers read host memory on *every* execution, warm or
            // cold — their weights are never copied to the GPU.
            let dha = run.spec.plan.decisions[i] == LayerExec::Dha;
            (
                layer.exec_inmem,
                if dha { layer.dha_wire_bytes } else { 0.0 },
            )
        };
        run.layer_started = now;
        run.pending_parts = if wire > 0.0 { 2 } else { 1 };
        (
            scaled(compute, run.spec.exec_scale),
            wire,
            run.current_gpu,
            i,
            run.spec.hedge,
        )
    };
    state.hw().probe.emit(
        now,
        ProbeEvent::ExecStarted {
            run: r.slot(),
            layer: layer_idx,
            gpu,
            dha: dha_wire > 0.0,
        },
    );
    ctx.call_in(
        compute,
        |state, ctx, r| exec_part_done(state, ctx, RunRef(GenKey::from_bits(r))),
        r.0.to_bits(),
    );
    if dha_wire > 0.0 {
        // DHA reads are weight transfers too: a stuck or silently slow
        // read stalls the exec stream exactly like a stuck load, so it
        // gets the same watchdog.
        start_host_flow(state, ctx, gpu, dha_wire, hedge, move |state, ctx, _| {
            exec_part_done(state, ctx, r)
        });
    }
}

/// One half (compute / DHA flow) of the current layer finished.
fn exec_part_done<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let now = ctx.now();
    let advanced = {
        let Some(run) = state.hw().run_mut(r) else {
            return;
        };
        run.pending_parts -= 1;
        if run.pending_parts == 0 {
            run.exec_busy += now - run.layer_started;
            let finished = run.exec_next;
            run.exec_next += 1;
            Some((finished, run.current_gpu))
        } else {
            None
        }
    };
    if let Some((layer, gpu)) = advanced {
        state.hw().probe.emit(
            now,
            ProbeEvent::ExecFinished {
                run: r.slot(),
                layer,
                gpu,
            },
        );
        exec_try(state, ctx, r);
    }
}

/// Finishes a run: removes it and delivers the result.
fn complete<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) {
    let now = ctx.now();
    let hw = state.hw();
    let Some(run) = hw.runs.remove(r.0) else {
        return;
    };
    hw.probe.emit(
        now,
        ProbeEvent::RunCompleted {
            run: r.slot(),
            gpu: run.spec.primary,
            stall_ns: run.stall.as_nanos(),
            exec_busy_ns: run.exec_busy.as_nanos(),
        },
    );
    let slot_loads: Vec<SlotLoadObs> = run
        .slot_obs
        .iter()
        .enumerate()
        .filter(|(_, &(bytes, _))| bytes > 0.0)
        .map(|(slot, &(bytes, span))| SlotLoadObs {
            gpu: slot_gpu(&run.spec, slot).0,
            bytes,
            span,
        })
        .collect();
    let result = InferenceResult {
        started: run.started,
        finished: now,
        stall: run.stall,
        exec_busy: run.exec_busy,
        slot_loads,
    };
    if let Some(cb) = run.on_done {
        cb(state, ctx, result);
    }
}

/// Aborts an in-flight run (fault injection: its GPU died). The run is
/// torn down immediately: its slot is freed, its completion callback is
/// dropped without firing, and every pending flow/timer event it had
/// scheduled becomes a no-op, because its [`RunRef`] no longer resolves.
/// The host decides what happens to the request (retry elsewhere, shed).
///
/// Returns `false` when the run already completed — its callback may
/// already be queued, so the host must treat it as finished.
pub fn abort_run<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef) -> bool {
    let now = ctx.now();
    let hw = state.hw();
    let Some(run) = hw.runs.remove(r.0) else {
        return false;
    };
    hw.probe.emit(
        now,
        ProbeEvent::RunAborted {
            run: r.slot(),
            gpu: run.spec.primary,
        },
    );
    drop(run); // on_done never fires.
    true
}
