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
//! distributed-execution hops).
//!
//! Every event a run schedules is a word event, and every word names
//! (run, slot) (`RunRef::word`): a weight block's launch timer and
//! landing, an NVLink forward's launch timer and landing, a hop's, a
//! layer's compute timer and its DHA read. The run keeps what each
//! word acts on in its per-slot record (the block and the forward in
//! flight) and resolves the run first, so an aborted run's pending
//! timers and flows land as no-ops and schedule nothing, not even a
//! box.

use std::ops::Range;
use std::sync::Arc;

use exec_planner::plan::{ExecutionPlan, LayerExec};
use simcore::driver::start_flow;
use simcore::probe::{ProbeEvent, StallCause};
use simcore::sim::{Ctx, WordFn};
use simcore::time::{SimDur, SimTime};

use crate::hw::{start_host_flow, HasHw, HostDone, RunRef};
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
    /// Each transmission slot's load and migration streams.
    slots: Vec<SlotState>,
    /// Warm fast path: merged `(compute, dha_wire_bytes)` steps. Runs of
    /// consecutive in-memory layers collapse into one timer event, which
    /// makes million-request serving traces cheap to simulate without
    /// changing any timing (no gating can occur on a warm run). Not used
    /// under distributed execution (hops break the merge).
    warm_steps: Vec<(SimDur, f64)>,
    use_warm_fast: bool,
    /// GPU owning each layer's weights (distributed execution only).
    owner: Vec<usize>,
    /// GPU the execution stream currently sits on.
    current_gpu: usize,
    /// GPU the execution stream is hopping from while a hop is in flight.
    hop_from: usize,
    on_done: Option<DoneFn<S>>,
}

/// One transmission slot of a run: its load stream and, on a secondary
/// GPU, its migration stream. The words of both name the slot.
#[derive(Clone, Default)]
struct SlotState {
    /// Layers of the partition landed on the slot's GPU, in order.
    loaded: usize,
    /// Accumulated load bytes and wire time (detector signal).
    obs: (f64, SimDur),
    /// The weight block in flight.
    block: Block,
    /// Layers whose NVLink forward has started. The migration queue is
    /// the landed layers past them: `partition[forwarded..loaded]`.
    forwarded: usize,
    /// Whether a forward is in flight; it carries layer `forwarded - 1`.
    forwarding: bool,
}

/// A weight block: consecutive positions of a slot's partition moved as
/// one host→GPU flow.
#[derive(Clone, Default)]
struct Block {
    pos: Range<usize>,
    bytes: f64,
    /// When its flow was issued, and the flow's share count then.
    started: SimTime,
    n_shared: u32,
    /// Whether a corrupt-transfer arm poisoned the flow.
    corrupt: bool,
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
/// layer count, if the spec moves data between two GPUs that are not
/// NVLinked (every secondary must be an NVLink partner of the primary,
/// as `pt_group` guarantees for the server's), or if a word could not
/// name the run: more than 256 transmission slots, or 2^24 runs in
/// flight.
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
    let slots = spec.plan.partitions.len();
    assert!(
        slots <= RunRef::MAX_SLOTS,
        "a run's words name at most 256 transmission slots, not {slots}"
    );
    assert!(
        state.hw().runs.vacant_index() < RunRef::MAX_RUNS,
        "a run's words name at most 2^24 runs in flight"
    );
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
    let use_warm_fast = spec.warm && !spec.skip_exec && !spec.distributed;
    let warm_steps = if use_warm_fast {
        build_warm_steps(&spec)
    } else {
        Vec::new()
    };
    let owner = if spec.distributed {
        spec.owners()
    } else {
        Vec::new()
    };
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
        slots: vec![SlotState::default(); slots],
        warm_steps,
        use_warm_fast,
        owner,
        current_gpu: primary,
        hop_from: primary,
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

/// Makes position `pos` of transmission slot `slot`'s partition the
/// slot's next block and starts its launch-overhead timer.
fn load_next<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize, pos: usize) {
    let hw = state.hw();
    let Some(run) = hw.runs.get_mut(r.0) else {
        return;
    };
    // Gather the next transmission block: one layer by default, or
    // consecutive layers up to `plan.block_bytes` when grouping is on
    // (PipeSwitch-style amortisation of the per-transfer overhead).
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
    run.slots[slot].block = Block {
        pos: pos..end,
        bytes: bytes as f64,
        ..Block::default()
    };
    let overhead = SimDur::from_nanos(hw.machine.gpu(gpu).pcie.launch_overhead_ns);
    ctx.call_in(overhead, block_launched, r.word(slot));
}

/// A block's launch-overhead timer fired: its flow starts.
fn block_launched<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let (r, slot) = RunRef::from_word(w);
    issue_block(state, ctx, r, slot, true);
}

/// Starts (or restarts, after a checksum mismatch) the host→GPU flow of
/// slot `slot`'s block in flight. `announce` is false on a re-fetch so
/// load-start probe events are not duplicated.
fn issue_block<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize, announce: bool) {
    let started = ctx.now();
    let hw = state.hw();
    let Some(run) = hw.runs.get(r.0) else {
        return;
    };
    let (gpu, _) = slot_gpu(&run.spec, slot);
    let (block, hedge) = (&run.slots[slot].block, run.spec.hedge);
    let bytes = block.bytes;
    if announce {
        for &layer in &run.spec.plan.partitions[slot][block.pos.clone()] {
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
    let done = HostDone::Word(block_landed, r.word(slot));
    let n_shared = start_host_flow(state, ctx, gpu, bytes, hedge, done);
    // The flow lands in a later event, so the run is still live.
    let run = state.hw().run_mut(r).expect("live until its flow lands");
    let block = &mut run.slots[slot].block;
    (block.started, block.n_shared, block.corrupt) = (started, n_shared, corrupt);
}

/// Slot `slot`'s block in flight landed on its GPU.
fn block_landed<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let now = ctx.now();
    let (r, slot) = RunRef::from_word(w);
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    let (gpu, _) = slot_gpu(&run.spec, slot);
    let plan = Arc::clone(&run.spec.plan);
    let verify = run.spec.verify_loads;
    let s = &mut run.slots[slot];
    let Block {
        pos,
        bytes,
        started,
        n_shared,
        corrupt,
    } = s.block.clone();
    // The observation records *expected work* (bytes weighted by the
    // concurrent host flows sharing the path), so that span ÷
    // (obs_bytes / believed_rate) stays near 1.0 under contention and
    // only a genuinely degraded link pushes it up.
    s.obs.0 += bytes * f64::from(n_shared);
    s.obs.1 += now.since(started);
    let layers = &plan.partitions[slot][pos.clone()];
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
        issue_block(state, ctx, r, slot, false);
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
    load_next(state, ctx, r, slot, pos.end);
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
    run.slots[slot].loaded += 1;
    let (_, migrates) = slot_gpu(&run.spec, slot);
    if !migrates {
        mark_ready(state, ctx, r, layer_idx);
        return;
    }
    if !run.spec.bulk_migrate {
        // The layer joins the slot's migration queue.
        mig_pump(state, ctx, r, slot);
    } else if run.slots[slot].loaded == run.spec.plan.partitions[slot].len() {
        // Plain "parallel" mode: the whole partition has arrived; it
        // moves as one bulk NVLink copy.
        nvlink_launch(state, ctx, forward_launched, r.word(slot));
    }
}

/// Starts the next NVLink forward on secondary slot `slot` if idle.
fn mig_pump<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, slot: usize) {
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    let s = &mut run.slots[slot];
    if s.forwarding || s.forwarded == s.loaded {
        return;
    }
    s.forwarded += 1;
    s.forwarding = true;
    nvlink_launch(state, ctx, forward_launched, r.word(slot));
}

/// Schedules the NVLink launch overhead of a forward or hop, then the
/// word event `launched(w)` that starts its flow.
fn nvlink_launch<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, launched: WordFn<S>, w: u64) {
    let hw = state.hw();
    let overhead = SimDur::from_nanos(hw.machine.nvlink.map_or(0, |nv| nv.launch_overhead_ns));
    ctx.call_in(overhead, launched, w);
}

/// Copies `bytes` from GPU `from` to GPU `to` over their NVLink; the flow
/// lands as the word event `on_done(w)`. The pair is NVLinked:
/// [`start_inference`] asserts that of every pair
/// [`required_nvlink_pairs`] lists, and NVLink connectivity is static.
fn nvlink_flow<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    from: usize,
    to: usize,
    bytes: f64,
    on_done: WordFn<S>,
    w: u64,
) {
    let hw = state.hw();
    let link = hw
        .map
        .nvlink_between(&hw.machine, from, to)
        .expect("start_inference admits a run only if every pair it moves over is NVLinked");
    start_flow(state, ctx, bytes, &[link], on_done, w);
}

/// Secondary slot `slot`'s forward passed its launch overhead: the layer
/// in flight (or, under bulk migration, the whole partition) starts
/// crossing to the primary.
fn forward_launched<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let (r, slot) = RunRef::from_word(w);
    let hw = state.hw();
    let Some(run) = hw.runs.get(r.0) else {
        return;
    };
    let (from, _) = slot_gpu(&run.spec, slot);
    let to = run.spec.primary;
    let part = &run.spec.plan.partitions[slot];
    let layers = &run.spec.rt.layers;
    let bytes = if run.spec.bulk_migrate {
        part.iter().map(|&i| layers[i].param_bytes as f64).sum()
    } else {
        let layer = part[run.slots[slot].forwarded - 1];
        let started = ProbeEvent::MigrateStarted {
            run: r.slot(),
            layer,
            from,
        };
        hw.probe.emit(ctx.now(), started);
        layers[layer].param_bytes as f64
    };
    nvlink_flow(state, ctx, from, to, bytes, forward_landed, w);
}

/// Secondary slot `slot`'s forward landed on the primary.
fn forward_landed<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let (r, slot) = RunRef::from_word(w);
    let hw = state.hw();
    let Some(run) = hw.runs.get_mut(r.0) else {
        return;
    };
    if run.spec.bulk_migrate {
        let plan = Arc::clone(&run.spec.plan);
        for &idx in &plan.partitions[slot] {
            mark_ready(state, ctx, r, idx);
        }
        return;
    }
    let (from, _) = slot_gpu(&run.spec, slot);
    let s = &mut run.slots[slot];
    s.forwarding = false;
    let layer = run.spec.plan.partitions[slot][s.forwarded - 1];
    let finished = ProbeEvent::MigrateFinished {
        run: r.slot(),
        layer,
        from,
    };
    hw.probe.emit(ctx.now(), finished);
    mark_ready(state, ctx, r, layer);
    mig_pump(state, ctx, r, slot);
}

/// The execution stream's hop passed its launch overhead: the activations
/// of the last layer run start crossing to the GPU it now sits on.
fn hop_launched<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let (r, _) = RunRef::from_word(w);
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    let i = run.exec_next;
    let bytes = if i > 0 {
        run.spec.rt.layers[i - 1].act_out_bytes
    } else {
        0.0
    };
    let (from, to) = (run.hop_from, run.current_gpu);
    nvlink_flow(state, ctx, from, to, bytes, hop_landed, w);
}

/// The execution stream's hop landed: it runs its next layer there, or,
/// back on the primary after the last one, completes.
fn hop_landed<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let (r, _) = RunRef::from_word(w);
    let Some(run) = state.hw().run_mut(r) else {
        return;
    };
    if run.exec_next < exec_len(run) {
        exec_run_layer(state, ctx, r);
    } else {
        complete(state, ctx, r);
    }
}

/// Moves the execution stream to GPU `to`: one NVLink hop.
fn hop_to<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: RunRef, to: usize) {
    if let Some(run) = state.hw().run_mut(r) {
        run.hop_from = std::mem::replace(&mut run.current_gpu, to);
        nvlink_launch(state, ctx, hop_launched, r.word(0));
    }
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
    let primary = run.spec.primary;
    hop_to(state, ctx, r, primary);
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
    let owner = run.owner[i];
    hop_to(state, ctx, r, owner);
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
    ctx.call_in(compute, exec_part_done, r.word(0));
    if dha_wire > 0.0 {
        // DHA reads are weight transfers too: a stuck or silently slow
        // read stalls the exec stream exactly like a stuck load, so it
        // gets the same watchdog.
        let done = HostDone::Word(exec_part_done, r.word(0));
        start_host_flow(state, ctx, gpu, dha_wire, hedge, done);
    }
}

/// One half (compute timer / DHA read) of the current layer finished.
fn exec_part_done<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, w: u64) {
    let now = ctx.now();
    let (r, _) = RunRef::from_word(w);
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
        .slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.obs.0 > 0.0)
        .map(|(slot, s)| SlotLoadObs {
            gpu: slot_gpu(&run.spec, slot).0,
            bytes: s.obs.0,
            span: s.obs.1,
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
/// scheduled becomes a no-op, because the (run, slot) word it names no
/// longer resolves.
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
