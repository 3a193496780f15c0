//! Token-step execution for autoregressive decode.
//!
//! One decode *run* is a per-GPU process that executes token steps for a
//! continuous batch. The serving layer owns batch membership and the KV
//! pager; this module owns the timing of a single step:
//!
//! * **recall phase** — spilled KV pages the plan chose to copy back
//!   cross PCIe *before* compute (per-transfer launch overhead plus one
//!   merged flow), exactly like a weight load;
//! * **compute ∥ DHA phase** — the device-side step timer runs
//!   concurrently with one PCIe flow covering every host page the plan
//!   left in place, mirroring how a DHA layer overlaps its weight reads
//!   with the SMs in [`crate::launch`].
//!
//! The step finishes when both parts drain. Every KV transfer, in a step
//! or out of one ([`stream_kv`]), is a [`start_host_flow`]. Like
//! inference runs, decode processes live in a generational slab: a GPU
//! crash mid-step removes the process, its [`DecodeRef`] stops
//! resolving, and every in-flight flow or timer lands as a no-op.

use simcore::probe::ProbeEvent;
use simcore::sim::{Ctx, EventFn};
use simcore::slab::GenKey;
use simcore::time::{SimDur, SimTime};

use crate::hw::{start_host_flow, DecodeRef, HasHw};

/// Timing inputs of one token step, computed by the serving layer from
/// the decode profile and the pager's placement decisions.
#[derive(Debug, Clone, Copy)]
pub struct StepSpec {
    /// Step sequence number (per GPU, monotone).
    pub step: u64,
    /// Requests in the batch this step.
    pub batch: usize,
    /// Device compute time: weights plus GPU-resident KV at HBM speed.
    pub compute: SimDur,
    /// Host-resident KV bytes read in place over PCIe, overlapped with
    /// compute.
    pub dha_bytes: f64,
    /// Host-resident KV bytes recalled to the GPU before compute.
    pub moved_bytes: f64,
    /// Recall transfers issued (each pays the PCIe launch overhead).
    pub recall_transfers: u64,
}

/// Per-GPU decode process state. Lives in
/// [`crate::hw::HwState::decodes`]; fields are crate-private.
pub struct DecodeRun<S> {
    gpu: usize,
    step: u64,
    batch: usize,
    pending_parts: u8,
    step_started: SimTime,
    on_step_done: Option<EventFn<S>>,
}

/// Registers a decode process on `gpu`. One per GPU with a live batch;
/// the serving layer keeps the ref for the batch's lifetime.
pub fn begin_decode<S: HasHw>(state: &mut S, gpu: usize) -> DecodeRef {
    let run = DecodeRun {
        gpu,
        step: 0,
        batch: 0,
        pending_parts: 0,
        step_started: SimTime::ZERO,
        on_step_done: None,
    };
    DecodeRef(state.hw().decodes.insert(run))
}

/// Starts one token step; `on_done` fires when both the compute timer
/// and every KV transfer have drained. Returns `false` (nothing
/// scheduled, `on_done` dropped) when the ref is stale — the decode was
/// aborted.
///
/// Must be called from inside an event handler, and only when the
/// previous step has completed.
pub fn start_token_step<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    r: DecodeRef,
    spec: StepSpec,
    on_done: EventFn<S>,
) -> bool {
    let now = ctx.now();
    let gpu = {
        let Some(run) = state.hw().decode_mut(r) else {
            return false;
        };
        assert_eq!(run.pending_parts, 0, "previous step still in flight");
        run.step = spec.step;
        run.batch = spec.batch;
        run.step_started = now;
        run.on_step_done = Some(on_done);
        run.gpu
    };
    state.hw().probe.emit(
        now,
        ProbeEvent::TokenStepStarted {
            gpu,
            step: spec.step,
            batch: spec.batch,
            dha_bytes: spec.dha_bytes as u64,
            moved_bytes: spec.moved_bytes as u64,
        },
    );
    if spec.moved_bytes > 0.0 {
        // Recall phase: launch overhead per transfer, then one merged
        // host→GPU flow; compute starts only once the pages are back.
        let overhead = {
            let hw = state.hw();
            SimDur::from_nanos(
                hw.machine.gpu(gpu).pcie.launch_overhead_ns * spec.recall_transfers.max(1),
            )
        };
        ctx.schedule_in(
            overhead,
            Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
                if state.hw().decode_mut(r).is_none() {
                    return;
                }
                start_host_flow(
                    state,
                    ctx,
                    gpu,
                    spec.moved_bytes,
                    None,
                    move |state, ctx, _| step_exec(state, ctx, r, spec, gpu),
                );
            }),
        );
    } else {
        step_exec(state, ctx, r, spec, gpu);
    }
    true
}

/// Runs the compute ∥ DHA phase of a step.
fn step_exec<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: DecodeRef, spec: StepSpec, gpu: usize) {
    {
        let Some(run) = state.hw().decode_mut(r) else {
            return;
        };
        run.pending_parts = if spec.dha_bytes > 0.0 { 2 } else { 1 };
    }
    ctx.call_in(
        spec.compute,
        |state, ctx, r| step_part_done(state, ctx, DecodeRef(GenKey::from_bits(r))),
        r.0.to_bits(),
    );
    if spec.dha_bytes > 0.0 {
        start_host_flow(
            state,
            ctx,
            gpu,
            spec.dha_bytes,
            None,
            move |state, ctx, _| step_part_done(state, ctx, r),
        );
    }
}

/// One half (compute / DHA flow) of the current step finished.
fn step_part_done<S: HasHw>(state: &mut S, ctx: &mut Ctx<S>, r: DecodeRef) {
    let now = ctx.now();
    let finished = {
        let Some(run) = state.hw().decode_mut(r) else {
            return;
        };
        run.pending_parts -= 1;
        if run.pending_parts == 0 {
            let cb = run.on_step_done.take();
            Some((run.gpu, run.step, run.batch, now - run.step_started, cb))
        } else {
            None
        }
    };
    if let Some((gpu, step, batch, span, cb)) = finished {
        state.hw().probe.emit(
            now,
            ProbeEvent::TokenStepFinished {
                gpu,
                step,
                batch,
                ns: span.as_nanos(),
            },
        );
        if let Some(cb) = cb {
            cb(state, ctx);
        }
    }
}

/// Streams `bytes` of KV between pinned host memory and `gpu` outside
/// any token step — the transfer primitive behind incremental
/// checkpointing (device→host mirror) and crash restore (host→device
/// replay). One launch overhead, then one [`start_host_flow`], like
/// recalls and DHA reads, so checkpoint and restore traffic genuinely
/// contends with foreground decode transfers. `on_done` fires when the
/// flow drains; the caller is responsible for its own staleness guard
/// (there is no decode ref to guard on — the session this stream serves
/// may legitimately outlive the batch it left).
pub fn stream_kv<S: HasHw>(
    state: &mut S,
    ctx: &mut Ctx<S>,
    gpu: usize,
    bytes: f64,
    on_done: EventFn<S>,
) {
    let overhead = {
        let hw = state.hw();
        SimDur::from_nanos(hw.machine.gpu(gpu).pcie.launch_overhead_ns)
    };
    ctx.schedule_in(
        overhead,
        Box::new(move |state: &mut S, ctx: &mut Ctx<S>| {
            start_host_flow(state, ctx, gpu, bytes, None, move |state, ctx, _| {
                on_done(state, ctx)
            });
        }),
    );
}

/// Tears down a decode process (GPU crash, or its batch drained). Every
/// pending timer and flow the step had scheduled becomes a no-op, as the
/// ref no longer resolves; the step-done callback is dropped without
/// firing. Returns `false` when the ref was already stale.
pub fn abort_decode<S: HasHw>(state: &mut S, _ctx: &mut Ctx<S>, r: DecodeRef) -> bool {
    state.hw().decodes.remove(r.0).is_some()
}
