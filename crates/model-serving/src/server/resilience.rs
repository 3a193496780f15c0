//! Decode-session resilience: incremental KV checkpoints, crash recovery
//! by restore-or-re-prefill, preemptive session swap-out and the
//! TTFT/TPOT SLO tiers. Tier admission also applies to one-shot
//! requests, so this state does not depend on decode being on.

use std::collections::{BTreeMap, VecDeque};

use exec_engine::hw::{start_host_flow, HostDone};
use exec_planner::kvplan::{choose_restore, RestoreChoice};
use simcore::probe::{ProbeEvent, ShedCause};
use simcore::sim::Ctx;
use simcore::time::{SimDur, SimTime};

use super::decode::{self, DecodeEntry, DecodeState, Kv};
use super::dispatch::{note_retry, place_cold, requeue, retry_after_crash};
use super::{Queued, ServerState, MAX_RETRIES};
use crate::instance::Residency;

/// Burst cap of the checkpoint bandwidth token bucket, in bytes.
const CHECKPOINT_BURST: u64 = 8 << 20;

/// Device KV-pool occupancy fraction at which swap-out triggers.
const SWAP_OUT_ABOVE: f64 = 0.9;

/// Occupancy fraction below which frozen sessions resume, well under
/// [`SWAP_OUT_ABOVE`] so the pool does not thrash sessions in and out.
const RESUME_BELOW: f64 = 0.5;

/// Host-side checkpoint record of one decode session: the token step the
/// pinned-host mirror covers and the page-rounded bytes mirrored.
/// Deliberately *not* pager state — it must survive the session's batch
/// and GPU, since crash recovery reads it after the GPU's teardown freed
/// every one of the session's pages.
#[derive(Clone, Copy, Default)]
struct CkptState {
    /// Token step the mirror covers.
    tokens: u64,
    /// Page-rounded KV footprint mirrored at that step.
    bytes: u64,
}

/// Resilience state; exists only when the resilience policy is on.
pub(super) struct ResilienceState {
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
    pub(super) swapped: VecDeque<DecodeEntry>,
    /// Crash time per victim session, for TTFT-to-recovery samples.
    crashed_at: BTreeMap<u64, SimTime>,
}

impl ResilienceState {
    pub(super) fn new(n_gpus: usize) -> Self {
        ResilienceState {
            ckpts: BTreeMap::new(),
            ckpt_inflight: vec![false; n_gpus],
            ckpt_epoch: vec![0; n_gpus],
            ckpt_tokens: 0.0,
            ckpt_refilled: SimTime::ZERO,
            swapped: VecDeque::new(),
            crashed_at: BTreeMap::new(),
        }
    }

    /// Drops the recovery bookkeeping of a session that finished or was
    /// shed, so the maps stay bounded.
    pub(super) fn forget(&mut self, req: u64) {
        self.ckpts.remove(&req);
        self.crashed_at.remove(&req);
    }

    /// GPU `g` died: invalidate any checkpoint mirror on the wire, since
    /// the device pages it was copying died with the GPU.
    pub(super) fn gpu_lost(&mut self, g: usize) {
        self.ckpt_epoch[g] += 1;
        self.ckpt_inflight[g] = false;
    }
}

/// TTFT budget of the tier a request of `priority` falls in; `None`
/// without resilience or tiers.
pub(super) fn ttft_budget(s: &ServerState, priority: u8) -> Option<SimDur> {
    s.resilience.as_ref()?;
    let tier = s.cfg.decode_resilience.tier_for(priority)?;
    Some(tier.ttft_slo)
}

/// Token-level degradation at GPU `g`'s token boundary: once a session's
/// elapsed decode time already exceeds its tier's whole-session TPOT
/// budget, no finite remaining speed can bring the mean TPOT back under
/// the SLO — finish it at the current token instead of burning steps on
/// an SLO-dead stream.
pub(super) fn truncate_overdue(s: &mut ServerState, now: SimTime, g: usize) {
    let (Some(_), Some(dec)) = (&s.resilience, &mut s.decode) else {
        return;
    };
    let policy = &s.cfg.decode_resilience;
    if policy.tiers.is_empty() {
        return;
    }
    for e in dec.batches[g].entries.iter_mut() {
        if e.tokens_done >= e.target() {
            continue;
        }
        let Some(tier) = policy.tier_for(e.q.priority) else {
            continue;
        };
        let budget = tier.tpot_slo.as_nanos() * (e.target() - 1).max(1);
        if (now - e.prefill_done).as_nanos() > budget {
            s.report.sessions_truncated += 1;
            s.probe.emit(
                now,
                ProbeEvent::SessionTruncated {
                    req: e.q.req,
                    gpu: g,
                    tokens: e.tokens_done,
                    target: e.target(),
                },
            );
            e.q.output_tokens =
                u32::try_from(e.tokens_done).expect("tokens done stay below the u32 target");
        }
    }
}

/// Preemptive session swap at the token boundary of GPU `g`. Swap-out
/// freezes the batch's lowest-priority session when the device pool is
/// nearly full — or when a higher-priority prefill is stuck behind a
/// full batch (priority inversion) — batch-spilling its device pages to
/// the pinned-host pool and parking the entry off-batch with its exact
/// token step. Resume is the reverse, FIFO, once pressure clears
/// (hysteresis: [`RESUME_BELOW`] < [`SWAP_OUT_ABOVE`]) or the batch goes idle;
/// the session's pages flow back through the ordinary recall/DHA
/// placement of its next step.
pub(super) fn maybe_swap(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let (Some(res), Some(DecodeState { batches, pager })) = (&mut s.resilience, &mut s.decode)
    else {
        return;
    };
    if !s.cfg.decode_resilience.swap {
        return;
    }
    let now = ctx.now();
    let max_batch = s.cfg.decode.max_batch;
    let entries = &mut batches[g].entries;
    // Read once: swap-out returns after it changes the pool. An empty
    // pool (`used == cap == 0`) reads 0.
    let occupancy = pager.gpu_used_pages(g) as f64 / pager.gpu_cap_pages(g).max(1) as f64;
    let inversion = entries.len() >= max_batch
        && s.queues[g]
            .front()
            .is_some_and(|q| entries.iter().any(|e| e.q.priority < q.priority));
    if (occupancy >= SWAP_OUT_ABOVE || inversion) && entries.len() > 1 {
        // Victim: lowest priority; ties break to the youngest session
        // (largest request id) — it has the least KV to move.
        let vi = (0..entries.len())
            .min_by_key(|&i| (entries[i].q.priority, u64::MAX - entries[i].q.req))
            .expect("batch non-empty");
        let e = entries.remove(vi);
        let mut kv = Kv {
            pager,
            report: &mut s.report,
            probe: &s.probe,
            now,
            g,
        };
        let spilled = kv.swap_out(e.q.req);
        s.report.sessions_swapped += 1;
        s.probe.emit(
            now,
            ProbeEvent::SessionSwappedOut {
                req: e.q.req,
                gpu: g,
                tokens: e.tokens_done,
                pages: spilled,
            },
        );
        res.swapped.push_back(e);
        return;
    }
    let calm = occupancy < RESUME_BELOW || entries.is_empty();
    if entries.len() >= max_batch || !calm {
        return;
    }
    let Some(e) = res.swapped.pop_front() else {
        return;
    };
    s.report.sessions_resumed += 1;
    s.probe.emit(
        now,
        ProbeEvent::SessionResumed {
            req: e.q.req,
            gpu: g,
            tokens: e.tokens_done,
            pages: pager.host_pages_of(e.q.req),
        },
    );
    entries.push(e);
}

/// Incremental KV checkpointing at the token boundary of GPU `g`.
/// Sessions whose last mirror is `checkpoint_every` or more tokens stale
/// re-mirror their page-rounded footprint delta (plus the always-dirty
/// tail page) to the pinned-host pool, in batch order, until the
/// checkpoint bandwidth token bucket runs dry. The mirror is one merged
/// device→host stream through the flow network — it genuinely contends
/// with recalls, DHA reads and weight loads — and commits only if no
/// crash bumped the GPU's checkpoint epoch while it was on the wire.
pub(super) fn maybe_checkpoint(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let (Some(res), Some(dec)) = (&mut s.resilience, &s.decode) else {
        return;
    };
    let policy = &s.cfg.decode_resilience;
    let entries = &dec.batches[g].entries;
    if policy.checkpoint_bw <= 0.0 || res.ckpt_inflight[g] || entries.is_empty() {
        return;
    }
    let every = policy.checkpoint_every.max(1);
    let burst = CHECKPOINT_BURST as f64;
    let now = ctx.now();
    // Lazy token-bucket refill from sim time — deterministic, no timers.
    let dt = (now - res.ckpt_refilled).as_secs_f64();
    res.ckpt_tokens = (res.ckpt_tokens + dt * policy.checkpoint_bw).min(burst);
    res.ckpt_refilled = now;
    let page_bytes = dec.pager.page_bytes();
    // (req, covered tokens, covered bytes, bytes crossing the wire now)
    let mut batch: Vec<(u64, u64, u64, u64)> = Vec::new();
    let mut spend = 0u64;
    for e in entries {
        let prev = res.ckpts.get(&e.q.req).copied().unwrap_or_default();
        if e.tokens_done < prev.tokens + every {
            continue;
        }
        let prof = s.kinds[s.instances[e.q.instance].kind]
            .decode
            .expect("batch entries are decoder kinds");
        let total = dec.pager.pages_for(prof.kv_bytes(e.context())) * page_bytes;
        // The tail page is always dirty — tokens appended since the last
        // mirror landed inside it — so a delta of zero whole pages still
        // re-ships one page.
        let delta = total.saturating_sub(prev.bytes).max(page_bytes);
        if spend + delta > res.ckpt_tokens as u64 {
            // A first mirror bigger than the whole burst would starve
            // forever behind a brim-full bucket; ship it alone and run
            // the bucket dry (the debt throttles later mirrors).
            if batch.is_empty() && res.ckpt_tokens >= burst {
                spend = delta;
                batch.push((e.q.req, e.tokens_done, total, delta));
            }
            break; // Budget exhausted; later sessions wait their turn.
        }
        spend += delta;
        batch.push((e.q.req, e.tokens_done, total, delta));
    }
    if batch.is_empty() {
        return;
    }
    res.ckpt_tokens = (res.ckpt_tokens - spend as f64).max(0.0);
    res.ckpt_inflight[g] = true;
    let epoch = res.ckpt_epoch[g];
    stream_kv(s, ctx, g, spend as f64, move |s, ctx| {
        ckpt_done(s, ctx, g, epoch, batch)
    });
}

/// Streams `bytes` of KV between pinned host memory and GPU `g` outside
/// any token step: a checkpoint mirror or a restore replay. One launch
/// overhead, then one [`start_host_flow`], like a step's recalls and DHA
/// reads, so this traffic contends with foreground decode transfers.
/// `on_done` fires when the flow drains; it guards itself, since the
/// session it serves may outlive the batch it left.
fn stream_kv(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    g: usize,
    bytes: f64,
    on_done: impl FnOnce(&mut ServerState, &mut Ctx<ServerState>) + 'static,
) {
    let overhead = SimDur::from_nanos(s.cfg.machine.gpu(g).pcie.launch_overhead_ns);
    ctx.schedule_in(
        overhead,
        Box::new(move |s: &mut ServerState, ctx| {
            let landed = HostDone::closure(|s, ctx, _| on_done(s, ctx));
            start_host_flow(s, ctx, g, bytes, None, landed);
        }),
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
    let (Some(res), Some(dec)) = (&mut s.resilience, &s.decode) else {
        return;
    };
    if res.ckpt_epoch[g] != epoch {
        return; // The GPU crashed mid-mirror; its teardown reset inflight.
    }
    res.ckpt_inflight[g] = false;
    let now = ctx.now();
    for (req, tokens, total, delta) in batch {
        if !dec.batches[g].entries.iter().any(|e| e.q.req == req) {
            continue;
        }
        let ckpt = CkptState {
            tokens,
            bytes: total,
        };
        if res.ckpts.insert(req, ckpt).is_none() {
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

/// A crash victim re-entering through a fresh prefill just recomputed
/// its KV from scratch; its recovery latency is the crash-to-first-new-
/// token span.
pub(super) fn note_reprefill(s: &mut ServerState, e: &DecodeEntry) {
    let crashed = s
        .resilience
        .as_mut()
        .and_then(|r| r.crashed_at.remove(&e.q.req));
    if let Some(t0) = crashed {
        s.report.sessions_reprefilled += 1;
        s.report
            .recovery_reprefill_ttft
            .push((e.prefill_done - t0).as_ms_f64());
    }
}

/// Drops the checkpoint record of a session about to re-prefill: the
/// mirror's backing pages died with the session's pager state, so it
/// re-checkpoints from scratch.
fn drop_ckpt(s: &mut ServerState, req: u64) {
    if let Some(r) = &mut s.resilience {
        r.ckpts.remove(&req);
    }
}

/// Crash recovery for one decode session whose GPU `dead` died. Without
/// resilience the session re-prefills through the ordinary crash retry.
/// With it, restore-from-checkpoint or re-prefill is chosen per victim
/// with the planner's cost crossover — wire time of the checkpointed
/// bytes at the survivor's *believed* host-path rate (detector
/// quarantines steer `pick_gpu`, announced degradations stretch the
/// rate) plus one decode step, against the prefill's in-memory recompute
/// time. An uncheckpointed session always re-prefills. Restore replays
/// the pinned-host mirror onto the survivor and rejoins its batch at the
/// exact checkpointed token step.
pub(super) fn recover_session(
    s: &mut ServerState,
    ctx: &mut Ctx<ServerState>,
    dead: usize,
    e: DecodeEntry,
) {
    let Some(res) = &mut s.resilience else {
        retry_after_crash(s, ctx, e.q);
        return;
    };
    let now = ctx.now();
    // Keep the first crash time: a victim that crashes again
    // mid-recovery still measures recovery from the original loss.
    res.crashed_at.entry(e.q.req).or_insert(now);
    let ckpt = res.ckpts.get(&e.q.req).copied().unwrap_or_default();
    let survivor = s.pick_gpu();
    let kind = &s.kinds[s.instances[e.q.instance].kind];
    let restore = survivor.is_some_and(|g2| {
        let gpu = s.cfg.machine.gpu(g2);
        let step_secs = kind
            .decode
            .expect("decode entries are decoder kinds")
            .weight_bytes as f64
            / gpu.mem_bw;
        choose_restore(
            ckpt.bytes,
            s.believed_path_rate(g2),
            gpu.pcie.launch_overhead_ns,
            kind.profile.exec_inmem_total().as_secs_f64(),
            step_secs,
        ) == RestoreChoice::Restore
    });
    s.probe.emit(
        now,
        ProbeEvent::RestoreDecision {
            req: e.q.req,
            gpu: survivor.unwrap_or(dead),
            restore,
            ckpt_tokens: ckpt.tokens,
            ckpt_bytes: ckpt.bytes,
        },
    );
    if !restore {
        s.report.reprefill_decisions += 1;
        drop_ckpt(s, e.q.req);
        retry_after_crash(s, ctx, e.q);
        return;
    }
    s.report.restore_decisions += 1;
    let job = DecodeEntry {
        q: Queued {
            attempt: e.q.attempt + 1,
            ..e.q
        },
        ..e
    };
    ctx.schedule_in(
        s.crash_backoff(job.q.attempt),
        Box::new(move |s: &mut ServerState, ctx| start_restore(s, ctx, job, ckpt)),
    );
}

/// Fires after the crash backoff: re-pick the restore target against the
/// *current* topology, re-pin the instance, and replay the checkpoint
/// mirror (plus the weights when they are cold) onto the target as one
/// host→device stream.
fn start_restore(s: &mut ServerState, ctx: &mut Ctx<ServerState>, e: DecodeEntry, ckpt: CkptState) {
    let now = ctx.now();
    if e.q.attempt > MAX_RETRIES {
        s.shed(now, &e.q, ShedCause::RetriesExhausted);
        return;
    }
    // Decode must run where the weights are: follow the instance if it
    // came back resident elsewhere during the backoff.
    let Some(g2) = s.home_gpu(e.q.instance) else {
        s.shed(now, &e.q, ShedCause::NoCapacity);
        return;
    };
    let mut stream_bytes = ckpt.bytes;
    if s.instances[e.q.instance].residency == Residency::NotResident {
        match place_cold(s, now, g2, e.q.instance) {
            // Cold weights ride the same replay stream as the KV.
            Some(bytes) => stream_bytes += bytes,
            None => {
                // Cache full of busy instances: fall back to the
                // ordinary re-prefill retry path, which waits for a
                // drain instead of spinning here.
                drop_ckpt(s, e.q.req);
                requeue(s, ctx, e.q);
                return;
            }
        }
    }
    note_retry(s, now, &e.q, g2);
    s.instances[e.q.instance].active += 1;
    s.instances[e.q.instance].last_used = now;
    stream_kv(s, ctx, g2, stream_bytes as f64, move |s, ctx| {
        finish_restore(s, ctx, g2, e, ckpt)
    });
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
        s.instances[e.q.instance].active -= 1;
        recover_session(s, ctx, g, e);
        return;
    }
    s.mark_loaded(e.q.instance, g);
    let entry = DecodeEntry {
        prefill_done: now,
        tokens_done: ckpt.tokens.max(1),
        ..e
    };
    s.report.sessions_restored += 1;
    let crashed = s
        .resilience
        .as_mut()
        .and_then(|r| r.crashed_at.remove(&e.q.req));
    let t0 = crashed.unwrap_or(now);
    s.report.recovery_restore_ttft.push((now - t0).as_ms_f64());
    s.probe.emit(
        now,
        ProbeEvent::SessionRestored {
            req: e.q.req,
            gpu: g,
            tokens: entry.tokens_done,
            bytes: ckpt.bytes,
        },
    );
    decode::rejoin(s, ctx, g, entry);
}
