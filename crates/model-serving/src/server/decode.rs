//! Autoregressive decode: per-GPU continuous batches over the paged KV
//! cache. A prefill joins its GPU's batch at the next token boundary;
//! each token step grows every session's KV, places its host-resident
//! pages (recall or direct-host-access) and prices the step with the
//! decode roofline.

use exec_engine::decode::{abort_decode, begin_decode, start_token_step, StepSpec};
use exec_engine::hw::DecodeRef;
use exec_planner::kvplan::{choose_kv, KvPlacement};
use simcore::probe::{Probe, ProbeEvent};
use simcore::sim::Ctx;
use simcore::time::{SimDur, SimTime};

use super::dispatch::{release_gpu, try_dispatch};
use super::{resilience, Queued, ServerState};
use crate::config::{DecodePolicy, KvMode};
use crate::kvcache::{KvPager, PageHome, PageId};
use crate::metrics::ServingReport;

/// One request streaming tokens in a GPU's continuous batch. The prefill
/// (one-shot inference) produced the first token; each subsequent token
/// comes from a batch-wide token step.
#[derive(Clone, Copy)]
pub(super) struct DecodeEntry {
    /// The request; its `output_tokens` is the session's target length.
    pub(super) q: Queued,
    pub(super) dispatched: SimTime,
    /// When the prefill finished (= first-token time).
    pub(super) prefill_done: SimTime,
    /// Tokens produced so far (prefill counts as the first).
    pub(super) tokens_done: u64,
    /// Whether the prefill ran cold (for completion accounting).
    pub(super) cold: bool,
}

impl DecodeEntry {
    /// Output tokens the session ends at.
    pub(super) fn target(&self) -> u64 {
        u64::from(self.q.output_tokens)
    }

    /// Tokens whose KV the session holds: its prompt and its output so far.
    pub(super) fn context(&self) -> u64 {
        u64::from(self.q.prompt_tokens) + self.tokens_done
    }
}

/// Per-GPU continuous batch: requests join at token boundaries as their
/// prefills finish and leave as they hit their target length. At most
/// one token step is in flight per GPU, and prefills alternate with
/// steps (`busy` excludes steps; `stepping` excludes dispatches).
#[derive(Default)]
pub(super) struct DecodeBatch {
    pub(super) entries: Vec<DecodeEntry>,
    /// A token step is in flight.
    pub(super) stepping: bool,
    /// Monotonic step counter (this GPU), also the pager's touch step.
    step_id: u64,
    /// Live engine decode process, one per GPU with a non-empty batch.
    run: Option<DecodeRef>,
}

/// Decode state; exists only when the decode policy is on.
pub(super) struct DecodeState {
    /// Per-GPU continuous batches.
    pub(super) batches: Vec<DecodeBatch>,
    /// Paged KV allocator.
    pub(super) pager: KvPager,
}

impl DecodeState {
    pub(super) fn new(p: &DecodePolicy, n_gpus: usize) -> Self {
        DecodeState {
            batches: (0..n_gpus).map(|_| DecodeBatch::default()).collect(),
            pager: KvPager::new(p.page_bytes, n_gpus, p.gpu_pool_bytes, p.host_pool_bytes),
        }
    }

    /// Whether any session is decoding.
    pub(super) fn active(&self) -> bool {
        self.batches.iter().any(|b| !b.entries.is_empty())
    }

    /// Copies the pager's own tallies into the report at the end of a run.
    pub(super) fn close_books(&self, report: &mut ServingReport) {
        report.kv_live_pages_at_end = self.pager.live_pages() as u64;
        report.kv_allocs = self.pager.allocs;
        report.kv_frees_gpu = self.pager.frees_gpu;
        report.kv_frees_host = self.pager.frees_host;
    }
}

/// The KV pager as one GPU's token boundary sees it, with the books its
/// page moves are counted and published in.
pub(super) struct Kv<'a> {
    pub(super) pager: &'a mut KvPager,
    pub(super) report: &'a mut ServingReport,
    pub(super) probe: &'a Probe,
    pub(super) now: SimTime,
    pub(super) g: usize,
}

impl Kv<'_> {
    /// Spills `page` from the GPU to the pinned-host pool and emits its
    /// spill event. Returns `false`, spilling nothing, when the page is
    /// not device-resident or the host pool is full.
    pub(super) fn spill(&mut self, page: PageId) -> bool {
        let owner = self.pager.page(page).map(|p| p.owner);
        if !self.pager.spill(page) {
            return false;
        }
        self.report.kv_spills += 1;
        self.probe.emit(
            self.now,
            ProbeEvent::KvPageSpill {
                req: owner.expect("a spilled page is live"),
                gpu: self.g,
                page,
            },
        );
        true
    }

    /// Spills the `k` least recently touched pages on the GPU that were
    /// not touched in `step` (fewer if the host pool fills), returning
    /// them.
    fn spill_lru(&mut self, step: u64, k: u64) -> Vec<PageId> {
        let victims = self
            .pager
            .spill_victims(self.g, step, usize::try_from(k).unwrap_or(0));
        for &victim in &victims {
            let spilled = self.spill(victim);
            debug_assert!(spilled, "victims are device-resident and fit the host pool");
        }
        victims
    }
}

/// A prefill finished and its request joins GPU `g`'s continuous batch.
/// The instance's `active` count stays elevated until the decode
/// completes, pinning it (and therefore its weights) while its KV lives.
pub(super) fn join(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize, e: DecodeEntry) {
    release_gpu(s, g, e.q.instance);
    if e.q.arrival >= s.measure_from {
        s.report
            .ttft
            .push((e.prefill_done - e.q.arrival).as_ms_f64());
    }
    resilience::note_reprefill(s, &e);
    rejoin(s, ctx, g, e);
}

/// Adds `e` to GPU `g`'s batch at the next token boundary.
pub(super) fn rejoin(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize, e: DecodeEntry) {
    if let Some(dec) = &mut s.decode {
        dec.batches[g].entries.push(e);
    }
    pump(s, ctx, g);
}

/// Drives GPU `g`'s decode loop: admit prefills into the batch at the
/// token boundary (continuous batching — joins happen between steps,
/// never mid-step), then run the next token step. No-op while a prefill
/// or step is in flight; their completions re-enter the pump.
pub(super) fn pump(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let Some(dec) = &s.decode else {
        return;
    };
    if s.busy[g] || dec.batches[g].stepping || !s.gpu_up.is_up(g) {
        return;
    }
    resilience::maybe_swap(s, ctx, g);
    let batch_len = s.decode.as_ref().map_or(0, |d| d.batches[g].entries.len());
    if !s.queues[g].is_empty() && batch_len < s.cfg.decode.max_batch {
        try_dispatch(s, ctx, g);
        if s.busy[g] {
            return; // Prefill in flight; it joins at the next boundary.
        }
    }
    start_step(s, ctx, g);
}

/// Launches one token step on GPU `g` if its batch is non-empty: grows
/// each entry's paged KV by its newly appended token (spilling LRU pages
/// to pinned host memory when the device pool fills), places every
/// host-resident page — recall over PCIe or zero-copy DHA — per the
/// configured [`KvMode`], and prices the step with the decode roofline.
fn start_step(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let Some(dec) = &mut s.decode else {
        return;
    };
    let batch = &mut dec.batches[g];
    if batch.entries.is_empty() {
        return;
    }
    let step_id = batch.step_id + 1;
    batch.step_id = step_id;
    batch.stepping = true;
    let page_bytes = s.cfg.decode.page_bytes;
    let kv_mode = s.cfg.decode.kv_mode;
    let mut kv = Kv {
        pager: &mut dec.pager,
        report: &mut s.report,
        probe: &s.probe,
        now: ctx.now(),
        g,
    };
    let decoder = |e: &DecodeEntry| {
        s.kinds[s.instances[e.q.instance].kind]
            .decode
            .expect("batch entries are decoder kinds")
    };
    // Phase 1: grow KV footprints. The pager never victimises a page
    // touched this step; a full host pool surfaces as an allocation
    // failure (the step proceeds and only under-counts its bytes).
    for e in &batch.entries {
        let needed = decoder(e).kv_bytes(e.context());
        let want = kv
            .pager
            .pages_for(needed)
            .saturating_sub(kv.pager.pages_of(e.q.req).len() as u64);
        let deficit = want.saturating_sub(kv.pager.gpu_free_pages(g));
        kv.spill_lru(step_id, deficit);
        let got = kv.pager.alloc_pages(e.q.req, g, step_id, want);
        if got < want {
            // Pool full and every resident page pinned (or the host
            // pool is full): the step proceeds under-counting bytes.
            kv.report.kv_alloc_failures += 1;
        }
        let pages = kv.pager.pages_of(e.q.req);
        for &page in &pages[pages.len() - got as usize..] {
            kv.probe.emit(
                kv.now,
                ProbeEvent::KvPageAlloc {
                    req: e.q.req,
                    gpu: g,
                    page,
                },
            );
        }
        // The step appends to the tail page: mark it hot so the spill
        // policy cannot victimise it mid-step.
        if let Some(&tail) = pages.last() {
            kv.pager.touch(tail, step_id);
        }
    }
    // The step's HBM-read set is fixed here, after growth and before
    // placement: pages resident now are priced at device bandwidth,
    // pages host-resident now are priced on the wire (recall or DHA)
    // below. Phase-2 evictions shuffle homes but never re-price a page.
    let resident_kv = kv.pager.gpu_used_bytes(g);
    // Phase 2: place host-resident pages. The per-page load-vs-DHA
    // decision mirrors the planner's layer rule: recall when the page's
    // remaining accesses amortise the copy, DHA when it is wire-bound.
    let gpu_spec = s.cfg.machine.gpu(g);
    let mut dha_pages = 0u64;
    let mut recall_transfers = 0u64;
    for e in &batch.entries {
        // The entry's wire set is its host-resident pages now, before
        // its own evictions below: a page they spill was priced as
        // resident.
        let host = kv.pager.host_pages_of(e.q.req);
        if host == 0 {
            continue;
        }
        let remaining = (e.target() - e.tokens_done) as f64;
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
            let deficit = host.saturating_sub(kv.pager.gpu_free_pages(g));
            kv.spill_lru(step_id, deficit)
        } else {
            Vec::new()
        };
        // Recalls land in allocation order while the device pool has
        // room; the remaining pages are read in place over PCIe,
        // overlapped with compute.
        let recalls = match place {
            KvPlacement::Recall => host.min(kv.pager.gpu_free_pages(g)),
            KvPlacement::Dha => 0,
        };
        let mut at = 0;
        for _ in 0..recalls {
            let pager = &kv.pager;
            let (skip, p) = pager.pages_of(e.q.req)[at..]
                .iter()
                .copied()
                .enumerate()
                .find(|&(_, p)| {
                    pager.page(p).map(|pg| pg.home) == Some(PageHome::Host) && !evicted.contains(&p)
                })
                .expect("every recall that can land has a host page");
            at += skip + 1;
            let recalled = kv.pager.recall(p, g, step_id);
            debug_assert!(recalled, "a host page recalls into free room");
            kv.report.kv_recalls += 1;
            kv.probe.emit(
                kv.now,
                ProbeEvent::KvPageRecall {
                    req: e.q.req,
                    gpu: g,
                    page: p,
                },
            );
        }
        recall_transfers += recalls;
        dha_pages += host - recalls;
        kv.report.kv_dha_reads += host - recalls;
    }
    // Phase 3: price the device side. Weights are read once per distinct
    // kind in the batch, device-resident KV once, all at HBM bandwidth;
    // announced slowdowns and silent gray faults stretch it exactly as
    // they stretch one-shot execution.
    let mut kinds_seen: Vec<usize> = Vec::new();
    let mut weight_bytes = 0u64;
    for e in &batch.entries {
        let kind = s.instances[e.q.instance].kind;
        if !kinds_seen.contains(&kind) {
            kinds_seen.push(kind);
            weight_bytes += decoder(e).weight_bytes;
        }
    }
    let scale = s.slowdown * s.silent_gpu_factor[g];
    let compute =
        SimDur::from_secs_f64((weight_bytes + resident_kv) as f64 / gpu_spec.mem_bw * scale);
    // Integer page counts times the page size are exact in f64 (far
    // below 2^53), equal to summing the bytes page by page.
    let spec = StepSpec {
        step: step_id,
        batch: batch.entries.len(),
        compute,
        dha_bytes: (dha_pages * page_bytes) as f64,
        moved_bytes: (recall_transfers * page_bytes) as f64,
        recall_transfers,
    };
    let live = batch.run;
    let run = live.unwrap_or_else(|| {
        let run = begin_decode(s, g);
        if let Some(dec) = &mut s.decode {
            dec.batches[g].run = Some(run);
        }
        run
    });
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
    let Some(dec) = &mut s.decode else {
        return;
    };
    let batch = &mut dec.batches[g];
    if batch.step_id != step_id || !batch.stepping {
        return; // Stale: the batch was torn down under this step.
    }
    batch.stepping = false;
    for e in batch.entries.iter_mut() {
        e.tokens_done += 1;
    }
    resilience::truncate_overdue(s, ctx.now(), g);
    finish_sessions(s, ctx, g);
    resilience::maybe_checkpoint(s, ctx, g);
    pump(s, ctx, g);
}

/// Sessions of GPU `g`'s batch that reached their target complete and
/// leave in join order; an emptied batch ends its engine decode process.
fn finish_sessions(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let Some(dec) = &mut s.decode else {
        return;
    };
    let now = ctx.now();
    let batch = &mut dec.batches[g];
    let mut finished: Vec<DecodeEntry> = Vec::new();
    batch.entries.retain(|e| {
        if e.tokens_done >= e.target() {
            finished.push(*e);
            false
        } else {
            true
        }
    });
    for e in finished {
        let req = e.q.req;
        s.probe.emit(
            now,
            ProbeEvent::RequestCompleted {
                req,
                instance: e.q.instance,
                gpu: g,
                cold: e.cold,
                latency_ns: (now - e.q.arrival).as_nanos(),
                queue_wait_ns: (e.dispatched - e.q.arrival).as_nanos(),
            },
        );
        let steps = (e.target() - 1).max(1);
        let tpot_ns = (now - e.prefill_done).as_nanos() / steps;
        s.probe.emit(
            now,
            ProbeEvent::DecodeFinished {
                req,
                gpu: g,
                tokens: e.target(),
                ttft_ns: (e.prefill_done - e.q.arrival).as_nanos(),
                tpot_ns,
            },
        );
        dec.pager.free_request(req);
        let inst = &mut s.instances[e.q.instance];
        inst.active -= 1;
        inst.last_used = now;
        if e.q.arrival >= s.measure_from {
            s.report.record(now, now - e.q.arrival, e.cold);
            s.report.tpot.push(tpot_ns as f64 / 1e6);
            s.report.decode_completed += 1;
            s.report.tokens_generated += e.target();
        }
        if let Some(r) = &mut s.resilience {
            r.forget(req);
        }
    }
    let ended = batch.entries.is_empty().then(|| batch.run.take());
    if let Some(r) = ended.flatten() {
        abort_decode(s, ctx, r);
    }
}

/// GPU `g` died: tear down its continuous batch. The in-flight step's
/// timers and flows land as no-ops through the decode generation guard,
/// all of its KV pages (device *and* spilled) are freed, and every
/// session recovers on a survivor ([`resilience::recover_session`]).
pub(super) fn abort_batch(s: &mut ServerState, ctx: &mut Ctx<ServerState>, g: usize) {
    let Some(dec) = &mut s.decode else {
        return;
    };
    let batch = &mut dec.batches[g];
    batch.stepping = false;
    let run = batch.run.take();
    let entries = std::mem::take(&mut batch.entries);
    for e in &entries {
        dec.pager.free_request(e.q.req);
    }
    if let Some(r) = run {
        abort_decode(s, ctx, r);
    }
    if let Some(r) = &mut s.resilience {
        r.gpu_lost(g);
    }
    for e in entries {
        s.instances[e.q.instance].active -= 1;
        s.report.aborted_runs += 1;
        resilience::recover_session(s, ctx, g, e);
    }
}
