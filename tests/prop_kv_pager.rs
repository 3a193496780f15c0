//! Property tests for the paged KV-cache allocator: across arbitrary
//! alloc / touch / spill / recall / abort histories, no page is ever
//! leaked or double-freed, the device- and host-pool occupancy counters
//! and per-request page counts always equal ground truth, the LRU spill
//! victim is never a page touched in the current token step, and the
//! victims come out in exact least-recently-touched order. A bulk
//! `alloc_pages` leaves the pager exactly as the same number of serial
//! `try_alloc` calls would, down to its run records. Each other bulk
//! move (LRU spill, one request's spill, a recall of a request's first
//! host pages, forced recall from the host ranges read before its own
//! evictions) moves the same pages in the same order as the
//! page-at-a-time calls it replaces, run on a clone, and leaves every
//! page with the same home, stamp and step. Request ids span the whole
//! `u64` range, not only dense trace indices, so the pager's request
//! index sees 0, `u64::MAX` and sparse large ids.
//!
//! The pager is driven against an independent shadow model (a plain
//! map of live pages, stamped by its own clock on every alloc, touch and
//! recall) so every invariant is checked against state the pager itself
//! cannot have computed.

use std::collections::{BTreeMap, BTreeSet};

use model_serving::kvcache::{KvPager, PageHome};
use proptest::prelude::*;

const GPUS: usize = 2;
/// Each history draws this many request ids; ops name a request by its
/// index among them.
const REQS: usize = 6;

/// Request ids: 0, `u64::MAX`, small dense ids, powers of two and ids
/// drawn from the whole range.
fn arb_req_id() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        0u64..8,
        (0u32..64).prop_map(|k| 1u64 << k),
        any::<u64>(),
    ]
}

/// One step of a random pager history.
#[derive(Debug, Clone)]
enum Op {
    /// Allocate a fresh page for `req` on `gpu` in the current step.
    Alloc { req: usize, gpu: usize },
    /// Allocate up to `n` pages for `req` on `gpu` in one call.
    AllocPages { req: usize, gpu: usize, n: u64 },
    /// Spill the LRU victim of `gpu`, if any.
    Spill { gpu: usize },
    /// Batched victim selection + spill of up to `k` pages.
    BatchSpill { gpu: usize, k: usize },
    /// Recall the `nth` host-resident page (mod population) to `gpu`.
    Recall { gpu: usize, nth: usize },
    /// Bulk LRU spill of up to `k` pages of `gpu`.
    SpillLru { gpu: usize, k: u64 },
    /// Bulk spill of `req`'s pages on `gpu` (a session swap-out).
    SpillRequest { req: usize, gpu: usize },
    /// Bulk recall of `req`'s first `n` host pages to `gpu`.
    RecallFirst { req: usize, gpu: usize, n: u64 },
    /// Forced recall: read `req`'s host ranges, LRU-spill `k` pages of
    /// `gpu`, then recall up to `n` pages of those ranges to `gpu`.
    ForcedRecall {
        req: usize,
        gpu: usize,
        k: u64,
        n: u64,
    },
    /// Touch the `nth` page of `req` in the current step.
    Touch { req: usize, nth: usize },
    /// Abort/complete `req`: free all its pages.
    Free { req: usize },
    /// Advance to the next token step.
    Step,
}

fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (0..REQS, 0usize..GPUS).prop_map(|(req, gpu)| Op::Alloc { req, gpu }),
            (0..REQS, 0usize..GPUS, 0u64..7).prop_map(|(req, gpu, n)| Op::AllocPages {
                req,
                gpu,
                n
            }),
            (0usize..GPUS).prop_map(|gpu| Op::Spill { gpu }),
            (0usize..GPUS, 0usize..5).prop_map(|(gpu, k)| Op::BatchSpill { gpu, k }),
            (0usize..GPUS, 0usize..8).prop_map(|(gpu, nth)| Op::Recall { gpu, nth }),
            (0usize..GPUS, 0u64..6).prop_map(|(gpu, k)| Op::SpillLru { gpu, k }),
            (0..REQS, 0usize..GPUS).prop_map(|(req, gpu)| Op::SpillRequest { req, gpu }),
            (0..REQS, 0usize..GPUS, 0u64..7).prop_map(|(req, gpu, n)| Op::RecallFirst {
                req,
                gpu,
                n
            }),
            (0..REQS, 0usize..GPUS, 0u64..6, 0u64..7)
                .prop_map(|(req, gpu, k, n)| Op::ForcedRecall { req, gpu, k, n }),
            (0..REQS, 0usize..8).prop_map(|(req, nth)| Op::Touch { req, nth }),
            (0..REQS).prop_map(|req| Op::Free { req }),
            Just(Op::Step),
        ],
        1..150,
    )
}

/// Ground truth the pager never sees: live pages by id, plus which
/// pages were touched (written, allocated or recalled) this step.
#[derive(Default)]
struct Shadow {
    live: BTreeMap<usize, (u64, PageHome)>,
    touched_this_step: BTreeSet<usize>,
    /// Last-access stamp of every live page, from `clock`.
    stamps: BTreeMap<usize, u64>,
    clock: u64,
    allocs: u64,
    frees: u64,
}

impl Shadow {
    fn occupancy(&self, home: PageHome) -> u64 {
        self.live.values().filter(|&&(_, h)| h == home).count() as u64
    }

    /// Records an access to `id` (alloc, touch or recall) in this step.
    fn access(&mut self, id: usize) {
        self.clock += 1;
        self.stamps.insert(id, self.clock);
        self.touched_this_step.insert(id);
    }

    /// Pages of `req` whose home is `home`.
    fn owned(&self, req: u64, home: PageHome) -> u64 {
        self.live
            .values()
            .filter(|&&(o, h)| o == req && h == home)
            .count() as u64
    }

    /// Records a fresh page of `req` on `gpu`.
    fn alloc(&mut self, id: usize, req: u64, gpu: usize) {
        assert!(
            !self.live.contains_key(&id),
            "page {id} double-allocated while live"
        );
        self.live.insert(id, (req, PageHome::Gpu(gpu)));
        self.access(id);
        self.allocs += 1;
    }

    fn check(&self, p: &KvPager, step: u64, reqs: &[u64]) {
        // The whole victim order: every page resident on `g` and not
        // touched this step, least recently accessed first, cut to the
        // host pool's room.
        let room = (p.host_cap_pages() - p.host_used_pages()) as usize;
        for g in 0..GPUS {
            let mut eligible: Vec<(u64, usize)> = self
                .live
                .iter()
                .filter(|(id, &(_, h))| {
                    h == PageHome::Gpu(g) && !self.touched_this_step.contains(id)
                })
                .map(|(&id, _)| (self.stamps[&id], id))
                .collect();
            eligible.sort_unstable();
            let want: Vec<usize> = eligible.into_iter().take(room).map(|(_, id)| id).collect();
            assert_eq!(
                p.spill_victims(g, step, usize::MAX),
                want,
                "gpu {g} victims left LRU order"
            );
        }
        for &req in reqs {
            assert_eq!(p.host_pages_of(req), self.owned(req, PageHome::Host));
            for g in 0..GPUS {
                assert_eq!(p.gpu_pages_of(req, g), self.owned(req, PageHome::Gpu(g)));
            }
        }
        assert_eq!(p.live_pages(), self.live.len());
        for g in 0..GPUS {
            assert_eq!(
                p.gpu_used_pages(g),
                self.occupancy(PageHome::Gpu(g)),
                "gpu {g} occupancy diverged from ground truth"
            );
            assert!(
                p.gpu_used_pages(g) <= p.gpu_cap_pages(g),
                "gpu {g} over cap"
            );
        }
        assert_eq!(
            p.host_used_pages(),
            self.occupancy(PageHome::Host),
            "host occupancy diverged from ground truth"
        );
        assert!(p.host_used_pages() <= p.host_cap_pages(), "host over cap");
        assert_eq!(p.live_pages() as u64, self.allocs - self.frees, "page leak");
        assert_eq!(p.allocs, self.allocs);
        assert_eq!(p.frees, self.frees);
    }
}

fn spill_one(p: &mut KvPager, shadow: &mut Shadow, step: u64, gpu: usize, victim: usize) {
    // The LRU victim is the pager's own idea of a live page.
    assert!(p.page(victim).unwrap().touch_step != step);
    assert!(p.spill(victim));
    note_lru_spill(shadow, gpu, victim);
}

/// Records an LRU spill of `victim` from `gpu`: never a page touched in
/// the current step, always one resident on `gpu`.
fn note_lru_spill(shadow: &mut Shadow, gpu: usize, victim: usize) {
    assert!(
        !shadow.touched_this_step.contains(&victim),
        "victim {victim} was touched in the current step"
    );
    let (_, home) = shadow.live[&victim];
    assert_eq!(home, PageHome::Gpu(gpu), "victim not resident on gpu {gpu}");
    shadow.live.get_mut(&victim).unwrap().1 = PageHome::Host;
}

/// Records a recall of host page `id` to `gpu`: an access.
fn note_recall(shadow: &mut Shadow, gpu: usize, id: usize) {
    let home = &mut shadow.live.get_mut(&id).unwrap().1;
    assert_eq!(
        *home,
        PageHome::Host,
        "recalled page {id} was not on the host"
    );
    *home = PageHome::Gpu(gpu);
    shadow.access(id);
}

/// `n` rounds of LRU victim selection and spill on `gpu`, one page at a
/// time; returns each victim with its owner.
fn spill_serially(p: &mut KvPager, gpu: usize, step: u64, n: u64) -> Vec<(u64, usize)> {
    let mut spilled = Vec::new();
    for _ in 0..n {
        let Some(v) = p.spill_victim(gpu, step) else {
            break;
        };
        spilled.push((p.page(v).unwrap().owner, v));
        assert!(p.spill(v));
    }
    spilled
}

/// Recalls `pages` of `req` to `gpu` one at a time, in order, until `n`
/// landed or the device pool is full; returns them with their owner.
fn recall_serially(
    p: &mut KvPager,
    req: u64,
    gpu: usize,
    step: u64,
    pages: &[usize],
    n: u64,
) -> Vec<(u64, usize)> {
    let mut recalled = Vec::new();
    for &id in pages {
        if recalled.len() as u64 == n || !p.recall(id, gpu, step) {
            break;
        }
        recalled.push((req, id));
    }
    recalled
}

/// A bulk-move callback that records every page it is handed, with its
/// owner, in order.
fn collect(into: &mut Vec<(u64, usize)>) -> impl FnMut(u64, &[usize]) + '_ {
    |owner, pages| into.extend(pages.iter().map(|&id| (owner, id)))
}

/// `req`'s host-resident pages, in allocation order.
fn host_pages(p: &KvPager, req: u64) -> Vec<usize> {
    p.pages_of(req)
        .iter()
        .copied()
        .filter(|&id| p.page(id).unwrap().home == PageHome::Host)
        .collect()
}

/// Every live page reads the same (owner, home, stamp, step) in both
/// pagers, and the lifetime counters agree.
fn assert_same_pages(bulk: &KvPager, serial: &KvPager, shadow: &Shadow) {
    for &id in shadow.live.keys() {
        assert_eq!(
            format!("{:?}", bulk.page(id)),
            format!("{:?}", serial.page(id)),
            "page {id} differs after a bulk move"
        );
    }
    assert_eq!(
        (bulk.spills, bulk.recalls, bulk.host_used_pages()),
        (serial.spills, serial.recalls, serial.host_used_pages())
    );
}

proptest! {
    #[test]
    fn random_histories_never_leak_and_counters_match_ground_truth(
        reqs in prop::collection::vec(arb_req_id(), REQS),
        ops in arb_ops(),
    ) {
        // 4 device pages per GPU and 6 host pages, 1 KiB each — small
        // enough that random histories hit every full-pool edge.
        let mut p = KvPager::new(1024, GPUS, 4 * 1024, 6 * 1024);
        let mut shadow = Shadow::default();
        let mut step = 1u64;
        for op in ops {
            match op {
                Op::Alloc { req, gpu } => {
                    let req = reqs[req];
                    let full = p.gpu_used_pages(gpu) >= p.gpu_cap_pages(gpu);
                    match p.try_alloc(req, gpu, step) {
                        Some(id) => {
                            prop_assert!(!full, "alloc succeeded on a full pool");
                            shadow.alloc(id, req, gpu);
                        }
                        None => prop_assert!(full, "alloc failed with free room"),
                    }
                }
                Op::AllocPages { req, gpu, n } => {
                    // One bulk call must equal `n` serial `try_alloc`
                    // calls that stop at the first failure: same page
                    // ids, and the same whole pager state after, which
                    // covers the LRU links, stamps and counters.
                    let req = reqs[req];
                    let mut serial = p.clone();
                    let mut expect = Vec::new();
                    for _ in 0..n {
                        let Some(id) = serial.try_alloc(req, gpu, step) else {
                            break;
                        };
                        expect.push(id);
                    }
                    let room = p.gpu_cap_pages(gpu) - p.gpu_used_pages(gpu);
                    let before = p.pages_of(req).len();
                    let got = p.alloc_pages(req, gpu, step, n);
                    prop_assert_eq!(got, n.min(room), "bulk alloc missed the pool cap");
                    prop_assert_eq!(&p.pages_of(req)[before..], &expect[..]);
                    prop_assert_eq!(format!("{p:?}"), format!("{serial:?}"));
                    for id in expect {
                        shadow.alloc(id, req, gpu);
                    }
                }
                Op::Spill { gpu } => {
                    if let Some(v) = p.spill_victim(gpu, step) {
                        spill_one(&mut p, &mut shadow, step, gpu, v);
                    } else {
                        // No victim: every resident page is hot, or the
                        // host pool is full.
                        let host_full = p.host_used_pages() >= p.host_cap_pages();
                        let all_hot = shadow
                            .live
                            .iter()
                            .filter(|(_, &(_, h))| h == PageHome::Gpu(gpu))
                            .all(|(id, _)| shadow.touched_this_step.contains(id));
                        prop_assert!(host_full || all_hot);
                    }
                }
                Op::BatchSpill { gpu, k } => {
                    // The batched selection must equal k rounds of
                    // single-victim selection, then actually spill.
                    let batched = p.spill_victims(gpu, step, k);
                    let mut serial = p.clone();
                    let mut expect = Vec::new();
                    for _ in 0..k {
                        let Some(v) = serial.spill_victim(gpu, step) else {
                            break;
                        };
                        serial.spill(v);
                        expect.push(v);
                    }
                    prop_assert_eq!(&batched, &expect);
                    for v in batched {
                        spill_one(&mut p, &mut shadow, step, gpu, v);
                    }
                }
                Op::Recall { gpu, nth } => {
                    let host: Vec<usize> = shadow
                        .live
                        .iter()
                        .filter(|(_, &(_, h))| h == PageHome::Host)
                        .map(|(&id, _)| id)
                        .collect();
                    if host.is_empty() {
                        continue;
                    }
                    let id = host[nth % host.len()];
                    let full = p.gpu_used_pages(gpu) >= p.gpu_cap_pages(gpu);
                    if p.recall(id, gpu, step) {
                        prop_assert!(!full, "recall succeeded into a full pool");
                        shadow.live.get_mut(&id).unwrap().1 = PageHome::Gpu(gpu);
                        // A recall is an access: pinned for this step.
                        shadow.access(id);
                    } else {
                        prop_assert!(full, "recall failed with free room");
                    }
                }
                Op::SpillLru { gpu, k } => {
                    let mut serial = p.clone();
                    let expect = spill_serially(&mut serial, gpu, step, k);
                    let mut moved = Vec::new();
                    let got = p.spill_lru(gpu, step, k, collect(&mut moved));
                    prop_assert_eq!(&moved, &expect, "LRU spill moved other pages");
                    prop_assert_eq!(got, moved.len() as u64);
                    for &(_, v) in &moved {
                        note_lru_spill(&mut shadow, gpu, v);
                    }
                    assert_same_pages(&p, &serial, &shadow);
                }
                Op::SpillRequest { req, gpu } => {
                    // A swap-out spills every page of the request on the
                    // GPU, hot or not, in allocation order.
                    let req = reqs[req];
                    let mut serial = p.clone();
                    let mut expect = Vec::new();
                    for id in serial.pages_of(req).to_vec() {
                        if serial.page(id).unwrap().home == PageHome::Gpu(gpu) && serial.spill(id) {
                            expect.push((req, id));
                        }
                    }
                    let mut moved = Vec::new();
                    let got = p.spill_request(req, gpu, collect(&mut moved));
                    prop_assert_eq!(&moved, &expect, "swap-out moved other pages");
                    prop_assert_eq!(got, moved.len() as u64);
                    for &(_, id) in &moved {
                        let home = &mut shadow.live.get_mut(&id).unwrap().1;
                        prop_assert_eq!(*home, PageHome::Gpu(gpu));
                        *home = PageHome::Host;
                    }
                    assert_same_pages(&p, &serial, &shadow);
                }
                Op::RecallFirst { req, gpu, n } => {
                    let req = reqs[req];
                    let mut serial = p.clone();
                    let host = host_pages(&serial, req);
                    let expect = recall_serially(&mut serial, req, gpu, step, &host, n);
                    let mut moved = Vec::new();
                    let got = p.recall_first(req, gpu, step, n, collect(&mut moved));
                    prop_assert_eq!(&moved, &expect, "recall moved other pages");
                    prop_assert_eq!(got, moved.len() as u64);
                    for &(_, id) in &moved {
                        note_recall(&mut shadow, gpu, id);
                    }
                    assert_same_pages(&p, &serial, &shadow);
                }
                Op::ForcedRecall { req, gpu, k, n } => {
                    // The recall set is the host pages read before the
                    // eviction round, which may spill the request's own
                    // pages: those stay on the host.
                    let req = reqs[req];
                    let mut serial = p.clone();
                    let host = host_pages(&serial, req);
                    let spilled = spill_serially(&mut serial, gpu, step, k);
                    let recalled = recall_serially(&mut serial, req, gpu, step, &host, n);
                    let spans = p.host_spans(req);
                    let span_pages: Vec<usize> = spans
                        .iter()
                        .flat_map(|r| p.pages_of(req)[r.clone()].to_vec())
                        .collect();
                    prop_assert_eq!(&span_pages, &host, "host spans missed host pages");
                    let (mut out, mut back) = (Vec::new(), Vec::new());
                    p.spill_lru(gpu, step, k, collect(&mut out));
                    let got = p.recall_spans(req, gpu, step, &spans, n, collect(&mut back));
                    prop_assert_eq!(&out, &spilled, "eviction moved other pages");
                    prop_assert_eq!(&back, &recalled, "forced recall moved other pages");
                    prop_assert_eq!(got, back.len() as u64);
                    for &(_, v) in &out {
                        note_lru_spill(&mut shadow, gpu, v);
                    }
                    for &(_, id) in &back {
                        note_recall(&mut shadow, gpu, id);
                    }
                    assert_same_pages(&p, &serial, &shadow);
                }
                Op::Touch { req, nth } => {
                    let pages = p.pages_of(reqs[req]).to_vec();
                    if pages.is_empty() {
                        continue;
                    }
                    let id = pages[nth % pages.len()];
                    p.touch(id, step);
                    shadow.access(id);
                }
                Op::Free { req } => {
                    let req = reqs[req];
                    let owned: Vec<usize> = shadow
                        .live
                        .iter()
                        .filter(|(_, &(owner, _))| owner == req)
                        .map(|(&id, _)| id)
                        .collect();
                    let freed = p.free_request(req);
                    prop_assert_eq!(
                        freed.gpu + freed.host,
                        owned.len() as u64,
                        "free must release exactly the owned pages"
                    );
                    for id in &owned {
                        prop_assert!(p.page(*id).is_none(), "freed page still live");
                        shadow.live.remove(id);
                        shadow.stamps.remove(id);
                        shadow.touched_this_step.remove(id);
                    }
                    shadow.frees += owned.len() as u64;
                    // Double-free is a no-op.
                    let again = p.free_request(req);
                    prop_assert_eq!(again.gpu + again.host, 0, "double-free released pages");
                }
                Op::Step => {
                    step += 1;
                    shadow.touched_this_step.clear();
                }
            }
            shadow.check(&p, step, &reqs);
        }
        // Drain everything: a fully freed pager reports empty.
        for &req in &reqs {
            let freed = p.free_request(req);
            shadow.frees += freed.gpu + freed.host;
        }
        prop_assert!(p.is_empty(), "pages leaked after freeing every request");
        prop_assert_eq!(p.allocs, p.frees);
    }
}
