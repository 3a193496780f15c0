//! Property tests for the paged KV-cache allocator: across arbitrary
//! alloc / touch / spill / recall / abort histories, no page is ever
//! leaked or double-freed, the device- and host-pool occupancy counters
//! and per-request page counts always equal ground truth, the LRU spill
//! victim is never a page touched in the current token step, and the
//! victims come out in exact least-recently-touched order. A bulk
//! `alloc_pages` leaves the pager exactly as the same number of serial
//! `try_alloc` calls would. Request ids span the whole `u64` range, not
//! only dense trace indices, so the pager's request index sees 0,
//! `u64::MAX` and sparse large ids.
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
    // The LRU victim is never a page touched in the current step, is
    // GPU-resident, and is the pager's own idea of a live page.
    assert!(
        !shadow.touched_this_step.contains(&victim),
        "victim {victim} was touched in the current step"
    );
    let (_, home) = shadow.live[&victim];
    assert_eq!(home, PageHome::Gpu(gpu), "victim not resident on gpu {gpu}");
    assert!(p.page(victim).unwrap().touch_step != step);
    assert!(p.spill(victim));
    shadow.live.get_mut(&victim).unwrap().1 = PageHome::Host;
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
