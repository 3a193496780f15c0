//! Paged KV-cache allocator for autoregressive decode.
//!
//! The decode path stores each request's attention KV tensors in
//! fixed-size *pages*. Pages live in a per-GPU device pool while hot and
//! are spilled to a pinned-host pool under memory pressure, travelling
//! over the same PCIe flow network as weight loads. Spilled pages are
//! either *recalled* (copied back, like a weight load) or read in place
//! via direct-host-access — the per-page analogue of the paper's
//! load-vs-DHA layer decision.
//!
//! [`KvPager`] is deliberately a pure data structure: it never touches
//! the simulator. The serving layer decides *when* to spill/recall and
//! starts the corresponding flows; the pager only tracks page homes and
//! occupancy, which keeps it directly property-testable (no leaked or
//! double-freed page across arbitrary histories, counters always equal
//! ground truth, LRU victims never touched in the current token step).
//!
//! Every operation keeps the state a decode step reads up to date, so no
//! query scans the slab. Device-resident pages form one doubly-linked
//! LRU list per GPU, threaded through the slab with `u32` links: an
//! allocation, a recall or a touch moves the page to the tail, a spill or
//! a free unlinks it. Every stamp comes from one monotonic clock, so each
//! list is ordered by last touch. Each request has a record of its pages
//! in allocation order and of how many of them are host-resident, which
//! every spill and recall adjusts in O(1); a hash index over request ids
//! finds it. Freed slots form a stack threaded through the same links.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Index of a page in the pager's slab. Stable for the page's lifetime.
pub type PageId = usize;

/// Where a page's bytes currently live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageHome {
    /// Device pool of the given GPU.
    Gpu(usize),
    /// Pinned-host spill pool.
    Host,
}

/// One KV page.
#[derive(Debug, Clone, Copy)]
pub struct KvPage {
    /// Request id owning the page.
    pub owner: u64,
    /// Current residency.
    pub home: PageHome,
    /// Monotonic stamp of the last touch (write/append), for LRU.
    pub last_touch: u64,
    /// Token step id of the last touch; the spill policy never victimises
    /// a page touched in the step currently executing.
    pub touch_step: u64,
}

/// Pages freed by [`KvPager::free_request`], split by residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FreedPages {
    /// Pages that were GPU-resident.
    pub gpu: u64,
    /// Pages that were host-resident.
    pub host: u64,
}

/// Link value meaning "no slot".
const NIL: u32 = u32::MAX;
/// [`Slot::home`] of a host-resident page.
const HOST: u32 = u32::MAX - 1;
/// [`Slot::home`] of a free slot.
const FREE: u32 = u32::MAX;

/// One slab slot: a live page, or a free slot when `home == FREE`.
#[derive(Debug, Clone, Copy)]
struct Slot {
    owner: u64,
    last_touch: u64,
    touch_step: u64,
    /// GPU index, [`HOST`] or [`FREE`].
    home: u32,
    /// Neighbours in the home GPU's LRU list; host-resident pages are in
    /// no list, and a free slot's `next` is the next free slot.
    prev: u32,
    next: u32,
    /// Index of the owner's record in [`KvPager::reqs`].
    req: u32,
}

/// One request's pages in allocation order (tail = newest) and how many
/// of them are host-resident.
#[derive(Debug, Clone, Default)]
struct ReqPages {
    pages: Vec<PageId>,
    host: u64,
}

/// Hashes a request id with one 64×64→128-bit multiply by a fixed odd
/// constant, folding the high half into the low. Fixed, so the index and
/// everything derived from it repeat exactly from run to run; folded, so
/// both the low bits (bucket) and the top bits (tag) of the hash depend
/// on every bit of the id, dense trace indices and sparse ids alike.
#[derive(Default)]
struct ReqHasher(u64);

impl Hasher for ReqHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the request index hashes only u64 ids");
    }

    fn write_u64(&mut self, id: u64) {
        let p = u128::from(id) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Ends of one GPU's LRU list: `head` is the least recently touched.
#[derive(Debug, Clone, Copy)]
struct Lru {
    head: u32,
    tail: u32,
}

/// Paged KV-cache allocator: per-GPU device pools plus one pinned-host
/// spill pool, all in units of fixed-size pages.
#[derive(Debug, Clone)]
pub struct KvPager {
    page_bytes: u64,
    gpu_cap: Vec<u64>,
    gpu_used: Vec<u64>,
    host_cap: u64,
    host_used: u64,
    /// Page slab; freed slots are reused last-freed first.
    slots: Vec<Slot>,
    /// Top of the free-slot stack.
    free_top: u32,
    /// Per-GPU LRU lists of device-resident pages.
    lru: Vec<Lru>,
    /// Live pages across all pools.
    live: usize,
    /// Per-request records, indexed through `by_req`; `free_reqs` holds
    /// the unused indices.
    reqs: Vec<ReqPages>,
    free_reqs: Vec<u32>,
    by_req: HashMap<u64, u32, BuildHasherDefault<ReqHasher>>,
    touch_clock: u64,
    /// Lifetime op counters (monotonic; for reports and tests).
    pub allocs: u64,
    /// Pages spilled GPU→host over the pager's lifetime.
    pub spills: u64,
    /// Pages recalled host→GPU over the pager's lifetime.
    pub recalls: u64,
    /// Pages freed over the pager's lifetime
    /// (always `frees_gpu + frees_host`).
    pub frees: u64,
    /// Pages freed while device-resident over the pager's lifetime.
    pub frees_gpu: u64,
    /// Pages freed while host-resident (spilled) over the pager's
    /// lifetime. Splitting the frees by the page's home at free time
    /// keeps the lifetime ledger reconcilable even when a batch dies
    /// mid-spill: `allocs == frees_gpu + frees_host` once drained, with
    /// no page counted under both homes.
    pub frees_host: u64,
}

impl KvPager {
    /// Builds a pager with `gpus` device pools of `gpu_pool_bytes` each
    /// and a `host_pool_bytes` pinned spill pool. Capacities round down
    /// to whole pages.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes == 0` or `gpus` does not fit a `u32` home.
    pub fn new(page_bytes: u64, gpus: usize, gpu_pool_bytes: u64, host_pool_bytes: u64) -> Self {
        assert!(page_bytes > 0, "page size must be positive");
        assert!(gpus < HOST as usize, "GPU index must fit a slot's home");
        KvPager {
            page_bytes,
            gpu_cap: vec![gpu_pool_bytes / page_bytes; gpus],
            gpu_used: vec![0; gpus],
            host_cap: host_pool_bytes / page_bytes,
            host_used: 0,
            slots: Vec::new(),
            free_top: NIL,
            lru: vec![
                Lru {
                    head: NIL,
                    tail: NIL
                };
                gpus
            ],
            live: 0,
            reqs: Vec::new(),
            free_reqs: Vec::new(),
            by_req: HashMap::default(),
            touch_clock: 0,
            allocs: 0,
            spills: 0,
            recalls: 0,
            frees: 0,
            frees_gpu: 0,
            frees_host: 0,
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Pages needed for `bytes` of KV (ceiling division).
    pub fn pages_for(&self, bytes: u64) -> u64 {
        bytes.div_ceil(self.page_bytes)
    }

    fn stamp(&mut self) -> u64 {
        self.touch_clock += 1;
        self.touch_clock
    }

    /// Appends slot `id` to the tail of `gpu`'s LRU list.
    fn link_tail(&mut self, id: u32, gpu: usize) {
        let tail = self.lru[gpu].tail;
        let slot = &mut self.slots[id as usize];
        slot.prev = tail;
        slot.next = NIL;
        match tail {
            NIL => self.lru[gpu].head = id,
            t => self.slots[t as usize].next = id,
        }
        self.lru[gpu].tail = id;
    }

    /// Removes slot `id` from `gpu`'s LRU list.
    fn unlink(&mut self, id: u32, gpu: usize) {
        let Slot { prev, next, .. } = self.slots[id as usize];
        match prev {
            NIL => self.lru[gpu].head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.lru[gpu].tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// The live slot behind `page`, if any.
    fn live_slot(&self, page: PageId) -> Option<&Slot> {
        self.slots.get(page).filter(|s| s.home != FREE)
    }

    /// Allocates a fresh GPU-resident page for `req` on `gpu`, touched in
    /// `step`. Fails (returns `None`) when the device pool is full — the
    /// caller must spill a victim first.
    pub fn try_alloc(&mut self, req: u64, gpu: usize, step: u64) -> Option<PageId> {
        // A new page joins the tail of its GPU's LRU list.
        (self.alloc_pages(req, gpu, step, 1) == 1).then(|| self.lru[gpu].tail as PageId)
    }

    /// Allocates up to `n` fresh GPU-resident pages for `req` on `gpu`,
    /// touched in `step`, stopping when the device pool is full. Returns
    /// how many it allocated; they are the tail of [`KvPager::pages_of`].
    /// Equivalent to `n` [`KvPager::try_alloc`] calls that stop at the
    /// first failure, with one index lookup.
    pub fn alloc_pages(&mut self, req: u64, gpu: usize, step: u64, n: u64) -> u64 {
        let n = n.min(self.gpu_free_pages(gpu));
        if n == 0 {
            return 0;
        }
        let rec = *self.by_req.entry(req).or_insert_with(|| {
            self.free_reqs.pop().unwrap_or_else(|| {
                self.reqs.push(ReqPages::default());
                u32::try_from(self.reqs.len() - 1).expect("request records fit u32 ids")
            })
        });
        for _ in 0..n {
            let last_touch = self.stamp();
            let slot = Slot {
                owner: req,
                last_touch,
                touch_step: step,
                home: gpu as u32,
                prev: NIL,
                next: NIL,
                req: rec,
            };
            let id = match self.free_top {
                NIL => {
                    let id = u32::try_from(self.slots.len())
                        .ok()
                        .filter(|&id| id < NIL)
                        .expect("KV slab fits u32 ids");
                    self.slots.push(slot);
                    id
                }
                id => {
                    self.free_top = self.slots[id as usize].next;
                    self.slots[id as usize] = slot;
                    id
                }
            };
            self.link_tail(id, gpu);
            self.reqs[rec as usize].pages.push(id as PageId);
        }
        self.gpu_used[gpu] += n;
        self.live += n as usize;
        self.allocs += n;
        n
    }

    /// Marks `page` as touched in `step` (its owner appended to it).
    pub fn touch(&mut self, page: PageId, step: u64) {
        let clock = self.stamp();
        let Some(&Slot { home, .. }) = self.live_slot(page) else {
            return;
        };
        let slot = &mut self.slots[page];
        slot.last_touch = clock;
        slot.touch_step = step;
        if home != HOST {
            self.unlink(page as u32, home as usize);
            self.link_tail(page as u32, home as usize);
        }
    }

    /// The LRU spill candidate on `gpu`: the GPU-resident page with the
    /// oldest touch that was *not* touched in the current `step` (pages
    /// being written this step are pinned). `None` when every resident
    /// page is hot or the host pool is full.
    pub fn spill_victim(&self, gpu: usize, step: u64) -> Option<PageId> {
        self.spill_victims(gpu, step, 1).pop()
    }

    /// Up to `k` LRU spill candidates on `gpu`, the batched form of
    /// [`KvPager::spill_victim`]. Returns the `k` GPU-resident pages with
    /// the oldest touches that were not touched in `step`, in eviction
    /// order (oldest first), capped by the host pool's remaining room.
    /// Calling [`KvPager::spill`] on each returned page in order is
    /// equivalent to `k` alternating `spill_victim`/`spill` rounds.
    ///
    /// Walks `gpu`'s LRU list from the head, so the cost is the pages
    /// returned plus the pages touched in `step` that it skips.
    pub fn spill_victims(&self, gpu: usize, step: u64, k: usize) -> Vec<PageId> {
        let room = usize::try_from(self.host_cap.saturating_sub(self.host_used)).unwrap_or(0);
        let head = Some(self.lru[gpu].head).filter(|&id| id != NIL);
        std::iter::successors(head, |&id| {
            Some(self.slots[id as usize].next).filter(|&n| n != NIL)
        })
        .filter(|&id| self.slots[id as usize].touch_step != step)
        .take(k.min(room))
        .map(|id| id as PageId)
        .collect()
    }

    /// Free pages remaining in `gpu`'s device pool.
    pub fn gpu_free_pages(&self, gpu: usize) -> u64 {
        self.gpu_cap[gpu] - self.gpu_used[gpu]
    }

    /// Moves a GPU-resident page to the host pool. Returns `false` (and
    /// changes nothing) if the page is unknown, already host-resident, or
    /// the host pool is full.
    pub fn spill(&mut self, page: PageId) -> bool {
        if self.host_used >= self.host_cap {
            return false;
        }
        let Some(&Slot { home, req, .. }) = self.live_slot(page) else {
            return false;
        };
        if home == HOST {
            return false;
        }
        self.unlink(page as u32, home as usize);
        self.slots[page].home = HOST;
        self.gpu_used[home as usize] -= 1;
        self.host_used += 1;
        self.reqs[req as usize].host += 1;
        self.spills += 1;
        true
    }

    /// Moves a host-resident page back to `gpu`'s pool for use in token
    /// step `step`. A recall is an access: the page's LRU recency is
    /// refreshed and it is pinned against eviction for the rest of the
    /// step (recalling and re-spilling the same page within one step
    /// would be pure churn). Returns `false` (and changes nothing) if
    /// the page is unknown, not host-resident, or the device pool is
    /// full.
    pub fn recall(&mut self, page: PageId, gpu: usize, step: u64) -> bool {
        if self.gpu_used[gpu] >= self.gpu_cap[gpu] {
            return false;
        }
        let Some(&Slot {
            home: HOST, req, ..
        }) = self.live_slot(page)
        else {
            return false;
        };
        let last_touch = self.stamp();
        let slot = &mut self.slots[page];
        slot.home = gpu as u32;
        slot.last_touch = last_touch;
        slot.touch_step = step;
        self.link_tail(page as u32, gpu);
        self.host_used -= 1;
        self.gpu_used[gpu] += 1;
        self.reqs[req as usize].host -= 1;
        self.recalls += 1;
        true
    }

    /// Frees every page of `req` (completion or abort), returning the
    /// counts by residency. Idempotent: a second call frees nothing.
    pub fn free_request(&mut self, req: u64) -> FreedPages {
        let mut freed = FreedPages::default();
        let Some(rec) = self.by_req.remove(&req) else {
            return freed;
        };
        let ReqPages { pages, .. } = std::mem::take(&mut self.reqs[rec as usize]);
        self.free_reqs.push(rec);
        for id in pages {
            match self.slots[id].home {
                HOST => {
                    self.host_used -= 1;
                    freed.host += 1;
                    self.frees_host += 1;
                }
                g => {
                    self.unlink(id as u32, g as usize);
                    self.gpu_used[g as usize] -= 1;
                    freed.gpu += 1;
                    self.frees_gpu += 1;
                }
            }
            let slot = &mut self.slots[id];
            slot.home = FREE;
            slot.next = self.free_top;
            self.free_top = id as u32;
            self.live -= 1;
            self.frees += 1;
        }
        freed
    }

    /// A copy of one live page.
    pub fn page(&self, id: PageId) -> Option<KvPage> {
        self.live_slot(id).map(|s| KvPage {
            owner: s.owner,
            home: match s.home {
                HOST => PageHome::Host,
                g => PageHome::Gpu(g as usize),
            },
            last_touch: s.last_touch,
            touch_step: s.touch_step,
        })
    }

    /// Page ids of `req` in allocation order (empty slice if unknown).
    pub fn pages_of(&self, req: u64) -> &[PageId] {
        self.by_req
            .get(&req)
            .map_or(&[], |&rec| &self.reqs[rec as usize].pages)
    }

    /// Number of `req`'s pages currently host-resident.
    pub fn host_pages_of(&self, req: u64) -> u64 {
        self.by_req
            .get(&req)
            .map_or(0, |&rec| self.reqs[rec as usize].host)
    }

    /// Number of `req`'s pages currently on `gpu`.
    pub fn gpu_pages_of(&self, req: u64, gpu: usize) -> u64 {
        self.pages_of(req)
            .iter()
            .filter(|&&id| self.slots[id].home == gpu as u32)
            .count() as u64
    }

    /// Pages used in `gpu`'s device pool.
    pub fn gpu_used_pages(&self, gpu: usize) -> u64 {
        self.gpu_used[gpu]
    }

    /// Capacity of `gpu`'s device pool, in pages.
    pub fn gpu_cap_pages(&self, gpu: usize) -> u64 {
        self.gpu_cap[gpu]
    }

    /// Pages used in the pinned-host pool.
    pub fn host_used_pages(&self) -> u64 {
        self.host_used
    }

    /// Capacity of the pinned-host pool, in pages.
    pub fn host_cap_pages(&self) -> u64 {
        self.host_cap
    }

    /// Bytes used in `gpu`'s device pool.
    pub fn gpu_used_bytes(&self, gpu: usize) -> u64 {
        self.gpu_used[gpu] * self.page_bytes
    }

    /// Total live pages across all pools.
    pub fn live_pages(&self) -> usize {
        self.live
    }

    /// Whether no page is live anywhere (all requests fully freed).
    pub fn is_empty(&self) -> bool {
        self.live_pages() == 0 && self.host_used == 0 && self.gpu_used.iter().all(|&u| u == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pager() -> KvPager {
        // 4 pages per GPU, 8 host pages, 1 KiB pages.
        KvPager::new(1024, 2, 4 * 1024, 8 * 1024)
    }

    #[test]
    fn alloc_fills_pool_then_fails() {
        let mut p = pager();
        for i in 0..4 {
            assert!(p.try_alloc(7, 0, 1).is_some(), "alloc {i}");
        }
        assert_eq!(p.try_alloc(7, 0, 1), None);
        assert_eq!(p.gpu_used_pages(0), 4);
        assert_eq!(p.gpu_used_pages(1), 0);
        assert_eq!(p.pages_of(7).len(), 4);
    }

    #[test]
    fn spill_recall_roundtrip_preserves_ownership() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        let b = p.try_alloc(2, 0, 2).unwrap();
        // Victim in step 2 must be `a` (b was touched this step).
        assert_eq!(p.spill_victim(0, 2), Some(a));
        assert!(p.spill(a));
        assert_eq!(p.host_used_pages(), 1);
        assert_eq!(p.host_pages_of(1), 1);
        assert!(p.recall(a, 1, 3));
        assert_eq!(p.page(a).unwrap().home, PageHome::Gpu(1));
        assert_eq!(p.page(a).unwrap().owner, 1);
        assert_eq!(p.host_used_pages(), 0);
        // The recall counts as a step-3 touch: `a` is pinned for step 3.
        assert_eq!(p.spill_victim(1, 3), None);
        let _ = b;
    }

    #[test]
    fn batched_victims_match_one_at_a_time_selection() {
        let mut p = KvPager::new(1024, 1, 16 * 1024, 16 * 1024);
        for req in 0..6u64 {
            p.try_alloc(req, 0, req).unwrap();
        }
        p.touch(p.pages_of(1)[0], 9); // Hot in step 9: never a victim.
        let batched = p.spill_victims(0, 9, 3);
        let mut serial = p.clone();
        let mut expect = Vec::new();
        for _ in 0..3 {
            let v = serial.spill_victim(0, 9).unwrap();
            serial.spill(v);
            expect.push(v);
        }
        assert_eq!(batched, expect);
        assert_eq!(
            batched,
            vec![p.pages_of(0)[0], p.pages_of(2)[0], p.pages_of(3)[0]]
        );
        // Capped by host room: a 2-page host pool yields 2 victims.
        let tight = KvPager::new(1024, 1, 16 * 1024, 2 * 1024);
        let mut tight = {
            let mut t = tight;
            for req in 0..4u64 {
                t.try_alloc(req, 0, req).unwrap();
            }
            t
        };
        assert_eq!(tight.spill_victims(0, 9, 4).len(), 2);
        // Asking for more than is eligible returns only the eligible.
        tight.touch(tight.pages_of(2)[0], 9);
        tight.touch(tight.pages_of(3)[0], 9);
        let got = tight.spill_victims(0, 9, 4);
        assert_eq!(got, vec![tight.pages_of(0)[0], tight.pages_of(1)[0]]);
    }

    #[test]
    fn victim_skips_pages_touched_this_step() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        let _b = p.try_alloc(2, 0, 1).unwrap();
        // Everything touched in step 1 → no victim within step 1.
        assert_eq!(p.spill_victim(0, 1), None);
        p.touch(a, 3);
        // In step 3, `a` is hot; b (older touch) is the victim.
        assert_eq!(p.spill_victim(0, 3), Some(_b));
    }

    #[test]
    fn free_request_is_idempotent_and_splits_by_home() {
        let mut p = pager();
        let a = p.try_alloc(9, 0, 1).unwrap();
        let _b = p.try_alloc(9, 0, 1).unwrap();
        assert!(p.spill(a));
        let freed = p.free_request(9);
        assert_eq!(freed, FreedPages { gpu: 1, host: 1 });
        assert_eq!(p.free_request(9), FreedPages::default());
        assert!(p.is_empty());
        // Lifetime ledger reconciles by home: a page spilled before its
        // request died counts once, as a host free, never under both.
        assert_eq!(p.frees_gpu, 1);
        assert_eq!(p.frees_host, 1);
        assert_eq!(p.frees, p.frees_gpu + p.frees_host);
        assert_eq!(p.allocs, p.frees_gpu + p.frees_host);
    }

    #[test]
    fn slab_reuses_freed_slots_deterministically() {
        let mut p = pager();
        let a = p.try_alloc(1, 0, 1).unwrap();
        p.free_request(1);
        let b = p.try_alloc(2, 0, 2).unwrap();
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(p.page(b).unwrap().owner, 2);
    }

    #[test]
    fn spill_respects_host_capacity() {
        let mut p = KvPager::new(1024, 1, 4 * 1024, 1024); // 1 host page.
        let a = p.try_alloc(1, 0, 1).unwrap();
        let b = p.try_alloc(1, 0, 1).unwrap();
        assert!(p.spill(a));
        assert!(!p.spill(b), "host pool full");
        assert_eq!(p.spill_victim(0, 99), None, "no victim when host full");
        assert_eq!(p.host_used_pages(), 1);
    }

    #[test]
    fn pages_for_rounds_up() {
        let p = pager();
        assert_eq!(p.pages_for(0), 0);
        assert_eq!(p.pages_for(1), 1);
        assert_eq!(p.pages_for(1024), 1);
        assert_eq!(p.pages_for(1025), 2);
    }

    #[test]
    fn slab_slot_fits_in_40_bytes() {
        // `decode-chaos` reaches ~80k slab slots, so every byte a slot
        // gains costs ~80 KB of resident memory on the workload whose
        // `peak_rss_mib` the benchmark bounds at 0.25 over the parent.
        // A 56-byte slot raised that workload from 9.78 to 11.05 MiB.
        assert!(std::mem::size_of::<Slot>() <= 40);
    }
}
