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
//! Pages are kept in *runs*. A run is a span of one request's pages that
//! are consecutive in its allocation order, share one home (a GPU or the
//! host) and one touch step, and carry consecutive touch stamps. Every
//! stamp comes from one monotonic clock and every move that restamps a
//! page puts it at the tail of its GPU's LRU order, so the pages of a
//! run are also consecutive in that order: each GPU's LRU list links
//! runs, not pages. Each request keeps its runs in page order in a list
//! of its own. Neighbouring runs that could be one always are, so the
//! layout is a function of the pages' homes, steps and stamps alone.
//!
//! The decode path moves pages in bulk: an entry's growth, the `k` least
//! recently touched pages of a GPU ([`KvPager::spill_lru`]), one
//! request's pages on one GPU ([`KvPager::spill_request`]), a request's
//! first host pages ([`KvPager::recall_first`], [`KvPager::recall_spans`])
//! and a whole request on free. Each is a walk over runs that splits at
//! most the runs at its two ends, and its counters move once per run.
//! The page-at-a-time calls ([`KvPager::try_alloc`], [`KvPager::spill`],
//! [`KvPager::recall`], [`KvPager::touch`]) are the one-page case of the
//! same moves. A slot records only its owner's record and its index in
//! the owner's allocation order; freed slots form a stack, reused last
//! freed first, so every page id is the one the page-at-a-time pager
//! hands out.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Range;

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

/// Link value meaning "no run", and [`Slot::req`] of a free slot.
const NIL: u32 = u32::MAX;
/// [`Run::home`] of a host-resident run.
const HOST: u32 = u32::MAX;

/// One slab slot: a live page, or a free slot when `req == NIL`, whose
/// `idx` is then the next free slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    /// Index of the owner's record in [`KvPager::reqs`].
    req: u32,
    /// The page's index in its owner's allocation order.
    idx: u32,
}

/// A span of one request's pages: consecutive in its allocation order,
/// one home, one touch step, consecutive touch stamps.
#[derive(Debug, Clone, Copy)]
struct Run {
    /// Stamp of the first page; page `start + i` carries `stamp + i`.
    stamp: u64,
    /// Token step of the pages' last touch.
    step: u64,
    /// Index of the owner's record in [`KvPager::reqs`].
    req: u32,
    /// Index of the first page in the owner's allocation order.
    start: u32,
    len: u32,
    /// GPU index, or [`HOST`].
    home: u32,
    /// Neighbours in the home GPU's LRU list; host runs are in no list,
    /// and a free record's `next` is the next free record.
    prev: u32,
    next: u32,
    /// Neighbours in the owner's page order.
    left: u32,
    right: u32,
}

impl Run {
    /// One past the index of the last page.
    fn end(&self) -> u32 {
        self.start + self.len
    }

    /// Whether `next`, the run after this one in page order, could be
    /// one run with it.
    fn joins(&self, next: &Run) -> bool {
        self.home == next.home
            && self.step == next.step
            && self.stamp + u64::from(self.len) == next.stamp
    }
}

/// One request's pages in allocation order (tail = newest), how many of
/// them are host-resident, and the ends of its run list.
#[derive(Debug, Clone)]
struct ReqPages {
    id: u64,
    pages: Vec<PageId>,
    host: u64,
    first: u32,
    last: u32,
}

impl Default for ReqPages {
    fn default() -> Self {
        ReqPages {
            id: 0,
            pages: Vec::new(),
            host: 0,
            first: NIL,
            last: NIL,
        }
    }
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

/// Ends of one GPU's LRU list of runs: `head` is the least recently
/// touched.
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
    free_slot: u32,
    /// Run records; freed records form a stack through `next`.
    runs: Vec<Run>,
    free_run: u32,
    /// Per-GPU LRU lists of device-resident runs.
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
        assert!(gpus < HOST as usize, "GPU index must fit a run's home");
        KvPager {
            page_bytes,
            gpu_cap: vec![gpu_pool_bytes / page_bytes; gpus],
            gpu_used: vec![0; gpus],
            host_cap: host_pool_bytes / page_bytes,
            host_used: 0,
            slots: Vec::new(),
            free_slot: NIL,
            runs: Vec::new(),
            free_run: NIL,
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

    /// Stores `run` in a free record (or a new one) and returns its index.
    fn new_run(&mut self, run: Run) -> u32 {
        match self.free_run {
            NIL => {
                let id = u32::try_from(self.runs.len())
                    .ok()
                    .filter(|&id| id < NIL)
                    .expect("KV runs fit u32 ids");
                self.runs.push(run);
                id
            }
            id => {
                self.free_run = self.runs[id as usize].next;
                self.runs[id as usize] = run;
                id
            }
        }
    }

    fn drop_run(&mut self, id: u32) {
        self.runs[id as usize].next = self.free_run;
        self.free_run = id;
    }

    /// Appends run `id` to the tail of `gpu`'s LRU list.
    fn link_tail(&mut self, id: u32, gpu: usize) {
        let tail = self.lru[gpu].tail;
        let run = &mut self.runs[id as usize];
        run.prev = tail;
        run.next = NIL;
        match tail {
            NIL => self.lru[gpu].head = id,
            t => self.runs[t as usize].next = id,
        }
        self.lru[gpu].tail = id;
    }

    /// Removes run `id` from `gpu`'s LRU list.
    fn unlink(&mut self, id: u32, gpu: usize) {
        let Run { prev, next, .. } = self.runs[id as usize];
        match prev {
            NIL => self.lru[gpu].head = next,
            p => self.runs[p as usize].next = next,
        }
        match next {
            NIL => self.lru[gpu].tail = prev,
            n => self.runs[n as usize].prev = prev,
        }
    }

    /// Splits run `id` before page index `at`, strictly inside it, and
    /// returns the new run holding `at..`. It follows `id` in the owner's
    /// page order and, on a GPU, in the LRU list.
    fn split(&mut self, id: u32, at: u32) -> u32 {
        let run = self.runs[id as usize];
        let head = at - run.start;
        debug_assert!(0 < head && head < run.len, "split inside the run");
        let on_gpu = run.home != HOST;
        let tail = self.new_run(Run {
            stamp: run.stamp + u64::from(head),
            start: at,
            len: run.len - head,
            prev: if on_gpu { id } else { NIL },
            next: if on_gpu { run.next } else { NIL },
            left: id,
            right: run.right,
            ..run
        });
        let first = &mut self.runs[id as usize];
        first.len = head;
        first.right = tail;
        match run.right {
            NIL => self.reqs[run.req as usize].last = tail,
            r => self.runs[r as usize].left = tail,
        }
        if on_gpu {
            self.runs[id as usize].next = tail;
            match run.next {
                NIL => self.lru[run.home as usize].tail = tail,
                n => self.runs[n as usize].prev = tail,
            }
        }
        tail
    }

    /// Narrows run `id` to the pages `a..b` inside it, splitting off the
    /// rest, and returns the run holding exactly `a..b`.
    fn isolate(&mut self, id: u32, a: u32, b: u32) -> u32 {
        let run = self.runs[id as usize];
        let id = if a > run.start { self.split(id, a) } else { id };
        if b < run.end() {
            self.split(id, b);
        }
        id
    }

    /// Merges run `id` with its neighbours in page order where they could
    /// be one run, returning the run that now holds its pages.
    fn merge_around(&mut self, mut id: u32) -> u32 {
        let left = self.runs[id as usize].left;
        if left != NIL && self.runs[left as usize].joins(&self.runs[id as usize]) {
            self.absorb(left, id);
            id = left;
        }
        let right = self.runs[id as usize].right;
        if right != NIL && self.runs[id as usize].joins(&self.runs[right as usize]) {
            self.absorb(id, right);
        }
        id
    }

    /// Appends run `b` to run `a`, which it follows in page order and, on
    /// a GPU, in the LRU list (consecutive stamps leave no page between).
    fn absorb(&mut self, a: u32, b: u32) {
        let run = self.runs[b as usize];
        self.runs[a as usize].len += run.len;
        self.runs[a as usize].right = run.right;
        match run.right {
            NIL => self.reqs[run.req as usize].last = a,
            r => self.runs[r as usize].left = a,
        }
        if run.home != HOST {
            self.unlink(b, run.home as usize);
        }
        self.drop_run(b);
    }

    /// The run of record `rec` holding page index `idx`, searched from
    /// the nearer end of its page order.
    fn run_of(&self, rec: u32, idx: u32) -> u32 {
        let r = &self.reqs[rec as usize];
        if (idx as usize) < r.pages.len() / 2 {
            let mut id = r.first;
            while self.runs[id as usize].end() <= idx {
                id = self.runs[id as usize].right;
            }
            id
        } else {
            let mut id = r.last;
            while self.runs[id as usize].start > idx {
                id = self.runs[id as usize].left;
            }
            id
        }
    }

    /// Moves the first `take` pages of GPU run `id` to the host pool,
    /// hands them to `each` with their owner, and returns the run that
    /// now holds them.
    fn spill_head(&mut self, id: u32, take: u32, each: &mut impl FnMut(u64, &[PageId])) -> u32 {
        let run = self.runs[id as usize];
        if take < run.len {
            self.split(id, run.start + take);
        }
        self.unlink(id, run.home as usize);
        self.runs[id as usize].home = HOST;
        let n = u64::from(take);
        self.gpu_used[run.home as usize] -= n;
        self.host_used += n;
        self.reqs[run.req as usize].host += n;
        self.spills += n;
        let r = &self.reqs[run.req as usize];
        each(
            r.id,
            &r.pages[run.start as usize..(run.start + take) as usize],
        );
        self.merge_around(id)
    }

    /// Moves the first `take` pages of host run `id` to `gpu`, restamped
    /// in page order and touched in `step`, hands them to `each` with
    /// their owner, and returns the run that now holds them.
    fn recall_head(
        &mut self,
        id: u32,
        take: u32,
        gpu: usize,
        step: u64,
        each: &mut impl FnMut(u64, &[PageId]),
    ) -> u32 {
        let run = self.runs[id as usize];
        if take < run.len {
            self.split(id, run.start + take);
        }
        let moved = &mut self.runs[id as usize];
        moved.home = gpu as u32;
        moved.stamp = self.touch_clock + 1;
        moved.step = step;
        let n = u64::from(take);
        self.touch_clock += n;
        self.link_tail(id, gpu);
        self.host_used -= n;
        self.gpu_used[gpu] += n;
        self.reqs[run.req as usize].host -= n;
        self.recalls += n;
        let r = &self.reqs[run.req as usize];
        each(
            r.id,
            &r.pages[run.start as usize..(run.start + take) as usize],
        );
        self.merge_around(id)
    }

    /// The live slot behind `page`, if any.
    fn live_slot(&self, page: PageId) -> Option<Slot> {
        self.slots.get(page).copied().filter(|s| s.req != NIL)
    }

    /// Allocates a fresh GPU-resident page for `req` on `gpu`, touched in
    /// `step`. Fails (returns `None`) when the device pool is full — the
    /// caller must spill a victim first.
    pub fn try_alloc(&mut self, req: u64, gpu: usize, step: u64) -> Option<PageId> {
        self.alloc(req, gpu, step, 1).first().copied()
    }

    /// Allocates up to `n` fresh GPU-resident pages for `req` on `gpu`,
    /// touched in `step`, stopping when the device pool is full. Returns
    /// how many it allocated; they are the tail of [`KvPager::pages_of`].
    /// Equivalent to `n` [`KvPager::try_alloc`] calls that stop at the
    /// first failure, with one index lookup.
    pub fn alloc_pages(&mut self, req: u64, gpu: usize, step: u64, n: u64) -> u64 {
        self.alloc(req, gpu, step, n).len() as u64
    }

    /// [`KvPager::alloc_pages`], returning the new pages.
    fn alloc(&mut self, req: u64, gpu: usize, step: u64, n: u64) -> &[PageId] {
        let n = n.min(self.gpu_free_pages(gpu));
        if n == 0 {
            return &[];
        }
        let rec = *self.by_req.entry(req).or_insert_with(|| {
            let fresh = ReqPages {
                id: req,
                ..ReqPages::default()
            };
            match self.free_reqs.pop() {
                Some(rec) => {
                    self.reqs[rec as usize] = fresh;
                    rec
                }
                None => {
                    self.reqs.push(fresh);
                    u32::try_from(self.reqs.len() - 1).expect("request records fit u32 ids")
                }
            }
        });
        let first = self.reqs[rec as usize].pages.len();
        let end = u32::try_from(first as u64 + n).expect("a request's pages fit u32 indices");
        let start = end - n as u32;
        for idx in start..end {
            let slot = Slot { req: rec, idx };
            let id = match self.free_slot {
                NIL => {
                    let id = u32::try_from(self.slots.len())
                        .ok()
                        .filter(|&id| id < NIL)
                        .expect("KV slab fits u32 ids");
                    self.slots.push(slot);
                    id
                }
                id => {
                    self.free_slot = self.slots[id as usize].idx;
                    self.slots[id as usize] = slot;
                    id
                }
            };
            self.reqs[rec as usize].pages.push(id as PageId);
        }
        let run = Run {
            stamp: self.touch_clock + 1,
            step,
            req: rec,
            start,
            len: n as u32,
            home: gpu as u32,
            prev: NIL,
            next: NIL,
            left: self.reqs[rec as usize].last,
            right: NIL,
        };
        self.touch_clock += n;
        // The newest run holds the newest stamps, so a run the new pages
        // extend is already at the tail of the GPU's LRU list.
        match run.left {
            l if l != NIL && self.runs[l as usize].joins(&run) => {
                self.runs[l as usize].len += run.len
            }
            l => {
                let id = self.new_run(run);
                match l {
                    NIL => self.reqs[rec as usize].first = id,
                    l => self.runs[l as usize].right = id,
                }
                self.reqs[rec as usize].last = id;
                self.link_tail(id, gpu);
            }
        }
        self.gpu_used[gpu] += n;
        self.live += n as usize;
        self.allocs += n;
        // Every entry allocates every step, so a whole-layout check here
        // would dominate a debug run; check the run the pages joined.
        let r = &self.reqs[rec as usize];
        debug_assert!(
            self.runs[r.last as usize].end() as usize == r.pages.len()
                && self.lru[gpu].tail == r.last,
            "new pages end their request's last run, at their GPU's LRU tail"
        );
        &r.pages[first..]
    }

    /// Marks `page` as touched in `step` (its owner appended to it). A
    /// page that already holds the newest stamp, from `step`, is left as
    /// it is: restamping it would move no page in any LRU order, and the
    /// page allocated last keeps its place in its run.
    pub fn touch(&mut self, page: PageId, step: u64) {
        let Some(Slot { req, idx }) = self.live_slot(page) else {
            return;
        };
        let id = self.run_of(req, idx);
        let run = &self.runs[id as usize];
        if run.step == step && run.stamp + u64::from(idx - run.start) == self.touch_clock {
            return;
        }
        let clock = self.stamp();
        let id = self.isolate(id, idx, idx + 1);
        let run = &mut self.runs[id as usize];
        run.stamp = clock;
        run.step = step;
        if run.home != HOST {
            let gpu = run.home as usize;
            self.unlink(id, gpu);
            self.link_tail(id, gpu);
        }
        self.merge_around(id);
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
    /// order (oldest first), capped by the host pool's remaining room:
    /// the pages [`KvPager::spill_lru`] would spill, in its order.
    ///
    /// Walks `gpu`'s LRU list from the head, so the cost is the pages
    /// returned plus the runs touched in `step` that it skips.
    pub fn spill_victims(&self, gpu: usize, step: u64, k: usize) -> Vec<PageId> {
        let room = usize::try_from(self.host_cap - self.host_used).unwrap_or(usize::MAX);
        let mut left = k.min(room);
        let mut victims = Vec::new();
        let mut id = self.lru[gpu].head;
        while left > 0 && id != NIL {
            let run = &self.runs[id as usize];
            if run.step != step {
                let take = left.min(run.len as usize);
                let start = run.start as usize;
                victims.extend_from_slice(&self.reqs[run.req as usize].pages[start..start + take]);
                left -= take;
            }
            id = run.next;
        }
        victims
    }

    /// Spills the `k` least recently touched pages on `gpu` that were not
    /// touched in `step` (fewer when the host pool fills or fewer are
    /// eligible) and returns how many it spilled. Calls `each` with the
    /// owner and the pages of every run it moves, in eviction order.
    /// Equivalent to [`KvPager::spill`] on each page
    /// [`KvPager::spill_victims`] returns, in order.
    ///
    /// Costs the runs it moves plus the runs touched in `step` it skips.
    pub fn spill_lru(
        &mut self,
        gpu: usize,
        step: u64,
        k: u64,
        mut each: impl FnMut(u64, &[PageId]),
    ) -> u64 {
        let want = k.min(self.host_cap - self.host_used);
        let mut left = want;
        let mut id = self.lru[gpu].head;
        while left > 0 && id != NIL {
            let run = self.runs[id as usize];
            if run.step != step {
                // Only the last run taken can be cut: its tail stays
                // resident. Host runs are in no LRU list, so `run.next`
                // survives whatever the move merges.
                let take = left.min(u64::from(run.len)) as u32;
                self.spill_head(id, take, &mut each);
                left -= u64::from(take);
            }
            id = run.next;
        }
        if want > 0 {
            self.check_runs();
        }
        want - left
    }

    /// Spills `req`'s pages on `gpu` to the host pool in allocation order,
    /// stopping when the host pool fills, and returns how many it spilled
    /// (a session swap-out). Calls `each` with the owner and the pages of
    /// every run it moves. Equivalent to [`KvPager::spill`] on each of
    /// `req`'s pages on `gpu`, in allocation order.
    pub fn spill_request(
        &mut self,
        req: u64,
        gpu: usize,
        mut each: impl FnMut(u64, &[PageId]),
    ) -> u64 {
        let Some(&rec) = self.by_req.get(&req) else {
            return 0;
        };
        let mut spilled = 0;
        let mut id = self.reqs[rec as usize].first;
        while id != NIL && self.host_used < self.host_cap {
            let run = self.runs[id as usize];
            if run.home != gpu as u32 {
                id = run.right;
                continue;
            }
            let take = (self.host_cap - self.host_used).min(u64::from(run.len)) as u32;
            let moved = self.spill_head(id, take, &mut each);
            spilled += u64::from(take);
            id = self.runs[moved as usize].right;
        }
        if spilled > 0 {
            self.check_runs();
        }
        spilled
    }

    /// Recalls the first `n` host-resident pages of `req`, in allocation
    /// order, to `gpu` for step `step` (fewer when `req` has fewer or the
    /// device pool fills) and returns how many it recalled. Calls `each`
    /// with the owner and the pages of every run it moves. Equivalent to
    /// [`KvPager::recall`] on each of those pages in order: they take
    /// consecutive stamps, so they join into as few runs as their
    /// positions allow.
    pub fn recall_first(
        &mut self,
        req: u64,
        gpu: usize,
        step: u64,
        n: u64,
        each: impl FnMut(u64, &[PageId]),
    ) -> u64 {
        let all = 0..usize::MAX;
        self.recall_spans(req, gpu, step, std::slice::from_ref(&all), n, each)
    }

    /// `req`'s host-resident pages as ranges of indices in its allocation
    /// order (the positions [`KvPager::pages_of`] lists), first to last,
    /// with adjacent ranges joined.
    pub fn host_spans(&self, req: u64) -> Vec<Range<usize>> {
        let mut spans: Vec<Range<usize>> = Vec::new();
        let mut id = self
            .by_req
            .get(&req)
            .map_or(NIL, |&rec| self.reqs[rec as usize].first);
        while id != NIL {
            let run = &self.runs[id as usize];
            if run.home == HOST {
                let (a, b) = (run.start as usize, run.end() as usize);
                match spans.last_mut() {
                    Some(last) if last.end == a => last.end = b,
                    _ => spans.push(a..b),
                }
            }
            id = run.right;
        }
        spans
    }

    /// [`KvPager::recall_first`] over the pages at the allocation-order
    /// indices in `spans` only, first to last. Forced recall passes the
    /// spans [`KvPager::host_spans`] read before its own evictions, so
    /// the pages those evictions spill stay on the host.
    pub fn recall_spans(
        &mut self,
        req: u64,
        gpu: usize,
        step: u64,
        spans: &[Range<usize>],
        n: u64,
        mut each: impl FnMut(u64, &[PageId]),
    ) -> u64 {
        let Some(&rec) = self.by_req.get(&req) else {
            return 0;
        };
        let len = self.reqs[rec as usize].pages.len();
        let want = n
            .min(self.reqs[rec as usize].host)
            .min(self.gpu_free_pages(gpu));
        let mut left = want;
        for span in spans {
            // Both ends fit u32: `pages.len()` does.
            let (mut a, b) = (span.start.min(len) as u32, span.end.min(len) as u32);
            let mut id = if left > 0 && a < b {
                self.run_of(rec, a)
            } else {
                NIL
            };
            while left > 0 && a < b {
                let run = self.runs[id as usize];
                if run.home != HOST {
                    (a, id) = (run.end(), run.right);
                    continue;
                }
                if a > run.start {
                    id = self.split(id, a);
                }
                let take = (b.min(run.end()) - a).min(u32::try_from(left).unwrap_or(u32::MAX));
                let moved = self.recall_head(id, take, gpu, step, &mut each);
                id = self.runs[moved as usize].right;
                a += take;
                left -= u64::from(take);
            }
        }
        if left < want {
            self.check_runs();
        }
        want - left
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
        let Some(Slot { req, idx }) = self.live_slot(page) else {
            return false;
        };
        let id = self.run_of(req, idx);
        if self.runs[id as usize].home == HOST {
            return false;
        }
        let id = self.isolate(id, idx, idx + 1);
        self.spill_head(id, 1, &mut |_, _| {});
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
        let Some(Slot { req, idx }) = self.live_slot(page) else {
            return false;
        };
        let id = self.run_of(req, idx);
        if self.runs[id as usize].home != HOST {
            return false;
        }
        let id = self.isolate(id, idx, idx + 1);
        self.recall_head(id, 1, gpu, step, &mut |_, _| {});
        true
    }

    /// Frees every page of `req` (completion or abort), returning the
    /// counts by residency. Idempotent: a second call frees nothing.
    pub fn free_request(&mut self, req: u64) -> FreedPages {
        let mut freed = FreedPages::default();
        let Some(rec) = self.by_req.remove(&req) else {
            return freed;
        };
        let ReqPages { pages, first, .. } = std::mem::take(&mut self.reqs[rec as usize]);
        self.free_reqs.push(rec);
        let mut id = first;
        while id != NIL {
            let run = self.runs[id as usize];
            let n = u64::from(run.len);
            match run.home {
                HOST => {
                    self.host_used -= n;
                    freed.host += n;
                }
                g => {
                    self.unlink(id, g as usize);
                    self.gpu_used[g as usize] -= n;
                    freed.gpu += n;
                }
            }
            self.drop_run(id);
            id = run.right;
        }
        for &page in &pages {
            self.slots[page] = Slot {
                req: NIL,
                idx: self.free_slot,
            };
            self.free_slot = page as u32;
        }
        self.live -= pages.len();
        self.frees += pages.len() as u64;
        self.frees_gpu += freed.gpu;
        self.frees_host += freed.host;
        self.check_runs();
        freed
    }

    /// A copy of one live page.
    pub fn page(&self, id: PageId) -> Option<KvPage> {
        let Slot { req, idx } = self.live_slot(id)?;
        let run = &self.runs[self.run_of(req, idx) as usize];
        Some(KvPage {
            owner: self.reqs[req as usize].id,
            home: match run.home {
                HOST => PageHome::Host,
                g => PageHome::Gpu(g as usize),
            },
            last_touch: run.stamp + u64::from(idx - run.start),
            touch_step: run.step,
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
        let mut pages = 0;
        let mut id = self
            .by_req
            .get(&req)
            .map_or(NIL, |&rec| self.reqs[rec as usize].first);
        while id != NIL {
            let run = &self.runs[id as usize];
            if run.home == gpu as u32 {
                pages += u64::from(run.len);
            }
            id = run.right;
        }
        pages
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

    /// In debug builds, checks the run layout after a bulk move: each
    /// request's runs partition its pages in order, no two neighbours
    /// could be one run, and the run lengths sum to every pool's used
    /// count and to each request's host count; each GPU's LRU list holds
    /// its runs in stamp order.
    fn check_runs(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        let mut gpu = vec![0u64; self.gpu_used.len()];
        let mut host = 0;
        let mut live = 0;
        for &rec in self.by_req.values() {
            let r = &self.reqs[rec as usize];
            let (mut at, mut on_host, mut prev) = (0u32, 0u64, NIL);
            let mut id = r.first;
            while id != NIL {
                let run = &self.runs[id as usize];
                assert!(
                    run.req == rec && run.start == at && run.len > 0 && run.left == prev,
                    "request {} runs do not partition its pages at {at}",
                    r.id
                );
                assert!(
                    prev == NIL || !self.runs[prev as usize].joins(run),
                    "request {} has two runs that could be one",
                    r.id
                );
                match run.home {
                    HOST => on_host += u64::from(run.len),
                    g => gpu[g as usize] += u64::from(run.len),
                }
                (at, prev, id) = (run.end(), id, run.right);
            }
            assert_eq!(r.last, prev, "request {} run list end", r.id);
            assert_eq!(
                at as usize,
                r.pages.len(),
                "request {} runs cover its pages",
                r.id
            );
            assert_eq!(on_host, r.host, "request {} host count", r.id);
            host += on_host;
            live += r.pages.len();
        }
        assert_eq!(gpu, self.gpu_used, "GPU runs sum to the GPU pools' use");
        assert_eq!(host, self.host_used, "host runs sum to the host pool's use");
        assert_eq!(live, self.live, "runs sum to the live pages");
        for (g, lru) in self.lru.iter().enumerate() {
            let (mut pages, mut prev, mut next_stamp) = (0u64, NIL, 0u64);
            let mut id = lru.head;
            while id != NIL {
                let run = &self.runs[id as usize];
                assert!(
                    run.home == g as u32 && run.prev == prev && run.stamp >= next_stamp,
                    "GPU {g} LRU list out of stamp order"
                );
                pages += u64::from(run.len);
                next_stamp = run.stamp + u64::from(run.len);
                (prev, id) = (id, run.next);
            }
            assert_eq!(lru.tail, prev, "GPU {g} LRU list end");
            assert_eq!(pages, self.gpu_used[g], "GPU {g} LRU list holds its pages");
        }
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
    fn runs_split_on_touch_and_join_on_bulk_moves() {
        let mut p = KvPager::new(1024, 1, 8 * 1024, 8 * 1024);
        assert_eq!(p.alloc_pages(1, 0, 1, 4), 4);
        assert_eq!(p.runs_of(1), 1, "one allocation is one run");
        let tail = *p.pages_of(1).last().unwrap();
        p.touch(tail, 1);
        assert_eq!(p.runs_of(1), 1, "the newest page is touched already");
        p.touch(tail, 2);
        assert_eq!(p.runs_of(1), 2, "the touched tail leaves its run");
        assert_eq!(p.spill_request(1, 0, |_, _| {}), 4);
        assert_eq!(p.runs_of(1), 2, "spilled pages keep their stamps");
        assert_eq!(p.host_spans(1), vec![0..4]);
        let mut moved = Vec::new();
        let recalled = p.recall_first(1, 0, 3, 4, |req, pages| {
            moved.push((req, pages.to_vec()));
        });
        assert_eq!(recalled, 4);
        assert_eq!(
            moved,
            vec![(1, p.pages_of(1)[..3].to_vec()), (1, vec![tail])]
        );
        assert_eq!(p.runs_of(1), 1, "recalled pages take consecutive stamps");
    }

    #[test]
    fn run_and_slot_records_stay_small() {
        // `decode-chaos` reaches ~80k slab slots and tens of thousands of
        // runs, so every byte a record gains costs tens of KB of resident
        // memory on the workload whose `peak_rss_mib` the benchmark
        // bounds at 0.25 over the parent. A 56-byte page slot raised that
        // workload from 9.78 to 11.05 MiB; the run pager's slot is 8
        // bytes and its run 48.
        assert!(std::mem::size_of::<Slot>() <= 8);
        assert!(std::mem::size_of::<Run>() <= 48);
    }

    impl KvPager {
        /// Number of runs holding `req`'s pages.
        fn runs_of(&self, req: u64) -> usize {
            let mut runs = 0;
            let mut id = self
                .by_req
                .get(&req)
                .map_or(NIL, |&rec| self.reqs[rec as usize].first);
            while id != NIL {
                runs += 1;
                id = self.runs[id as usize].right;
            }
            runs
        }
    }
}
