//! Per-GPU model-cache accounting with LRU eviction (paper §5.3.1: "to
//! evict an instance due to the lack of GPU memory, we select the least
//! recently used instance"). FIFO and seeded-random policies exist for
//! the eviction-policy ablation.

use serde::{Deserialize, Serialize};

use crate::instance::{Instance, Residency};

/// Victim-selection policy for cache eviction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum EvictionPolicy {
    /// Least-recently-used (the paper's choice).
    #[default]
    Lru,
    /// Oldest placement first (approximated by instance id order).
    Fifo,
    /// Uniformly random evictable victim (seeded, deterministic).
    Random,
}

/// Model-cache state of one GPU.
#[derive(Debug, Clone)]
pub struct GpuCache {
    /// Usable cache capacity in bytes.
    pub capacity: u64,
    /// Bytes currently allocated (resident + loading instances).
    pub used: u64,
}

impl GpuCache {
    /// Creates an empty cache of the given capacity.
    pub fn new(capacity: u64) -> Self {
        GpuCache { capacity, used: 0 }
    }

    /// Free bytes.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.used)
    }
}

/// Attempts to make room for `bytes` on GPU `gpu` by evicting resident
/// idle instances under `policy`. Returns the evicted instance ids, or
/// `None` if the space cannot be freed (instance larger than capacity,
/// or everything busy).
///
/// On success the cache's `used` already reflects the evictions but NOT
/// the new allocation — the caller charges it when committing.
///
/// `resident` gives the bytes each *instance* currently occupies
/// (instance-id indexed, not kind indexed): after a plan hot-swap,
/// instances loaded under the old plan keep their old footprint until
/// evicted or migrated, so sizes cannot be derived from the kind alone.
///
/// `tick` seeds the random policy deterministically (pass any counter
/// that advances between calls).
pub fn make_room(
    cache: &mut GpuCache,
    gpu: usize,
    instances: &mut [Instance],
    resident: &[u64],
    bytes: u64,
    policy: EvictionPolicy,
    tick: u64,
) -> Option<Vec<usize>> {
    if bytes > cache.capacity {
        return None;
    }
    let mut evicted: Vec<usize> = Vec::new();
    let mut round = 0u64;
    while cache.free() < bytes {
        let candidates = || {
            instances
                .iter()
                .enumerate()
                .filter(|(_, inst)| inst.evictable() && inst.gpu() == Some(gpu))
        };
        let victim = match policy {
            EvictionPolicy::Lru => candidates()
                .min_by_key(|(_, i)| i.last_used)
                .map(|(id, _)| id),
            EvictionPolicy::Fifo => candidates().map(|(id, _)| id).min(),
            EvictionPolicy::Random => {
                let n = candidates().count();
                if n == 0 {
                    None
                } else {
                    let pick = simcore::rng::derive_seed(tick, round) as usize % n;
                    candidates().nth(pick).map(|(id, _)| id)
                }
            }
        };
        round += 1;
        let Some(id) = victim else {
            // Roll back: re-mark evicted instances resident.
            for &id in &evicted {
                instances[id].residency = Residency::Resident(gpu);
                cache.used += resident[id];
            }
            return None;
        };
        instances[id].residency = Residency::NotResident;
        cache.used = cache.used.saturating_sub(resident[id]);
        evicted.push(id);
    }
    Some(evicted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::time::SimTime;

    fn resident(kind: usize, gpu: usize, used_at: u64) -> Instance {
        let mut i = Instance::new(kind);
        i.residency = Residency::Resident(gpu);
        i.last_used = SimTime::from_nanos(used_at);
        i
    }

    #[test]
    fn evicts_lru_first() {
        let sizes = vec![40u64, 40];
        let mut cache = GpuCache::new(100);
        cache.used = 80;
        let mut inst = vec![resident(0, 0, 10), resident(0, 0, 5)];
        let evicted =
            make_room(&mut cache, 0, &mut inst, &sizes, 40, EvictionPolicy::Lru, 0).unwrap();
        assert_eq!(evicted, vec![1]); // Older last_used goes first.
        assert_eq!(cache.used, 40);
        assert_eq!(inst[1].residency, Residency::NotResident);
        assert_eq!(inst[0].residency, Residency::Resident(0));
    }

    #[test]
    fn no_eviction_needed_when_space_free() {
        let sizes = vec![40u64];
        let mut cache = GpuCache::new(100);
        cache.used = 40;
        let mut inst = vec![resident(0, 0, 10)];
        let evicted =
            make_room(&mut cache, 0, &mut inst, &sizes, 60, EvictionPolicy::Lru, 0).unwrap();
        assert!(evicted.is_empty());
    }

    #[test]
    fn busy_instances_are_skipped() {
        let sizes = vec![60u64];
        let mut cache = GpuCache::new(100);
        cache.used = 60;
        let mut inst = vec![resident(0, 0, 10)];
        inst[0].active = 1;
        assert!(make_room(&mut cache, 0, &mut inst, &sizes, 60, EvictionPolicy::Lru, 0).is_none());
        // Rollback kept accounting intact.
        assert_eq!(cache.used, 60);
        assert_eq!(inst[0].residency, Residency::Resident(0));
    }

    #[test]
    fn other_gpus_instances_not_touched() {
        let sizes = vec![60u64, 60];
        let mut cache = GpuCache::new(100);
        cache.used = 60;
        let mut inst = vec![resident(0, 1, 10), resident(0, 0, 5)];
        let evicted =
            make_room(&mut cache, 0, &mut inst, &sizes, 80, EvictionPolicy::Lru, 0).unwrap();
        assert_eq!(evicted, vec![1]);
        assert_eq!(inst[0].residency, Residency::Resident(1));
    }

    #[test]
    fn oversized_request_fails_fast() {
        let sizes = vec![10u64];
        let mut cache = GpuCache::new(100);
        let mut inst = vec![resident(0, 0, 1)];
        assert!(make_room(
            &mut cache,
            0,
            &mut inst,
            &sizes,
            200,
            EvictionPolicy::Lru,
            0
        )
        .is_none());
    }
}
