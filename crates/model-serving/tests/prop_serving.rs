//! Property tests for the serving substrate: LRU memory management and
//! workload generators.

use model_serving::instance::{Instance, Residency};
use model_serving::memory::{make_room, EvictionPolicy, GpuCache};
use model_serving::workload::{maf, poisson};
use proptest::prelude::*;
use simcore::time::{SimDur, SimTime};

fn arb_instances() -> impl Strategy<Value = Vec<(usize, u8, u64, bool)>> {
    // (kind, gpu, last_used, busy)
    prop::collection::vec((0usize..3, 0u8..2, 0u64..1_000, any::<bool>()), 0..20)
}

proptest! {
    #[test]
    fn lru_eviction_never_overshoots_and_never_picks_busy(
        spec in arb_instances(),
        want in 1u64..400,
    ) {
        let sizes = [50u64, 80, 120];
        let mut instances: Vec<Instance> = spec
            .iter()
            .map(|&(kind, gpu, used, busy)| {
                let mut i = Instance::new(kind);
                i.residency = Residency::Resident(gpu as usize);
                i.last_used = SimTime::from_nanos(used);
                i.active = u32::from(busy);
                i
            })
            .collect();
        let used: u64 = instances
            .iter()
            .filter(|i| i.gpu() == Some(0))
            .map(|i| sizes[i.kind])
            .sum();
        let mut cache = GpuCache::new(600);
        cache.used = used.min(600);
        let resident: Vec<u64> = instances.iter().map(|i| sizes[i.kind]).collect();
        let before = instances.clone();
        match make_room(&mut cache, 0, &mut instances, &resident, want, EvictionPolicy::Lru, 0) {
            Some(evicted) => {
                prop_assert!(cache.free() >= want);
                for &id in &evicted {
                    prop_assert_eq!(before[id].gpu(), Some(0), "evicted foreign instance");
                    prop_assert_eq!(before[id].active, 0, "evicted a busy instance");
                    prop_assert_eq!(instances[id].residency, Residency::NotResident);
                }
                // LRU order: every evicted instance is no newer than every
                // surviving evictable instance on GPU 0.
                let max_evicted = evicted.iter().map(|&id| before[id].last_used).max();
                if let Some(me) = max_evicted {
                    for (id, inst) in instances.iter().enumerate() {
                        if inst.evictable() && inst.gpu() == Some(0) && !evicted.contains(&id) {
                            prop_assert!(inst.last_used >= me, "LRU violated");
                        }
                    }
                }
            }
            None => {
                // Rollback must leave everything untouched.
                for (a, b) in before.iter().zip(&instances) {
                    prop_assert_eq!(a.residency, b.residency);
                }
            }
        }
    }

    #[test]
    fn poisson_traces_are_sorted_and_in_range(
        rate in 1.0f64..500.0,
        instances in 1usize..50,
        count in 1usize..400,
        seed in any::<u64>(),
    ) {
        let t = poisson::generate(rate, instances, count, SimTime::ZERO, seed);
        prop_assert_eq!(t.len(), count);
        prop_assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert!(t.iter().all(|r| r.instance < instances));
    }

    #[test]
    fn maf_traces_are_sorted_in_range_and_rate_bounded(
        rate in 20.0f64..300.0,
        instances in 10usize..120,
        seed in any::<u64>(),
    ) {
        let horizon = SimDur::from_secs(180);
        let t = maf::generate(rate, instances, horizon, maf::MafShape::default(), seed);
        prop_assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert!(t.iter().all(|r| r.instance < instances));
        prop_assert!(t
            .iter()
            .all(|r| r.at.as_secs_f64() < horizon.as_secs_f64()));
        let got = t.len() as f64 / horizon.as_secs_f64();
        prop_assert!(
            (got - rate).abs() / rate < 0.5,
            "rate {got:.1} vs target {rate:.1}"
        );
    }
}
