//! Property tests for the event queue, slab and statistics.

use proptest::prelude::*;
use simcore::stats::Samples;
use simcore::time::SimTime;
use simcore::{GenKey, GenSlab, Sim};

proptest! {
    #[test]
    fn events_fire_in_nondecreasing_time_order(
        times in prop::collection::vec(0u64..1_000_000, 1..50)
    ) {
        let mut sim = Sim::new(Vec::<u64>::new());
        for &t in &times {
            sim.schedule_at(
                SimTime::from_nanos(t),
                Box::new(move |log: &mut Vec<u64>, ctx| log.push(ctx.now().as_nanos())),
            );
        }
        sim.run_until_idle();
        let log = sim.state();
        prop_assert_eq!(log.len(), times.len());
        prop_assert!(log.windows(2).all(|w| w[0] <= w[1]));
        let mut want = times.clone();
        want.sort_unstable();
        prop_assert_eq!(log, &want);
    }

    #[test]
    fn slab_behaves_like_a_map(ops in prop::collection::vec((0u8..3, 0usize..16, 0i64..100), 1..200)) {
        let mut slab = GenSlab::new();
        let mut model: std::collections::HashMap<GenKey, i64> = Default::default();
        let mut live: Vec<GenKey> = Vec::new();
        let mut dead: Vec<GenKey> = Vec::new();
        for (op, sel, val) in ops {
            match op {
                0 => {
                    let k = slab.insert(val);
                    prop_assert!(model.insert(k, val).is_none(), "slab reused a live key");
                    live.push(k);
                }
                1 if !live.is_empty() => {
                    let k = live[sel % live.len()];
                    prop_assert_eq!(slab.get(k), model.get(&k));
                }
                _ if !live.is_empty() => {
                    let k = live.swap_remove(sel % live.len());
                    prop_assert_eq!(slab.remove(k), model.remove(&k));
                    dead.push(k);
                }
                _ => {}
            }
            prop_assert_eq!(slab.len(), model.len());
            // A removed key stays dead, also once an insert reused its slot.
            for &k in &dead {
                prop_assert_eq!(slab.get(k), None);
            }
        }
    }

    #[test]
    fn percentiles_are_monotone_and_bounded(
        mut values in prop::collection::vec(-1e6f64..1e6, 1..300),
        p1 in 0.0f64..100.0,
        p2 in 0.0f64..100.0,
    ) {
        let mut s = Samples::new();
        for v in &values {
            s.push(*v);
        }
        let (lo, hi) = (p1.min(p2), p1.max(p2));
        let a = s.percentile(lo);
        let b = s.percentile(hi);
        prop_assert!(a <= b, "percentile not monotone: p{lo}={a} > p{hi}={b}");
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(a >= values[0] && b <= *values.last().unwrap());
    }

    #[test]
    fn goodput_fraction_matches_manual_count(
        values in prop::collection::vec(0.0f64..1000.0, 1..200),
        thr in 0.0f64..1000.0,
    ) {
        let mut s = Samples::new();
        for v in &values {
            s.push(*v);
        }
        let manual = values.iter().filter(|v| **v <= thr).count() as f64 / values.len() as f64;
        prop_assert!((s.fraction_at_most(thr) - manual).abs() < 1e-12);
    }
}
