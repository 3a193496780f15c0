//! Open-loop Poisson workload (paper §5.3.1: "we use Poisson
//! distributions ... 100 requests per second, randomly distributed across
//! all the instances").

use simcore::rng::{self, exp_gap, pick_index};
use simcore::time::SimTime;

use crate::workload::Request;

/// Generates `count` requests at aggregate `rate_per_sec`, uniformly
/// spread over `instances` instances, starting at `start`. Arrivals
/// saturate at the end of simulated time (`u64::MAX` ns) rather than
/// wrap, so they stay sorted at any rate.
///
/// # Panics
///
/// Panics if `instances == 0` or `rate_per_sec <= 0`.
pub fn generate(
    rate_per_sec: f64,
    instances: usize,
    count: usize,
    start: SimTime,
    seed: u64,
) -> Vec<Request> {
    assert!(instances > 0, "need at least one instance");
    let mut rng = rng::seeded(seed);
    let mut t = start;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        t = t.saturating_add(exp_gap(&mut rng, rate_per_sec));
        out.push(Request::new(t, pick_index(&mut rng, instances)));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_and_spread() {
        let reqs = generate(100.0, 10, 10_000, SimTime::ZERO, 7);
        assert_eq!(reqs.len(), 10_000);
        let span = reqs.last().unwrap().at.as_secs_f64();
        // 10k requests at 100 rps ≈ 100 s.
        assert!((span - 100.0).abs() < 5.0, "span {span}");
        // Every instance sees traffic.
        let mut seen = [false; 10];
        for r in &reqs {
            seen[r.instance] = true;
        }
        assert!(seen.iter().all(|s| *s));
        // Arrivals are sorted.
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn arrivals_saturate_at_the_end_of_time() {
        // Each gap of a 1e-300 rps process saturates to u64::MAX ns.
        let reqs = generate(1e-300, 1, 3, SimTime::ZERO, 7);
        assert!(reqs.iter().all(|r| r.at.as_nanos() == u64::MAX));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(50.0, 4, 100, SimTime::ZERO, 1);
        let b = generate(50.0, 4, 100, SimTime::ZERO, 1);
        let c = generate(50.0, 4, 100, SimTime::ZERO, 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
