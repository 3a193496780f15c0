//! Prompt/output length assignment for autoregressive workloads.
//!
//! Decode traces reuse the arrival processes (Poisson, MAF) and decorate
//! each request with a prompt length and an output-token budget drawn
//! from simple, seeded distributions: geometric-ish output lengths (many
//! short generations, a long tail) and uniform prompt lengths, which is
//! the shape LLM-serving studies typically assume.

use rand::RngExt;
use simcore::rng;

use crate::workload::Request;

/// Length distributions for a decode workload.
#[derive(Debug, Clone, Copy)]
pub struct LengthDist {
    /// Minimum prompt tokens (inclusive).
    pub prompt_min: u32,
    /// Maximum prompt tokens (inclusive). Prompts draw uniformly.
    pub prompt_max: u32,
    /// Mean output tokens; outputs draw geometrically (shifted so every
    /// decode request produces at least 2 tokens).
    pub output_mean: u32,
    /// Hard cap on output tokens.
    pub output_max: u32,
}

impl Default for LengthDist {
    fn default() -> Self {
        LengthDist {
            prompt_min: 32,
            prompt_max: 256,
            output_mean: 32,
            output_max: 256,
        }
    }
}

/// Assigns prompt/output lengths to an existing trace, in place,
/// deterministically per `seed`. Arrival times and instances are
/// untouched, so the same base trace can be replayed one-shot and with
/// decode for differential runs.
pub fn assign_lengths(reqs: &mut [Request], dist: LengthDist, seed: u64) {
    assert!(dist.prompt_min <= dist.prompt_max, "bad prompt range");
    assert!(dist.output_mean >= 2, "need at least 2 output tokens");
    let mut rng = rng::seeded(rng::derive_seed(seed, 0xdec0de));
    for r in reqs.iter_mut() {
        let span = (dist.prompt_max - dist.prompt_min + 1) as usize;
        r.prompt_tokens = dist.prompt_min + rng.random_range(0..span) as u32;
        // Geometric via inverse CDF: ceil(ln(1-u)/ln(1-p)), p = 1/mean.
        let u: f64 = rng.random::<f64>();
        let p = 1.0 / f64::from(dist.output_mean - 1).max(1.0);
        let tail = ((1.0 - u).max(f64::MIN_POSITIVE).ln() / (1.0 - p).ln()).ceil() as u32;
        r.output_tokens = (2 + tail.saturating_sub(1)).min(dist.output_max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::poisson;
    use simcore::time::SimTime;

    #[test]
    fn lengths_are_in_range_and_deterministic() {
        let base = poisson::generate(50.0, 8, 500, SimTime::ZERO, 3);
        let dist = LengthDist::default();
        let mut a = base.clone();
        let mut b = base.clone();
        assign_lengths(&mut a, dist, 11);
        assign_lengths(&mut b, dist, 11);
        assert_eq!(a, b);
        for r in &a {
            assert!((dist.prompt_min..=dist.prompt_max).contains(&r.prompt_tokens));
            assert!((2..=dist.output_max).contains(&r.output_tokens));
        }
        // Arrivals untouched.
        assert!(a.iter().zip(&base).all(|(x, y)| x.at == y.at));
        let mut c = base.clone();
        assign_lengths(&mut c, dist, 12);
        assert_ne!(a, c, "seed must matter");
    }

    #[test]
    fn output_mean_is_roughly_respected() {
        let mut reqs = poisson::generate(50.0, 8, 4000, SimTime::ZERO, 3);
        let dist = LengthDist {
            output_mean: 40,
            output_max: 4000,
            ..LengthDist::default()
        };
        assign_lengths(&mut reqs, dist, 5);
        let mean =
            reqs.iter().map(|r| u64::from(r.output_tokens)).sum::<u64>() as f64 / reqs.len() as f64;
        assert!((mean - 40.0).abs() < 4.0, "mean output {mean:.1}");
    }
}
