//! Synthetic Microsoft-Azure-Functions-like trace (paper §5.3.2).
//!
//! The paper replays 3 hours of the MAF trace \[30\], scaled down to a
//! four-GPU server, noting it contains "heavy sustained requests,
//! fluctuations in request rates, and spikes". The raw trace is not
//! redistributable, so this generator synthesises an arrival process with
//! those three ingredients:
//!
//! * **heavy** instances: a small fraction of instances carrying half the
//!   load at a constant Poisson rate;
//! * **fluctuating** instances: sinusoidally-modulated Poisson (period
//!   ~40 min) produced by thinning;
//! * **spiky** instances: a low base rate plus Poisson-timed bursts of
//!   back-to-back requests.
//!
//! The aggregate long-run rate matches the requested `rate_per_sec`.

use rand::RngExt;
use simcore::rng::{self, exp_secs, pick_index};
use simcore::time::{SimDur, SimTime};

use crate::workload::Request;

/// Mix shares of the three behaviour classes.
#[derive(Debug, Clone, Copy)]
pub struct MafShape {
    /// Fraction of instances that are heavy (default 0.1).
    pub heavy_frac: f64,
    /// Fraction of total load carried by heavy instances (default 0.5).
    pub heavy_load: f64,
    /// Fraction of instances that are spiky (default 0.3).
    pub spiky_frac: f64,
    /// Fraction of total load carried by spiky instances (default 0.1).
    pub spiky_load: f64,
    /// Sinusoid period of fluctuating instances.
    pub flux_period: SimDur,
    /// Relative amplitude of the fluctuation (0..1).
    pub flux_amplitude: f64,
    /// Mean requests per spike burst.
    pub burst_size: f64,
    /// Gap between requests inside a burst.
    pub burst_gap: SimDur,
}

impl Default for MafShape {
    fn default() -> Self {
        MafShape {
            heavy_frac: 0.1,
            heavy_load: 0.5,
            spiky_frac: 0.3,
            spiky_load: 0.1,
            flux_period: SimDur::from_secs(40 * 60),
            flux_amplitude: 0.6,
            burst_size: 12.0,
            burst_gap: SimDur::from_millis(20),
        }
    }
}

/// Generates a trace of length `duration` at long-run aggregate
/// `rate_per_sec` over `instances` instances.
///
/// # Panics
///
/// Panics if `instances == 0` or `rate_per_sec <= 0`.
pub fn generate(
    rate_per_sec: f64,
    instances: usize,
    duration: SimDur,
    shape: MafShape,
    seed: u64,
) -> Vec<Request> {
    assert!(instances > 0 && rate_per_sec > 0.0);
    let n_heavy = ((instances as f64 * shape.heavy_frac).round() as usize).max(1);
    let n_spiky = ((instances as f64 * shape.spiky_frac).round() as usize).min(instances - n_heavy);
    let n_flux = instances - n_heavy - n_spiky;

    let heavy_rate = rate_per_sec * shape.heavy_load;
    let spiky_rate = rate_per_sec * shape.spiky_load;
    let flux_rate = rate_per_sec - heavy_rate - spiky_rate;

    let mut out = Vec::new();
    let horizon = duration.as_secs_f64();

    // Heavy: one homogeneous Poisson stream over the heavy instances.
    let mut rng = rng::seeded(rng::derive_seed(seed, 1));
    let mut t = 0.0;
    loop {
        t += exp_secs(&mut rng, heavy_rate);
        if t >= horizon {
            break;
        }
        out.push(Request::new(
            SimTime::ZERO + SimDur::from_secs_f64(t),
            pick_index(&mut rng, n_heavy),
        ));
    }

    // Fluctuating: non-homogeneous Poisson by thinning against the peak
    // rate; instantaneous rate = mean * (1 + A sin(2πt/T)).
    if n_flux > 0 && flux_rate > 0.0 {
        let mut rng = rng::seeded(rng::derive_seed(seed, 2));
        let period = shape.flux_period.as_secs_f64();
        let peak = flux_rate * (1.0 + shape.flux_amplitude);
        let mut t = 0.0;
        loop {
            t += exp_secs(&mut rng, peak);
            if t >= horizon {
                break;
            }
            let inst_rate = flux_rate
                * (1.0 + shape.flux_amplitude * (2.0 * std::f64::consts::PI * t / period).sin());
            let u: f64 = rng.random::<f64>();
            if u * peak <= inst_rate {
                out.push(Request::new(
                    SimTime::ZERO + SimDur::from_secs_f64(t),
                    n_heavy + pick_index(&mut rng, n_flux),
                ));
            }
        }
    }

    // Spiky: burst arrivals; each burst hits one spiky instance with a
    // geometric-ish run of back-to-back requests.
    if n_spiky > 0 && spiky_rate > 0.0 {
        let mut rng = rng::seeded(rng::derive_seed(seed, 3));
        let burst_rate = spiky_rate / shape.burst_size;
        let mut t = 0.0;
        loop {
            t += exp_secs(&mut rng, burst_rate);
            if t >= horizon {
                break;
            }
            let inst = n_heavy + n_flux + pick_index(&mut rng, n_spiky);
            let len = (shape.burst_size * (0.5 + rng.random::<f64>())).round() as usize;
            for k in 0..len.max(1) {
                let at = t + k as f64 * shape.burst_gap.as_secs_f64();
                if at >= horizon {
                    break;
                }
                out.push(Request::new(
                    SimTime::ZERO + SimDur::from_secs_f64(at),
                    inst,
                ));
            }
        }
    }

    out.sort_by_key(|r| r.at);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace() -> Vec<Request> {
        generate(
            150.0,
            90,
            SimDur::from_secs(30 * 60),
            MafShape::default(),
            42,
        )
    }

    #[test]
    fn aggregate_rate_close_to_target() {
        let t = trace();
        let rate = t.len() as f64 / (30.0 * 60.0);
        assert!(
            (rate - 150.0).abs() / 150.0 < 0.12,
            "aggregate rate {rate:.1} rps"
        );
    }

    #[test]
    fn sorted_and_in_range() {
        let t = trace();
        assert!(t.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(t.iter().all(|r| r.instance < 90));
    }

    #[test]
    fn heavy_instances_carry_disproportionate_load() {
        let t = trace();
        let n_heavy = 9; // 10% of 90.
        let heavy: usize = t.iter().filter(|r| r.instance < n_heavy).count();
        let share = heavy as f64 / t.len() as f64;
        assert!(
            (share - 0.5).abs() < 0.08,
            "heavy share {share:.2}, expected ~0.5"
        );
    }

    #[test]
    fn per_minute_rate_fluctuates() {
        let t = generate(
            150.0,
            90,
            SimDur::from_secs(80 * 60),
            MafShape::default(),
            7,
        );
        let mut per_min = vec![0usize; 80];
        for r in &t {
            per_min[(r.at.as_secs_f64() / 60.0) as usize] += 1;
        }
        let max = *per_min.iter().max().unwrap() as f64;
        let min = *per_min.iter().min().unwrap() as f64;
        assert!(max / min.max(1.0) > 1.3, "rate too flat: {min}..{max}");
    }

    #[test]
    fn deterministic() {
        assert_eq!(trace(), trace());
    }
}
