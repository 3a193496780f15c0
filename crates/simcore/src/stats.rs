//! Summary statistics for experiment reporting.
//!
//! Latency percentiles (p50/p99) and goodput counting, shared by the
//! serving simulator and the bench harnesses. An empty [`Samples`]
//! summarises to 0.0 (and a goodput fraction of 1.0), the value report
//! tables print for "no data"; a caller that must tell the two apart
//! checks [`Samples::is_empty`].

use serde::{Deserialize, Serialize};

/// An accumulating sample set with percentile queries.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Creates an empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether no observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Minimum observation, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().reduce(f64::min).unwrap_or(0.0)
    }

    /// Maximum observation, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        self.values.iter().copied().reduce(f64::max).unwrap_or(0.0)
    }

    /// The `p`-th percentile (0..=100) by nearest-rank, or 0.0 when
    /// empty.
    ///
    /// With a single sample every percentile is that sample. Sorts a
    /// copy (total order, so NaN samples cannot panic — they sort
    /// after every real number) and leaves `self` untouched, so reports
    /// can query percentiles through shared references.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }

    /// Convenience: the 99th percentile (0.0 when empty).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Fraction of observations `<= threshold` (goodput-style), or 1.0
    /// when empty — an empty window trivially meets any SLO, which is
    /// the right default for goodput plots.
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 1.0;
        }
        let ok = self.values.iter().filter(|v| **v <= threshold).count();
        ok as f64 / self.values.len() as f64
    }

    /// Read-only view of the raw observations.
    pub fn raw(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut s = Samples::new();
        for v in 1..=100 {
            s.push(v as f64);
        }
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.p99(), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
    }

    #[test]
    fn empty_samples_are_safe() {
        let s = Samples::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.p99(), 0.0);
        assert_eq!(s.fraction_at_most(10.0), 1.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn single_sample_is_every_summary() {
        let mut s = Samples::new();
        s.push(7.0);
        assert_eq!(s.mean(), 7.0);
        assert_eq!(s.min(), 7.0);
        assert_eq!(s.max(), 7.0);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), 7.0);
        }
        assert_eq!(s.fraction_at_most(6.0), 0.0);
        assert_eq!(s.fraction_at_most(7.0), 1.0);
    }

    #[test]
    fn goodput_fraction() {
        let mut s = Samples::new();
        for v in [10.0, 20.0, 30.0, 40.0] {
            s.push(v);
        }
        assert_eq!(s.fraction_at_most(25.0), 0.5);
        assert_eq!(s.fraction_at_most(40.0), 1.0);
        assert_eq!(s.fraction_at_most(5.0), 0.0);
    }

    #[test]
    fn min_max_mean() {
        let mut s = Samples::new();
        s.push(2.0);
        s.push(8.0);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 8.0);
        assert_eq!(s.mean(), 5.0);
    }
}
