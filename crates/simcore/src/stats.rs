//! Summary statistics for experiment reporting.
//!
//! Latency percentiles (p50/p99), goodput counting and fixed-width
//! time-series bucketing, shared by the serving simulator and the bench
//! harnesses.

use serde::{Deserialize, Serialize};

use crate::time::{SimDur, SimTime};

/// An accumulating sample set with percentile queries.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
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
    ///
    /// The 0.0 sentinel is convenient for report tables but ambiguous
    /// (a mean of exactly 0.0 is indistinguishable from "no data");
    /// callers that must tell the two apart use [`Samples::try_mean`].
    pub fn mean(&self) -> f64 {
        self.try_mean().unwrap_or(0.0)
    }

    /// Arithmetic mean, or `None` when empty.
    pub fn try_mean(&self) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }

    /// Minimum observation, or 0.0 when empty (see [`Samples::try_min`]).
    pub fn min(&self) -> f64 {
        self.try_min().unwrap_or(0.0)
    }

    /// Minimum observation, or `None` when empty.
    pub fn try_min(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::min)
    }

    /// Maximum observation, or 0.0 when empty (see [`Samples::try_max`]).
    pub fn max(&self) -> f64 {
        self.try_max().unwrap_or(0.0)
    }

    /// Maximum observation, or `None` when empty.
    pub fn try_max(&self) -> Option<f64> {
        self.values.iter().copied().reduce(f64::max)
    }

    /// The `p`-th percentile (0..=100) by nearest-rank, or 0.0 when
    /// empty (see [`Samples::try_percentile`] to distinguish).
    pub fn percentile(&self, p: f64) -> f64 {
        self.try_percentile(p).unwrap_or(0.0)
    }

    /// The `p`-th percentile (0..=100) by nearest-rank, or `None` when
    /// empty.
    ///
    /// With a single sample every percentile is that sample. Sorts a
    /// copy (total order, so NaN samples cannot panic — they sort
    /// after every real number) and leaves `self` untouched, so reports
    /// can query percentiles through shared references.
    pub fn try_percentile(&self, p: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
    }

    /// Convenience: the 99th percentile (0.0 when empty).
    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }

    /// Fraction of observations `<= threshold` (goodput-style), or 1.0
    /// when empty — an empty window trivially meets any SLO, which is
    /// the right default for goodput plots; use
    /// [`Samples::try_fraction_at_most`] when "no traffic" must not
    /// read as "perfect".
    pub fn fraction_at_most(&self, threshold: f64) -> f64 {
        self.try_fraction_at_most(threshold).unwrap_or(1.0)
    }

    /// Fraction of observations `<= threshold`, or `None` when empty.
    pub fn try_fraction_at_most(&self, threshold: f64) -> Option<f64> {
        if self.values.is_empty() {
            return None;
        }
        let ok = self.values.iter().filter(|v| **v <= threshold).count();
        Some(ok as f64 / self.values.len() as f64)
    }

    /// Read-only view of the raw observations.
    pub fn raw(&self) -> &[f64] {
        &self.values
    }
}

/// A fixed-width time-bucketed series of sample sets.
///
/// Used for the Figure 15 style "p99 over wall-clock minutes" plots.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket: SimDur,
    buckets: Vec<Samples>,
}

impl TimeSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    ///
    /// Panics if the bucket width is zero.
    pub fn new(bucket: SimDur) -> Self {
        assert!(bucket.as_nanos() > 0, "bucket width must be positive");
        TimeSeries {
            bucket,
            buckets: Vec::new(),
        }
    }

    /// Records an observation stamped at simulated time `at`.
    pub fn record(&mut self, at: SimTime, value: f64) {
        let idx = (at.as_nanos() / self.bucket.as_nanos()) as usize;
        while self.buckets.len() <= idx {
            self.buckets.push(Samples::new());
        }
        self.buckets[idx].push(value);
    }

    /// Number of buckets materialised so far.
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether no bucket exists yet.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Iterates `(bucket_start, samples)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &Samples)> {
        let w = self.bucket;
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, s)| (SimTime::from_nanos(i as u64 * w.as_nanos()), s))
    }

    /// Per-bucket p99 values (empty buckets report 0.0).
    pub fn p99_series(&self) -> Vec<f64> {
        self.buckets.iter().map(|s| s.p99()).collect()
    }

    /// Per-bucket goodput (`fraction <= threshold`).
    pub fn goodput_series(&self, threshold: f64) -> Vec<f64> {
        self.buckets
            .iter()
            .map(|s| s.fraction_at_most(threshold))
            .collect()
    }
}

/// Formats a ratio as a `1.94x`-style speedup string.
pub fn speedup_str(base: f64, other: f64) -> String {
    if other <= 0.0 {
        return "inf".to_string();
    }
    format!("{:.2}x", base / other)
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
    fn empty_samples_try_variants_return_none() {
        let s = Samples::new();
        assert_eq!(s.try_mean(), None);
        assert_eq!(s.try_min(), None);
        assert_eq!(s.try_max(), None);
        assert_eq!(s.try_percentile(50.0), None);
        assert_eq!(s.try_fraction_at_most(10.0), None);
    }

    #[test]
    fn single_sample_is_every_summary() {
        let mut s = Samples::new();
        s.push(7.0);
        assert_eq!(s.try_mean(), Some(7.0));
        assert_eq!(s.try_min(), Some(7.0));
        assert_eq!(s.try_max(), Some(7.0));
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.try_percentile(p), Some(7.0));
        }
        assert_eq!(s.try_fraction_at_most(6.0), Some(0.0));
        assert_eq!(s.try_fraction_at_most(7.0), Some(1.0));
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
    fn time_series_buckets_by_width() {
        let mut ts = TimeSeries::new(SimDur::from_secs(60));
        ts.record(SimTime::from_nanos(0), 1.0);
        ts.record(SimTime::ZERO + SimDur::from_secs(59), 2.0);
        ts.record(SimTime::ZERO + SimDur::from_secs(61), 3.0);
        assert_eq!(ts.len(), 2);
        let p99 = ts.p99_series();
        assert_eq!(p99, vec![2.0, 3.0]);
        assert_eq!(ts.goodput_series(1.5), vec![0.5, 0.0]);
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

    #[test]
    fn speedup_formatting() {
        assert_eq!(speedup_str(2.0, 1.0), "2.00x");
        assert_eq!(speedup_str(1.0, 0.0), "inf");
    }
}
