//! Simulated time types.
//!
//! Simulated time is kept as integer nanoseconds to make event ordering
//! exact and replayable. Floating-point values only appear at the edges
//! (bandwidth math, reporting).

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use serde::{Deserialize, Serialize};

/// An absolute instant on the simulated clock, in nanoseconds since start.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize, Debug,
)]
pub struct SimDur(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Raw nanoseconds since the simulation epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Milliseconds since the epoch as a float (reporting only).
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The duration elapsed since `earlier`, saturating to zero.
    pub fn since(self, earlier: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(earlier.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// `self + d`, saturating at the end of simulated time (`u64::MAX`
    /// ns) instead of wrapping.
    pub fn saturating_add(self, d: SimDur) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDur {
    /// The zero-length duration.
    pub const ZERO: SimDur = SimDur(0);

    /// Builds a duration from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDur(ns)
    }

    /// Builds a duration from integer microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDur(us * 1_000)
    }

    /// Builds a duration from integer milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDur(ms * 1_000_000)
    }

    /// Builds a duration from integer seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDur(s * 1_000_000_000)
    }

    /// Builds a duration from float seconds, rounding up to whole
    /// nanoseconds so that completions never land early.
    ///
    /// Negative or non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDur(0);
        }
        SimDur((s * 1e9).ceil() as u64)
    }

    /// Builds a duration from float microseconds (rounding up).
    pub fn from_micros_f64(us: f64) -> Self {
        Self::from_secs_f64(us / 1e6)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in float seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration in float milliseconds (reporting only).
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration in float microseconds (reporting only).
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDur) -> SimDur {
        SimDur(self.0.saturating_sub(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDur) -> SimDur {
        SimDur(self.0.max(other.0))
    }

    /// Scales the duration by a non-negative float factor (rounding up).
    pub fn mul_f64(self, k: f64) -> SimDur {
        SimDur::from_secs_f64(self.as_secs_f64() * k)
    }
}

impl Add<SimDur> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDur) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimTime {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDur;

    fn sub(self, rhs: SimTime) -> SimDur {
        SimDur(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDur> for SimDur {
    type Output = SimDur;

    fn add(self, rhs: SimDur) -> SimDur {
        SimDur(self.0 + rhs.0)
    }
}

impl AddAssign<SimDur> for SimDur {
    fn add_assign(&mut self, rhs: SimDur) {
        self.0 += rhs.0;
    }
}

impl core::iter::Sum for SimDur {
    fn sum<I: Iterator<Item = SimDur>>(iter: I) -> SimDur {
        iter.fold(SimDur::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

impl fmt::Display for SimDur {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else {
            write!(f, "{:.3}us", self.as_us_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_nanos(1_500);
        let d = SimDur::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_500);
        assert_eq!((t + d) - t, d);
        assert_eq!(t.since(t + d), SimDur::ZERO);
        let end = SimTime::from_nanos(u64::MAX);
        assert_eq!(end.saturating_add(d), end);
        assert_eq!(t.saturating_add(d), t + d);
    }

    #[test]
    fn float_construction_rounds_up() {
        // 1.0000001 us must not truncate below 1000 ns.
        let d = SimDur::from_micros_f64(1.0000001);
        assert!(d.as_nanos() >= 1_000);
        assert_eq!(SimDur::from_secs_f64(-1.0), SimDur::ZERO);
        assert_eq!(SimDur::from_secs_f64(f64::NAN), SimDur::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDur::from_micros(5)), "5.000us");
        assert_eq!(format!("{}", SimDur::from_millis(5)), "5.000ms");
    }

    #[test]
    fn sum_and_scale() {
        let total: SimDur = [SimDur::from_micros(1), SimDur::from_micros(2)]
            .into_iter()
            .sum();
        assert_eq!(total, SimDur::from_micros(3));
        assert_eq!(total.mul_f64(2.0), SimDur::from_micros(6));
    }
}
