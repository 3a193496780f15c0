//! Per-inference results and latency breakdowns.

use serde::{Deserialize, Serialize};
use simcore::time::{SimDur, SimTime};

/// Aggregate host→GPU load activity of one transmission slot — the
/// externally observable signal a failure detector gets for free: how
/// many weight bytes crossed GPU `gpu`'s host path and how long the
/// slot's load stream was busy transferring them. Comparing `span`
/// against `bytes / believed_rate` is how gray link slowdowns are
/// inferred without any health oracle.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SlotLoadObs {
    /// GPU the slot loaded into.
    pub gpu: usize,
    /// Model-expected transfer work: raw weight bytes (including any
    /// re-fetches) weighted by the concurrent host flows sharing the
    /// path at issue time, so `bytes / believed_rate` is already the
    /// contention-aware expected wire time.
    pub bytes: f64,
    /// Summed wire time of the slot's load flows (launch overheads
    /// excluded).
    pub span: SimDur,
}

/// Outcome of one inference (or transfer-only) run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct InferenceResult {
    /// Launch instant.
    pub started: SimTime,
    /// Completion instant.
    pub finished: SimTime,
    /// Total stall time of the execution stream (waiting on weights).
    pub stall: SimDur,
    /// Busy time of the execution stream (includes DHA executions).
    pub exec_busy: SimDur,
    /// Per-slot load observations (empty for warm runs — nothing was
    /// loaded). Bookkeeping only; populating it never changes timing.
    pub slot_loads: Vec<SlotLoadObs>,
}

impl InferenceResult {
    /// End-to-end latency.
    pub fn latency(&self) -> SimDur {
        self.finished - self.started
    }

    /// Stall share of total latency (Figure 2).
    pub fn stall_fraction(&self) -> f64 {
        let total = self.latency().as_secs_f64();
        if total <= 0.0 {
            return 0.0;
        }
        self.stall.as_secs_f64() / total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_and_fraction() {
        let r = InferenceResult {
            started: SimTime::from_nanos(1_000),
            finished: SimTime::from_nanos(11_000),
            stall: SimDur::from_nanos(4_000),
            exec_busy: SimDur::from_nanos(6_000),
            slot_loads: Vec::new(),
        };
        assert_eq!(r.latency(), SimDur::from_nanos(10_000));
        assert!((r.stall_fraction() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn zero_latency_is_safe() {
        let r = InferenceResult {
            started: SimTime::ZERO,
            finished: SimTime::ZERO,
            stall: SimDur::ZERO,
            exec_busy: SimDur::ZERO,
            slot_loads: Vec::new(),
        };
        assert_eq!(r.stall_fraction(), 0.0);
    }
}
