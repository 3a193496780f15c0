//! Serving metrics: latency percentiles, goodput, cold-start accounting.

use simcore::stats::Samples;
use simcore::time::{SimDur, SimTime};

/// The serving SLO (paper §5.3: 100 ms): goodput counts completions
/// within it, admission's early rejection scales it, and
/// [`metrics_spec`]'s burn monitor alerts on it.
pub(crate) const SLO: SimDur = SimDur::from_millis(100);

/// Width of [`ServingReport::over_time`]'s buckets (Figure 15 reports
/// one-minute buckets).
const BUCKET: SimDur = SimDur::from_secs(60);

/// Aggregate report of one serving experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServingReport {
    /// End-to-end latencies (ms), measurement window only.
    pub latencies: Samples,
    /// Latencies (ms) by the minute of simulated time in which each
    /// request finished, for Figure 15-style series.
    pub over_time: Vec<Samples>,
    /// Completed requests in the measurement window.
    pub completed: u64,
    /// Cold starts in the measurement window.
    pub cold_starts: u64,
    /// Evictions in the measurement window.
    pub evictions: u64,
    /// Queue-wait component of latency (ms), measurement window only.
    pub queue_wait: Samples,
    /// Pinned host memory the deployment occupies (model store bytes).
    pub host_pinned_bytes: u64,
    /// Requests shed without service (deadline, pressure, capacity loss).
    pub shed: u64,
    /// The shed requests that arrived in the measurement window: each
    /// counts against [`ServingReport::goodput`].
    pub shed_measured: u64,
    /// Retry attempts performed after lost runs or GPU failures.
    pub retries: u64,
    /// GPU failure events applied during the run.
    pub gpu_failures: u64,
    /// In-flight runs aborted by GPU failures.
    pub aborted_runs: u64,
    /// Re-plan passes by the recovery manager: settled topology
    /// transitions whose health signature differed from the active one.
    pub replans: u64,
    /// Live plan migrations: resident instances whose on-GPU bytes were
    /// grown in place after a plan swap.
    pub plan_migrations: u64,
    /// Quarantine transitions inferred by the gray-failure detector
    /// (links and GPUs; re-quarantines after a dirty probation count).
    pub quarantines: u64,
    /// Targets reinstated to healthy after a clean probation.
    pub reinstates: u64,
    /// Canary transfers sent while probing quarantined links.
    pub canaries: u64,
    /// Weight transfers that raced a hedged duplicate.
    pub hedged_transfers: u64,
    /// Weight blocks re-fetched after a checksum mismatch.
    pub checksum_refetches: u64,
    /// Time-to-first-token (ms) per decode request, measurement window
    /// only (first token lands when prefill completes).
    pub ttft: Samples,
    /// Mean time-per-output-token (ms) per decode request, measurement
    /// window only.
    pub tpot: Samples,
    /// Decode requests that streamed to completion.
    pub decode_completed: u64,
    /// Output tokens generated across all decode requests.
    pub tokens_generated: u64,
    /// KV pages spilled to the pinned-host pool.
    pub kv_spills: u64,
    /// Spilled KV pages recalled to device memory.
    pub kv_recalls: u64,
    /// Host-resident KV page reads served in place via DHA.
    pub kv_dha_reads: u64,
    /// Token steps that could not materialise a KV page (device and
    /// host pools both full).
    pub kv_alloc_failures: u64,
    /// KV pages still live in the pager when the run drained — must be
    /// zero: every completed *or aborted* decode frees its pages.
    pub kv_live_pages_at_end: u64,
    /// Lifetime KV page allocations by the pager (reconciliation:
    /// `kv_allocs == kv_frees_gpu + kv_frees_host` once drained).
    pub kv_allocs: u64,
    /// Lifetime KV page frees whose page was device-resident when freed.
    pub kv_frees_gpu: u64,
    /// Lifetime KV page frees whose page had been spilled host-side.
    pub kv_frees_host: u64,
    /// Decode sessions that received at least one KV checkpoint.
    pub ckpt_sessions: u64,
    /// KV bytes mirrored to the pinned-host checkpoint pool.
    pub ckpt_bytes: u64,
    /// Crash victims the planner chose to restore from checkpoint.
    pub restore_decisions: u64,
    /// Crash victims the planner chose to re-prefill from scratch.
    pub reprefill_decisions: u64,
    /// Sessions whose checkpointed pages were streamed back and that
    /// resumed decoding at their checkpointed token step.
    pub sessions_restored: u64,
    /// Crash victims re-admitted through the full prefill path.
    pub sessions_reprefilled: u64,
    /// Sessions frozen and batch-spilled by preemptive swap-out.
    pub sessions_swapped: u64,
    /// Swapped-out sessions resumed at their exact token step.
    pub sessions_resumed: u64,
    /// Sessions truncated by the TPOT degradation policy (completed
    /// early with fewer tokens than requested).
    pub sessions_truncated: u64,
    /// Crash-to-next-token recovery latency (ms) for restored sessions.
    pub recovery_restore_ttft: Samples,
    /// Crash-to-next-token recovery latency (ms) for re-prefilled
    /// sessions.
    pub recovery_reprefill_ttft: Samples,
    /// Discrete events the simulation kernel executed for this run
    /// (perf-trajectory metric; independent of any policy).
    pub sim_events: u64,
}

impl ServingReport {
    /// 99th-percentile time-to-first-token in ms.
    pub fn p99_ttft_ms(&self) -> f64 {
        self.ttft.p99()
    }

    /// 99th-percentile time-per-output-token in ms.
    pub fn p99_tpot_ms(&self) -> f64 {
        self.tpot.p99()
    }

    /// Records one completed request.
    pub fn record(&mut self, finished: SimTime, latency: SimDur, cold: bool) {
        let ms = latency.as_ms_f64();
        self.latencies.push(ms);
        let bucket = (finished.as_nanos() / BUCKET.as_nanos()) as usize;
        if self.over_time.len() <= bucket {
            self.over_time.resize_with(bucket + 1, Samples::default);
        }
        self.over_time[bucket].push(ms);
        self.completed += 1;
        if cold {
            self.cold_starts += 1;
        }
    }

    /// 99th-percentile latency in ms.
    pub fn p99_ms(&self) -> f64 {
        self.latencies.p99()
    }

    /// 99th-percentile latency (ms) per [`ServingReport::over_time`]
    /// bucket; an empty bucket reports 0.0.
    pub fn p99_series(&self) -> Vec<f64> {
        self.over_time.iter().map(Samples::p99).collect()
    }

    /// Goodput: the fraction of the measurement window's requests that
    /// completed within the 100 ms SLO. A shed request counts as missing it.
    /// 1.0 when the window holds no request.
    pub fn goodput(&self) -> f64 {
        let slo = SLO.as_ms_f64();
        let within = self.latencies.raw().iter().filter(|&&ms| ms <= slo).count();
        let sent = self.latencies.len() as u64 + self.shed_measured;
        if sent == 0 {
            return 1.0;
        }
        within as f64 / sent as f64
    }

    /// 99th-percentile queue wait in ms.
    pub fn p99_queue_wait_ms(&self) -> f64 {
        self.queue_wait.p99()
    }

    /// Cold-start rate over completed requests.
    pub fn cold_rate(&self) -> f64 {
        if self.completed == 0 {
            return 0.0;
        }
        self.cold_starts as f64 / self.completed as f64
    }
}

/// Builds a [`simcore::metrics::MetricsSpec`] describing one serving
/// deployment: model-kind labels come from the deployed profiles, the
/// SLO threshold is the serving SLO (100 ms), and gauge tracks span the
/// machine's GPUs. Hand the result to
/// [`simcore::metrics::MetricsSink::probe`] and run the server with the
/// returned probe to collect streaming metrics and SLO burn alerts.
pub fn metrics_spec(
    cfg: &crate::ServerConfig,
    kinds: &[crate::DeployedModel],
    instance_kinds: &[usize],
) -> simcore::metrics::MetricsSpec {
    let mut spec = simcore::metrics::MetricsSpec::new(
        kinds.iter().map(|k| k.profile.model.clone()).collect(),
        instance_kinds.to_vec(),
        cfg.machine.gpu_count(),
    );
    spec.slo_ns = SLO.as_nanos();
    // With SLO tiers active, the burn monitor watches the tightest
    // tier's TTFT budget — a burn alert on the premium class is the one
    // an operator must see first.
    if cfg.decode_resilience.enabled {
        if let Some(tightest) = cfg
            .decode_resilience
            .tiers
            .iter()
            .map(|t| t.ttft_slo.as_nanos())
            .min()
        {
            spec.slo_ns = tightest;
        }
    }
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recording_and_rates() {
        let mut r = ServingReport::default();
        r.record(SimTime::from_nanos(1), SimDur::from_millis(10), false);
        r.record(SimTime::from_nanos(2), SimDur::from_millis(150), true);
        assert_eq!(r.completed, 2);
        assert_eq!(r.cold_starts, 1);
        assert_eq!(r.goodput(), 0.5);
        assert_eq!(r.cold_rate(), 0.5);
        assert_eq!(r.p99_ms(), 150.0);
    }

    #[test]
    fn shed_requests_count_against_goodput() {
        let mut r = ServingReport {
            shed_measured: 1,
            ..ServingReport::default()
        };
        assert_eq!(r.goodput(), 0.0, "a shed request misses the SLO");
        r.record(SimTime::from_nanos(1), SimDur::from_millis(10), false);
        r.record(SimTime::from_nanos(2), SimDur::from_millis(150), true);
        r.shed_measured = 2;
        assert_eq!(r.goodput(), 0.25);
        assert_eq!(r.p99_ms(), 150.0, "p99 stays over completions");
    }

    #[test]
    fn over_time_buckets_by_the_minute() {
        let mut r = ServingReport::default();
        let at = |s| SimTime::ZERO + SimDur::from_secs(s);
        r.record(at(0), SimDur::from_millis(1), false);
        r.record(at(59), SimDur::from_millis(2), false);
        r.record(at(61), SimDur::from_millis(3), false);
        assert_eq!(r.over_time.len(), 2);
        assert_eq!(r.p99_series(), vec![2.0, 3.0]);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = ServingReport::default();
        assert_eq!(r.goodput(), 1.0);
        assert_eq!(r.cold_rate(), 0.0);
        assert_eq!(r.p99_ms(), 0.0);
    }
}
