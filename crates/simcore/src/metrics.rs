//! Streaming metrics and SLO burn-rate monitoring over the probe bus.
//!
//! The probe bus ([`crate::probe`]) publishes raw events; this module
//! turns them into *online* metrics without a post-processing pass:
//!
//! * a [`Registry`] whose fields are the serving metrics: per model
//!   kind, request counters and log2-bucketed latency, queue-wait and
//!   TTFT histograms; per GPU, queue-depth and cache gauges; per run,
//!   the pinned-host gauge, the retry, stall, execution, alert, token
//!   and KV-page counters and the TPOT histogram. [`MetricsSink`]
//!   updates the fields in place, so the per-event path allocates
//!   nothing;
//! * windowed percentiles: each kind's latency histogram has a window
//!   beside it, snapshotted into a JSON time series and cleared at a
//!   fixed sim-time cadence;
//! * multi-window SLO burn-rate monitors per model kind, emitting
//!   [`ProbeEvent::SloBurnAlert`] into the event log the moment an
//!   error budget burns too fast over both the short and long window
//!   (the classic "fast-burn AND slow-burn" pager rule);
//! * exporters: Prometheus-style text ([`Registry::to_prometheus`]),
//!   which writes each family's `# HELP` and `# TYPE` lines once and
//!   then all of its samples, and a JSON time series
//!   ([`MetricsSink::to_json_series`]).
//!
//! Everything is deterministic: families export in a fixed order with
//! model kinds and GPUs in index order, windows rotate on integer
//! sim-time boundaries, and identical runs export byte-identical
//! snapshots. A run without a [`MetricsSink`] behaves exactly as
//! before — the disabled probe path constructs nothing, so metrics cost
//! zero when off.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::{Debug, Write};
use std::rc::Rc;

use crate::probe::{Event, EventLog, Probe, ProbeEvent, StallCause};
use crate::time::SimTime;

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

const BUCKETS: usize = 64;

/// A log2-bucketed histogram of nanosecond (or other u64) values.
///
/// Bucket `b` holds values whose bit length is `b`, so bucket upper
/// edges are `2^b − 1`. Percentiles resolve to a bucket upper edge by
/// nearest rank — coarse (×2) but allocation-free, streaming and
/// deterministic.
#[derive(Debug, Clone)]
struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Upper edge of bucket `b`, as f64.
fn bucket_edge(b: usize) -> f64 {
    ((1u128 << b) - 1) as f64
}

impl LogHistogram {
    /// Records one value.
    fn observe(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Nearest-rank percentile.
    fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_edge(b);
            }
        }
        bucket_edge(BUCKETS - 1)
    }
}

/// One model kind's request metrics, labelled `model="<name>"`.
#[derive(Debug, Clone, Default)]
struct KindMetrics {
    name: String,
    enqueued: u64,
    completed: u64,
    shed: u64,
    latency: LogHistogram,
    /// The latencies since the last snapshot, for its windowed
    /// percentiles; cleared at each snapshot.
    latency_window: LogHistogram,
    queue_wait: LogHistogram,
    ttft: LogHistogram,
}

/// Name and help of each per-kind counter family, in
/// [`KindMetrics::counters`] order.
const KIND_COUNTERS: [(&str, &str); 3] = [
    ("deepplan_requests_enqueued_total", "Requests enqueued."),
    ("deepplan_requests_completed_total", "Requests completed."),
    (
        "deepplan_requests_shed_total",
        "Requests shed without service.",
    ),
];

/// Name and help of each per-kind histogram family, in
/// [`KindMetrics::histograms`] order.
const KIND_HISTOGRAMS: [(&str, &str); 3] = [
    ("deepplan_request_latency_ns", "End-to-end request latency."),
    (
        "deepplan_request_queue_wait_ns",
        "Queueing component of request latency.",
    ),
    (
        "deepplan_ttft_ns",
        "Time to first token for decode requests.",
    ),
];

impl KindMetrics {
    fn counters(&self) -> [u64; 3] {
        [self.enqueued, self.completed, self.shed]
    }

    fn histograms(&self) -> [&LogHistogram; 3] {
        [&self.latency, &self.queue_wait, &self.ttft]
    }
}

/// The stall causes in declaration order, so `cause as usize` indexes
/// [`Registry`]'s per-cause stall counters.
const STALL_CAUSES: [StallCause; 3] = [
    StallCause::Barrier,
    StallCause::PcieLoad,
    StallCause::NvlinkMigrate,
];

/// The metrics a [`MetricsSink`] keeps, one field per metric; per-kind
/// and per-GPU metrics are indexed by model kind and GPU.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    kinds: Vec<KindMetrics>,
    queue_depth: Vec<f64>,
    cache_used: Vec<f64>,
    host_pinned: f64,
    retries: u64,
    stall_ns: u64,
    stalls: [u64; 3],
    exec_busy_ns: u64,
    alerts: u64,
    tpot: LogHistogram,
    tokens: u64,
    kv_spills: u64,
    kv_recalls: u64,
}

/// Writes a family's `# HELP` and `# TYPE` lines.
fn family(out: &mut String, name: &str, ty: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {ty}");
}

/// Writes one counter or gauge sample; `labels` is what goes between
/// the braces, empty for none. `v` prints in its `Debug` form, so a
/// gauge's whole `f64` keeps its `.0`.
fn sample(out: &mut String, name: &str, labels: &str, v: impl Debug) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {v:?}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {v:?}");
    }
}

/// Writes an unlabelled counter family and its one sample.
fn counter(out: &mut String, name: &str, help: &str, v: u64) {
    family(out, name, "counter", help);
    sample(out, name, "", v);
}

/// Writes a histogram's cumulative view: a `_bucket` sample per
/// non-empty bucket and `+Inf`, then `_sum` and `_count`.
fn histogram(out: &mut String, name: &str, labels: &str, h: &LogHistogram) {
    let sep = if labels.is_empty() { "" } else { "," };
    let mut cum = 0u64;
    for (b, c) in h.counts.iter().enumerate().filter(|(_, c)| **c > 0) {
        cum += c;
        let le = bucket_edge(b) as u128;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{le}\"}} {cum}");
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count);
    sample(out, &format!("{name}_sum"), labels, h.sum);
    sample(out, &format!("{name}_count"), labels, h.count);
}

impl Registry {
    fn new(kind_names: Vec<String>, gpus: usize) -> Self {
        Registry {
            kinds: kind_names
                .into_iter()
                .map(|name| KindMetrics {
                    name,
                    ..KindMetrics::default()
                })
                .collect(),
            queue_depth: vec![0.0; gpus],
            cache_used: vec![0.0; gpus],
            ..Registry::default()
        }
    }

    /// Exports every metric as Prometheus text exposition format: each
    /// family's `# HELP` and `# TYPE` lines, then all of its samples,
    /// model kinds and GPUs in index order.
    ///
    /// A fixed family order, fixed bucket edges and shortest-roundtrip
    /// float formatting make identical runs export identical bytes.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let labels: Vec<String> = self
            .kinds
            .iter()
            .map(|k| format!("model=\"{}\"", k.name))
            .collect();
        for (i, (name, help)) in KIND_COUNTERS.into_iter().enumerate() {
            family(&mut out, name, "counter", help);
            for (k, l) in self.kinds.iter().zip(&labels) {
                sample(&mut out, name, l, k.counters()[i]);
            }
        }
        for (i, (name, help)) in KIND_HISTOGRAMS.into_iter().enumerate() {
            family(&mut out, name, "histogram", help);
            for (k, l) in self.kinds.iter().zip(&labels) {
                histogram(&mut out, name, l, k.histograms()[i]);
            }
        }
        for (name, help, gauges) in [
            (
                "deepplan_queue_depth",
                "Requests queued per GPU.",
                &self.queue_depth,
            ),
            (
                "deepplan_cache_used_bytes",
                "Model-cache occupancy per GPU.",
                &self.cache_used,
            ),
        ] {
            family(&mut out, name, "gauge", help);
            for (g, v) in gauges.iter().enumerate() {
                sample(&mut out, name, &format!("gpu=\"{g}\""), v);
            }
        }
        let name = "deepplan_host_pinned_bytes";
        family(
            &mut out,
            name,
            "gauge",
            "Pinned host memory held by the model store.",
        );
        sample(&mut out, name, "", self.host_pinned);
        counter(
            &mut out,
            "deepplan_retries_total",
            "Retry attempts.",
            self.retries,
        );
        counter(
            &mut out,
            "deepplan_stall_ns_total",
            "Nanoseconds execution spent stalled.",
            self.stall_ns,
        );
        let name = "deepplan_stalls_total";
        family(&mut out, name, "counter", "Execution stalls by cause.");
        for (cause, n) in STALL_CAUSES.iter().zip(self.stalls) {
            sample(&mut out, name, &format!("cause=\"{}\"", cause.as_str()), n);
        }
        counter(
            &mut out,
            "deepplan_exec_busy_ns_total",
            "Nanoseconds of kernel execution.",
            self.exec_busy_ns,
        );
        counter(
            &mut out,
            "deepplan_slo_burn_alerts_total",
            "SLO burn-rate alerts fired.",
            self.alerts,
        );
        let name = "deepplan_tpot_ns";
        family(
            &mut out,
            name,
            "histogram",
            "Per-request mean time per output token.",
        );
        histogram(&mut out, name, "", &self.tpot);
        counter(
            &mut out,
            "deepplan_tokens_generated_total",
            "Output tokens generated by decode.",
            self.tokens,
        );
        counter(
            &mut out,
            "deepplan_kv_page_spills_total",
            "KV pages spilled to pinned host memory.",
            self.kv_spills,
        );
        counter(
            &mut out,
            "deepplan_kv_page_recalls_total",
            "Spilled KV pages recalled to device memory.",
            self.kv_recalls,
        );
        out
    }
}

// ---------------------------------------------------------------------------
// Multi-window SLO burn-rate monitoring
// ---------------------------------------------------------------------------

/// Availability target of the SLO burn monitor: a 0.1 % error budget.
const SLO_TARGET: f64 = 0.999;

/// A kind alerts when its burn rate exceeds this on *both* windows.
const BURN_THRESHOLD: f64 = 2.0;

/// Short (fast-burn) window of the burn monitor, in milliseconds.
const SHORT_WINDOW_MS: u64 = 5_000;

/// Long (slow-burn) window of the burn monitor, in milliseconds.
const LONG_WINDOW_MS: u64 = 60_000;

/// Completions a long window needs before it may alert.
const MIN_COUNT: u64 = 20;

/// Good/bad counts over a rolling window, bucketed so expiry is exact
/// in integer sim-time.
#[derive(Debug, Clone)]
struct WindowCounts {
    bucket_ms: u64,
    span: u64,
    buckets: VecDeque<(u64, u64, u64)>, // (bucket index, good, bad)
    good: u64,
    bad: u64,
}

impl WindowCounts {
    fn new(window_ms: u64) -> Self {
        // 12 sub-buckets per window: fine enough that expiry error is
        // under a twelfth of the window, coarse enough to stay tiny.
        let bucket_ms = (window_ms / 12).max(1);
        WindowCounts {
            bucket_ms,
            span: window_ms.div_ceil(bucket_ms),
            buckets: VecDeque::new(),
            good: 0,
            bad: 0,
        }
    }

    fn observe(&mut self, at_ms: u64, ok: bool) {
        let idx = at_ms / self.bucket_ms;
        while let Some(&(first, g, b)) = self.buckets.front() {
            if first + self.span <= idx {
                self.good -= g;
                self.bad -= b;
                self.buckets.pop_front();
            } else {
                break;
            }
        }
        match self.buckets.back_mut() {
            Some((last, g, b)) if *last == idx => {
                if ok {
                    *g += 1;
                } else {
                    *b += 1;
                }
            }
            _ => self.buckets.push_back((idx, u64::from(ok), u64::from(!ok))),
        }
        if ok {
            self.good += 1;
        } else {
            self.bad += 1;
        }
    }

    fn total(&self) -> u64 {
        self.good + self.bad
    }

    /// Burn rate: error fraction divided by the error budget.
    fn burn(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let err = self.bad as f64 / total as f64;
        err / (1.0 - SLO_TARGET)
    }
}

/// One model kind's multi-window burn-rate monitor.
#[derive(Debug, Clone)]
struct SloMonitor {
    kind: usize,
    short: WindowCounts,
    long: WindowCounts,
    alerting: bool,
}

impl SloMonitor {
    fn new(kind: usize) -> Self {
        SloMonitor {
            kind,
            short: WindowCounts::new(SHORT_WINDOW_MS),
            long: WindowCounts::new(LONG_WINDOW_MS),
            alerting: false,
        }
    }

    /// Feeds one completion; returns a fired alert event, if any.
    fn observe(&mut self, at_ms: u64, ok: bool) -> Option<ProbeEvent> {
        self.short.observe(at_ms, ok);
        self.long.observe(at_ms, ok);
        let short_burn = self.short.burn();
        let long_burn = self.long.burn();
        let firing = short_burn > BURN_THRESHOLD
            && long_burn > BURN_THRESHOLD
            && self.long.total() >= MIN_COUNT;
        if firing && !self.alerting {
            self.alerting = true;
            return Some(ProbeEvent::SloBurnAlert {
                kind: self.kind,
                window_ms: LONG_WINDOW_MS,
                burn_milli: (long_burn * 1000.0) as u64,
            });
        }
        if !firing && self.alerting && long_burn <= BURN_THRESHOLD {
            self.alerting = false; // budget recovered; re-arm
        }
        None
    }
}

// ---------------------------------------------------------------------------
// MetricsSink: the probe-fed streaming engine
// ---------------------------------------------------------------------------

/// Snapshot and window-rotation cadence of a [`MetricsSink`], in
/// milliseconds of sim time.
const RESOLUTION_MS: u64 = 1_000;

/// Static description of a serving run the metrics engine labels by.
#[derive(Debug, Clone)]
pub struct MetricsSpec {
    /// Model kind index → display name (metric label values).
    pub kind_names: Vec<String>,
    /// Instance index → model kind index.
    pub instance_kinds: Vec<usize>,
    /// GPU count (per-GPU gauge tracks).
    pub gpus: usize,
    /// Latency threshold separating good from bad completions for each
    /// kind's burn monitor.
    pub slo_ns: u64,
}

impl MetricsSpec {
    /// A spec with the paper's 100 ms serving SLO.
    pub fn new(kind_names: Vec<String>, instance_kinds: Vec<usize>, gpus: usize) -> Self {
        MetricsSpec {
            kind_names,
            instance_kinds,
            gpus,
            slo_ns: 100_000_000,
        }
    }
}

/// Columns of each model kind in [`MetricsSink::to_json_series`].
const COLUMNS: [&str; 5] = ["completed", "shed", "p50_ms", "p99_ms", "burn_milli"];

/// A probe sink that records every event into an inner [`EventLog`]
/// *and* feeds the metric [`Registry`] and SLO monitors. Fired SLO
/// alerts are appended to the log as first-class probe events, so they
/// flow through the normal exporters.
#[derive(Debug)]
pub struct MetricsSink {
    /// The verbatim event log (plus appended `slo_burn_alert` events).
    pub log: EventLog,
    /// The live metrics.
    pub registry: Registry,
    instance_kinds: Vec<usize>,
    slo_ns: u64,
    monitors: Vec<SloMonitor>,
    next_rotate_ns: u64,
    rows: Vec<(u64, Vec<f64>)>,
    last_event_ns: u64,
}

impl MetricsSink {
    /// Builds the sink with every metric at zero.
    pub fn new(spec: MetricsSpec) -> Self {
        MetricsSink {
            log: EventLog::new(),
            monitors: (0..spec.kind_names.len()).map(SloMonitor::new).collect(),
            registry: Registry::new(spec.kind_names, spec.gpus),
            instance_kinds: spec.instance_kinds,
            slo_ns: spec.slo_ns,
            next_rotate_ns: RESOLUTION_MS * 1_000_000,
            rows: Vec::new(),
            last_event_ns: 0,
        }
    }

    /// Builds a sink and a [`Probe`] feeding it, ready to hand to a
    /// probed run. Keep the returned handle to export metrics after.
    pub fn probe(spec: MetricsSpec) -> (Probe, Rc<RefCell<MetricsSink>>) {
        let sink = Rc::new(RefCell::new(MetricsSink::new(spec)));
        (Probe::with_metrics(sink.clone()), sink)
    }

    fn snapshot(&mut self, at_ns: u64) {
        let kinds = &mut self.registry.kinds;
        let mut row = Vec::with_capacity(kinds.len() * COLUMNS.len());
        for (k, monitor) in kinds.iter_mut().zip(&self.monitors) {
            row.extend([
                k.completed as f64,
                k.shed as f64,
                k.latency_window.percentile(50.0) / 1e6,
                k.latency_window.percentile(99.0) / 1e6,
                (monitor.long.burn() * 1000.0).round(),
            ]);
            k.latency_window = LogHistogram::default();
        }
        self.rows.push((at_ns, row));
    }

    fn rotate_to(&mut self, at_ns: u64) {
        while at_ns >= self.next_rotate_ns {
            let boundary = self.next_rotate_ns;
            self.snapshot(boundary);
            self.next_rotate_ns += RESOLUTION_MS * 1_000_000;
        }
    }

    /// Closes the final partial window; call once after the run.
    pub fn finish(&mut self) {
        let at = self.last_event_ns;
        self.snapshot(at);
    }

    fn feed(&mut self, at: SimTime, what: ProbeEvent) {
        let at_ns = at.as_nanos();
        self.last_event_ns = at_ns;
        self.rotate_to(at_ns);
        let r = &mut self.registry;
        let kind = |instance: usize| self.instance_kinds.get(instance).copied().unwrap_or(0);
        match what {
            ProbeEvent::RequestEnqueued { instance, .. } => r.kinds[kind(instance)].enqueued += 1,
            ProbeEvent::RequestCompleted {
                instance,
                latency_ns,
                queue_wait_ns,
                ..
            } => {
                let k = kind(instance);
                r.kinds[k].completed += 1;
                r.kinds[k].latency.observe(latency_ns);
                r.kinds[k].latency_window.observe(latency_ns);
                r.kinds[k].queue_wait.observe(queue_wait_ns);
                let ok = latency_ns <= self.slo_ns;
                if let Some(alert) = self.monitors[k].observe(at_ns / 1_000_000, ok) {
                    r.alerts += 1;
                    self.log.record(at, alert);
                }
            }
            ProbeEvent::RequestShed { instance, .. } => r.kinds[kind(instance)].shed += 1,
            ProbeEvent::RequestRetried { .. } => r.retries += 1,
            ProbeEvent::QueueDepth { gpu, depth } => {
                if let Some(g) = r.queue_depth.get_mut(gpu) {
                    *g = depth as f64;
                }
            }
            ProbeEvent::CacheOccupancy {
                gpu, used_bytes, ..
            } => {
                if let Some(g) = r.cache_used.get_mut(gpu) {
                    *g = used_bytes as f64;
                }
            }
            ProbeEvent::HostPinned { bytes } => r.host_pinned = bytes as f64,
            ProbeEvent::StallStarted { cause, .. } => r.stalls[cause as usize] += 1,
            ProbeEvent::StallEnded { ns, .. } => r.stall_ns += ns,
            ProbeEvent::RunCompleted { exec_busy_ns, .. } => r.exec_busy_ns += exec_busy_ns,
            ProbeEvent::FirstToken {
                instance, ttft_ns, ..
            } => r.kinds[kind(instance)].ttft.observe(ttft_ns),
            ProbeEvent::DecodeFinished {
                tokens, tpot_ns, ..
            } => {
                r.tpot.observe(tpot_ns);
                r.tokens += tokens;
            }
            ProbeEvent::KvPageSpill { .. } => r.kv_spills += 1,
            ProbeEvent::KvPageRecall { .. } => r.kv_recalls += 1,
            _ => {}
        }
    }

    /// The JSON time series of every snapshot row: one column set per
    /// model kind (`completed`, `shed`, windowed `p50_ms`/`p99_ms`,
    /// `burn_milli`), sampled each second of sim time.
    pub fn to_json_series(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"resolution_ms\": {RESOLUTION_MS},");
        let cols: Vec<String> = self
            .registry
            .kinds
            .iter()
            .flat_map(|k| COLUMNS.map(|c| format!("\"{}.{c}\"", k.name)))
            .collect();
        let _ = writeln!(out, "  \"columns\": [\"t_ms\", {}],", cols.join(", "));
        out.push_str("  \"rows\": [\n");
        for (i, (t_ns, row)) in self.rows.iter().enumerate() {
            let vals: Vec<String> = row.iter().map(|v| format!("{v:?}")).collect();
            let _ = write!(out, "    [{}, {}]", t_ns / 1_000_000, vals.join(", "));
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Events recorded so far (including appended alerts).
    pub fn events(&self) -> &[Event] {
        &self.log.events
    }

    /// Records one event, then feeds it to the registry and monitors.
    pub fn record(&mut self, at: SimTime, what: ProbeEvent) {
        self.log.record(at, what);
        self.feed(at, what);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_histogram_percentiles_are_bucket_edges() {
        let mut h = LogHistogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!((h.count, h.sum), (5, 1106));
        // p50 lands in the bucket holding 2 and 3 (edges 2^2-1 = 3).
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 1023.0);
        assert_eq!(LogHistogram::default().percentile(99.0), 0.0);
    }

    #[test]
    fn burn_monitor_fires_once_and_rearms() {
        let mut m = SloMonitor::new(0);
        // All bad, 10 per second: burn = 1.0 / 0.001 = 1000 > 2 on both
        // windows, so the alert fires as the long window reaches
        // MIN_COUNT completions and then latches.
        let mut fired = Vec::new();
        for i in 0..100u64 {
            if m.observe(i * 100, false).is_some() {
                fired.push(i + 1);
            }
        }
        assert_eq!(
            fired,
            vec![MIN_COUNT],
            "alert latches, no re-fire while burning"
        );
        // Good traffic past the long window drains every bad completion
        // from both windows and re-arms the monitor.
        for i in 0..(LONG_WINDOW_MS / 100 + 12) {
            assert!(m.observe(10_000 + i * 100, true).is_none());
        }
        assert!(!m.alerting);
        assert_eq!(m.long.bad, 0);
        // A fresh burst over the full window of good completions burns
        // the budget again: one alert, once two bad completions lift
        // the long window past the threshold.
        let start = 10_000 + LONG_WINDOW_MS + 1_200;
        for i in 0..20u64 {
            if m.observe(start + i * 10, false).is_some() {
                fired.push(i + 1);
            }
        }
        assert_eq!(fired, vec![MIN_COUNT, 2], "fires again after recovery");
    }

    #[test]
    fn metrics_sink_preserves_log_and_counts() {
        let spec = MetricsSpec::new(vec!["bert-base".into()], vec![0, 0], 4);
        let mut sink = MetricsSink::new(spec);
        let t = |ms: u64| SimTime::from_nanos(ms * 1_000_000);
        sink.record(
            t(1),
            ProbeEvent::RequestEnqueued {
                req: 0,
                instance: 0,
                gpu: 0,
            },
        );
        sink.record(
            t(5),
            ProbeEvent::RequestCompleted {
                req: 0,
                instance: 0,
                gpu: 0,
                cold: false,
                latency_ns: 4_000_000,
                queue_wait_ns: 0,
            },
        );
        sink.record(t(2_500), ProbeEvent::QueueDepth { gpu: 1, depth: 7 });
        sink.finish();
        assert_eq!(sink.log.len(), 3, "all events recorded verbatim");
        let prom = sink.registry.to_prometheus();
        assert!(prom.contains("deepplan_requests_completed_total{model=\"bert-base\"} 1"));
        assert!(prom.contains("deepplan_queue_depth{gpu=\"1\"} 7"));
        // Two full rotations (1 s, 2 s) before the 2.5 s event plus the
        // finish() snapshot.
        let series = sink.to_json_series();
        assert!(series.contains("\"columns\": [\"t_ms\", \"bert-base.completed\""));
        assert_eq!(sink.rows.len(), 3);
        assert_eq!(sink.rows[0].0, 1_000_000_000);
    }

    /// Asserts that `prom` declares each family once, `# HELP` then
    /// `# TYPE`, and that every sample directly follows its own
    /// family's declaration.
    fn assert_one_block_per_family(prom: &str) {
        let mut declared: Vec<&str> = Vec::new();
        let mut lines = prom.lines();
        while let Some(line) = lines.next() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap_or_default();
                assert!(!declared.contains(&name), "{name} declared twice");
                declared.push(name);
                let ty = lines.next().unwrap_or_default();
                assert!(ty.starts_with(&format!("# TYPE {name} ")), "{ty}");
                continue;
            }
            let family = *declared.last().expect("a sample before any family");
            let sample = line.split(['{', ' ']).next().unwrap_or_default();
            let suffix = sample.strip_prefix(family);
            assert!(
                matches!(suffix, Some("" | "_bucket" | "_sum" | "_count")),
                "{line} sits in {family}"
            );
        }
    }

    #[test]
    fn each_family_is_written_once_with_its_samples() {
        let spec = MetricsSpec::new(vec!["a".into(), "b".into()], vec![0, 1], 2);
        let mut sink = MetricsSink::new(spec);
        for instance in [0, 1, 1] {
            sink.record(
                SimTime::from_nanos(1_000),
                ProbeEvent::RequestCompleted {
                    req: 0,
                    instance,
                    gpu: 0,
                    cold: false,
                    latency_ns: 3_000,
                    queue_wait_ns: 0,
                },
            );
        }
        let prom = sink.registry.to_prometheus();
        assert_one_block_per_family(&prom);
        assert_eq!(prom.matches("# HELP ").count(), 18);
        let completed = "deepplan_requests_completed_total";
        assert!(prom.contains(&format!(
            "counter\n{completed}{{model=\"a\"}} 1\n{completed}{{model=\"b\"}} 2\n"
        )));
    }

    #[test]
    fn slo_alert_lands_in_event_log() {
        let mut spec = MetricsSpec::new(vec!["m".into()], vec![0], 1);
        spec.slo_ns = 1;
        let mut sink = MetricsSink::new(spec);
        let n = MIN_COUNT + 5;
        for i in 0..n {
            sink.record(
                SimTime::from_nanos(i * 1_000_000),
                ProbeEvent::RequestCompleted {
                    req: i,
                    instance: 0,
                    gpu: 0,
                    cold: false,
                    latency_ns: 1_000_000, // far above the 1 ns SLO
                    queue_wait_ns: 0,
                },
            );
        }
        let alerts: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
            .collect();
        assert_eq!(alerts.len(), 1);
        // It fires on the completion that fills the long window to
        // MIN_COUNT, with the all-bad burn rate of 1 / (1 - target).
        assert_eq!(
            alerts[0].at,
            SimTime::from_nanos((MIN_COUNT - 1) * 1_000_000)
        );
        assert_eq!(
            alerts[0].what,
            ProbeEvent::SloBurnAlert {
                kind: 0,
                window_ms: LONG_WINDOW_MS,
                burn_milli: 999_999,
            }
        );
        assert_eq!(sink.registry.alerts, 1);
        // Stripping alert lines recovers the raw event stream.
        let raw: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| !matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
            .collect();
        assert_eq!(raw.len() as u64, n);
    }
}
