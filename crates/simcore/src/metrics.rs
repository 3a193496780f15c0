//! Streaming metrics and SLO burn-rate monitoring over the probe bus.
//!
//! The probe bus ([`crate::probe`]) publishes raw events; this module
//! turns them into *online* metrics without a post-processing pass:
//!
//! * a [`Registry`] of counters, gauges and log-bucketed histograms,
//!   keyed by label sets fixed at registration, addressed by integer
//!   handles so the per-event hot path allocates nothing;
//! * windowed percentiles: every histogram keeps a cumulative view and
//!   a rotating window, snapshotted into a JSON time series at a fixed
//!   sim-time cadence;
//! * multi-window SLO burn-rate monitors per model kind, emitting
//!   [`ProbeEvent::SloBurnAlert`] into the event log the moment an
//!   error budget burns too fast over both the short and long window
//!   (the classic "fast-burn AND slow-burn" pager rule);
//! * exporters: Prometheus-style text ([`Registry::to_prometheus`])
//!   and a JSON time series ([`MetricsSink::to_json_series`]).
//!
//! Everything is deterministic: metric identity is registration order,
//! windows rotate on integer sim-time boundaries, and identical runs
//! export byte-identical snapshots. A run without a [`MetricsSink`]
//! behaves exactly as before — the disabled probe path constructs
//! nothing, so metrics cost zero when off.
//!
//! [`Welford`] is the shared running mean/variance the gray-failure
//! detector's baselines build on, so statistical plumbing lives in one
//! place.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::probe::{Event, EventLog, Probe, ProbeEvent, StallCause};
use crate::time::SimTime;

// ---------------------------------------------------------------------------
// Welford running statistics
// ---------------------------------------------------------------------------

/// Welford running mean/variance accumulator.
///
/// The numerically stable single-pass algorithm; push order matters
/// bit-for-bit, so feeding identical observation streams reproduces
/// identical statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u32,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / f64::from(self.n);
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u32 {
        self.n
    }

    /// Running mean (0.0 before the first observation).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation; 0.0 with fewer than two observations.
    pub fn sample_std(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / f64::from(self.n - 1)).sqrt()
        }
    }
}

// ---------------------------------------------------------------------------
// Metric registry
// ---------------------------------------------------------------------------

/// Handle of a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle of a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle of a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

const BUCKETS: usize = 64;

/// A log2-bucketed histogram of nanosecond (or other u64) values.
///
/// Bucket `b` holds values whose bit length is `b`, so bucket upper
/// edges are `2^b − 1`. Percentiles resolve to a bucket upper edge by
/// nearest rank — coarse (×2) but allocation-free, streaming and
/// deterministic. Keeps a cumulative view plus a rotating window for
/// windowed percentiles.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    win_counts: [u64; BUCKETS],
    win_count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            win_counts: [0; BUCKETS],
            win_count: 0,
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

fn percentile_of(counts: &[u64; BUCKETS], total: u64, p: f64) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (b, c) in counts.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_edge(b);
        }
    }
    bucket_edge(BUCKETS - 1)
}

impl LogHistogram {
    /// Records one value into both the cumulative and window views.
    pub fn observe(&mut self, v: u64) {
        let b = bucket_of(v);
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.win_counts[b] += 1;
        self.win_count += 1;
    }

    /// Total observations (cumulative).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (cumulative).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Nearest-rank percentile over the cumulative view.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile_of(&self.counts, self.count, p)
    }

    /// Nearest-rank percentile over the current window.
    pub fn window_percentile(&self, p: f64) -> f64 {
        percentile_of(&self.win_counts, self.win_count, p)
    }

    /// Observations in the current window.
    pub fn window_count(&self) -> u64 {
        self.win_count
    }

    /// Clears the window view (the cumulative view is untouched).
    pub fn rotate(&mut self) {
        self.win_counts = [0; BUCKETS];
        self.win_count = 0;
    }
}

#[derive(Debug, Clone)]
enum MetricKind {
    Counter(u64),
    Gauge(f64),
    Histogram(Box<LogHistogram>),
}

#[derive(Debug, Clone)]
struct Metric {
    name: &'static str,
    help: &'static str,
    labels: Vec<(&'static str, String)>,
    kind: MetricKind,
}

/// A deterministic metric registry: metrics are identified by integer
/// handles resolved once at registration, so the per-event path is a
/// bounds-checked array update with zero allocation.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Vec<Metric>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a monotonic counter.
    pub fn counter(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> CounterId {
        self.metrics.push(Metric {
            name,
            help,
            labels,
            kind: MetricKind::Counter(0),
        });
        CounterId(self.metrics.len() - 1)
    }

    /// Registers a gauge.
    pub fn gauge(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> GaugeId {
        self.metrics.push(Metric {
            name,
            help,
            labels,
            kind: MetricKind::Gauge(0.0),
        });
        GaugeId(self.metrics.len() - 1)
    }

    /// Registers a log-bucketed histogram.
    pub fn histogram(
        &mut self,
        name: &'static str,
        help: &'static str,
        labels: Vec<(&'static str, String)>,
    ) -> HistId {
        self.metrics.push(Metric {
            name,
            help,
            labels,
            kind: MetricKind::Histogram(Box::default()),
        });
        HistId(self.metrics.len() - 1)
    }

    /// Increments a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId, by: u64) {
        if let MetricKind::Counter(v) = &mut self.metrics[id.0].kind {
            *v += by;
        }
    }

    /// Current value of a counter.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        match &self.metrics[id.0].kind {
            MetricKind::Counter(v) => *v,
            _ => 0,
        }
    }

    /// Sets a gauge.
    #[inline]
    pub fn set(&mut self, id: GaugeId, v: f64) {
        if let MetricKind::Gauge(g) = &mut self.metrics[id.0].kind {
            *g = v;
        }
    }

    /// Records a histogram observation.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        if let MetricKind::Histogram(h) = &mut self.metrics[id.0].kind {
            h.observe(v);
        }
    }

    /// Read access to a histogram.
    pub fn hist(&self, id: HistId) -> &LogHistogram {
        match &self.metrics[id.0].kind {
            MetricKind::Histogram(h) => h,
            _ => unreachable!("HistId always addresses a histogram"),
        }
    }

    fn hist_mut(&mut self, id: HistId) -> &mut LogHistogram {
        match &mut self.metrics[id.0].kind {
            MetricKind::Histogram(h) => h,
            _ => unreachable!("HistId always addresses a histogram"),
        }
    }

    /// Exports every metric as Prometheus text exposition format.
    ///
    /// Registration order, fixed bucket edges and shortest-roundtrip
    /// float formatting make identical runs export identical bytes.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let mut last_name = "";
        for m in &self.metrics {
            if m.name != last_name {
                let ty = match m.kind {
                    MetricKind::Counter(_) => "counter",
                    MetricKind::Gauge(_) => "gauge",
                    MetricKind::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# HELP {} {}", m.name, m.help);
                let _ = writeln!(out, "# TYPE {} {ty}", m.name);
                last_name = m.name;
            }
            let labels = |extra: Option<(&str, String)>| -> String {
                let mut parts: Vec<String> = m
                    .labels
                    .iter()
                    .map(|(k, v)| format!("{k}=\"{v}\""))
                    .collect();
                if let Some((k, v)) = extra {
                    parts.push(format!("{k}=\"{v}\""));
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match &m.kind {
                MetricKind::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", m.name, labels(None));
                }
                MetricKind::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v:?}", m.name, labels(None));
                }
                MetricKind::Histogram(h) => {
                    let mut cum = 0u64;
                    for (b, c) in h.counts.iter().enumerate() {
                        if *c == 0 {
                            continue;
                        }
                        cum += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cum}",
                            m.name,
                            labels(Some(("le", format!("{}", bucket_edge(b) as u128))))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {}",
                        m.name,
                        labels(Some(("le", "+Inf".to_string()))),
                        h.count
                    );
                    let _ = writeln!(out, "{}_sum{} {}", m.name, labels(None), h.sum);
                    let _ = writeln!(out, "{}_count{} {}", m.name, labels(None), h.count);
                }
            }
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Multi-window SLO burn-rate monitoring
// ---------------------------------------------------------------------------

/// SLO and alerting policy for one serving run.
#[derive(Debug, Clone, Copy)]
pub struct SloPolicy {
    /// Latency threshold separating good from bad requests.
    pub slo_ns: u64,
    /// Availability target, e.g. 0.999 → a 0.1 % error budget.
    pub target: f64,
    /// Alert when the burn rate exceeds this on *both* windows.
    pub burn_threshold: f64,
    /// Short (fast-burn) window in milliseconds.
    pub short_ms: u64,
    /// Long (slow-burn) window in milliseconds.
    pub long_ms: u64,
    /// Completions a long window needs before it may alert.
    pub min_count: u64,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            slo_ns: 100_000_000, // 100 ms, the paper's serving SLO
            target: 0.999,
            burn_threshold: 2.0,
            short_ms: 5_000,
            long_ms: 60_000,
            min_count: 20,
        }
    }
}

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
    fn burn(&self, target: f64) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let err = self.bad as f64 / total as f64;
        err / (1.0 - target).max(1e-12)
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
    fn new(kind: usize, policy: &SloPolicy) -> Self {
        SloMonitor {
            kind,
            short: WindowCounts::new(policy.short_ms),
            long: WindowCounts::new(policy.long_ms),
            alerting: false,
        }
    }

    /// Feeds one completion; returns a fired alert event, if any.
    fn observe(&mut self, at_ms: u64, ok: bool, policy: &SloPolicy) -> Option<ProbeEvent> {
        self.short.observe(at_ms, ok);
        self.long.observe(at_ms, ok);
        let short_burn = self.short.burn(policy.target);
        let long_burn = self.long.burn(policy.target);
        let firing = short_burn > policy.burn_threshold
            && long_burn > policy.burn_threshold
            && self.long.total() >= policy.min_count;
        if firing && !self.alerting {
            self.alerting = true;
            return Some(ProbeEvent::SloBurnAlert {
                kind: self.kind,
                window_ms: policy.long_ms,
                burn_milli: (long_burn * 1000.0) as u64,
            });
        }
        if !firing && self.alerting && long_burn <= policy.burn_threshold {
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
    /// SLO/alerting policy applied per model kind.
    pub slo: SloPolicy,
}

impl MetricsSpec {
    /// A spec with the default SLO policy.
    pub fn new(kind_names: Vec<String>, instance_kinds: Vec<usize>, gpus: usize) -> Self {
        MetricsSpec {
            kind_names,
            instance_kinds,
            gpus,
            slo: SloPolicy::default(),
        }
    }
}

/// Per-kind metric handles, resolved once at construction.
#[derive(Debug, Clone)]
struct KindHandles {
    enqueued: CounterId,
    completed: CounterId,
    shed: CounterId,
    latency: HistId,
    queue_wait: HistId,
    ttft: HistId,
}

/// A probe sink that records every event into an inner [`EventLog`]
/// *and* feeds the streaming metric registry and SLO monitors. Fired
/// SLO alerts are appended to the log as first-class probe events, so
/// they flow through the normal exporters.
#[derive(Debug)]
pub struct MetricsSink {
    /// The verbatim event log (plus appended `slo_burn_alert` events).
    pub log: EventLog,
    /// The live metric registry.
    pub registry: Registry,
    spec: MetricsSpec,
    kinds: Vec<KindHandles>,
    queue_depth: Vec<GaugeId>,
    cache_used: Vec<GaugeId>,
    host_pinned: GaugeId,
    retries: CounterId,
    stall_ns: CounterId,
    stalls_by_cause: [CounterId; 3],
    exec_busy_ns: CounterId,
    alerts: CounterId,
    tpot: HistId,
    tokens_out: CounterId,
    kv_spills: CounterId,
    kv_recalls: CounterId,
    monitors: Vec<SloMonitor>,
    next_rotate_ns: u64,
    columns: Vec<String>,
    rows: Vec<(u64, Vec<f64>)>,
    last_event_ns: u64,
}

impl MetricsSink {
    /// Builds the sink, registering every metric up front.
    pub fn new(spec: MetricsSpec) -> Self {
        let mut registry = Registry::new();
        let mut kinds = Vec::with_capacity(spec.kind_names.len());
        let mut monitors = Vec::with_capacity(spec.kind_names.len());
        let mut columns = vec![];
        for (k, name) in spec.kind_names.iter().enumerate() {
            let label = || vec![("model", name.clone())];
            kinds.push(KindHandles {
                enqueued: registry.counter(
                    "deepplan_requests_enqueued_total",
                    "Requests enqueued.",
                    label(),
                ),
                completed: registry.counter(
                    "deepplan_requests_completed_total",
                    "Requests completed.",
                    label(),
                ),
                shed: registry.counter(
                    "deepplan_requests_shed_total",
                    "Requests shed without service.",
                    label(),
                ),
                latency: registry.histogram(
                    "deepplan_request_latency_ns",
                    "End-to-end request latency.",
                    label(),
                ),
                queue_wait: registry.histogram(
                    "deepplan_request_queue_wait_ns",
                    "Queueing component of request latency.",
                    label(),
                ),
                ttft: registry.histogram(
                    "deepplan_ttft_ns",
                    "Time to first token for decode requests.",
                    label(),
                ),
            });
            monitors.push(SloMonitor::new(k, &spec.slo));
            for col in ["completed", "shed", "p50_ms", "p99_ms", "burn_milli"] {
                columns.push(format!("{name}.{col}"));
            }
        }
        let queue_depth = (0..spec.gpus)
            .map(|g| {
                registry.gauge(
                    "deepplan_queue_depth",
                    "Requests queued per GPU.",
                    vec![("gpu", g.to_string())],
                )
            })
            .collect();
        let cache_used = (0..spec.gpus)
            .map(|g| {
                registry.gauge(
                    "deepplan_cache_used_bytes",
                    "Model-cache occupancy per GPU.",
                    vec![("gpu", g.to_string())],
                )
            })
            .collect();
        let host_pinned = registry.gauge(
            "deepplan_host_pinned_bytes",
            "Pinned host memory held by the model store.",
            vec![],
        );
        let retries = registry.counter("deepplan_retries_total", "Retry attempts.", vec![]);
        let stall_ns = registry.counter(
            "deepplan_stall_ns_total",
            "Nanoseconds execution spent stalled.",
            vec![],
        );
        let stalls_by_cause = [
            StallCause::Barrier,
            StallCause::PcieLoad,
            StallCause::NvlinkMigrate,
        ]
        .map(|c| {
            registry.counter(
                "deepplan_stalls_total",
                "Execution stalls by cause.",
                vec![("cause", c.as_str().to_string())],
            )
        });
        let exec_busy_ns = registry.counter(
            "deepplan_exec_busy_ns_total",
            "Nanoseconds of kernel execution.",
            vec![],
        );
        let alerts = registry.counter(
            "deepplan_slo_burn_alerts_total",
            "SLO burn-rate alerts fired.",
            vec![],
        );
        let tpot = registry.histogram(
            "deepplan_tpot_ns",
            "Per-request mean time per output token.",
            vec![],
        );
        let tokens_out = registry.counter(
            "deepplan_tokens_generated_total",
            "Output tokens generated by decode.",
            vec![],
        );
        let kv_spills = registry.counter(
            "deepplan_kv_page_spills_total",
            "KV pages spilled to pinned host memory.",
            vec![],
        );
        let kv_recalls = registry.counter(
            "deepplan_kv_page_recalls_total",
            "Spilled KV pages recalled to device memory.",
            vec![],
        );
        MetricsSink {
            log: EventLog::new(),
            registry,
            kinds,
            queue_depth,
            cache_used,
            host_pinned,
            retries,
            stall_ns,
            stalls_by_cause,
            exec_busy_ns,
            alerts,
            tpot,
            tokens_out,
            kv_spills,
            kv_recalls,
            monitors,
            next_rotate_ns: RESOLUTION_MS * 1_000_000,
            columns,
            rows: Vec::new(),
            last_event_ns: 0,
            spec,
        }
    }

    /// Builds a sink and a [`Probe`] feeding it, ready to hand to a
    /// probed run. Keep the returned handle to export metrics after.
    pub fn probe(spec: MetricsSpec) -> (Probe, Rc<RefCell<MetricsSink>>) {
        let sink = Rc::new(RefCell::new(MetricsSink::new(spec)));
        (Probe::with_metrics(sink.clone()), sink)
    }

    fn kind_of(&self, instance: usize) -> usize {
        self.spec.instance_kinds.get(instance).copied().unwrap_or(0)
    }

    fn snapshot(&mut self, at_ns: u64) {
        let mut row = Vec::with_capacity(self.columns.len());
        for (k, h) in self.kinds.iter().enumerate() {
            row.push(self.registry.counter_value(h.completed) as f64);
            row.push(self.registry.counter_value(h.shed) as f64);
            let hist = self.registry.hist(h.latency);
            row.push(hist.window_percentile(50.0) / 1e6);
            row.push(hist.window_percentile(99.0) / 1e6);
            row.push((self.monitors[k].long.burn(self.spec.slo.target) * 1000.0).round());
        }
        self.rows.push((at_ns, row));
        for h in &self.kinds {
            let (latency, queue_wait) = (h.latency, h.queue_wait);
            self.registry.hist_mut(latency).rotate();
            self.registry.hist_mut(queue_wait).rotate();
        }
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
        match what {
            ProbeEvent::RequestEnqueued { instance, .. } => {
                let k = self.kind_of(instance);
                self.registry.inc(self.kinds[k].enqueued, 1);
            }
            ProbeEvent::RequestCompleted {
                instance,
                latency_ns,
                queue_wait_ns,
                ..
            } => {
                let k = self.kind_of(instance);
                self.registry.inc(self.kinds[k].completed, 1);
                self.registry.observe(self.kinds[k].latency, latency_ns);
                self.registry
                    .observe(self.kinds[k].queue_wait, queue_wait_ns);
                let ok = latency_ns <= self.spec.slo.slo_ns;
                if let Some(alert) = self.monitors[k].observe(at_ns / 1_000_000, ok, &self.spec.slo)
                {
                    self.registry.inc(self.alerts, 1);
                    self.log.record(at, alert);
                }
            }
            ProbeEvent::RequestShed { instance, .. } => {
                let k = self.kind_of(instance);
                self.registry.inc(self.kinds[k].shed, 1);
            }
            ProbeEvent::RequestRetried { .. } => self.registry.inc(self.retries, 1),
            ProbeEvent::QueueDepth { gpu, depth } => {
                if let Some(&id) = self.queue_depth.get(gpu) {
                    self.registry.set(id, depth as f64);
                }
            }
            ProbeEvent::CacheOccupancy {
                gpu, used_bytes, ..
            } => {
                if let Some(&id) = self.cache_used.get(gpu) {
                    self.registry.set(id, used_bytes as f64);
                }
            }
            ProbeEvent::HostPinned { bytes } => {
                self.registry.set(self.host_pinned, bytes as f64);
            }
            ProbeEvent::StallStarted { cause, .. } => {
                let i = match cause {
                    StallCause::Barrier => 0,
                    StallCause::PcieLoad => 1,
                    StallCause::NvlinkMigrate => 2,
                };
                self.registry.inc(self.stalls_by_cause[i], 1);
            }
            ProbeEvent::StallEnded { ns, .. } => self.registry.inc(self.stall_ns, ns),
            ProbeEvent::RunCompleted { exec_busy_ns, .. } => {
                self.registry.inc(self.exec_busy_ns, exec_busy_ns);
            }
            ProbeEvent::FirstToken {
                instance, ttft_ns, ..
            } => {
                let k = self.kind_of(instance);
                self.registry.observe(self.kinds[k].ttft, ttft_ns);
            }
            ProbeEvent::DecodeFinished {
                tokens, tpot_ns, ..
            } => {
                self.registry.observe(self.tpot, tpot_ns);
                self.registry.inc(self.tokens_out, tokens);
            }
            ProbeEvent::KvPageSpill { .. } => self.registry.inc(self.kv_spills, 1),
            ProbeEvent::KvPageRecall { .. } => self.registry.inc(self.kv_recalls, 1),
            _ => {}
        }
    }

    /// The JSON time series of every snapshot row: one column set per
    /// model kind (`completed`, `shed`, windowed `p50_ms`/`p99_ms`,
    /// `burn_milli`), sampled each second of sim time.
    pub fn to_json_series(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"resolution_ms\": {RESOLUTION_MS},");
        let cols: Vec<String> = self.columns.iter().map(|c| format!("\"{c}\"")).collect();
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
    fn welford_matches_two_pass() {
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        let mut w = Welford::default();
        for x in xs {
            w.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((w.mean() - mean).abs() < 1e-12);
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        assert!((w.sample_std() - var.sqrt()).abs() < 1e-12);
        assert_eq!(w.count(), 5);
    }

    #[test]
    fn log_histogram_percentiles_are_bucket_edges() {
        let mut h = LogHistogram::default();
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1106);
        // p50 lands in the bucket holding 2 and 3 (edges 2^2-1 = 3).
        assert_eq!(h.percentile(50.0), 3.0);
        assert_eq!(h.percentile(100.0), 1023.0);
        h.rotate();
        assert_eq!(h.window_count(), 0);
        assert_eq!(h.window_percentile(99.0), 0.0);
        assert_eq!(h.percentile(100.0), 1023.0, "cumulative view survives");
    }

    #[test]
    fn registry_prometheus_export_is_deterministic() {
        let build = || {
            let mut r = Registry::new();
            let c = r.counter("test_total", "A counter.", vec![("model", "bert".into())]);
            let g = r.gauge("test_gauge", "A gauge.", vec![]);
            let h = r.histogram("test_ns", "A histogram.", vec![]);
            r.inc(c, 3);
            r.set(g, 1.5);
            r.observe(h, 100);
            r.observe(h, 200_000);
            r.to_prometheus()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("# TYPE test_total counter"));
        assert!(a.contains("test_total{model=\"bert\"} 3"));
        assert!(a.contains("test_gauge 1.5"));
        assert!(a.contains("test_ns_count 2"));
        assert!(a.contains("le=\"+Inf\"} 2"));
    }

    #[test]
    fn burn_monitor_fires_once_and_rearms() {
        let policy = SloPolicy {
            slo_ns: 100,
            target: 0.9, // 10 % budget
            burn_threshold: 2.0,
            short_ms: 1_000,
            long_ms: 10_000,
            min_count: 5,
        };
        let mut m = SloMonitor::new(0, &policy);
        // All bad: burn = 1.0 / 0.1 = 10 > 2 on both windows.
        let mut alerts = 0;
        for i in 0..10u64 {
            if m.observe(i * 100, false, &policy).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 1, "alert latches, no re-fire while burning");
        // A long stretch of good traffic drains both windows, re-arms.
        for i in 0..400u64 {
            assert!(m.observe(1_000 + i * 100, true, &policy).is_none());
        }
        assert!(!m.alerting);
        for i in 0..600u64 {
            if m.observe(60_000 + i * 10, false, &policy).is_some() {
                alerts += 1;
            }
        }
        assert_eq!(alerts, 2, "fires again after recovery");
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

    #[test]
    fn slo_alert_lands_in_event_log() {
        let spec = MetricsSpec {
            kind_names: vec!["m".into()],
            instance_kinds: vec![0],
            gpus: 1,
            slo: SloPolicy {
                slo_ns: 1,
                target: 0.9,
                burn_threshold: 2.0,
                short_ms: 1_000,
                long_ms: 10_000,
                min_count: 3,
            },
        };
        let mut sink = MetricsSink::new(spec);
        for i in 0..5u64 {
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
        assert!(sink.registry.counter_value(sink.alerts) == 1);
        // Stripping alert lines recovers the raw event stream.
        let raw: Vec<_> = sink
            .events()
            .iter()
            .filter(|e| !matches!(e.what, ProbeEvent::SloBurnAlert { .. }))
            .collect();
        assert_eq!(raw.len(), 5);
    }
}
