//! Critical-path latency attribution: where each request's time went.
//!
//! The probe bus records *what happened*; this module reconstructs
//! *why each request took as long as it did*. For every completed
//! request it rebuilds the causal chain from probe spans and produces
//! an exact decomposition of the end-to-end latency into disjoint
//! causes:
//!
//! * **queue** — waiting in a GPU queue for a free slot (including
//!   re-queues after a retry);
//! * **retry** — time lost to failed attempts: from a dispatch that
//!   never completed until the request was re-queued, including the
//!   retry backoff;
//! * **exec-gpu** — kernels running from GPU-resident weights;
//! * **exec-dha** — kernels reading weights from host memory by
//!   direct host access (the paper's DHA read penalty);
//! * **stall-barrier** — execution blocked on a non-pipelined load
//!   barrier;
//! * **stall-pcie-load** — execution blocked on the host→GPU weight
//!   stream (the cold-start wire bound DHA removes);
//! * **stall-nvlink-migrate** — execution blocked on a parallel
//!   transmission partition migrating over NVLink (P2P);
//! * **other** — anything else on the final run's critical path
//!   (engine bookkeeping between spans; zero on healthy runs).
//!
//! [`analyze`] reads the log in one walk. A request's milestones
//! (enqueue → dispatch → retried → … → final dispatch) partition
//! `[arrival, final dispatch]` into queue and retry time. Each dispatch
//! opens a record for its run slot, in which the run's exec and stall
//! spans open and close one at a time (a run's execution stream is
//! always in exactly one layer or one stall, so a start closes any span
//! still open); the run's `run_completed` or `run_aborted` closes the
//! record and keeps it under its request, so later runs reusing the slot
//! (a decode session outlives its prefill) are never charged to it. At
//! completion the final run's spans are charged in log order, each
//! clipped to start where the previous one ended and to
//! `[final dispatch, completion]`, and the rest of that window is
//! `other`. The segments partition `[arrival, completion]` in integer
//! nanoseconds, so the parts sum to the probe-measured `latency_ns`
//! exactly, with no tolerance, on any log. The same walk tallies the
//! trace-level counters; [`render_analysis`] turns the result into the
//! deterministic text report behind `deepplan-cli analyze`.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};

use crate::probe::{Event, ProbeEvent, StallCause};
use crate::stats::Samples;

/// A critical-path cause bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Cause {
    /// Waiting in a GPU queue (includes re-queue time after retries).
    Queue,
    /// Time burned by failed attempts, from dispatch to re-queue.
    Retry,
    /// Kernel execution from GPU-resident weights.
    ExecGpu,
    /// Kernel execution reading host memory directly (DHA).
    ExecDha,
    /// Blocked on a whole-model load barrier.
    StallBarrier,
    /// Blocked on the host→GPU weight stream.
    StallPcieLoad,
    /// Blocked on an NVLink migration from a PT partition.
    StallNvlinkMigrate,
    /// Residual final-run time not covered by exec or stall spans.
    Other,
}

impl Cause {
    /// Every cause, in presentation order.
    pub const ALL: [Cause; 8] = [
        Cause::Queue,
        Cause::Retry,
        Cause::ExecGpu,
        Cause::ExecDha,
        Cause::StallBarrier,
        Cause::StallPcieLoad,
        Cause::StallNvlinkMigrate,
        Cause::Other,
    ];

    /// Stable lowercase label.
    pub fn as_str(self) -> &'static str {
        match self {
            Cause::Queue => "queue",
            Cause::Retry => "retry",
            Cause::ExecGpu => "exec-gpu",
            Cause::ExecDha => "exec-dha",
            Cause::StallBarrier => "stall-barrier",
            Cause::StallPcieLoad => "stall-pcie-load",
            Cause::StallNvlinkMigrate => "stall-nvlink-migrate",
            Cause::Other => "other",
        }
    }

    fn index(self) -> usize {
        Cause::ALL.iter().position(|c| *c == self).expect("in ALL")
    }
}

/// Per-cause nanosecond totals for one request; always sums to the
/// request's end-to-end latency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Parts {
    ns: [u64; 8],
}

impl Parts {
    /// Nanoseconds attributed to `cause`.
    pub fn get(&self, cause: Cause) -> u64 {
        self.ns[cause.index()]
    }

    fn add(&mut self, cause: Cause, ns: u64) {
        self.ns[cause.index()] += ns;
    }

    /// Sum over all causes — equals the request's `latency_ns`.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Iterates `(cause, ns)` pairs in presentation order.
    pub fn iter(&self) -> impl Iterator<Item = (Cause, u64)> + '_ {
        Cause::ALL.iter().map(move |&c| (c, self.get(c)))
    }
}

/// The exact critical-path decomposition of one completed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestAttribution {
    /// Request id.
    pub req: u64,
    /// Model instance served.
    pub instance: usize,
    /// GPU that completed the request.
    pub gpu: usize,
    /// Whether the final run was a cold start.
    pub cold: bool,
    /// Arrival time in nanoseconds (completion − latency).
    pub arrival_ns: u64,
    /// Completion time in nanoseconds.
    pub finish_ns: u64,
    /// Probe-measured end-to-end latency in nanoseconds.
    pub latency_ns: u64,
    /// The decomposition; `parts.total_ns() == latency_ns` exactly.
    pub parts: Parts,
}

/// A run slot's record since a dispatch: the request it serves, and each
/// exec or stall start and end as `(time, cause from then on)` in log
/// order. A start opens a span of its cause and ends any span still open
/// (a run's execution stream is always in exactly one layer or one
/// stall); an end, and the run's own end, switch back to [`Cause::Other`].
struct RunSteps {
    req: u64,
    steps: Vec<(u64, Cause)>,
}

/// A request the walk has seen neither complete nor shed.
#[derive(Default)]
struct Pending {
    /// Each dispatch and retry as `(time, cause from then on)`: a dispatch
    /// starts retry overhead (the failed attempt, should it fail, and its
    /// backoff until the re-queue), a re-queue starts queue time.
    steps: Vec<(u64, Cause)>,
    /// Index in `steps` and run slot of the latest dispatch.
    dispatch: Option<(usize, usize)>,
    /// The record of that dispatch's run, once the run ended.
    run: Option<RunSteps>,
}

/// Charges `[arrival, finish]`, queue time until the first step: each
/// `(time, cause)` step, clipped to start where the previous one ended
/// and to end by `finish`, closes the segment before it and opens one of
/// its cause. The segments partition the window, so the parts sum to
/// `finish - arrival` exactly whatever the steps.
fn decompose(arrival: u64, finish: u64, steps: impl Iterator<Item = (u64, Cause)>) -> Parts {
    let mut parts = Parts::default();
    let (mut prev, mut cause) = (arrival, Cause::Queue);
    for (at, next) in steps {
        let at = at.clamp(prev, finish);
        parts.add(cause, at - prev);
        (prev, cause) = (at, next);
    }
    parts.add(cause, finish - prev);
    parts
}

/// What the walk holds between events: the requests neither completed
/// nor shed, and the run records by slot, from a dispatch until the run
/// ends.
#[derive(Default)]
struct Walk {
    pend: HashMap<u64, Pending>,
    runs: HashMap<usize, RunSteps>,
}

impl Walk {
    /// Records a step of run slot `run`, if a dispatch opened its record.
    fn step(&mut self, run: usize, at: u64, cause: Cause) {
        if let Some(r) = self.runs.get_mut(&run) {
            r.steps.push((at, cause));
        }
    }

    /// Ends the record of run slot `run` at `at`, if it has one, and keeps
    /// it under its request when that request's latest dispatch started it.
    fn end_run(&mut self, run: usize, at: u64) {
        let Some(mut record) = self.runs.remove(&run) else {
            return;
        };
        record.steps.push((at, Cause::Other));
        if let Some(p) = self.pend.get_mut(&record.req) {
            if p.dispatch.is_some_and(|(_, r)| r == run) {
                p.run = Some(record);
            }
        }
    }
}

/// Fleet-level view of one trace: every request's decomposition plus
/// overhead totals and per-event-name counts.
#[derive(Debug, Clone, Default)]
pub struct Analysis {
    /// Per-request decompositions, in completion order.
    pub requests: Vec<RequestAttribution>,
    /// Requests shed without service.
    pub shed: u64,
    /// Retry attempts observed.
    pub retries: u64,
    /// Runs aborted mid-flight.
    pub aborted_runs: u64,
    /// Hedged duplicate transfers launched.
    pub hedged: u64,
    /// Recovery re-plan passes.
    pub replans: u64,
    /// Live plan migrations.
    pub plan_migrations: u64,
    /// Weight blocks re-fetched after checksum mismatches.
    pub checksum_refetches: u64,
    /// SLO burn-rate alerts in the trace.
    pub slo_alerts: u64,
    /// Total events in the trace.
    pub events: u64,
    /// Count per event name (`ProbeEvent::name()`), sorted by name.
    pub by_event: Vec<(&'static str, u64)>,
}

/// Attributes every completed request and tallies trace-level counters,
/// in one walk of the log.
///
/// Requests appear in completion order. Shed requests are skipped (they
/// have no end-to-end latency), and so is a completion with no dispatch
/// before it.
pub fn analyze(events: &[Event]) -> Analysis {
    let mut a = Analysis {
        events: events.len() as u64,
        ..Analysis::default()
    };
    let mut by_event: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut w = Walk::default();
    for e in events {
        *by_event.entry(e.what.name()).or_insert(0) += 1;
        let at = e.at.as_nanos();
        match e.what {
            ProbeEvent::ExecStarted { run, dha, .. } => {
                w.step(run, at, if dha { Cause::ExecDha } else { Cause::ExecGpu });
            }
            ProbeEvent::StallStarted { run, cause, .. } => {
                let cause = match cause {
                    StallCause::Barrier => Cause::StallBarrier,
                    StallCause::PcieLoad => Cause::StallPcieLoad,
                    StallCause::NvlinkMigrate => Cause::StallNvlinkMigrate,
                };
                w.step(run, at, cause);
            }
            ProbeEvent::ExecFinished { run, .. } | ProbeEvent::StallEnded { run, .. } => {
                w.step(run, at, Cause::Other);
            }
            ProbeEvent::RunCompleted { run, .. } => w.end_run(run, at),
            ProbeEvent::RunAborted { run, .. } => {
                a.aborted_runs += 1;
                w.end_run(run, at);
            }
            ProbeEvent::RequestDispatched { req, run, .. } => {
                // The engine reuses a slot only after its run ended; on
                // any other log the slot's record ends here.
                w.end_run(run, at);
                let steps = Vec::new();
                w.runs.insert(run, RunSteps { req, steps });
                let p = w.pend.entry(req).or_default();
                p.dispatch = Some((p.steps.len(), run));
                p.steps.push((at, Cause::Retry));
                p.run = None;
            }
            ProbeEvent::RequestRetried { req, .. } => {
                a.retries += 1;
                w.pend
                    .entry(req)
                    .or_default()
                    .steps
                    .push((at, Cause::Queue));
            }
            ProbeEvent::RequestShed { req, .. } => {
                a.shed += 1;
                w.pend.remove(&req);
            }
            ProbeEvent::RequestCompleted {
                req,
                instance,
                gpu,
                cold,
                latency_ns,
                ..
            } => {
                let Some(p) = w.pend.remove(&req) else {
                    continue;
                };
                let Some((d, run)) = p.dispatch else {
                    continue;
                };
                // The final run's record is still in its slot if the run
                // has not ended, else kept under the request.
                let record = match w.runs.entry(run) {
                    Entry::Occupied(o) if o.get().req == req => Some(o.remove()),
                    _ => p.run,
                };
                // From the final dispatch on, the time is the run's.
                let final_run = std::iter::once((p.steps[d].0, Cause::Other))
                    .chain(record.into_iter().flat_map(|r| r.steps));
                let arrival = at.saturating_sub(latency_ns);
                let parts = decompose(arrival, at, p.steps[..d].iter().copied().chain(final_run));
                debug_assert_eq!(parts.total_ns(), latency_ns.min(at - arrival));
                a.requests.push(RequestAttribution {
                    req,
                    instance,
                    gpu,
                    cold,
                    arrival_ns: arrival,
                    finish_ns: at,
                    latency_ns,
                    parts,
                });
            }
            ProbeEvent::FlowHedged { .. } => a.hedged += 1,
            ProbeEvent::ReplanTriggered { .. } => a.replans += 1,
            ProbeEvent::PlanMigrationStarted { .. } => a.plan_migrations += 1,
            ProbeEvent::LoadRefetched { .. } => a.checksum_refetches += 1,
            ProbeEvent::SloBurnAlert { .. } => a.slo_alerts += 1,
            _ => {}
        }
    }
    a.by_event = by_event.into_iter().collect();
    a
}

/// One row of a blame table: how much latency a cause contributed
/// within a group of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct BlameRow {
    /// Group key (e.g. `gpu0`, a model name, `all`).
    pub group: String,
    /// Cause bucket.
    pub cause: Cause,
    /// Median per-request contribution in milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile per-request contribution in milliseconds.
    pub p99_ms: f64,
    /// Share of the group's total latency, in percent.
    pub share_pct: f64,
}

/// Builds p50/p99 blame rows per `group(request) × cause`, sorted by
/// group then cause order. Causes contributing zero time to a group
/// are omitted. Percentiles are over *all* requests in the group
/// (zero contributions included), so `p50_ms` answers "how much does
/// this cause cost a typical request".
pub fn blame<F: Fn(&RequestAttribution) -> String>(
    atts: &[RequestAttribution],
    group: F,
) -> Vec<BlameRow> {
    let mut groups: BTreeMap<String, Vec<&RequestAttribution>> = BTreeMap::new();
    for a in atts {
        groups.entry(group(a)).or_default().push(a);
    }
    let mut rows = Vec::new();
    for (g, members) in groups {
        // Summed in 128 bits: a group of latencies near `u64::MAX` (read
        // from a user log) would overflow 64.
        let total: u128 = members.iter().map(|a| u128::from(a.parts.total_ns())).sum();
        for cause in Cause::ALL {
            let sum: u128 = members.iter().map(|a| u128::from(a.parts.get(cause))).sum();
            if sum == 0 {
                continue;
            }
            let mut s = Samples::new();
            for a in &members {
                s.push(a.parts.get(cause) as f64 / 1e6);
            }
            rows.push(BlameRow {
                group: g.clone(),
                cause,
                p50_ms: s.percentile(50.0),
                p99_ms: s.p99(),
                share_pct: if total == 0 {
                    0.0
                } else {
                    sum as f64 / total as f64 * 100.0
                },
            });
        }
    }
    rows
}

/// Renders an [`Analysis`] as the deterministic text report behind
/// `deepplan-cli analyze`: identical traces produce byte-identical
/// output.
pub fn render_analysis(a: &Analysis) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let cold = a.requests.iter().filter(|r| r.cold).count();
    let _ = writeln!(
        out,
        "critical-path attribution: {} completed request(s) ({} cold) over {} event(s)",
        a.requests.len(),
        cold,
        a.events
    );
    let _ = writeln!(
        out,
        "overheads: {} shed, {} retr(ies), {} aborted run(s), {} hedged transfer(s), \
         {} replan(s), {} plan migration(s), {} checksum refetch(es), {} slo alert(s)",
        a.shed,
        a.retries,
        a.aborted_runs,
        a.hedged,
        a.replans,
        a.plan_migrations,
        a.checksum_refetches,
        a.slo_alerts
    );
    if a.requests.is_empty() {
        return out;
    }
    let mut all = Samples::new();
    for r in &a.requests {
        all.push(r.latency_ns as f64 / 1e6);
    }
    let _ = writeln!(
        out,
        "end-to-end latency: p50 {:.3} ms, p99 {:.3} ms",
        all.percentile(50.0),
        all.p99()
    );
    let _ = writeln!(out);
    let _ = writeln!(out, "blame table (group x cause, ms per request):");
    let _ = writeln!(
        out,
        "{:<10} {:<22} {:>10} {:>10} {:>8}",
        "group", "cause", "p50 ms", "p99 ms", "share %"
    );
    let mut rows = blame(&a.requests, |r| format!("gpu{}", r.gpu));
    rows.extend(blame(&a.requests, |_| "all".to_string()));
    for row in rows {
        let _ = writeln!(
            out,
            "{:<10} {:<22} {:>10.3} {:>10.3} {:>8.1}",
            row.group,
            row.cause.as_str(),
            row.p50_ms,
            row.p99_ms,
            row.share_pct
        );
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "event counts:");
    for (name, n) in &a.by_event {
        let _ = writeln!(out, "  {name:<24} {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;

    fn ev(at: u64, what: ProbeEvent) -> Event {
        Event {
            at: SimTime::from_nanos(at),
            what,
        }
    }

    /// A hand-built trace: enqueue at 0, dispatch at 10, a stall, two
    /// exec slices (one DHA), complete at 100.
    fn simple_trace() -> Vec<Event> {
        vec![
            ev(
                0,
                ProbeEvent::RequestEnqueued {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                },
            ),
            ev(
                10,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    warm: false,
                    run: 0,
                },
            ),
            ev(
                10,
                ProbeEvent::StallStarted {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    cause: StallCause::PcieLoad,
                },
            ),
            ev(
                30,
                ProbeEvent::StallEnded {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    ns: 20,
                },
            ),
            ev(
                30,
                ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                    dha: false,
                },
            ),
            ev(
                60,
                ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 0,
                    gpu: 0,
                },
            ),
            ev(
                60,
                ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 1,
                    gpu: 0,
                    dha: true,
                },
            ),
            ev(
                100,
                ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 1,
                    gpu: 0,
                },
            ),
            ev(
                100,
                ProbeEvent::RequestCompleted {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    cold: true,
                    latency_ns: 100,
                    queue_wait_ns: 10,
                },
            ),
        ]
    }

    #[test]
    fn simple_request_decomposes_exactly() {
        let atts = analyze(&simple_trace()).requests;
        assert_eq!(atts.len(), 1);
        let a = &atts[0];
        assert_eq!(a.parts.get(Cause::Queue), 10);
        assert_eq!(a.parts.get(Cause::StallPcieLoad), 20);
        assert_eq!(a.parts.get(Cause::ExecGpu), 30);
        assert_eq!(a.parts.get(Cause::ExecDha), 40);
        assert_eq!(a.parts.get(Cause::Other), 0);
        assert_eq!(a.parts.total_ns(), a.latency_ns);
    }

    #[test]
    fn retry_time_is_attributed() {
        // Dispatch at 10 onto run 0, run aborted, retried (re-queued)
        // at 40, re-dispatched at 50, exec to 90.
        let events = vec![
            ev(
                0,
                ProbeEvent::RequestEnqueued {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                },
            ),
            ev(
                10,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    warm: true,
                    run: 0,
                },
            ),
            ev(25, ProbeEvent::RunAborted { run: 0, gpu: 0 }),
            ev(
                40,
                ProbeEvent::RequestRetried {
                    req: 1,
                    instance: 0,
                    gpu: 1,
                    attempt: 1,
                },
            ),
            ev(
                50,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 1,
                    warm: true,
                    run: 0,
                },
            ),
            ev(
                50,
                ProbeEvent::ExecStarted {
                    run: 0,
                    layer: 0,
                    gpu: 1,
                    dha: false,
                },
            ),
            ev(
                90,
                ProbeEvent::ExecFinished {
                    run: 0,
                    layer: 0,
                    gpu: 1,
                },
            ),
            ev(
                90,
                ProbeEvent::RequestCompleted {
                    req: 1,
                    instance: 0,
                    gpu: 1,
                    cold: false,
                    latency_ns: 90,
                    queue_wait_ns: 50,
                },
            ),
        ];
        let atts = analyze(&events).requests;
        assert_eq!(atts.len(), 1);
        let a = &atts[0];
        // queue: [0,10] + [40,50]; retry: [10,40]; exec: [50,90].
        assert_eq!(a.parts.get(Cause::Queue), 20);
        assert_eq!(a.parts.get(Cause::Retry), 30);
        assert_eq!(a.parts.get(Cause::ExecGpu), 40);
        assert_eq!(a.parts.total_ns(), 90);
    }

    #[test]
    fn uncovered_final_run_time_is_other() {
        let events = vec![
            ev(
                0,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    warm: true,
                    run: 3,
                },
            ),
            ev(
                5,
                ProbeEvent::ExecStarted {
                    run: 3,
                    layer: 0,
                    gpu: 0,
                    dha: false,
                },
            ),
            ev(
                15,
                ProbeEvent::ExecFinished {
                    run: 3,
                    layer: 0,
                    gpu: 0,
                },
            ),
            ev(
                20,
                ProbeEvent::RequestCompleted {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    cold: false,
                    latency_ns: 20,
                    queue_wait_ns: 0,
                },
            ),
        ];
        let a = &analyze(&events).requests[0];
        assert_eq!(a.parts.get(Cause::ExecGpu), 10);
        assert_eq!(a.parts.get(Cause::Other), 10);
        assert_eq!(a.parts.total_ns(), 20);
    }

    #[test]
    fn a_superseded_run_is_never_charged() {
        // Request 1 is dispatched onto run 0, then again onto run 1 while
        // run 0 still executes; run 1 ends first. Only run 1's spans are
        // its final run's, however late run 0 ends.
        let dispatch = |at, run| {
            ev(
                at,
                ProbeEvent::RequestDispatched {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    warm: true,
                    run,
                },
            )
        };
        let exec = |at, run, dha| {
            ev(
                at,
                ProbeEvent::ExecStarted {
                    run,
                    layer: 0,
                    gpu: 0,
                    dha,
                },
            )
        };
        let end = |at, run| {
            ev(
                at,
                ProbeEvent::RunCompleted {
                    run,
                    gpu: 0,
                    stall_ns: 0,
                    exec_busy_ns: 0,
                },
            )
        };
        let events = vec![
            dispatch(0, 0),
            exec(0, 0, true),
            dispatch(10, 1),
            exec(10, 1, false),
            end(30, 1),
            end(40, 0),
            ev(
                40,
                ProbeEvent::RequestCompleted {
                    req: 1,
                    instance: 0,
                    gpu: 0,
                    cold: false,
                    latency_ns: 40,
                    queue_wait_ns: 0,
                },
            ),
        ];
        let a = &analyze(&events).requests[0];
        assert_eq!(a.parts.get(Cause::Retry), 10);
        assert_eq!(a.parts.get(Cause::ExecGpu), 20);
        assert_eq!(a.parts.get(Cause::ExecDha), 0);
        assert_eq!(a.parts.get(Cause::Other), 10);
    }

    #[test]
    fn analysis_counts_and_rendering_are_deterministic() {
        let events = simple_trace();
        let a = analyze(&events);
        assert_eq!(a.requests.len(), 1);
        assert_eq!(a.events, events.len() as u64);
        assert!(a
            .by_event
            .iter()
            .any(|(n, c)| *n == "exec_started" && *c == 2));
        let r1 = render_analysis(&a);
        let r2 = render_analysis(&analyze(&events));
        assert_eq!(r1, r2);
        assert!(r1.contains("blame table"));
        assert!(r1.contains("exec-dha"));
    }

    #[test]
    fn blame_groups_and_shares() {
        let atts = analyze(&simple_trace()).requests;
        let rows = blame(&atts, |_| "all".to_string());
        let share: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((share - 100.0).abs() < 1e-9, "shares sum to 100: {share}");
        assert!(rows.iter().all(|r| r.group == "all"));
    }
}
