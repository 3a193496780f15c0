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
//! The decomposition is exact by construction: the segments partition
//! `[arrival, completion]` in integer nanoseconds, so the parts always
//! sum to the probe-measured `latency_ns` with no tolerance. The
//! pre-dispatch half comes from a milestone walk (enqueue → dispatch →
//! retried → … → final dispatch) and the final-run half from a
//! priority sweep over the run's exec and stall slices (exec wins over
//! stall where both claim an instant; gaps become `other`).
//!
//! [`analyze`] wraps [`attribute`] with per-event-name counters and
//! fleet-level overhead totals; [`render_analysis`] turns that into
//! the deterministic text report behind `deepplan-cli analyze`.

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

#[derive(Debug, Clone, Copy)]
enum Milestone {
    Dispatched { run: usize },
    Retried,
}

/// Reconstructs the exact critical-path decomposition of every
/// completed request in a probe event log.
///
/// Requests appear in completion order. Shed requests are skipped
/// (they have no end-to-end latency); [`analyze`] counts them.
pub fn attribute(events: &[Event]) -> Vec<RequestAttribution> {
    // Milestones per in-flight request: (log index, time ns, kind).
    let mut pend: HashMap<u64, Vec<(usize, u64, Milestone)>> = HashMap::new();
    let mut out = Vec::new();
    for (ci, e) in events.iter().enumerate() {
        match e.what {
            ProbeEvent::RequestDispatched { req, run, .. } => pend.entry(req).or_default().push((
                ci,
                e.at.as_nanos(),
                Milestone::Dispatched { run },
            )),
            ProbeEvent::RequestRetried { req, .. } => {
                pend.entry(req)
                    .or_default()
                    .push((ci, e.at.as_nanos(), Milestone::Retried))
            }
            ProbeEvent::RequestShed { req, .. } => {
                pend.remove(&req);
            }
            ProbeEvent::RequestCompleted {
                req,
                instance,
                gpu,
                cold,
                latency_ns,
                ..
            } => {
                let milestones = pend.remove(&req).unwrap_or_default();
                let finish = e.at.as_nanos();
                let arrival = finish.saturating_sub(latency_ns);
                let Some(dpos) = milestones
                    .iter()
                    .rposition(|(_, _, m)| matches!(m, Milestone::Dispatched { .. }))
                else {
                    continue; // completion without a dispatch: not attributable
                };
                let (di, _, Milestone::Dispatched { run }) = milestones[dpos] else {
                    unreachable!()
                };
                let mut parts = Parts::default();
                // Pre-final-dispatch walk: segments between milestones
                // are queue time, except dispatch → re-queue segments,
                // which are retry overhead (the failed attempt plus its
                // backoff).
                let mut prev = arrival;
                let mut state = Cause::Queue;
                for (_, tm, m) in &milestones[..=dpos] {
                    let tm = (*tm).clamp(prev, finish);
                    parts.add(state, tm - prev);
                    prev = tm;
                    state = match m {
                        Milestone::Dispatched { .. } => Cause::Retry,
                        Milestone::Retried => Cause::Queue,
                    };
                }
                // Final-run sweep over [final dispatch, completion]:
                // the run slot is unique among live runs, so every
                // exec/stall span with this run id until the run ends
                // belongs to this request. A later run may reuse the
                // slot before the request completes (a decode session
                // outlives its prefill), so the sweep stops there.
                sweep_final_run(&events[di..=ci], run, prev, finish, &mut parts);
                debug_assert_eq!(parts.total_ns(), latency_ns.min(finish - arrival));
                out.push(RequestAttribution {
                    req,
                    instance,
                    gpu,
                    cold,
                    arrival_ns: arrival,
                    finish_ns: finish,
                    latency_ns,
                    parts,
                });
            }
            _ => {}
        }
    }
    out
}

/// Classifies `[lo, hi]` by the run's exec and stall spans up to its
/// `run_completed` or `run_aborted`, where any span still open closes:
/// exec spans win over stall spans where both claim an instant, and any
/// residue becomes [`Cause::Other`]. The elementary segments partition
/// the window, so the added nanoseconds equal exactly `hi - lo`.
fn sweep_final_run(window: &[Event], run: usize, lo: u64, hi: u64, parts: &mut Parts) {
    struct Iv {
        start: u64,
        end: u64,
        cause: Cause,
        prio: u8,
    }
    let mut ivs: Vec<Iv> = Vec::new();
    let mut open_exec: Option<(u64, bool)> = None;
    let mut open_stall: Option<(u64, StallCause)> = None;
    let mut end = hi;
    let exec_cause = |dha: bool| if dha { Cause::ExecDha } else { Cause::ExecGpu };
    let stall_cause = |c: StallCause| match c {
        StallCause::Barrier => Cause::StallBarrier,
        StallCause::PcieLoad => Cause::StallPcieLoad,
        StallCause::NvlinkMigrate => Cause::StallNvlinkMigrate,
    };
    for e in window {
        let at = e.at.as_nanos();
        match e.what {
            ProbeEvent::ExecStarted { run: r, dha, .. } if r == run => {
                open_exec = Some((at, dha));
            }
            ProbeEvent::ExecFinished { run: r, .. } if r == run => {
                if let Some((s, dha)) = open_exec.take() {
                    ivs.push(Iv {
                        start: s,
                        end: at,
                        cause: exec_cause(dha),
                        prio: 2,
                    });
                }
            }
            ProbeEvent::StallStarted { run: r, cause, .. } if r == run => {
                open_stall = Some((at, cause));
            }
            ProbeEvent::StallEnded { run: r, .. } if r == run => {
                if let Some((s, c)) = open_stall.take() {
                    ivs.push(Iv {
                        start: s,
                        end: at,
                        cause: stall_cause(c),
                        prio: 1,
                    });
                }
            }
            ProbeEvent::RunCompleted { run: r, .. } | ProbeEvent::RunAborted { run: r, .. }
                if r == run =>
            {
                end = at;
                break;
            }
            _ => {}
        }
    }
    if let Some((s, dha)) = open_exec {
        ivs.push(Iv {
            start: s,
            end,
            cause: exec_cause(dha),
            prio: 2,
        });
    }
    if let Some((s, c)) = open_stall {
        ivs.push(Iv {
            start: s,
            end,
            cause: stall_cause(c),
            prio: 1,
        });
    }
    // Clip to the window and drop empty spans.
    ivs.retain_mut(|iv| {
        iv.start = iv.start.clamp(lo, hi);
        iv.end = iv.end.clamp(lo, hi);
        iv.start < iv.end
    });
    let mut bounds: Vec<u64> = Vec::with_capacity(ivs.len() * 2 + 2);
    bounds.push(lo);
    bounds.push(hi);
    for iv in &ivs {
        bounds.push(iv.start);
        bounds.push(iv.end);
    }
    bounds.sort_unstable();
    bounds.dedup();
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let mut best: Option<(&Iv, u8)> = None;
        for iv in &ivs {
            if iv.start <= a && iv.end >= b {
                match best {
                    Some((_, p)) if p >= iv.prio => {}
                    _ => best = Some((iv, iv.prio)),
                }
            }
        }
        let cause = best.map(|(iv, _)| iv.cause).unwrap_or(Cause::Other);
        parts.add(cause, b - a);
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

/// Attributes every completed request and tallies trace-level counters.
pub fn analyze(events: &[Event]) -> Analysis {
    let mut a = Analysis {
        requests: attribute(events),
        events: events.len() as u64,
        ..Analysis::default()
    };
    let mut by_event: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *by_event.entry(e.what.name()).or_insert(0) += 1;
        match e.what {
            ProbeEvent::RequestShed { .. } => a.shed += 1,
            ProbeEvent::RequestRetried { .. } => a.retries += 1,
            ProbeEvent::RunAborted { .. } => a.aborted_runs += 1,
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
        let total: u64 = members.iter().map(|a| a.parts.total_ns()).sum();
        for cause in Cause::ALL {
            let sum: u64 = members.iter().map(|a| a.parts.get(cause)).sum();
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
        let atts = attribute(&simple_trace());
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
        let atts = attribute(&events);
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
        let a = &attribute(&events)[0];
        assert_eq!(a.parts.get(Cause::ExecGpu), 10);
        assert_eq!(a.parts.get(Cause::Other), 10);
        assert_eq!(a.parts.total_ns(), 20);
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
        let atts = attribute(&simple_trace());
        let rows = blame(&atts, |_| "all".to_string());
        let share: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((share - 100.0).abs() < 1e-9, "shares sum to 100: {share}");
        assert!(rows.iter().all(|r| r.group == "all"));
    }
}
