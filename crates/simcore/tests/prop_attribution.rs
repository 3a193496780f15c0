//! Property tests for `attribution::analyze` on logs it did not write.
//!
//! `deepplan-cli analyze` reads user JSONL, so `analyze` must take any
//! event sequence without panicking: out-of-order timestamps, spans that
//! overlap or never close, run slots reused while a run is still open,
//! completions with no dispatch, extreme times and latencies. On every
//! such log each attribution sums exactly to its latency (clipped to the
//! completion time, since arrival cannot precede zero). On well-formed
//! logs each cause also equals the summed durations of its spans: the
//! final run's exec and stall spans, queue and retry time from the
//! milestones, and nothing of a failed attempt's run or of a later run
//! that reuses the slot.

use proptest::prelude::*;
use simcore::attribution::{analyze, render_analysis, Cause};
use simcore::probe::{Event, ProbeEvent, ShedCause, StallCause};
use simcore::time::SimTime;

/// One step of an arbitrary log.
#[derive(Debug, Clone)]
enum Op {
    Dispatch { req: u64, run: usize },
    Retry { req: u64 },
    Shed { req: u64 },
    Complete { req: u64, latency_ns: u64 },
    ExecStart { run: usize, dha: bool },
    ExecEnd { run: usize },
    StallStart { run: usize, cause: StallCause },
    StallEnd { run: usize },
    RunEnd { run: usize, aborted: bool },
}

/// When an op happens: after the previous one, or anywhere, including
/// before it and at the very end of time.
#[derive(Debug, Clone, Copy)]
enum When {
    After(u64),
    At(u64),
}

/// Mostly small latencies, sometimes the largest or any 64-bit value.
fn arb_latency() -> impl Strategy<Value = u64> {
    (0u32..6, 0u64..5_000, any::<u64>()).prop_map(|(k, small, big)| match k {
        0 => u64::MAX,
        1 => big,
        _ => small,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    let stall = [
        StallCause::Barrier,
        StallCause::PcieLoad,
        StallCause::NvlinkMigrate,
    ];
    (
        0u32..19,
        0u64..4,
        0usize..3,
        any::<bool>(),
        0usize..3,
        arb_latency(),
    )
        .prop_map(move |(k, req, run, flag, cause, latency_ns)| match k {
            0..=2 => Op::Dispatch { req, run },
            3 => Op::Retry { req },
            4 => Op::Shed { req },
            5..=6 => Op::Complete { req, latency_ns },
            7..=9 => Op::ExecStart { run, dha: flag },
            10..=12 => Op::ExecEnd { run },
            13..=14 => Op::StallStart {
                run,
                cause: stall[cause],
            },
            15..=16 => Op::StallEnd { run },
            _ => Op::RunEnd { run, aborted: flag },
        })
}

/// Mostly a short step forward, sometimes a jump anywhere in the first
/// 5 µs, sometimes to the last 100 ns of time.
fn arb_when() -> impl Strategy<Value = When> {
    (0u32..9, 0u64..200, 0u64..5_000, 0u64..=100).prop_map(|(k, step, at, end)| match k {
        0..=5 => When::After(step),
        6..=7 => When::At(at),
        _ => When::At(u64::MAX - end),
    })
}

fn event(at: u64, op: &Op) -> Event {
    let what = match *op {
        Op::Dispatch { req, run } => ProbeEvent::RequestDispatched {
            req,
            instance: 0,
            gpu: 0,
            warm: false,
            run,
        },
        Op::Retry { req } => ProbeEvent::RequestRetried {
            req,
            instance: 0,
            gpu: 0,
            attempt: 1,
        },
        Op::Shed { req } => ProbeEvent::RequestShed {
            req,
            instance: 0,
            cause: ShedCause::Deadline,
        },
        Op::Complete { req, latency_ns } => ProbeEvent::RequestCompleted {
            req,
            instance: 0,
            gpu: 0,
            cold: false,
            latency_ns,
            queue_wait_ns: 0,
        },
        Op::ExecStart { run, dha } => ProbeEvent::ExecStarted {
            run,
            layer: 0,
            gpu: 0,
            dha,
        },
        Op::ExecEnd { run } => ProbeEvent::ExecFinished {
            run,
            layer: 0,
            gpu: 0,
        },
        Op::StallStart { run, cause } => ProbeEvent::StallStarted {
            run,
            layer: 0,
            gpu: 0,
            cause,
        },
        Op::StallEnd { run } => ProbeEvent::StallEnded {
            run,
            layer: 0,
            gpu: 0,
            ns: 0,
        },
        Op::RunEnd { run, aborted: true } => ProbeEvent::RunAborted { run, gpu: 0 },
        Op::RunEnd {
            run,
            aborted: false,
        } => ProbeEvent::RunCompleted {
            run,
            gpu: 0,
            stall_ns: 0,
            exec_busy_ns: 0,
        },
    };
    Event {
        at: SimTime::from_nanos(at),
        what,
    }
}

fn build(ops: &[(When, Op)]) -> Vec<Event> {
    let mut t = 0u64;
    ops.iter()
        .map(|(when, op)| {
            t = match *when {
                When::After(d) => t.saturating_add(d),
                When::At(at) => at,
            };
            event(t, op)
        })
        .collect()
}

/// One exec or stall span of a well-formed run: idle time before it, its
/// cause and its duration.
#[derive(Debug, Clone, Copy)]
struct SpanShape {
    gap: u64,
    cause: Cause,
    dur: u64,
}

fn arb_spans() -> impl Strategy<Value = Vec<SpanShape>> {
    let causes = [
        Cause::ExecGpu,
        Cause::ExecDha,
        Cause::StallBarrier,
        Cause::StallPcieLoad,
        Cause::StallNvlinkMigrate,
    ];
    let span =
        (0u64..50, 0usize..causes.len(), 0u64..100).prop_map(move |(gap, c, dur)| SpanShape {
            gap,
            cause: causes[c],
            dur,
        });
    prop::collection::vec(span, 0..8)
}

/// A well-formed request: queued, optionally a failed attempt on its own
/// run (aborted, then re-queued after a backoff), then a final run that
/// completes before the request does. Optionally a later request reuses
/// the final run's slot, with spans of its own, before the first one
/// completes (a decode session outlives its prefill run).
#[derive(Debug, Clone)]
struct Lifecycle {
    queue: u64,
    failed: Option<(usize, Vec<SpanShape>, u64, u64)>,
    run: usize,
    spans: Vec<SpanShape>,
    run_tail: u64,
    neighbor: Option<Vec<SpanShape>>,
    done_gap: u64,
}

fn arb_lifecycle() -> impl Strategy<Value = Lifecycle> {
    let failed = (any::<bool>(), 0usize..3, arb_spans(), 0u64..300, 0u64..300).prop_map(
        |(on, run, spans, backoff, requeue)| on.then_some((run, spans, backoff, requeue)),
    );
    let neighbor = (any::<bool>(), arb_spans()).prop_map(|(on, spans)| on.then_some(spans));
    let run = (0usize..3, arb_spans(), 0u64..50);
    (0u64..500, failed, run, neighbor, 0u64..200).prop_map(
        |(queue, failed, (run, spans, run_tail), neighbor, done_gap)| Lifecycle {
            queue,
            failed,
            run,
            spans,
            run_tail,
            neighbor,
            done_gap,
        },
    )
}

/// Appends `spans` of run slot `run` from `*t` on, advancing `*t`.
fn push_spans(log: &mut Vec<(u64, Op)>, t: &mut u64, run: usize, spans: &[SpanShape]) {
    for s in spans {
        *t += s.gap;
        let start = match s.cause {
            Cause::ExecGpu => Op::ExecStart { run, dha: false },
            Cause::ExecDha => Op::ExecStart { run, dha: true },
            Cause::StallBarrier => Op::StallStart {
                run,
                cause: StallCause::Barrier,
            },
            Cause::StallPcieLoad => Op::StallStart {
                run,
                cause: StallCause::PcieLoad,
            },
            Cause::StallNvlinkMigrate => Op::StallStart {
                run,
                cause: StallCause::NvlinkMigrate,
            },
            Cause::Queue | Cause::Retry | Cause::Other => unreachable!("not a span cause"),
        };
        log.push((*t, start));
        *t += s.dur;
        let end = match s.cause {
            Cause::ExecGpu | Cause::ExecDha => Op::ExecEnd { run },
            _ => Op::StallEnd { run },
        };
        log.push((*t, end));
    }
}

/// The log of request 0's lifecycle (request 1 is the neighbor), and
/// request 0's expected nanoseconds per cause.
fn build_lifecycle(l: &Lifecycle) -> (Vec<Event>, [(Cause, u64); 7]) {
    let mut log = Vec::new();
    let mut t = l.queue;
    let mut retry = 0;
    let mut queue = l.queue;
    if let Some((run, spans, backoff, requeue)) = &l.failed {
        let from = t;
        log.push((t, Op::Dispatch { req: 0, run: *run }));
        push_spans(&mut log, &mut t, *run, spans);
        log.push((
            t,
            Op::RunEnd {
                run: *run,
                aborted: true,
            },
        ));
        t += backoff;
        log.push((t, Op::Retry { req: 0 }));
        retry = t - from;
        t += requeue;
        queue += requeue;
    }
    log.push((t, Op::Dispatch { req: 0, run: l.run }));
    push_spans(&mut log, &mut t, l.run, &l.spans);
    t += l.run_tail;
    log.push((
        t,
        Op::RunEnd {
            run: l.run,
            aborted: false,
        },
    ));
    if let Some(spans) = &l.neighbor {
        log.push((t, Op::Dispatch { req: 1, run: l.run }));
        push_spans(&mut log, &mut t, l.run, spans);
    }
    t += l.done_gap;
    log.push((
        t,
        Op::Complete {
            req: 0,
            latency_ns: t,
        },
    ));
    let events = log.iter().map(|(at, op)| event(*at, op)).collect();
    let span_sum = |c: Cause| l.spans.iter().filter(|s| s.cause == c).map(|s| s.dur).sum();
    let want = [
        (Cause::Queue, queue),
        (Cause::Retry, retry),
        (Cause::ExecGpu, span_sum(Cause::ExecGpu)),
        (Cause::ExecDha, span_sum(Cause::ExecDha)),
        (Cause::StallBarrier, span_sum(Cause::StallBarrier)),
        (Cause::StallPcieLoad, span_sum(Cause::StallPcieLoad)),
        (
            Cause::StallNvlinkMigrate,
            span_sum(Cause::StallNvlinkMigrate),
        ),
    ];
    (events, want)
}

proptest! {
    #[test]
    fn analyze_takes_any_log_and_sums_exactly(
        ops in prop::collection::vec((arb_when(), arb_op()), 0..64),
    ) {
        let events = build(&ops);
        let a = analyze(&events);
        let completions = events
            .iter()
            .filter(|e| matches!(e.what, ProbeEvent::RequestCompleted { .. }))
            .count();
        prop_assert!(a.requests.len() <= completions);
        prop_assert_eq!(a.events, events.len() as u64);
        for r in &a.requests {
            prop_assert_eq!(
                r.parts.total_ns(),
                r.latency_ns.min(r.finish_ns),
                "request {} does not sum to its latency: {:?}",
                r.req,
                r
            );
            prop_assert_eq!(r.arrival_ns + r.parts.total_ns(), r.finish_ns);
        }
        prop_assert!(render_analysis(&a).starts_with("critical-path attribution"));
    }

    #[test]
    fn well_formed_causes_equal_their_span_durations(l in arb_lifecycle()) {
        let (events, want) = build_lifecycle(&l);
        let a = analyze(&events);
        prop_assert_eq!(a.requests.len(), 1);
        let r = &a.requests[0];
        prop_assert_eq!(r.parts.total_ns(), r.latency_ns);
        let mut charged = 0;
        for (cause, ns) in want {
            prop_assert_eq!(r.parts.get(cause), ns, "{} in {:?}", cause.as_str(), r);
            charged += ns;
        }
        prop_assert_eq!(r.parts.get(Cause::Other), r.latency_ns - charged);
    }
}
