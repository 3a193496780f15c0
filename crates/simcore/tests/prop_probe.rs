//! Property tests for the probe exporters and the JSONL reader: the JSONL
//! and Perfetto serialisations of one `EventLog` must agree with the log
//! (and each other) on event counts, every Perfetto duration/async slice
//! must balance, and `parse_jsonl` must answer any mutated line with `Ok`
//! or `Err`, never a panic.

mod jsonl_mutation;

use jsonl_mutation::{arb_mutation, mutate, EVERY_EVENT};
use proptest::prelude::*;
use simcore::probe::{
    parse_jsonl, to_jsonl, to_perfetto, Event, PerfettoOptions, ProbeEvent, StallCause,
};
use simcore::time::SimTime;

/// Shape of one synthetic request's lifecycle.
#[derive(Debug, Clone)]
struct ReqShape {
    gpu: usize,
    layers: usize,
    stall_at: Option<usize>,
    gap_ns: u64,
}

fn arb_requests() -> impl Strategy<Value = Vec<ReqShape>> {
    prop::collection::vec(
        (0usize..4, 1usize..5, 0usize..10, 1u64..1000).prop_map(|(gpu, layers, stall, gap_ns)| {
            ReqShape {
                gpu,
                layers,
                // About half the requests stall somewhere mid-run.
                stall_at: (stall < layers).then_some(stall),
                gap_ns,
            }
        }),
        1..24,
    )
}

/// Materialises well-formed request lifecycles into a probe event log
/// with strictly increasing timestamps.
fn build_log(shapes: &[ReqShape]) -> Vec<Event> {
    let mut events = Vec::new();
    let mut t = 0u64;
    for (i, s) in shapes.iter().enumerate() {
        let req = i as u64;
        let mut push = |t: &mut u64, gap: u64, what: ProbeEvent| {
            *t += gap;
            events.push(Event {
                at: SimTime::from_nanos(*t),
                what,
            });
        };
        push(
            &mut t,
            s.gap_ns,
            ProbeEvent::RequestEnqueued {
                req,
                instance: i,
                gpu: s.gpu,
            },
        );
        let start = t;
        push(
            &mut t,
            s.gap_ns,
            ProbeEvent::RequestDispatched {
                req,
                instance: i,
                gpu: s.gpu,
                warm: s.stall_at.is_none(),
                run: i,
            },
        );
        for layer in 0..s.layers {
            if s.stall_at == Some(layer) {
                push(
                    &mut t,
                    1,
                    ProbeEvent::StallStarted {
                        run: i,
                        layer,
                        gpu: s.gpu,
                        cause: StallCause::PcieLoad,
                    },
                );
                push(
                    &mut t,
                    s.gap_ns,
                    ProbeEvent::StallEnded {
                        run: i,
                        layer,
                        gpu: s.gpu,
                        ns: s.gap_ns,
                    },
                );
            }
            push(
                &mut t,
                1,
                ProbeEvent::ExecStarted {
                    run: i,
                    layer,
                    gpu: s.gpu,
                    dha: false,
                },
            );
            push(
                &mut t,
                s.gap_ns,
                ProbeEvent::ExecFinished {
                    run: i,
                    layer,
                    gpu: s.gpu,
                },
            );
        }
        let latency_ns = t + 1 - start;
        push(
            &mut t,
            1,
            ProbeEvent::RequestCompleted {
                req,
                instance: i,
                gpu: s.gpu,
                cold: s.stall_at.is_some(),
                latency_ns,
                queue_wait_ns: 0,
            },
        );
    }
    events
}

proptest! {
    #[test]
    fn exporters_agree_on_event_counts(shapes in arb_requests()) {
        let events = build_log(&shapes);

        // JSONL: one line per event, and parsing recovers the log.
        let jsonl = to_jsonl(&events);
        prop_assert_eq!(jsonl.lines().count(), events.len());
        let parsed = parse_jsonl(&jsonl).expect("exporter output parses");
        prop_assert_eq!(&parsed, &events);

        // Perfetto: parses as JSON and slice counts match the log.
        let out = to_perfetto(&events, &PerfettoOptions::default());
        let v: serde_json::Value = serde_json::from_str(&out).expect("Perfetto JSON parses");
        let evs = v["traceEvents"].as_array().unwrap();

        let ph = |p: &str| evs.iter().filter(|e| e["ph"] == p).count();
        let n = shapes.len();
        // Async request spans: one open and one close per request, and
        // both exporters agree with the raw event counts.
        prop_assert_eq!(ph("b"), n);
        prop_assert_eq!(ph("e"), n);
        prop_assert_eq!(
            ph("b"),
            events
                .iter()
                .filter(|e| matches!(e.what, ProbeEvent::RequestEnqueued { .. }))
                .count()
        );
        // Duration slices balance globally...
        prop_assert_eq!(ph("B"), ph("E"));
        // ...and per engine lane (slices never close on another track).
        let keys: Vec<(i64, i64)> = evs
            .iter()
            .filter(|e| e["ph"] == "B" || e["ph"] == "E")
            .map(|e| (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()))
            .collect();
        let mut lanes: Vec<(i64, i64)> = keys.clone();
        lanes.sort_unstable();
        lanes.dedup();
        for lane in lanes {
            let b = evs
                .iter()
                .filter(|e| {
                    e["ph"] == "B"
                        && (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()) == lane
                })
                .count();
            let e_ = evs
                .iter()
                .filter(|e| {
                    e["ph"] == "E"
                        && (e["pid"].as_i64().unwrap(), e["tid"].as_i64().unwrap()) == lane
                })
                .count();
            prop_assert_eq!(b, e_, "unbalanced lane {:?}", lane);
        }
        // Flow arrows pair up: one dispatch source per first kernel.
        prop_assert_eq!(ph("s"), n);
        prop_assert_eq!(ph("f"), n);
    }
}

proptest! {
    #[test]
    fn mutated_jsonl_lines_never_panic_the_reader(
        mutations in prop::collection::vec(arb_mutation(), 1..5)
    ) {
        for golden in EVERY_EVENT.lines() {
            let line = mutations.iter().fold(golden.to_string(), |l, m| mutate(&l, m));
            let Ok(events) = parse_jsonl(&line) else {
                continue;
            };
            // Whatever the reader accepts, the writer reproduces exactly.
            for e in events {
                let again = to_jsonl(&[e]);
                let back = parse_jsonl(&again).expect("re-exported line parses");
                prop_assert_eq!(back, vec![e], "{} -> {}", line, again);
            }
        }
    }
}
