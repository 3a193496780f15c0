//! Property tests for the probe exporters and the JSONL reader: the JSONL
//! and Perfetto serialisations of one `EventLog` must agree with the log
//! (and each other) on event counts, every Perfetto duration/async slice
//! must balance, and `parse_jsonl` must answer any mutated line with `Ok`
//! or `Err`, never a panic.

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

/// One sample line per event variant.
const EVERY_EVENT: &str = include_str!("../../../tests/data/golden_every_event.jsonl");

/// Values that stress the reader's integer and float handling.
const NASTY_VALUES: &[&str] = &[
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "1e999",
    "-1e999",
    "1e-999",
    "-1",
    "-0",
    "-4294967296",
    "0.5",
    "1e3",
    "\"\"",
    "true",
    "null",
];

/// One mutation of a JSONL line; the `u64`s pick positions and values.
#[derive(Debug, Clone)]
enum Mutation {
    FlipByte(u64, u8),
    Truncate(u64),
    DeleteKey(u64),
    DuplicateKey(u64, u64),
    ReplaceValue(u64, u64),
    RandomValue(u64, u64),
}

fn arb_mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<u64>(), any::<u64>())
            .prop_map(|(at, bits)| Mutation::FlipByte(at, (bits % 255) as u8 + 1)),
        any::<u64>().prop_map(Mutation::Truncate),
        any::<u64>().prop_map(Mutation::DeleteKey),
        (any::<u64>(), any::<u64>()).prop_map(|(k, at)| Mutation::DuplicateKey(k, at)),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Mutation::ReplaceValue(k, v)),
        (any::<u64>(), any::<u64>()).prop_map(|(k, v)| Mutation::RandomValue(k, v)),
    ]
}

/// The `"key":value` pairs of a flat object line. Event lines hold no
/// commas inside values, so a split on ',' is exact for unmutated lines
/// and merely arbitrary for mutated ones.
fn pairs(line: &str) -> Vec<String> {
    let inner = line.strip_prefix('{').unwrap_or(line);
    let inner = inner.strip_suffix('}').unwrap_or(inner);
    inner.split(',').map(str::to_string).collect()
}

fn object(pairs: &[String]) -> String {
    format!("{{{}}}", pairs.join(","))
}

fn with_value(pair: &str, value: &str) -> String {
    match pair.split_once(':') {
        Some((key, _)) => format!("{key}:{value}"),
        None => pair.to_string(),
    }
}

fn mutate(line: &str, m: &Mutation) -> String {
    let mut p = pairs(line);
    let pick = |n: usize, k: u64| (k % n as u64) as usize;
    match *m {
        Mutation::FlipByte(at, bits) => {
            let mut bytes = line.as_bytes().to_vec();
            if !bytes.is_empty() {
                let i = pick(bytes.len(), at);
                bytes[i] ^= bits;
            }
            return String::from_utf8_lossy(&bytes).into_owned();
        }
        Mutation::Truncate(at) => {
            let bytes = &line.as_bytes()[..pick(line.len() + 1, at)];
            return String::from_utf8_lossy(bytes).into_owned();
        }
        Mutation::DeleteKey(k) => {
            p.remove(pick(p.len(), k));
        }
        Mutation::DuplicateKey(k, at) => {
            let dup = p[pick(p.len(), k)].clone();
            p.insert(pick(p.len() + 1, at), dup);
        }
        Mutation::ReplaceValue(k, v) => {
            let i = pick(p.len(), k);
            p[i] = with_value(&p[i], NASTY_VALUES[pick(NASTY_VALUES.len(), v)]);
        }
        Mutation::RandomValue(k, v) => {
            let i = pick(p.len(), k);
            p[i] = with_value(&p[i], &v.to_string());
        }
    }
    object(&p)
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
