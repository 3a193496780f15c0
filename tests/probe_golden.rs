//! Byte identity of both probe exporters.
//!
//! `golden_every_event.jsonl` holds one sample line per `ProbeEvent`
//! variant, and `golden_every_event.perfetto.json` is its Perfetto
//! export. Both were recorded from the hand-written exporters, so any
//! change to how an event is written or read shows up here as a byte
//! diff. The four serving goldens are pinned on the Perfetto side by a
//! 64-bit FNV-1a hash of `to_perfetto(parse_jsonl(golden))`; their JSONL
//! side is pinned by `kernel_identity`, `decode` and `attribution`. No
//! `link_share` sample in them repeats its link's previous sample.

use std::collections::HashMap;

use simcore::probe::{parse_jsonl, to_jsonl, to_perfetto, PerfettoOptions, ProbeEvent};

mod common;
use common::{assert_bytes_eq, fnv1a64};

const EVERY_EVENT: &str = include_str!("data/golden_every_event.jsonl");
const EVERY_EVENT_PERFETTO: &str = include_str!("data/golden_every_event.perfetto.json");

fn perfetto_of(jsonl: &str) -> String {
    let events = parse_jsonl(jsonl).expect("golden parses");
    to_perfetto(&events, &PerfettoOptions::default())
}

#[test]
fn every_event_jsonl_roundtrips_byte_for_byte() {
    let events = parse_jsonl(EVERY_EVENT).expect("golden parses");
    assert_bytes_eq(&to_jsonl(&events), EVERY_EVENT, "golden_every_event.jsonl");
}

/// The sample file is the list of variants: a new event without a sample
/// line fails here.
#[test]
fn every_event_golden_has_one_line_per_event_name() {
    let events = parse_jsonl(EVERY_EVENT).expect("golden parses");
    let names: Vec<&str> = events.iter().map(|e| e.what.name()).collect();
    assert_eq!(names, ProbeEvent::NAMES);
}

#[test]
fn every_event_perfetto_matches_byte_for_byte() {
    assert_bytes_eq(
        &perfetto_of(EVERY_EVENT),
        EVERY_EVENT_PERFETTO,
        "golden_every_event.perfetto.json",
    );
}

const SERVING_GOLDENS: [(&str, &str); 4] = [
    ("golden_trace", include_str!("data/golden_trace.jsonl")),
    ("golden_faulted", include_str!("data/golden_faulted.jsonl")),
    (
        "golden_detection",
        include_str!("data/golden_detection.jsonl"),
    ),
    ("golden_decode", include_str!("data/golden_decode.jsonl")),
];

#[test]
fn serving_goldens_export_the_recorded_perfetto_bytes() {
    let got: Vec<(&str, String)> = SERVING_GOLDENS
        .iter()
        .map(|&(name, jsonl)| {
            let hash = fnv1a64(perfetto_of(jsonl).as_bytes());
            (name, format!("{hash:#018x}"))
        })
        .collect();
    let want = [
        ("golden_trace", "0x6b065a7153167284"),
        ("golden_faulted", "0x0043dd811526bf50"),
        ("golden_detection", "0x4d985e4c6c982d4b"),
        ("golden_decode", "0x4cd1d243adb53c11"),
    ];
    assert_eq!(got, want.map(|(name, hash)| (name, hash.to_string())));
}

/// A counter track holds its value until the next sample, so a link's
/// share is published only when it changes: no `link_share` line in a
/// serving golden repeats its link's previous sample.
#[test]
fn serving_goldens_never_repeat_a_link_share_sample() {
    for (name, jsonl) in SERVING_GOLDENS {
        let mut last = HashMap::new();
        let events = parse_jsonl(jsonl).expect("golden parses");
        for (line, e) in events.iter().enumerate() {
            if let ProbeEvent::LinkShare {
                link,
                rate_bps,
                flows,
            } = e.what
            {
                let sample = (rate_bps.to_bits(), flows);
                assert_ne!(
                    last.insert(link, sample),
                    Some(sample),
                    "{name} line {}: link {link} repeats its sample",
                    line + 1
                );
            }
        }
    }
}
