//! Invariants of the engine events a logging probe records for one
//! cold start, and the Gantt chart drawn from them.

use std::collections::BTreeMap;

use deepplan::{DeepPlan, ModelId, PlanMode};
use exec_engine::launch::LaunchSpec;
use exec_engine::single::run_traced;
use exec_engine::timeline::{lanes, render};
use gpu_topology::presets::p3_8xlarge;
use simcore::probe::{Event, ProbeEvent};

fn traced(mode: PlanMode) -> (exec_engine::InferenceResult, Vec<Event>) {
    let machine = p3_8xlarge();
    let dp = DeepPlan::new(machine.clone()).with_exact_profile();
    let b = dp.plan_mode(ModelId::BertBase, 1, mode);
    let spec = LaunchSpec {
        secondaries: b.secondaries_for(0),
        ..LaunchSpec::new(b.runtime.clone(), b.plan.clone(), 0)
    };
    run_traced(machine, spec)
}

/// The charts `examples/timeline.rs` prints for BERT-Base, byte for
/// byte.
#[test]
fn timeline_chart_matches_golden() {
    let mut got = String::new();
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let (_, events) = traced(mode);
        got.push_str(&format!(
            "== {mode} ==\n{}",
            render(&lanes(&events, 0), 100)
        ));
    }
    assert_eq!(got, include_str!("data/golden_timeline.txt"));
}

#[test]
fn events_are_time_ordered_and_paired() {
    for mode in [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha] {
        let (_, events) = traced(mode);
        assert!(
            events.windows(2).all(|w| w[0].at <= w[1].at),
            "{mode}: events not time-sorted"
        );
        let count = |f: fn(&ProbeEvent) -> bool| events.iter().filter(|e| f(&e.what)).count();
        assert_eq!(
            count(|w| matches!(w, ProbeEvent::ExecStarted { .. })),
            count(|w| matches!(w, ProbeEvent::ExecFinished { .. })),
            "{mode}: unpaired exec events"
        );
        assert_eq!(
            count(|w| matches!(w, ProbeEvent::LoadStarted { .. })),
            count(|w| matches!(w, ProbeEvent::LoadFinished { .. })),
            "{mode}: unpaired load events"
        );
    }
}

#[test]
fn exec_intervals_never_overlap() {
    let (_, events) = traced(PlanMode::PtDha);
    let exec = lanes(&events, 0)
        .into_iter()
        .find(|l| l.label == "exec")
        .expect("exec lane");
    let mut busy: Vec<_> = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g != '.')
        .collect();
    busy.sort_by_key(|(a, _, _)| *a);
    for w in busy.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "overlapping exec intervals: {:?} and {:?}",
            w[0],
            w[1]
        );
    }
}

#[test]
fn exec_busy_matches_trace_intervals() {
    let (res, events) = traced(PlanMode::Dha);
    let exec = lanes(&events, 0)
        .into_iter()
        .find(|l| l.label == "exec")
        .expect("exec lane");
    let busy_ns: u64 = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g != '.')
        .map(|(a, b, _)| b.as_nanos() - a.as_nanos())
        .sum();
    let reported = res.exec_busy.as_nanos();
    assert!(
        busy_ns.abs_diff(reported) <= reported / 100,
        "trace busy {busy_ns} vs result {reported}"
    );
    let stall_ns: u64 = exec
        .intervals
        .iter()
        .filter(|(_, _, g)| *g == '.')
        .map(|(a, b, _)| b.as_nanos() - a.as_nanos())
        .sum();
    assert!(
        stall_ns.abs_diff(res.stall.as_nanos()) <= res.stall.as_nanos() / 100 + 1,
        "trace stall {stall_ns} vs result {}",
        res.stall.as_nanos()
    );
}

#[test]
fn pt_trace_contains_two_load_slots_and_migrations() {
    let (_, events) = traced(PlanMode::PtDha);
    let lane_labels: Vec<String> = lanes(&events, 0).into_iter().map(|l| l.label).collect();
    assert!(
        lane_labels.contains(&"load s0".to_string()),
        "{lane_labels:?}"
    );
    assert!(
        lane_labels.contains(&"load s1".to_string()),
        "{lane_labels:?}"
    );
    assert!(
        lane_labels.contains(&"migrate".to_string()),
        "{lane_labels:?}"
    );
}

#[test]
fn dha_layers_show_as_dha_glyph() {
    let (_, events) = traced(PlanMode::Dha);
    let has_dha_exec = events
        .iter()
        .any(|e| matches!(e.what, ProbeEvent::ExecStarted { dha: true, .. }));
    assert!(has_dha_exec, "no DHA execution in a DHA-mode run");
    let exec = lanes(&events, 0)
        .into_iter()
        .find(|l| l.label == "exec")
        .expect("exec lane");
    assert!(
        exec.intervals.iter().any(|&(_, _, g)| g == '='),
        "DHA execution not drawn with the DHA glyph"
    );
}

/// A traced run installs its probe on the flow driver too, as a serving
/// run does, so the log holds each link's bandwidth share. A PT+DHA cold
/// start loads over two PCIe paths and migrates over NVLink, and every
/// link it used publishes an idle sample once its last flow drains.
#[test]
fn traced_cold_start_records_link_shares() {
    let (_, events) = traced(PlanMode::PtDha);
    let mut last: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for e in &events {
        if let ProbeEvent::LinkShare {
            link,
            rate_bps,
            flows,
        } = e.what
        {
            last.insert(link, (rate_bps, flows));
        }
    }
    assert!(last.len() >= 3, "links with a share sample: {last:?}");
    for (link, &(rate_bps, flows)) in &last {
        assert!(
            rate_bps == 0.0 && flows == 0,
            "link {link} ends busy: {rate_bps} B/s over {flows} flows"
        );
    }
}
