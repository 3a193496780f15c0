//! Gray-failure detection ablation — silent faults served blind, with
//! the observation-driven detector, and with an omniscient health
//! oracle.
//!
//! The headline comparison injects a *silent* PCIe slowdown (the link
//! delivers 0.4× its bandwidth but announces nothing) into an
//! oversubscribed BERT-Base workload — 200 instances against a cache
//! that holds ~140, so cold starts keep crossing the host links all
//! run long (warm-only fleets are undetectable *and* unaffected: no
//! bytes touch the sick wire) — and serves it three ways: detection off (the server keeps trusting its
//! healthy cost model), detection on (statistical baselines over
//! observable load/exec timings quarantine the link and feed the
//! inferred factor into the PR 5 re-planning path), and an oracle run
//! where the *same* physical degradation arrives as an announced
//! `link-degrade` health event. The gap between detector and oracle
//! fault-window p99 is the price of having to infer; the acceptance
//! gate keeps it within 25%. A fault-free control row pins the false-
//! positive rate at zero, and stuck-flow / corrupt-transfer rows
//! ablate the two transfer-hardening mechanisms (hedged duplicates,
//! checksum-verify-and-refetch) the detector unlocks.

use deepplan::{ModelId, PlanMode};
use dnn_models::zoo::build;
use gpu_topology::presets::p3_8xlarge;
use model_serving::catalog::DeployedModel;
use model_serving::config::ServerConfig;
use model_serving::metrics::ServingReport;
use model_serving::run_server_faulted;
use model_serving::workload::poisson;
use simcore::fault::FaultSpec;
use simcore::probe::{DetectState, Event, Probe, ProbeEvent};
use simcore::stats::Samples;
use simcore::time::SimTime;

use crate::setup::SEED;
use crate::table::{fmt, Table};

/// Silent 2.5× PCIe slowdown over the `[2 s, 8 s)` window — physics
/// only, no health announcement ever fires.
pub const SILENT_SPEC: &str =
    "silent-link-slow@2s:pcie=0,factor=0.4; silent-link-restore@8s:pcie=0";

/// The same degradation as an announced health event (what a perfect
/// failure detector with zero latency would report).
pub const ORACLE_SPEC: &str = "link-degrade@2s:pcie=0,factor=0.4; link-restore@8s:pcie=0";

/// One flow on PCIe lane 0 freezes for 800 ms at each injection point —
/// the hedged-transfer target.
pub const STUCK_SPEC: &str = "stuck-flow@2s:pcie=0,stall=800ms; stuck-flow@4s:pcie=0,stall=800ms";

/// Repeated single-transfer corruption on PCIe lane 0 — the
/// checksum-verify target.
pub const CORRUPT_SPEC: &str = "corrupt-transfer@2s:pcie=0; corrupt-transfer@3s:pcie=0; \
                                corrupt-transfer@4s:pcie=0; corrupt-transfer@5s:pcie=0";

/// One run: BERT-Base, `concurrency` instances, Poisson arrivals at
/// `rate` rps, `n` requests. `detection`/`hedge` arm the gray-failure
/// detector and its hedged transfers; recovery (re-planning) is always
/// on so every row has the same control plane to feed. Returns the
/// report plus the probe event log.
pub fn run_scenario(
    spec: &str,
    detection: bool,
    hedge: bool,
    concurrency: usize,
    rate: f64,
    n: usize,
) -> (ServingReport, Vec<Event>) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.recovery.enabled = true;
    cfg.detection.enabled = detection;
    cfg.detection.hedge = hedge;
    let kind = DeployedModel::prepare(&build(ModelId::BertBase), &machine, mode, cfg.max_pt_gpus);
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, n, SimTime::ZERO, SEED);
    let faults = if spec.is_empty() {
        FaultSpec::none()
    } else {
        FaultSpec::parse(spec, SEED).expect("valid fault spec")
    };
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        vec![kind],
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let events = log.borrow().events.clone();
    (report, events)
}

/// Milliseconds from the first silent fault injection to the first
/// inferred quarantine (link or GPU); NaN when either never happens.
pub fn detect_latency_ms(events: &[Event]) -> f64 {
    let injected = events
        .iter()
        .find(|e| matches!(e.what, ProbeEvent::SilentFaultInjected { .. }))
        .map(|e| e.at);
    let Some(t0) = injected else { return f64::NAN };
    events
        .iter()
        .filter(|e| e.at >= t0)
        .find(|e| {
            matches!(
                e.what,
                ProbeEvent::LinkInferred {
                    state: DetectState::Quarantined,
                    ..
                } | ProbeEvent::GpuInferred {
                    state: DetectState::Quarantined,
                    ..
                }
            )
        })
        .map_or(f64::NAN, |e| (e.at - t0).as_secs_f64() * 1e3)
}

/// p99 latency (ms) over requests completed inside `[from_s, to_s)`
/// seconds, by [`Samples::p99`]'s nearest rank; NaN when the window is
/// empty. The recovery ablation and its tests read their windows here too.
pub fn windowed_p99_ms(events: &[Event], from_s: f64, to_s: f64) -> f64 {
    let mut window = Samples::new();
    for e in events {
        if let ProbeEvent::RequestCompleted { latency_ns, .. } = e.what {
            if (from_s..to_s).contains(&e.at.as_secs_f64()) {
                window.push(latency_ns as f64 / 1e6);
            }
        }
    }
    if window.is_empty() {
        f64::NAN
    } else {
        window.p99()
    }
}

/// Runs the detection ablation with `n` requests per run.
pub fn run_with(n: usize) -> Table {
    let mut t = Table::new(
        "Gray-failure detection — BERT-Base, 150 rps, 200 instances, PT+DHA, fault window [2s, 8s)",
        &[
            "scenario",
            "config",
            "detect (ms)",
            "quar",
            "canaries",
            "hedged",
            "refetch",
            "fault p99 (ms)",
            "p99 (ms)",
            "goodput (%)",
        ],
    );
    let rows: Vec<(&str, &str, &str, bool, bool)> = vec![
        ("silent pcie 2.5x slow", SILENT_SPEC, "off", false, false),
        ("silent pcie 2.5x slow", SILENT_SPEC, "detector", true, true),
        (
            "announced pcie 2.5x slow",
            ORACLE_SPEC,
            "oracle",
            false,
            false,
        ),
        ("fault-free control", "", "detector", true, true),
        (
            "stuck flows (2x 800ms)",
            STUCK_SPEC,
            "no hedge",
            true,
            false,
        ),
        ("stuck flows (2x 800ms)", STUCK_SPEC, "hedge", true, true),
        (
            "corrupt transfers (4x)",
            CORRUPT_SPEC,
            "detector",
            true,
            true,
        ),
    ];
    for (name, spec, config, detection, hedge) in rows {
        let (r, events) = run_scenario(spec, detection, hedge, 200, 150.0, n);
        t.push(vec![
            name.to_string(),
            config.to_string(),
            fmt(detect_latency_ms(&events), 1),
            r.quarantines.to_string(),
            r.canaries.to_string(),
            r.hedged_transfers.to_string(),
            r.checksum_refetches.to_string(),
            fmt(windowed_p99_ms(&events, 2.0, 8.5), 1),
            fmt(r.p99_ms(), 1),
            fmt(r.goodput() * 100.0, 1),
        ]);
    }
    t
}

/// Runs the full-size ablation.
pub fn run() -> Table {
    run_with(2_000)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_scenarios_parse() {
        for spec in [SILENT_SPEC, ORACLE_SPEC, STUCK_SPEC, CORRUPT_SPEC] {
            assert!(
                FaultSpec::parse(spec, SEED).is_ok(),
                "invalid spec '{spec}'"
            );
        }
    }

    #[test]
    fn fault_free_control_never_quarantines() {
        let (r, _) = run_scenario("", true, true, 200, 150.0, 800);
        assert_eq!(r.quarantines, 0, "false positive on a healthy cluster");
        assert_eq!(r.canaries, 0, "canaries only fire after a quarantine");
    }

    #[test]
    fn detector_quarantines_silent_fault_and_tracks_oracle() {
        let n = 1_200;
        let (blind, _) = run_scenario(SILENT_SPEC, false, false, 200, 150.0, n);
        let (det, det_ev) = run_scenario(SILENT_SPEC, true, true, 200, 150.0, n);
        let (_ora, ora_ev) = run_scenario(ORACLE_SPEC, false, false, 200, 150.0, n);
        // Silent means silent: with no detector nothing reacts.
        assert_eq!(blind.replans, 0, "no announcement, no detector, no replan");
        assert_eq!(blind.quarantines, 0);
        // The detector both notices and feeds the recovery plane.
        assert!(det.quarantines >= 1, "silent slowdown must be quarantined");
        assert!(det.replans >= 1, "inferred health must drive a re-plan");
        let lat = detect_latency_ms(&det_ev);
        assert!(lat.is_finite() && lat > 0.0, "detect latency {lat}");
        // Acceptance gate: inferring health costs at most 25% of the
        // oracle's fault-window tail.
        let det_p99 = windowed_p99_ms(&det_ev, 2.0, 8.5);
        let ora_p99 = windowed_p99_ms(&ora_ev, 2.0, 8.5);
        assert!(
            det_p99 <= ora_p99 * 1.25,
            "detector fault-window p99 {det_p99:.1} ms vs oracle {ora_p99:.1} ms"
        );
    }

    #[test]
    fn hedging_rescues_stuck_flows() {
        let (off, off_ev) = run_scenario(STUCK_SPEC, true, false, 200, 150.0, 800);
        let (on, on_ev) = run_scenario(STUCK_SPEC, true, true, 200, 150.0, 800);
        assert_eq!(off.hedged_transfers, 0, "hedge disabled must never hedge");
        assert!(on.hedged_transfers > 0, "stuck flows must trigger hedges");
        let p_off = windowed_p99_ms(&off_ev, 2.0, 8.5);
        let p_on = windowed_p99_ms(&on_ev, 2.0, 8.5);
        assert!(
            p_on <= p_off,
            "hedging made the fault window worse: {p_on:.1} vs {p_off:.1} ms"
        );
    }

    #[test]
    fn checksum_refetches_corrupt_transfers() {
        let (r, _) = run_scenario(CORRUPT_SPEC, true, true, 200, 150.0, 800);
        assert!(r.checksum_refetches > 0, "corruption must be re-fetched");
        assert_eq!(r.completed + r.shed, 800, "no request silently lost");
    }
}
