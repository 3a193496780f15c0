//! Self-healing control plane: re-planning on degraded topologies, live
//! plan hot-swap, rollback on recovery, and overload admission control.

use dnn_models::zoo::{build, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::presets::p3_8xlarge;
use model_serving::{poisson, run_server_faulted, DeployedModel, ServerConfig, ServingReport};
use simcore::fault::FaultSpec;
use simcore::probe::{Event, Probe, ProbeEvent, ShedCause};
use simcore::time::SimTime;

/// Runs a BERT-Base Poisson workload under `spec`, with the config
/// adjusted by `tweak` (e.g. enabling recovery or admission control).
fn run_with(
    spec: &str,
    concurrency: usize,
    rate: f64,
    requests: usize,
    tweak: impl FnOnce(&mut ServerConfig),
) -> (ServingReport, Vec<Event>) {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    tweak(&mut cfg);
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; concurrency];
    let trace = poisson::generate(rate, concurrency, requests, SimTime::ZERO, 11);
    let faults = FaultSpec::parse(spec, 11).expect("valid fault spec");
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let events = log.borrow().events.clone();
    (report, events)
}

fn count(events: &[Event], f: impl Fn(&ProbeEvent) -> bool) -> usize {
    events.iter().filter(|e| f(&e.what)).count()
}

/// p99 (ms) over requests *completed* inside `[from_s, to_s)` seconds.
fn windowed_p99_ms(events: &[Event], from_s: f64, to_s: f64) -> f64 {
    let mut ms: Vec<f64> = events
        .iter()
        .filter(|e| {
            let t = e.at.as_secs_f64();
            t >= from_s && t < to_s
        })
        .filter_map(|e| match e.what {
            ProbeEvent::RequestCompleted { latency_ns, .. } => Some(latency_ns as f64 / 1e6),
            _ => None,
        })
        .collect();
    assert!(!ms.is_empty(), "no completions in [{from_s}, {to_s})");
    ms.sort_by(|a, b| a.partial_cmp(b).unwrap());
    ms[((ms.len() as f64 * 0.99).ceil() as usize).min(ms.len() - 1)]
}

/// The whole second PCIe switch (GPUs 2 and 3) goes dark mid-serving
/// and comes back later. One dead GPU still leaves a cross-switch PT
/// partner, so only a full-switch outage forces the planner to collapse
/// parallel transmission to a single slot — the interesting re-plan.
const SWITCH_OUTAGE: &str = "gpu-fail@2s:gpu=2; gpu-fail@2s:gpu=3; \
                             gpu-recover@8s:gpu=2; gpu-recover@8s:gpu=3";

#[test]
fn switch_outage_replans_migrates_and_recovers_the_tail() {
    let (report, events) = run_with(SWITCH_OUTAGE, 60, 80.0, 1_200, |cfg| {
        cfg.recovery.enabled = true;
    });

    // Zero dropped non-sheddable requests: everything completes.
    assert_eq!(report.shed, 0, "recovery must not shed anything");
    assert_eq!(report.completed, 1_200);

    // The control plane reacted: at least one re-plan fired (the outage
    // and the recovery each change the topology signature) and the
    // stale 2-slot PT plan was swapped for a single-slot degraded plan.
    assert!(report.replans >= 2, "replans = {}", report.replans);
    assert!(count(&events, |w| matches!(w, ProbeEvent::ReplanTriggered { .. })) >= 2);
    let swapped_slots: Vec<usize> = events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::PlanSwapped { slots, .. } => Some(slots),
            _ => None,
        })
        .collect();
    assert!(
        swapped_slots.contains(&1),
        "no single-slot degraded plan was swapped in: {swapped_slots:?}"
    );
    // Rollback: the recovery transition restores a multi-slot plan.
    assert!(
        swapped_slots.last() == Some(&2),
        "last swap should roll back to the 2-slot boot plan: {swapped_slots:?}"
    );

    // Post-recovery tail returns to within 2x of the pre-fault tail.
    let pre = windowed_p99_ms(&events, 0.0, 2.0);
    let post = windowed_p99_ms(&events, 10.0, f64::INFINITY);
    assert!(
        post <= 2.0 * pre,
        "post-recovery p99 {post:.1} ms vs pre-fault p99 {pre:.1} ms"
    );
}

#[test]
fn recovery_beats_the_stale_plan_during_the_outage() {
    // Same schedule, recovery off: the server keeps dispatching the
    // boot-time 2-slot plan whose secondary partition folds onto the
    // primary as serial PCIe loads, so cold starts during the outage
    // are measurably slower than under the re-planned single-slot plan.
    let (on, ev_on) = run_with(SWITCH_OUTAGE, 60, 80.0, 1_200, |cfg| {
        cfg.recovery.enabled = true;
    });
    let (off, ev_off) = run_with(SWITCH_OUTAGE, 60, 80.0, 1_200, |cfg| {
        cfg.recovery.enabled = false;
    });
    assert_eq!(off.completed, 1_200, "stale plan must still complete");
    assert_eq!(off.replans, 0);
    assert_eq!(
        count(&ev_off, |w| matches!(w, ProbeEvent::ReplanTriggered { .. })),
        0
    );

    // Tail latency over the degraded window (outage through drain).
    let p99_on = windowed_p99_ms(&ev_on, 2.0, 10.0);
    let p99_off = windowed_p99_ms(&ev_off, 2.0, 10.0);
    assert!(
        p99_off > p99_on,
        "recovery-off outage p99 {p99_off:.1} ms should exceed recovery-on {p99_on:.1} ms"
    );
    assert!(on.p99_ms() <= off.p99_ms());
}

#[test]
fn plan_migration_streams_bytes_on_rollback() {
    // ResNet's PT plan force-Loads DHA layers that land in the second
    // transmission partition, so collapsing to one slot (dead switch)
    // lets those layers go back to DHA: the degraded plan is *smaller*.
    // Instances therefore shrink in place on the outage swap, and the
    // rollback must grow them back — visible as migration streams with
    // positive byte counts. (BERT-style models keep all their DHA layers
    // in partition 0, so their footprint is slot-invariant and a swap
    // migrates nothing — which is also correct.)
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.recovery.enabled = true;
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::ResNet50),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 60];
    let trace = poisson::generate(80.0, 60, 1_200, SimTime::ZERO, 11);
    let faults = FaultSpec::parse(SWITCH_OUTAGE, 11).expect("valid fault spec");
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    );
    let events = log.borrow().events.clone();
    assert!(report.plan_migrations > 0, "no live migration happened");
    let started = count(
        &events,
        |w| matches!(w, ProbeEvent::PlanMigrationStarted { bytes, .. } if *bytes > 0),
    );
    let finished = count(&events, |w| {
        matches!(w, ProbeEvent::PlanMigrationFinished { .. })
    });
    assert_eq!(started as u64, report.plan_migrations);
    assert_eq!(started, finished, "every migration stream must drain");
    assert_eq!(report.completed, 1_200, "migration must not lose requests");
}

#[test]
fn link_flap_hysteresis_coalesces_replans() {
    // A fast-flapping PCIe link produces many health transitions but
    // each settle window only admits the last one: far fewer re-plans
    // than capacity changes.
    let spec = "link-flap:pcie=0,up=300ms,down=60ms,factor=0.3";
    let (report, events) = run_with(spec, 40, 80.0, 800, |cfg| {
        cfg.recovery.enabled = true;
    });
    let flap_edges = count(&events, |w| matches!(w, ProbeEvent::LinkCapacity { .. }));
    assert!(flap_edges >= 4, "flap never fired ({flap_edges} edges)");
    assert!(
        report.replans < flap_edges as u64,
        "hysteresis failed: {} replans for {flap_edges} capacity edges",
        report.replans
    );
    assert_eq!(report.completed + report.shed, 800);
}

#[test]
fn bounded_queues_shed_with_backpressure_instead_of_collapsing() {
    // Offered load far above capacity on a healthy cluster: a bounded
    // queue converts unbounded waiting into explicit queue-full sheds,
    // and everything else still completes.
    let (report, events) = run_with("", 150, 2_000.0, 3_000, |cfg| {
        cfg.admission.queue_cap = Some(8);
    });
    assert_eq!(report.completed + report.shed, 3_000, "requests vanished");
    assert!(report.shed > 0, "overload never tripped the queue bound");
    let full = count(&events, |w| {
        matches!(
            w,
            ProbeEvent::RequestShed {
                cause: ShedCause::QueueFull,
                ..
            }
        )
    });
    assert_eq!(full as u64, report.shed);
    // The bound actually held: observed queue depth never exceeds cap.
    let max_depth = events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::QueueDepth { depth, .. } => Some(depth),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    assert!(max_depth <= 9, "queue grew to {max_depth} despite cap 8");
}

#[test]
fn slo_aware_rejection_sheds_early_under_overload() {
    let (report, events) = run_with("", 150, 2_000.0, 3_000, |cfg| {
        cfg.admission.slo_reject_factor = Some(2.0);
    });
    assert_eq!(report.completed + report.shed, 3_000);
    assert!(report.shed > 0, "SLO rejection never engaged");
    let slo = count(&events, |w| {
        matches!(
            w,
            ProbeEvent::RequestShed {
                cause: ShedCause::SloReject,
                ..
            }
        )
    });
    assert_eq!(slo as u64, report.shed);
}

#[test]
fn escalation_prefers_shedding_low_priority_traffic() {
    // Priorities cycle 0..4 over the trace; as queues pass half the cap
    // the admitted-priority floor ramps up, so the shed population must
    // be biased toward low priorities.
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.admission.queue_cap = Some(12);
    cfg.admission.escalate_priority = 4;
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::BertBase),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; 150];
    let mut trace = poisson::generate(2_000.0, 150, 3_000, SimTime::ZERO, 11);
    for (i, r) in trace.iter_mut().enumerate() {
        r.priority = (i % 5) as u8;
    }
    let (probe, log) = Probe::logging();
    let report = run_server_faulted(
        cfg,
        kinds,
        &instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &FaultSpec::none(),
    );
    let events = log.borrow().events.clone();
    assert_eq!(report.completed + report.shed, 3_000);
    assert!(report.shed > 0);
    // Count sheds by the priority of the shed request: priorities are
    // assigned round-robin by arrival order, and `req` ids are assigned
    // in arrival order too, so req % 5 recovers the priority.
    let shed_prios: Vec<u64> = events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::RequestShed { req, .. } => Some(req % 5),
            _ => None,
        })
        .collect();
    let low: usize = shed_prios.iter().filter(|&&p| p <= 1).count();
    let high: usize = shed_prios.iter().filter(|&&p| p >= 3).count();
    assert!(
        low > high,
        "escalation should shed low priority first: {low} low vs {high} high of {}",
        shed_prios.len()
    );
}

#[test]
fn recovery_enabled_is_inert_on_a_healthy_run() {
    // With no health transitions the recovery manager never wakes up:
    // the event log is byte-identical to a recovery-disabled run.
    let jsonl = |enabled: bool| {
        let (report, events) = run_with("", 60, 80.0, 800, |cfg| {
            cfg.recovery.enabled = enabled;
        });
        assert_eq!(report.replans, 0);
        simcore::probe::to_jsonl(&events)
    };
    assert_eq!(jsonl(true), jsonl(false));
}
