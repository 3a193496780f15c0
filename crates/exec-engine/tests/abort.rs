//! Aborting runs: a torn-down run's callbacks never fire, its ref goes
//! stale, and the flows and timers it left behind land as no-ops — even
//! on a later run that reuses its slot. Every such event is a word
//! naming (run, transmission slot), so the aborts here land inside each
//! window where one is pending: a weight block's launch timer, an
//! NVLink forward's launch timer, a DHA read, a forward in flight.
//!
//! Decode token steps are not engine runs: the serving layer times them
//! and guards each part on its batch's step counter, and
//! `tests/chaos_soak.rs` checks that guard on GPU crashes mid-step.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use dnn_models::layer::{Layer, LayerKind};
use dnn_models::model::{Model, ModelFamily};
use exec_engine::hw::{HasHw, HwState};
use exec_engine::launch::{abort_run, start_inference, LaunchSpec};
use exec_engine::runtime::ModelRuntime;
use exec_planner::plan::{ExecutionPlan, LayerExec};
use gpu_topology::device::v100;
use gpu_topology::presets::p3_8xlarge;
use simcore::driver::{FlowDriver, HasFlowDriver};
use simcore::probe::{Event, EventLog, Probe, ProbeEvent};
use simcore::sim::Sim;
use simcore::time::SimTime;

/// A world that records which completion callbacks fired.
struct World {
    hw: HwState<World>,
    flows: FlowDriver<World>,
    fired: Vec<&'static str>,
}

impl HasFlowDriver for World {
    fn flow_driver(&mut self) -> &mut FlowDriver<World> {
        &mut self.flows
    }
}

impl HasHw for World {
    fn hw(&mut self) -> &mut HwState<World> {
        &mut self.hw
    }
}

/// A probed world on the 4-GPU p3.8xlarge.
fn world() -> (Sim<World>, Rc<RefCell<EventLog>>) {
    let (mut hw, flows) = HwState::new(p3_8xlarge());
    let (probe, log) = Probe::logging();
    hw.probe = probe;
    let world = World {
        hw,
        flows,
        fired: Vec::new(),
    };
    (Sim::new(world), log)
}

/// `n` identical `width`-square FC layers over `tokens` tokens.
fn fc_model(n: usize, width: u64, tokens: u64) -> Model {
    let layers = (0..n)
        .map(|i| {
            Layer::new(
                format!("fc{i}"),
                LayerKind::Linear {
                    d_in: width,
                    d_out: width,
                    tokens_per_item: tokens,
                },
            )
        })
        .collect();
    Model {
        name: "fc".into(),
        family: ModelFamily::Encoder,
        layers,
        seq_len: 64,
    }
}

/// A cold, pipelined, all-load launch of `partitions` on GPU 0, with
/// `secondaries` loading slots 1.. and forwarding over NVLink.
fn cold_spec(partitions: Vec<Vec<usize>>, secondaries: Vec<usize>) -> LaunchSpec {
    let n = partitions.iter().map(Vec::len).sum();
    // 256 KiB of weights a layer.
    let model = fc_model(n, 256, 64);
    let plan = Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        decisions: vec![LayerExec::Load; n],
        partitions,
        block_bytes: None,
    });
    LaunchSpec {
        secondaries,
        ..LaunchSpec::new(ModelRuntime::new(&model, &v100(), 1), plan, 0)
    }
}

/// A launch of `n` layers on GPU 0 that all read their weights from
/// host memory (DHA): no loads, one PCIe read beside each layer's
/// compute. A layer's 16 MiB of weights serve one token, so the read
/// outlasts the compute.
fn dha_spec(n: usize) -> LaunchSpec {
    let model = fc_model(n, 2048, 1);
    let plan = Arc::new(ExecutionPlan {
        model: model.name.clone(),
        batch: 1,
        pipelined: true,
        decisions: vec![LayerExec::Dha; n],
        partitions: vec![Vec::new()],
        block_bytes: None,
    });
    LaunchSpec::new(ModelRuntime::new(&model, &v100(), 1), plan, 0)
}

/// The engine run an event names, if any.
fn run_of(e: &ProbeEvent) -> Option<usize> {
    match *e {
        ProbeEvent::LoadStarted { run, .. }
        | ProbeEvent::LoadFinished { run, .. }
        | ProbeEvent::LoadRefetched { run, .. }
        | ProbeEvent::ChecksumMismatch { run, .. }
        | ProbeEvent::MigrateStarted { run, .. }
        | ProbeEvent::MigrateFinished { run, .. }
        | ProbeEvent::ExecStarted { run, .. }
        | ProbeEvent::ExecFinished { run, .. }
        | ProbeEvent::StallStarted { run, .. }
        | ProbeEvent::StallEnded { run, .. }
        | ProbeEvent::RunCompleted { run, .. }
        | ProbeEvent::RunAborted { run, .. } => Some(run),
        _ => None,
    }
}

/// Events recorded at or after `from`.
fn since(log: &Rc<RefCell<EventLog>>, from: SimTime) -> Vec<Event> {
    log.borrow()
        .events
        .iter()
        .filter(|e| e.at >= from)
        .copied()
        .collect()
}

#[test]
fn aborted_runs_stay_dead_when_their_slots_are_reused() {
    const LAYERS: usize = 16;
    let abort_at = SimTime::from_nanos(110_000);
    let (mut sim, log) = world();
    let refs = Rc::new(RefCell::new(None));

    // A cold run mid-load on GPU 0.
    let r = refs.clone();
    sim.schedule_at(
        SimTime::ZERO,
        Box::new(move |w: &mut World, ctx| {
            let run = start_inference(
                w,
                ctx,
                cold_spec(vec![(0..LAYERS).collect()], Vec::new()),
                Box::new(|w: &mut World, _, _| w.fired.push("aborted run")),
            );
            *r.borrow_mut() = Some(run);
        }),
    );

    // Abort it, then launch a replacement that lands in the freed slot.
    let r = refs.clone();
    sim.schedule_at(
        abort_at,
        Box::new(move |w: &mut World, ctx| {
            let run = r.borrow().expect("launched at t = 0");
            assert!(abort_run(w, ctx, run));
            start_inference(
                w,
                ctx,
                cold_spec(vec![(0..LAYERS).collect()], Vec::new()),
                Box::new(|w: &mut World, _, _| w.fired.push("new run")),
            );
            // The old ref stays dead although its slot is live again.
            assert!(!abort_run(w, ctx, run));
        }),
    );
    sim.run_until_idle();

    assert_eq!(sim.state().fired, ["new run"]);

    // The aborted run was mid-load: some layer had started but not landed.
    let before: Vec<Event> = log
        .borrow()
        .events
        .iter()
        .filter(|e| e.at < abort_at)
        .copied()
        .collect();
    let old_id = before
        .iter()
        .find_map(|e| match e.what {
            ProbeEvent::LoadStarted { run, .. } => Some(run),
            _ => None,
        })
        .expect("the aborted run started loading");
    let count = |events: &[Event], f: &dyn Fn(&ProbeEvent) -> bool| {
        events.iter().filter(|e| f(&e.what)).count()
    };
    let loads_started = count(&before, &|e| matches!(e, ProbeEvent::LoadStarted { .. }));
    let loads_done = count(&before, &|e| matches!(e, ProbeEvent::LoadFinished { .. }));
    assert!(loads_started > loads_done, "abort must land mid-load");

    // The replacement reuses the slot, so it carries the same probe id,
    // and its books show each layer exactly once: no late completion of
    // the aborted run marked one of its layers ready.
    let after = since(&log, abort_at);
    let new_id = after
        .iter()
        .find_map(|e| match e.what {
            ProbeEvent::RunCompleted { run, .. } => Some(run),
            _ => None,
        })
        .expect("the replacement run completed");
    assert_eq!(new_id, old_id, "the replacement reuses the aborted slot");
    let mine =
        |f: &dyn Fn(&ProbeEvent) -> bool| count(&after, &|e| run_of(e) == Some(new_id) && f(e));
    assert_eq!(mine(&|e| matches!(e, ProbeEvent::RunAborted { .. })), 1);
    assert_eq!(mine(&|e| matches!(e, ProbeEvent::RunCompleted { .. })), 1);
    for layer in 0..LAYERS {
        let of = |e: &ProbeEvent| match *e {
            ProbeEvent::LoadStarted { layer: l, .. }
            | ProbeEvent::LoadFinished { layer: l, .. }
            | ProbeEvent::ExecFinished { layer: l, .. } => l == layer,
            _ => false,
        };
        assert_eq!(
            mine(&|e| of(e) && matches!(e, ProbeEvent::LoadStarted { .. })),
            1
        );
        assert_eq!(
            mine(&|e| of(e) && matches!(e, ProbeEvent::LoadFinished { .. })),
            1
        );
        assert_eq!(
            mine(&|e| of(e) && matches!(e, ProbeEvent::ExecFinished { .. })),
            1
        );
    }
}

#[test]
fn a_run_aborted_mid_migration_is_never_named_again() {
    // Slot 1 loads onto GPU 2 and forwards each layer to GPU 0 over NVLink.
    let launch = |sim: &mut Sim<World>| {
        let run = Rc::new(RefCell::new(None));
        let r = run.clone();
        sim.schedule_at(
            SimTime::ZERO,
            Box::new(move |w: &mut World, ctx| {
                let spec = cold_spec(vec![(0..8).collect(), (8..16).collect()], vec![2]);
                let done = Box::new(|w: &mut World, _: &mut _, _| w.fired.push("run"));
                *r.borrow_mut() = Some(start_inference(w, ctx, spec, done));
            }),
        );
        run
    };

    // A clean run locates an instant inside the first NVLink forward.
    let (mut sim, log) = world();
    launch(&mut sim);
    sim.run_until_idle();
    let events = log.borrow().events.clone();
    let (start, layer) = events
        .iter()
        .find_map(|e| match e.what {
            ProbeEvent::MigrateStarted { layer, .. } => Some((e.at, layer)),
            _ => None,
        })
        .expect("a PT launch migrates");
    let end = events
        .iter()
        .find_map(|e| match e.what {
            ProbeEvent::MigrateFinished { layer: l, .. } if l == layer => Some(e.at),
            _ => None,
        })
        .expect("the forward lands");
    let abort_at = SimTime::from_nanos((start.as_nanos() + end.as_nanos()) / 2);
    assert!(start < abort_at && abort_at < end);

    // The same launch, aborted there: nothing names the run afterwards.
    let (mut sim, log) = world();
    let run = launch(&mut sim);
    sim.schedule_at(
        abort_at,
        Box::new(move |w: &mut World, ctx| {
            let r = run.borrow().expect("launched at t = 0");
            assert!(abort_run(w, ctx, r));
        }),
    );
    sim.run_until_idle();
    assert!(sim.state().fired.is_empty());
    let events = log.borrow().events.clone();
    let aborted = events
        .iter()
        .position(|e| matches!(e.what, ProbeEvent::RunAborted { .. }))
        .expect("the run was aborted");
    let id = run_of(&events[aborted].what);
    let late: Vec<&Event> = events[aborted + 1..]
        .iter()
        .filter(|e| run_of(&e.what) == id)
        .collect();
    assert!(late.is_empty(), "events after the abort: {late:?}");
}

/// Runs `spec()` alone and returns its probe log: where the windows are.
fn clean_run(spec: fn() -> LaunchSpec) -> Vec<Event> {
    let (mut sim, log) = world();
    sim.schedule_at(
        SimTime::ZERO,
        Box::new(move |w: &mut World, ctx| {
            start_inference(w, ctx, spec(), Box::new(|_, _, _| {}));
        }),
    );
    sim.run_until_idle();
    let events = log.borrow().events.clone();
    events
}

/// The time of the first event `f` picks, and what it picked.
fn first<T>(events: &[Event], f: impl Fn(&ProbeEvent) -> Option<T>) -> (SimTime, T) {
    events
        .iter()
        .find_map(|e| f(&e.what).map(|t| (e.at, t)))
        .expect("the clean run has the event")
}

/// The instant halfway through `(from, to)`, which must hold one.
fn inside(from: SimTime, to: SimTime) -> SimTime {
    let mid = SimTime::from_nanos((from.as_nanos() + to.as_nanos()) / 2);
    assert!(from < mid && mid < to, "empty window ({from:?}, {to:?})");
    mid
}

/// Launches `spec()` at t = 0, aborts it at `abort_at` (after `check`
/// has looked at the world there), and launches `spec()` again in the
/// same handler, into the freed slot. Checks that only the replacement
/// calls back and that after the `run_aborted`, every event naming the
/// slot is the replacement's, with each layer's books once: the
/// aborted run's pending words all went stale. Returns those events.
fn abort_and_replace(spec: fn() -> LaunchSpec, abort_at: SimTime, check: fn(&World)) -> Vec<Event> {
    let (mut sim, log) = world();
    let first_run = Rc::new(RefCell::new(None));
    let r = first_run.clone();
    sim.schedule_at(
        SimTime::ZERO,
        Box::new(move |w: &mut World, ctx| {
            let done = Box::new(|w: &mut World, _: &mut _, _| w.fired.push("aborted run"));
            *r.borrow_mut() = Some(start_inference(w, ctx, spec(), done));
        }),
    );
    sim.schedule_at(
        abort_at,
        Box::new(move |w: &mut World, ctx| {
            check(w);
            let old = first_run.borrow().expect("launched at t = 0");
            assert!(abort_run(w, ctx, old));
            let done = Box::new(|w: &mut World, _: &mut _, _| w.fired.push("new run"));
            start_inference(w, ctx, spec(), done);
        }),
    );
    sim.run_until_idle();
    assert_eq!(sim.state().fired, ["new run"]);

    let events = log.borrow().events.clone();
    let aborted = events
        .iter()
        .position(|e| matches!(e.what, ProbeEvent::RunAborted { .. }))
        .expect("the run was aborted");
    let id = run_of(&events[aborted].what);
    let after: Vec<Event> = events[aborted + 1..]
        .iter()
        .filter(|e| run_of(&e.what) == id)
        .copied()
        .collect();
    let completed = after
        .iter()
        .filter(|e| matches!(e.what, ProbeEvent::RunCompleted { .. }))
        .count();
    assert_eq!(completed, 1);
    let mut books: BTreeMap<(&str, usize), usize> = BTreeMap::new();
    for entry in after.iter().filter_map(|e| book_entry(&e.what)) {
        *books.entry(entry).or_default() += 1;
    }
    assert!(books.values().all(|&n| n == 1), "{books:?}");
    let spec = spec();
    let loads = spec.plan.partitions.iter().map(Vec::len).sum();
    let forwards = spec.plan.partitions[1..].iter().map(Vec::len).sum();
    for (kind, layers) in [
        ("load_started", loads),
        ("load_finished", loads),
        ("migrate_started", forwards),
        ("migrate_finished", forwards),
        ("exec_finished", spec.rt.layer_count()),
    ] {
        let booked = books.keys().filter(|&&(k, _)| k == kind).count();
        assert_eq!(booked, layers, "{kind}");
    }
    after
}

/// The layer a run's books enter an event under, by kind.
fn book_entry(e: &ProbeEvent) -> Option<(&'static str, usize)> {
    match *e {
        ProbeEvent::LoadStarted { layer, .. } => Some(("load_started", layer)),
        ProbeEvent::LoadFinished { layer, .. } => Some(("load_finished", layer)),
        ProbeEvent::MigrateStarted { layer, .. } => Some(("migrate_started", layer)),
        ProbeEvent::MigrateFinished { layer, .. } => Some(("migrate_finished", layer)),
        ProbeEvent::ExecFinished { layer, .. } => Some(("exec_finished", layer)),
        _ => None,
    }
}

/// A single-slot cold launch of 16 layers.
fn one_slot() -> LaunchSpec {
    cold_spec(vec![(0..16).collect()], Vec::new())
}

/// Slot 0 on GPU 0 and slot 1 on GPU 2, forwarding each layer over
/// NVLink.
fn two_slots() -> LaunchSpec {
    cold_spec(vec![(0..8).collect(), (8..16).collect()], vec![2])
}

#[test]
fn an_abort_while_a_block_launch_timer_pends_leaves_it_stale() {
    // Block 0 lands, and block 1 waits out its launch overhead before
    // its flow starts: no weight flow is on the wire then.
    let events = clean_run(one_slot);
    let landed = |l| {
        move |e: &ProbeEvent| match *e {
            ProbeEvent::LoadFinished { layer, .. } if layer == l => Some(()),
            _ => None,
        }
    };
    let issued = |l| {
        move |e: &ProbeEvent| match *e {
            ProbeEvent::LoadStarted { layer, .. } if layer == l => Some(()),
            _ => None,
        }
    };
    let (from, ()) = first(&events, landed(0));
    let (to, ()) = first(&events, issued(1));
    abort_and_replace(one_slot, inside(from, to), |w| {
        assert_eq!(w.flows.net.active_flows(), 0, "only the timer pends");
    });
}

#[test]
fn an_abort_while_a_forward_launch_timer_pends_leaves_it_stale() {
    // The first layer of slot 1 has landed on GPU 2, and its NVLink
    // forward waits out the launch overhead.
    let events = clean_run(two_slots);
    let (to, layer) = first(&events, |e| match *e {
        ProbeEvent::MigrateStarted { layer, .. } => Some(layer),
        _ => None,
    });
    let (from, ()) = first(&events, |e| match *e {
        ProbeEvent::LoadFinished { layer: l, .. } if l == layer => Some(()),
        _ => None,
    });
    abort_and_replace(two_slots, inside(from, to), |_| {});
}

#[test]
fn an_abort_while_a_dha_read_is_in_flight_leaves_it_stale() {
    // Layer 3 reads its weights over PCIe beside its compute; the read
    // is the only flow, and it sets the layer's span.
    let spec = || dha_spec(6);
    let events = clean_run(spec);
    let (from, dha) = first(&events, |e| match *e {
        ProbeEvent::ExecStarted { layer: 3, dha, .. } => Some(dha),
        _ => None,
    });
    assert!(dha, "every layer reads from host memory");
    let (to, ()) = first(&events, |e| match *e {
        ProbeEvent::ExecFinished { layer: 3, .. } => Some(()),
        _ => None,
    });
    let in_flight = |w: &World| assert_eq!(w.flows.net.active_flows(), 1, "the read is in flight");
    let replaced = abort_and_replace(spec, inside(from, to), in_flight);
    // The replacement's reads share the link with the stale one until it
    // drains, so no layer of it runs faster than alone: the stale read's
    // landing finished no layer of the replacement.
    let span = |events: &[Event], want| {
        let (start, ()) = first(events, |e| match *e {
            ProbeEvent::ExecStarted { layer, .. } if layer == want => Some(()),
            _ => None,
        });
        let (end, ()) = first(events, |e| match *e {
            ProbeEvent::ExecFinished { layer, .. } if layer == want => Some(()),
            _ => None,
        });
        end - start
    };
    for layer in 0..6 {
        assert!(
            span(&replaced, layer) >= span(&events, layer),
            "layer {layer}"
        );
    }
}
