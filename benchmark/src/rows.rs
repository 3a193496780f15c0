//! Layer rows: single layers timed on pinned inputs built from the seed,
//! the same in every traced run whatever its workload.
//!
//! * planner — `generate` for every zoo model x {PipeSwitch, DHA,
//!   PT+DHA}, and `generate_degraded` with GPU 3 down;
//! * probe — the `maf-traced` run with its metrics probe against the
//!   same run with the probe off, then its event log replayed through
//!   `Probe::with_log` and through a `MetricsSink`;
//! * exporters, parser and attribution on that log;
//! * KV pager — the `decode-spill` `KvPage*`/`DecodeFinished` stream,
//!   captured in a probed pass, replayed through `try_alloc` / `spill` /
//!   `recall` / `free_request`, with every allocated page id checked
//!   against the log.

use std::hint::black_box;
use std::time::Instant;

use dnn_models::zoo::{build, catalog};
use exec_planner::degraded::generate_degraded;
use exec_planner::generate::{generate, PlanMode};
use gpu_topology::presets::p3_8xlarge;
use layer_profiler::profiler::Profiler;
use model_serving::{metrics_spec, KvPager};
use simcore::attribution::analyze;
use simcore::metrics::MetricsSink;
use simcore::probe::{parse_jsonl, to_jsonl, to_perfetto, Event, Probe, ProbeEvent};

use crate::stats::median_of;
use crate::trace::{self, span, Span};
use crate::workload::{self, Workload, MIB};

/// Timed repetitions of each row; the row reports their median.
const REPS: usize = 3;

pub struct Rows {
    pub errors: Vec<String>,
    pub metrics: Vec<(&'static str, f64)>,
    pub spans: Vec<Span>,
}

/// Median over [`REPS`] runs of `f`'s wall time in nanoseconds, divided
/// by `per`. Each result is dropped after its clock stops.
fn timed<T>(per: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            let out = black_box(f());
            let ns = t.elapsed().as_nanos() as f64;
            drop(out);
            ns / per.max(1) as f64
        })
        .collect();
    median_of(&times)
}

/// Runs every row. `scale` shrinks the captured runs as in
/// [`workload::setup`].
pub fn run_rows(seed: u64, scale: u32) -> Rows {
    trace::take_spans();
    let mut errors = Vec::new();
    let mut metrics = Vec::new();
    span("rows", || {
        span("row.planner", || planner_rows(&mut metrics));
        span("row.probe", || {
            probe_rows(seed, scale, &mut metrics, &mut errors)
        });
        span("row.kv", || kv_rows(seed, scale, &mut metrics, &mut errors));
    });
    Rows {
        errors,
        metrics,
        spans: trace::take_spans(),
    }
}

fn planner_rows(metrics: &mut Vec<(&'static str, f64)>) {
    let machine = p3_8xlarge();
    let profiler = Profiler::exact(machine.gpu(0).clone());
    let profiles: Vec<_> = catalog()
        .into_iter()
        .map(|id| profiler.profile(&build(id), 1).0)
        .collect();
    let modes = [PlanMode::PipeSwitch, PlanMode::Dha, PlanMode::PtDha];
    let calls = profiles.len() * modes.len();
    let sweep = |f: &dyn Fn(&layer_profiler::profile::ModelProfile, PlanMode) -> usize| {
        timed(calls, || {
            let mut n = 0;
            for p in &profiles {
                for &mode in &modes {
                    n += f(black_box(p), mode);
                }
            }
            n
        }) / 1e3
    };
    let gpu_up = [true, true, true, false];
    metrics.push((
        "planner.generate_us",
        sweep(&|p, mode| generate(p, &machine, mode, 2).decisions.len()),
    ));
    metrics.push((
        "planner.generate_degraded_us",
        sweep(&|p, mode| {
            generate_degraded(p, &machine, mode, 2, &gpu_up, &[])
                .decisions
                .len()
        }),
    ));
}

fn probe_rows(
    seed: u64,
    scale: u32,
    metrics: &mut Vec<(&'static str, f64)>,
    errors: &mut Vec<String>,
) {
    let inputs = workload::setup(Workload::MafTraced, seed, scale);
    let spec = metrics_spec(&inputs.cfg, &inputs.kinds, &inputs.instance_kinds);
    // Alternate probe-off and probed runs so drift hits both sides.
    let mut ratios = Vec::new();
    let mut events: Vec<Event> = Vec::new();
    for _ in 0..REPS {
        let t = Instant::now();
        let bare = inputs.serve(Probe::disabled());
        let off = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (probe, sink) = MetricsSink::probe(spec.clone());
        let probed = inputs.serve(probe);
        let on = t.elapsed().as_secs_f64();
        ratios.push(on / off);
        if bare.sim_events != probed.sim_events {
            errors.push("the metrics probe changed the event count".into());
        }
        events = std::mem::take(&mut sink.borrow_mut().log.events);
    }
    let n = events.len();
    metrics.push(("probe.overhead_pct", (median_of(&ratios) - 1.0) * 100.0));
    metrics.push((
        "probe.emit_log_ns",
        timed(n, || {
            let (probe, log) = Probe::logging();
            for e in &events {
                probe.emit(e.at, e.what);
            }
            log
        }),
    ));
    metrics.push((
        "probe.emit_metrics_ns",
        timed(n, || {
            let (probe, sink) = MetricsSink::probe(spec.clone());
            for e in &events {
                probe.emit(e.at, e.what);
            }
            sink.borrow_mut().finish();
            sink
        }),
    ));

    let jsonl = to_jsonl(&events);
    let opts = workload::perfetto_options(&inputs.cfg.machine);
    let perfetto_mib = to_perfetto(&events, &opts).len() as f64 / MIB;
    metrics.push(("export.jsonl_ns", timed(n, || to_jsonl(&events))));
    metrics.push((
        "export.perfetto_ns",
        timed(n, || to_perfetto(&events, &opts)),
    ));
    metrics.push(("export.jsonl_mib", jsonl.len() as f64 / MIB));
    metrics.push(("export.perfetto_mib", perfetto_mib));
    match parse_jsonl(&jsonl) {
        Ok(parsed) if parsed == events => {}
        _ => errors.push("parse_jsonl(to_jsonl(events)) != events".into()),
    }
    metrics.push(("analyze.parse_ns", timed(n, || parse_jsonl(&jsonl))));
    metrics.push(("analyze.attribute_ns", timed(n, || analyze(&events))));
}

/// One pager operation of the captured decode stream.
#[derive(Debug, Clone, Copy)]
enum KvOp {
    Alloc { req: u64, gpu: usize, page: usize },
    Spill { page: usize },
    Recall { gpu: usize, page: usize },
    Free { req: u64 },
}

/// Replays `ops` into a fresh pager; `Err` names the first op whose
/// outcome differs from the log.
fn replay(ops: &[KvOp], pager: KvPager) -> Result<KvPager, String> {
    let mut pager = pager;
    for (i, op) in ops.iter().enumerate() {
        let ok = match *op {
            KvOp::Alloc { req, gpu, page } => pager.try_alloc(req, gpu, 0) == Some(page),
            KvOp::Spill { page } => pager.spill(page),
            KvOp::Recall { gpu, page } => pager.recall(page, gpu, 0),
            KvOp::Free { req } => {
                pager.free_request(req);
                true
            }
        };
        if !ok {
            return Err(format!("KV replay diverged from the log at op {i}: {op:?}"));
        }
    }
    Ok(pager)
}

fn kv_rows(
    seed: u64,
    scale: u32,
    metrics: &mut Vec<(&'static str, f64)>,
    errors: &mut Vec<String>,
) {
    let inputs = workload::setup(Workload::DecodeSpill, seed, scale);
    let (probe, log) = Probe::logging();
    inputs.serve(probe);
    let ops: Vec<KvOp> = log
        .borrow()
        .events
        .iter()
        .filter_map(|e| match e.what {
            ProbeEvent::KvPageAlloc { req, gpu, page } => Some(KvOp::Alloc { req, gpu, page }),
            ProbeEvent::KvPageSpill { page, .. } => Some(KvOp::Spill { page }),
            ProbeEvent::KvPageRecall { gpu, page, .. } => Some(KvOp::Recall { gpu, page }),
            ProbeEvent::DecodeFinished { req, .. } => Some(KvOp::Free { req }),
            _ => None,
        })
        .collect();
    drop(log);
    let d = &inputs.cfg.decode;
    let pager = || {
        KvPager::new(
            d.page_bytes,
            inputs.cfg.machine.gpu_count(),
            d.gpu_pool_bytes,
            d.host_pool_bytes,
        )
    };
    match replay(&ops, pager()) {
        Ok(p) if p.is_empty() => {}
        Ok(p) => errors.push(format!("{} KV pages live after the replay", p.live_pages())),
        Err(e) => errors.push(e),
    }
    metrics.push((
        "kv.replay_ns_per_op",
        timed(ops.len(), || replay(&ops, pager())),
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_pass_their_checks_on_scaled_inputs() {
        let rows = run_rows(5, 60);
        assert!(rows.errors.is_empty(), "{:?}", rows.errors);
        for (name, v) in &rows.metrics {
            assert!(
                v.is_finite() && *v > 0.0 || *name == "probe.overhead_pct",
                "{name} = {v}"
            );
        }
    }

    #[test]
    fn replay_rejects_a_page_id_the_pager_would_not_hand_out() {
        let ops = [
            KvOp::Alloc {
                req: 1,
                gpu: 0,
                page: 0,
            },
            KvOp::Alloc {
                req: 1,
                gpu: 0,
                page: 7,
            },
        ];
        let err = replay(&ops, KvPager::new(1024, 1, 8 << 10, 8 << 10)).unwrap_err();
        assert!(err.contains("op 1"), "{err}");
    }
}
