//! Performance-trajectory harness: measures raw discrete-event engine
//! throughput (executed events per wall-clock second) on a fixed
//! fig15-style serving workload and appends a dated entry to the
//! `BENCH_simcore_events.json` trajectory at the repo root.
//!
//! The workload is pinned — 3 minutes of MAF-like arrivals at 150 rps
//! over 300 mixed BERT/RoBERTa/GPT-2 instances under PT+DHA, seed and
//! all — so entries are comparable commit-to-commit: `sim_events` must
//! stay bit-identical (the simulation is deterministic) while
//! `events_per_sec` tracks engine speed. The same workload runs twice,
//! probe-disabled and probe-enabled, so the cost of observability is a
//! tracked number (`events_per_sec_probed` / `probe_overhead_pct`)
//! guarding the "zero-cost when disabled" claim.
//!
//! A second pinned workload (`decode_*` fields) streams a GPT-2
//! continuous-batching decode run, probe-off and with the resilience
//! layer at its default (disabled): it gates the token-step hot path —
//! including the inert resilience branches — the fig15 one-shot
//! workload never enters. The bare fig15 row also counts the heap
//! allocations (and reallocations) each replay makes, through a
//! counting global allocator: the count is exact and must repeat in
//! every replay, so the entry's `heap_allocs` shows an algorithmic
//! change without host noise. The codec rows (`codec_*` fields) time
//! `to_jsonl`, `to_perfetto` and `parse_jsonl` over the first million
//! events of the probed fig15 log. The flow row (`flow_ops_per_sec`)
//! replays a fixed seeded history of flow starts, advances to the next
//! completion and cancels on the p3.8xlarge network: the incremental
//! re-rate alone, outside the event kernel. The bare, decode, codec and
//! flow rows are each the median of three timed replays in one process,
//! so one slow replay on a shared host does not set them (the probed
//! run is timed once). Run it on a quiet machine:
//!
//! ```text
//! cargo run --release -p bench --bin perf [-- --gate] [-- --note "..."]
//! ```
//!
//! With `--gate` (the CI mode) the run fails, without touching the
//! trajectory, when bare events/sec, or any decode or codec row the last
//! recorded entry carries, drops below 0.9× that entry — the
//! perf-regression tripwire — or when `heap_allocs` exceeds the last
//! entry that records one, exactly. The flow row is recorded but not
//! gated until several entries show its medians holding still. `--note`
//! labels the new entry. A trajectory file that is not a JSON array or
//! legacy object (cut off, or holding merge-conflict markers) is an
//! error that leaves the file untouched; a missing file starts a new
//! trajectory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use deepplan::PlanMode;
use dnn_models::zoo::{build, ModelId};
use gpu_topology::machine::Machine;
use gpu_topology::netmap::NetMap;
use gpu_topology::presets::p3_8xlarge;
use model_serving::workload::decode::{assign_lengths, LengthDist};
use model_serving::{poisson, run_server, DeployedModel, ServerConfig, ServingReport};
use serde_json::{json, Value};
use simcore::flow::{FlowId, FlowNet, LinkId};
use simcore::probe::{parse_jsonl, to_jsonl, to_perfetto, PerfettoOptions};
use simcore::rng::{pick_index, seeded};
use simcore::time::{SimDur, SimTime};

use bench::experiments::fig15;
use bench::experiments::serving::{run_mix, run_mix_probed};

const HORIZON_SECS: u64 = 180;
const RATE: f64 = 150.0;
const INSTANCES: usize = 300;
const TRAJECTORY: &str = "BENCH_simcore_events.json";
/// A gated run must stay within this fraction of the last entry.
const GATE_RATIO: f64 = 0.9;

const DECODE_REQUESTS: usize = 4_000;
const DECODE_RATE: f64 = 240.0;
const DECODE_INSTANCES: usize = 16;

/// Events of the probed fig15 log the codec rows write and read back.
const CODEC_EVENTS: usize = 1_000_000;

/// Operations in the flow row's history, and its seed.
const FLOW_OPS: usize = 1_000_000;
const FLOW_SEED: u64 = 11;

/// Timed replays behind each row.
const REPLAYS: usize = 3;

/// Heap allocations and reallocations made so far by this process.
static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation and reallocation in
/// [`ALLOCS`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter never touches
// the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: as in `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for that alignment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` [`REPLAYS`] times; returns its last result and the median
/// wall seconds of a run.
fn timed<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut secs = [0.0; REPLAYS];
    let mut out = None;
    for s in &mut secs {
        // One result alive at a time: a codec row's is tens of MB.
        drop(out.take());
        let start = Instant::now();
        out = Some(std::hint::black_box(f()));
        *s = start.elapsed().as_secs_f64();
    }
    secs.sort_by(f64::total_cmp);
    (out.expect("REPLAYS is not zero"), secs[REPLAYS / 2])
}

/// The pinned decode workload: GPT-2 continuous batching on a
/// p3.8xlarge with a deliberately tight device KV pool (spill/recall
/// traffic included), probe off, resilience at its default (off) — the
/// throughput this gates is the token-step hot path with the inert
/// resilience branches compiled in.
fn run_decode() -> ServingReport {
    let machine = p3_8xlarge();
    let mode = PlanMode::PtDha;
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    cfg.decode.enabled = true;
    cfg.decode.page_bytes = 64 << 10;
    cfg.decode.gpu_pool_bytes = 64 << 20;
    let kinds = vec![DeployedModel::prepare(
        &build(ModelId::Gpt2),
        &machine,
        mode,
        cfg.max_pt_gpus,
    )];
    let instance_kinds = vec![0usize; DECODE_INSTANCES];
    let mut trace = poisson::generate(
        DECODE_RATE,
        DECODE_INSTANCES,
        DECODE_REQUESTS,
        SimTime::ZERO,
        11,
    );
    assign_lengths(&mut trace, LengthDist::default(), 11);
    run_server(cfg, kinds, &instance_kinds, trace, SimTime::ZERO)
}

/// One operation of the flow row's history.
enum FlowOp {
    /// Start a flow of this many bytes over the first `hops` links of
    /// the path: a host path (uplink, PCIe lane) or one NVLink.
    Start(f64, [LinkId; 2], usize),
    /// Advance to the next completion instant, if any flow is live.
    Advance,
    /// Cancel a live flow, picked by this selector modulo the live count.
    Cancel(usize),
}

/// The flow row's history: 41% starts (a quarter of them NVLink
/// forwards) of 64 KiB to 64 MiB, 42% advances and 17% cancels. A
/// re-rate that finds any flow live then sees 3.19 of them on average;
/// on the pinned fig15 run it sees 3.18.
fn flow_history(machine: &Machine, map: &NetMap) -> Vec<FlowOp> {
    let mut rng = seeded(FLOW_SEED);
    (0..FLOW_OPS)
        .map(|_| match pick_index(&mut rng, 100) {
            0..=40 => {
                let bytes = (64 << 10) as f64 * (1 + pick_index(&mut rng, 1024)) as f64;
                if pick_index(&mut rng, 4) == 0 {
                    let (_, link) = map.nvlink[pick_index(&mut rng, map.nvlink.len())];
                    FlowOp::Start(bytes, [link, link], 1)
                } else {
                    let gpu = pick_index(&mut rng, machine.gpu_count());
                    FlowOp::Start(bytes, map.host_path(machine, gpu), 2)
                }
            }
            41..=82 => FlowOp::Advance,
            _ => FlowOp::Cancel(pick_index(&mut rng, 64)),
        })
        .collect()
}

/// Replays `ops` on `net`; returns the flows still live at the end.
fn replay_flows(mut net: FlowNet, ops: &[FlowOp]) -> usize {
    let mut live: Vec<FlowId> = Vec::new();
    let mut done = Vec::new();
    let mut now = SimTime::ZERO;
    for op in ops {
        match *op {
            FlowOp::Start(bytes, path, hops) => live.push(net.add_flow(bytes, &path[..hops])),
            FlowOp::Advance => {
                if let Some(t) = net.next_completion_time(now) {
                    now = t;
                    net.advance(now);
                }
            }
            FlowOp::Cancel(sel) => {
                if !live.is_empty() {
                    net.cancel_flow(live.swap_remove(sel % live.len()));
                }
            }
        }
        done.clear();
        net.drain_completed_into(&mut done);
        live.retain(|id| !done.iter().any(|(d, _)| d == id));
    }
    live.len()
}

/// Days-since-epoch to civil date (Howard Hinnant's algorithm), so the
/// trajectory carries human-readable dates without a chrono dependency.
fn today() -> String {
    let secs = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let z = (secs / 86_400) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

/// Reads a trajectory file's entries, upgrading a legacy single-object
/// file to a one-entry array.
fn parse_trajectory(text: &str) -> Result<Vec<Value>, String> {
    match serde_json::from_str::<Value>(text) {
        Ok(Value::Array(entries)) => Ok(entries),
        Ok(obj @ Value::Object(_)) => Ok(vec![obj]),
        Ok(_) => Err("not a JSON array or object".into()),
        Err(e) => Err(format!("not valid JSON ({e})")),
    }
}

/// Loads the trajectory; a missing file is an empty one.
fn load_trajectory() -> Result<Vec<Value>, String> {
    match std::fs::read_to_string(TRAJECTORY) {
        Ok(text) => parse_trajectory(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e.to_string()),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let gate = args.iter().any(|a| a == "--gate");
    let note = args
        .iter()
        .position(|a| a == "--note")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_default();

    let mut trajectory = load_trajectory().unwrap_or_else(|e| {
        eprintln!("error: {TRAJECTORY}: {e}; file left untouched");
        std::process::exit(1);
    });

    let horizon = SimDur::from_secs(HORIZON_SECS);
    let (kinds, instance_kinds) = fig15::mix(INSTANCES);
    let trace = fig15::trace(INSTANCES, horizon, RATE);

    let mut replay_allocs = Vec::with_capacity(REPLAYS);
    let (report, wall_secs) = timed(|| {
        let (instance_kinds, trace) = (instance_kinds.clone(), trace.clone());
        let before = ALLOCS.load(Relaxed);
        let report = run_mix(PlanMode::PtDha, &kinds, instance_kinds, trace);
        replay_allocs.push(ALLOCS.load(Relaxed) - before);
        report
    });
    let heap_allocs = replay_allocs[0];
    assert!(
        replay_allocs.iter().all(|&n| n == heap_allocs),
        "fig15 replays must allocate alike: {replay_allocs:?}"
    );
    let events_per_sec = report.sim_events as f64 / wall_secs.max(1e-9);
    let sim_wall_ratio = HORIZON_SECS as f64 / wall_secs.max(1e-9);

    let wall_probed = Instant::now();
    let (report_probed, probe_log) = run_mix_probed(PlanMode::PtDha, &kinds, instance_kinds, trace);
    let wall_secs_probed = wall_probed.elapsed().as_secs_f64();
    let events_per_sec_probed = report_probed.sim_events as f64 / wall_secs_probed.max(1e-9);
    assert_eq!(
        report.sim_events, report_probed.sim_events,
        "probe must not perturb the simulation"
    );
    let probe_overhead_pct = (wall_secs_probed / wall_secs.max(1e-9) - 1.0) * 100.0;

    let (decode_report, wall_secs_decode) = timed(run_decode);
    let decode_events_per_sec = decode_report.sim_events as f64 / wall_secs_decode.max(1e-9);

    let codec_log = &probe_log[..probe_log.len().min(CODEC_EVENTS)];
    let (_, map) = NetMap::build(&p3_8xlarge()).expect("preset topology is valid");
    let opts = PerfettoOptions {
        link_names: map.link_names(),
    };
    let (jsonl, jsonl_secs) = timed(|| to_jsonl(codec_log));
    let (perfetto, perfetto_secs) = timed(|| to_perfetto(codec_log, &opts));
    drop(perfetto);
    let (parsed, parse_secs) = timed(|| parse_jsonl(&jsonl));
    assert!(
        parsed.as_deref() == Ok(codec_log),
        "parse_jsonl(to_jsonl(log)) must give the log back"
    );
    let per_sec = |secs: f64| codec_log.len() as f64 / secs.max(1e-9);
    let codec_jsonl_events_per_sec = per_sec(jsonl_secs);
    let codec_perfetto_events_per_sec = per_sec(perfetto_secs);
    let codec_parse_events_per_sec = per_sec(parse_secs);

    let machine = p3_8xlarge();
    let (_, map) = NetMap::build(&machine).expect("preset topology is valid");
    let flow_ops = flow_history(&machine, &map);
    // One fresh network per replay, built before the clock starts.
    let mut nets: Vec<FlowNet> = (0..REPLAYS)
        .map(|_| NetMap::build(&machine).expect("preset topology is valid").0)
        .collect();
    let (_, flow_secs) =
        timed(|| replay_flows(nets.pop().expect("one network per replay"), &flow_ops));
    let flow_ops_per_sec = flow_ops.len() as f64 / flow_secs.max(1e-9);

    // The allocation gate is exact: the count repeats for the pinned
    // workload, so any rise is the code's.
    if let Some(last_allocs) = trajectory
        .iter()
        .rev()
        .find_map(|e| e["heap_allocs"].as_u64())
    {
        println!("gate: heap_allocs {heap_allocs} vs last recorded {last_allocs} (exact)");
        if gate && heap_allocs > last_allocs {
            eprintln!(
                "error: allocation regression: {heap_allocs} heap allocations > {last_allocs} \
                 (last trajectory entry recording them); trajectory left untouched"
            );
            std::process::exit(1);
        }
    }

    if let Some(last) = trajectory.last() {
        let last_eps = last["events_per_sec"].as_f64().unwrap_or(0.0);
        let last_events = last["sim_events"].as_u64();
        if last_events.is_some() && last_events != Some(report.sim_events) {
            eprintln!(
                "warning: sim_events changed ({:?} -> {}): the workload semantics moved, \
                 throughput is not directly comparable",
                last_events, report.sim_events
            );
        }
        let floor = last_eps * GATE_RATIO;
        println!(
            "gate: {events_per_sec:.0} events/sec vs floor {floor:.0} \
             ({GATE_RATIO}x last entry {last_eps:.0})"
        );
        if gate && events_per_sec < floor {
            eprintln!(
                "error: perf regression: {events_per_sec:.0} events/sec < {floor:.0} \
                 ({GATE_RATIO}x last trajectory entry); trajectory left untouched"
            );
            std::process::exit(1);
        }
        // The decode and codec rows gate the same way once a prior
        // entry carries them; older entries predate them and gate
        // nothing.
        for (key, now) in [
            ("decode_events_per_sec", decode_events_per_sec),
            ("codec_jsonl_events_per_sec", codec_jsonl_events_per_sec),
            (
                "codec_perfetto_events_per_sec",
                codec_perfetto_events_per_sec,
            ),
            ("codec_parse_events_per_sec", codec_parse_events_per_sec),
        ] {
            let Some(last_eps) = last[key].as_f64() else {
                continue;
            };
            let floor = last_eps * GATE_RATIO;
            println!(
                "gate: {key} {now:.0} vs floor {floor:.0} ({GATE_RATIO}x last entry {last_eps:.0})"
            );
            if gate && now < floor {
                eprintln!(
                    "error: perf regression: {key} {now:.0} < {floor:.0} \
                     ({GATE_RATIO}x last trajectory entry); trajectory left untouched"
                );
                std::process::exit(1);
            }
        }
    }

    let entry = json!({
        "date": today(),
        "note": note,
        "workload": format!(
            "fig15-maf {RATE} rps x {HORIZON_SECS} s, {INSTANCES} instances, pt+dha"
        ),
        "sim_events": report.sim_events,
        "wall_secs": (wall_secs * 1e3).round() / 1e3,
        "events_per_sec": events_per_sec.round(),
        "wall_secs_probed": (wall_secs_probed * 1e3).round() / 1e3,
        "events_per_sec_probed": events_per_sec_probed.round(),
        "probe_overhead_pct": (probe_overhead_pct * 10.0).round() / 10.0,
        "probe_events": probe_log.len(),
        "sim_secs": HORIZON_SECS,
        "sim_wall_ratio": (sim_wall_ratio * 10.0).round() / 10.0,
        "completed": report.completed,
        "heap_allocs": heap_allocs,
        "decode_workload": format!(
            "gpt2-decode {DECODE_RATE} rps x {DECODE_REQUESTS} reqs, \
             {DECODE_INSTANCES} instances, pt+dha, resilience off"
        ),
        "decode_sim_events": decode_report.sim_events,
        "decode_wall_secs": (wall_secs_decode * 1e3).round() / 1e3,
        "decode_events_per_sec": decode_events_per_sec.round(),
        "decode_tokens": decode_report.tokens_generated,
        "decode_completed": decode_report.completed,
        "codec_events": codec_log.len(),
        "codec_jsonl_events_per_sec": codec_jsonl_events_per_sec.round(),
        "codec_perfetto_events_per_sec": codec_perfetto_events_per_sec.round(),
        "codec_parse_events_per_sec": codec_parse_events_per_sec.round(),
        "flow_ops": flow_ops.len(),
        "flow_ops_per_sec": flow_ops_per_sec.round(),
    });
    println!("{}", serde_json::to_string_pretty(&entry).unwrap());
    trajectory.push(entry);

    let mut out = serde_json::to_string_pretty(&Value::Array(trajectory)).unwrap();
    out.push('\n');
    if let Err(e) = std::fs::write(TRAJECTORY, out) {
        eprintln!("error: writing {TRAJECTORY}: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::parse_trajectory;

    #[test]
    fn trajectory_parses_arrays_and_legacy_objects_and_rejects_damage() {
        let entries = parse_trajectory(r#"[{"sim_events": 1}, {"sim_events": 2}]"#);
        assert_eq!(entries.map(|e| e.len()), Ok(2));
        let legacy = parse_trajectory(r#"{"sim_events": 1}"#);
        assert_eq!(legacy.map(|e| e.len()), Ok(1));
        for damaged in [
            r#"[{"sim_events": 1}, {"sim_ev"#,
            "<<<<<<< HEAD\n[{\"sim_events\": 1}]\n=======\n[]\n>>>>>>> other\n",
            r#"[{"sim_events": 1}]
<<<<<<< HEAD"#,
            "",
            "7",
        ] {
            assert!(parse_trajectory(damaged).is_err(), "{damaged}");
        }
    }
}
