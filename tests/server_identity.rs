//! Byte identity of the whole server across its configuration space.
//!
//! A seeded generator draws small serving scenarios, each policy drawn
//! independently of the others: machine preset, one or two catalog
//! kinds, plan mode, request priorities, decode (page size, pools, KV
//! mode, batch width), session resilience (swap, checkpoint bandwidth,
//! SLO tiers), recovery, detection, admission, deadline, priority floor
//! and a fault string over every kind the fault DSL parses. Each row of
//! `tests/data/golden_server_hashes.txt` pins the 64-bit FNV-1a hash of
//! one run's `to_jsonl` output beside the case's description.
//!
//! Before its hash is compared, every case checks the run's books: each
//! sent request completed or was shed, no KV page outlived the run, and
//! every allocated page was freed from the device or the host pool. It
//! also checks that `parse_jsonl` reads the run's JSONL back as its event
//! log, and that the same case run with the probe off executes the same
//! number of simulation events. A failure names the case.

use dnn_models::zoo::{build, catalog, ModelId};
use exec_planner::generate::PlanMode;
use gpu_topology::machine::Machine;
use gpu_topology::presets::{a5000_dual, dgx1_like, p3_8xlarge, single_v100};
use model_serving::workload::decode::{assign_lengths, LengthDist};
use model_serving::{
    poisson, run_server_faulted, DeployedModel, KvMode, ResiliencePolicy, ServerConfig,
    ServingReport,
};
use rand::rngs::StdRng;
use rand::RngExt;
use simcore::fault::FaultSpec;
use simcore::probe::{parse_jsonl, to_jsonl, Probe};
use simcore::rng::{derive_seed, seeded};
use simcore::time::{SimDur, SimTime};

const GOLDEN: &str = include_str!("data/golden_server_hashes.txt");

/// Scenarios drawn; each is one row of the golden file.
const CASES: u64 = 24;

/// Root seed of the generator.
const SEED: u64 = 0x5e77_e125;

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every kind the fault DSL parses.
const FAULT_KINDS: [&str; 16] = [
    "gpu-fail",
    "gpu-recover",
    "link-degrade",
    "link-restore",
    "mem-pressure",
    "mem-release",
    "slowdown",
    "slowdown-end",
    "silent-link-slow",
    "silent-link-restore",
    "silent-gpu-slow",
    "silent-gpu-restore",
    "stuck-flow",
    "corrupt-transfer",
    "link-flap",
    "gpu-crash",
];

/// One drawn scenario.
#[derive(Clone)]
struct Case {
    label: String,
    cfg: ServerConfig,
    kinds: Vec<DeployedModel>,
    instance_kinds: Vec<usize>,
    priorities: Vec<u8>,
    rate: f64,
    requests: usize,
    decode_lengths: bool,
    faults: String,
    seed: u64,
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

fn coin(rng: &mut StdRng) -> bool {
    rng.random_range(0..2u32) == 1
}

/// A link name the DSL accepts, within the machine's GPUs and switches.
fn draw_link(rng: &mut StdRng, m: &Machine) -> String {
    let n = m.gpu_count();
    match rng.random_range(0..4u32) {
        0 => format!("pcie={}", rng.random_range(0..n)),
        1 => format!("uplink={}", rng.random_range(0..m.switch_count)),
        2 if n > 1 => {
            let a = rng.random_range(0..n);
            let b = (a + 1 + rng.random_range(0..n - 1)) % n;
            format!("nvlink={a}-{b}")
        }
        _ => format!("link={}", rng.random_range(0..2 * n + m.switch_count)),
    }
}

/// One fault entry of `kind`, timed inside the first `horizon_ms`.
fn draw_fault(rng: &mut StdRng, kind: &str, m: &Machine, horizon_ms: u64) -> String {
    let at = rng.random_range(0..horizon_ms.max(1));
    let gpu = rng.random_range(0..m.gpu_count());
    let factor = pick(rng, &[0.1, 0.3, 0.6]);
    let slow = pick(rng, &[1.5, 3.0, 8.0]);
    match kind {
        "gpu-fail" | "gpu-recover" | "silent-gpu-restore" => format!("{kind}@{at}ms:gpu={gpu}"),
        "link-degrade" | "silent-link-slow" => {
            format!("{kind}@{at}ms:{},factor={factor}", draw_link(rng, m))
        }
        "link-restore" | "silent-link-restore" | "corrupt-transfer" => {
            format!("{kind}@{at}ms:{}", draw_link(rng, m))
        }
        "mem-pressure" => {
            let bytes = pick(rng, &["1g", "240g", "243g"]);
            format!("{kind}@{at}ms:bytes={bytes}")
        }
        "mem-release" | "slowdown-end" => format!("{kind}@{at}ms"),
        "slowdown" => format!("{kind}@{at}ms:factor={slow}"),
        "silent-gpu-slow" => format!("{kind}@{at}ms:gpu={gpu},factor={slow}"),
        "stuck-flow" => {
            let stall = pick(rng, &[10, 100, 500]);
            format!("{kind}@{at}ms:{},stall={stall}ms", draw_link(rng, m))
        }
        "link-flap" => {
            let up = pick(rng, &[100, 400, 1000]);
            let down = pick(rng, &[20, 100, 300]);
            format!(
                "{kind}:{},up={up}ms,down={down}ms,factor={factor}",
                draw_link(rng, m)
            )
        }
        "gpu-crash" => {
            let mtbf = pick(rng, &[300, 800, 2000]);
            let mttr = pick(rng, &[50, 200, 500]);
            format!("{kind}:gpu={gpu},mtbf={mtbf}ms,mttr={mttr}ms")
        }
        other => unreachable!("unknown fault kind {other}"),
    }
}

fn mode_name(mode: PlanMode) -> &'static str {
    match mode {
        PlanMode::Baseline => "baseline",
        PlanMode::PipeSwitch => "pipeswitch",
        PlanMode::Dha => "dha",
        PlanMode::Pt => "pt",
        PlanMode::PtDha => "pt+dha",
    }
}

/// Draws case `i` from its own substream of [`SEED`].
fn draw(i: u64) -> Case {
    let seed = derive_seed(SEED, i);
    let rng = &mut seeded(seed);
    let presets: [fn() -> Machine; 4] = [p3_8xlarge, single_v100, a5000_dual, dgx1_like];
    let machine = pick(rng, &presets)();
    let mode = pick(rng, &PlanMode::all());
    let mut cfg = ServerConfig::paper_default(machine.clone(), mode);
    let mut label = format!("{} {}", machine.name, mode_name(mode));

    cfg.decode.enabled = coin(rng);
    // With decode on, the first kind is a decoder so the batch path runs;
    // the second may be any kind, decoder or not.
    let decoders = [ModelId::Gpt2, ModelId::Gpt2Medium];
    let mut ids = vec![if cfg.decode.enabled {
        pick(rng, &decoders)
    } else {
        pick(rng, &catalog())
    }];
    if coin(rng) {
        let second = pick(rng, &catalog());
        if second != ids[0] {
            ids.push(second);
        }
    }
    let names: Vec<&str> = ids.iter().map(|id| id.display_name()).collect();
    label += &format!(" [{}]", names.join("+"));
    let decode_lengths = cfg.decode.enabled || coin(rng);
    if cfg.decode.enabled {
        let d = &mut cfg.decode;
        d.page_bytes = pick(rng, &[2 << 10, 16 << 10, 64 << 10]);
        d.gpu_pool_bytes = pick(rng, &[8 << 20, 32 << 20, 256 << 20]);
        d.host_pool_bytes = pick(rng, &[16 << 20, 4 << 30]);
        d.kv_mode = pick(rng, &[KvMode::Auto, KvMode::Dha, KvMode::Recall]);
        d.max_batch = rng.random_range(1..9usize);
        label += &format!(
            " decode(page {}k, pool {}m/{}m, {:?}, batch {})",
            d.page_bytes >> 10,
            d.gpu_pool_bytes >> 20,
            d.host_pool_bytes >> 20,
            d.kv_mode,
            d.max_batch
        );
    } else if decode_lengths {
        label += " lengths";
    }
    if coin(rng) {
        let r = &mut cfg.decode_resilience;
        r.enabled = true;
        r.swap = coin(rng);
        r.checkpoint_bw = pick(rng, &[0.0, 2e8, 2e9]);
        r.checkpoint_every = rng.random_range(1..5u64);
        if coin(rng) {
            r.tiers = ResiliencePolicy::default_tiers();
        }
        label += &format!(
            " resilience(swap {}, bw {:e}, every {}, tiers {})",
            r.swap,
            r.checkpoint_bw,
            r.checkpoint_every,
            r.tiers.len()
        );
    }
    if coin(rng) {
        cfg.recovery.enabled = true;
        // This coin drew the retired `migrate` switch; a re-plan now
        // always migrates. It is still drawn and named so that every later
        // draw and every recorded row stay as they were: each case that
        // drew `false` keeps its recorded hash with migration on.
        let migrate = coin(rng);
        label += &format!(" recovery(migrate {migrate})");
    }
    if coin(rng) {
        let d = &mut cfg.detection;
        d.enabled = true;
        d.hedge = coin(rng);
        d.checksum = coin(rng);
        d.min_samples = pick(rng, &[2, 8]);
        label += &format!(
            " detection(hedge {}, checksum {}, min {})",
            d.hedge, d.checksum, d.min_samples
        );
    }
    if coin(rng) {
        let a = &mut cfg.admission;
        a.queue_cap = Some(rng.random_range(2..17usize));
        a.escalate_priority = rng.random_range(0..6u8);
        label += &format!(
            " cap({}, escalate {})",
            a.queue_cap.unwrap_or(0),
            a.escalate_priority
        );
    }
    if coin(rng) {
        let f = pick(rng, &[0.5, 1.5, 4.0]);
        cfg.admission.slo_reject_factor = Some(f);
        label += &format!(" slo-reject {f}");
    }
    if coin(rng) {
        let ms = pick(rng, &[50, 300, 2000]);
        cfg.faults.deadline = Some(SimDur::from_millis(ms));
        label += &format!(" deadline {ms}ms");
    }
    cfg.faults.shed_priority_floor = rng.random_range(0..4u8);
    label += &format!(" floor {}", cfg.faults.shed_priority_floor);

    let n_inst = rng.random_range(2..33usize);
    let instance_kinds: Vec<usize> = (0..n_inst).map(|j| j % ids.len()).collect();
    let requests = rng.random_range(80..321usize);
    let rate = pick(rng, &[50.0, 150.0, 400.0]);
    let priorities = (0..requests).map(|_| rng.random_range(0..6u8)).collect();
    let horizon_ms = (requests as f64 / rate * 1e3) as u64;
    // The first entry walks the DSL's kinds in turn, so every kind is
    // drawn; up to two more are drawn from all of them.
    let extra = rng.random_range(0..3usize);
    let faults: Vec<String> = (0..=extra)
        .map(|j| {
            let kind = if j == 0 {
                FAULT_KINDS[i as usize % FAULT_KINDS.len()]
            } else {
                pick(rng, &FAULT_KINDS)
            };
            draw_fault(rng, kind, &machine, horizon_ms)
        })
        .collect();
    let faults = faults.join("; ");
    label += &format!(" {n_inst}x {requests}@{rate} faults[{faults}]");

    let kinds = ids
        .iter()
        .map(|&id| DeployedModel::prepare(&build(id), &machine, mode, cfg.max_pt_gpus))
        .collect();
    Case {
        label,
        cfg,
        kinds,
        instance_kinds,
        priorities,
        rate,
        requests,
        decode_lengths,
        faults,
        seed,
    }
}

/// Runs `case` with `probe` attached.
fn run(case: Case, probe: Probe) -> ServingReport {
    let mut trace = poisson::generate(
        case.rate,
        case.instance_kinds.len(),
        case.requests,
        SimTime::ZERO,
        case.seed,
    );
    if case.decode_lengths {
        let lengths = LengthDist {
            prompt_min: 16,
            prompt_max: 256,
            output_mean: 24,
            output_max: 128,
        };
        assign_lengths(&mut trace, lengths, case.seed);
    }
    for (r, &p) in trace.iter_mut().zip(&case.priorities) {
        r.priority = p;
    }
    let faults = FaultSpec::parse(&case.faults, case.seed).expect("drawn faults parse");
    run_server_faulted(
        case.cfg,
        case.kinds,
        &case.instance_kinds,
        trace,
        SimTime::ZERO,
        probe,
        &faults,
    )
}

/// The books every run must balance, whatever its configuration.
fn check(r: &ServingReport, sent: usize) -> Result<(), String> {
    if r.completed + r.shed != sent as u64 {
        return Err(format!(
            "completed {} + shed {} != sent {sent}",
            r.completed, r.shed
        ));
    }
    if r.kv_live_pages_at_end != 0 {
        return Err(format!("{} KV pages leaked", r.kv_live_pages_at_end));
    }
    if r.kv_allocs != r.kv_frees_gpu + r.kv_frees_host {
        return Err(format!(
            "KV allocs {} != GPU frees {} + host frees {}",
            r.kv_allocs, r.kv_frees_gpu, r.kv_frees_host
        ));
    }
    Ok(())
}

#[test]
fn drawn_scenarios_balance_their_books_and_keep_their_recorded_hashes() {
    let mut rows = Vec::new();
    let mut broken = Vec::new();
    for i in 0..CASES {
        let case = draw(i);
        let label = case.label.clone();
        let sent = case.requests;
        let bare = run(case.clone(), Probe::disabled());
        let (probe, log) = Probe::logging();
        let report = run(case, probe);
        let events = &log.borrow().events;
        let jsonl = to_jsonl(events);
        let mut fail = |e: String| broken.push(format!("  case {i:02} ({label}): {e}"));
        if let Err(e) = check(&report, sent) {
            fail(e);
        }
        if parse_jsonl(&jsonl).as_ref() != Ok(events) {
            fail("parse_jsonl(to_jsonl(log)) is not the log".into());
        }
        if bare.sim_events != report.sim_events {
            fail(format!(
                "probe-off run executed {} events, probe-on run {}",
                bare.sim_events, report.sim_events
            ));
        }
        let hash = fnv1a64(jsonl.as_bytes());
        rows.push(format!("case {i:02} | {hash:#018x} | {label}"));
    }
    assert!(
        broken.is_empty(),
        "books do not balance:\n{}",
        broken.join("\n")
    );
    let diverged: Vec<String> = rows
        .iter()
        .map(String::as_str)
        .zip(GOLDEN.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("  got:  {g}\n  want: {w}"))
        .collect();
    assert!(
        diverged.is_empty() && rows.len() == GOLDEN.lines().count(),
        "server runs diverged ({} rows, {} recorded):\n{}\nall rows:\n{}",
        rows.len(),
        GOLDEN.lines().count(),
        diverged.join("\n"),
        rows.join("\n")
    );
}
