//! Host-time benchmark of the DeepPlan simulator.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload W]... [--seed S] [--reps N | --seconds N] \
//!     [--trace 0|1] [--spans spans.json] [--json out.json] [--repeat-check]
//! ```
//!
//! Every rep runs in a fresh child process (the binary re-executes
//! itself), one child at a time, round-robin across the workloads, so
//! allocator and page state cannot leak from one rep into the next. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See README.md for the metrics,
//! the workloads and how to read `spans.json`.

mod rows;
mod stats;
mod trace;
mod workload;

use std::fmt;
use std::process::{Command, ExitCode};
use std::sync::OnceLock;
use std::time::Instant;

use serde_json::{json, Value};

use stats::{median_of, Summary};
use workload::Workload;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The benchmark definition. The metrics, their units and their bounds
/// are read from it, so the program and the definition cannot drift
/// apart.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of BENCHMARK.json.
struct Metric {
    name: String,
    unit: String,
    /// Regression bound, for end-to-end metrics.
    bound: Option<f64>,
}

/// The end-to-end metrics, measured with heap counting off, and the
/// per-layer metrics of a traced run. `sim_ms` is simulated time; every
/// other time unit is host time.
struct Catalog {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let spec: Value = serde_json::from_str(BENCHMARK_JSON).expect("BENCHMARK.json is JSON");
        let list = |key: &str| -> Vec<Metric> {
            let metrics = spec[key].as_array().expect("BENCHMARK.json lists metrics");
            metrics
                .iter()
                .map(|m| Metric {
                    name: m["name"].as_str().expect("a metric has a name").into(),
                    unit: m["unit"].as_str().expect("a metric has a unit").into(),
                    bound: m["bound"].as_f64(),
                })
                .collect()
        };
        Catalog {
            end_to_end: list("end_to_end"),
            per_layer: list("per_layer"),
        }
    })
}

const DEFAULT_REPS: usize = 7;
/// Input draws per workload. Round `r` of a set simulates draw
/// `r % DRAWS`, whose inputs come from a seed derived from `--seed`. The
/// arrivals, lengths and crash schedule are random, so one draw's work
/// differs from another's by up to ~15%; cycling through several draws
/// in every run keeps that out of the run-to-run spread.
const DRAWS: u64 = 4;
/// Fewest rounds a `--seconds` budget runs: one per draw.
const MIN_REPS: usize = DRAWS as usize;
/// First argument of a child process.
const CHILD: &str = "__child";
/// Child target running the layer rows instead of a workload rep.
const ROWS: &str = "rows";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Budget {
    Reps(usize),
    Seconds(f64),
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    spans: Option<String>,
    json: Option<String>,
    repeat_check: bool,
}

#[derive(Debug, Clone, PartialEq)]
enum ArgError {
    UnknownFlag(String),
    MissingValue(&'static str),
    BadValue { flag: &'static str, value: String },
    UnknownWorkload(String),
    Conflict(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(s) => write!(f, "unknown flag `{s}`"),
            ArgError::MissingValue(flag) => write!(f, "`{flag}` needs a value"),
            ArgError::BadValue { flag, value } => write!(f, "bad value `{value}` for `{flag}`"),
            ArgError::UnknownWorkload(w) => write!(
                f,
                "unknown workload `{w}` (expected one of: {})",
                Workload::ALL.map(Workload::name).join(", ")
            ),
            ArgError::Conflict(what) => f.write_str(what),
        }
    }
}

const USAGE: &str = "usage: benchmark [--workload W]... [--seed S] [--reps N | --seconds N] \
                     [--trace 0|1] [--spans FILE] [--json FILE] [--repeat-check]";

fn parse_args(args: &[String]) -> Result<Args, ArgError> {
    fn number<T: std::str::FromStr>(flag: &'static str, value: &str) -> Result<T, ArgError> {
        value.parse().map_err(|_| ArgError::BadValue {
            flag,
            value: value.to_string(),
        })
    }
    let mut workloads = Vec::new();
    let mut seed = bench::setup::SEED;
    let mut reps = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut json = None;
    let mut repeat_check = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |name: &'static str| it.next().cloned().ok_or(ArgError::MissingValue(name));
        match flag.as_str() {
            "--workload" => {
                let v = value("--workload")?;
                workloads.push(Workload::parse(&v).ok_or(ArgError::UnknownWorkload(v))?);
            }
            "--seed" => seed = number("--seed", &value("--seed")?)?,
            "--reps" => reps = Some(number::<usize>("--reps", &value("--reps")?)?),
            "--seconds" => seconds = Some(number::<f64>("--seconds", &value("--seconds")?)?),
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => {
                        return Err(ArgError::BadValue {
                            flag: "--trace",
                            value: v.to_string(),
                        })
                    }
                }
            }
            "--spans" => spans = Some(value("--spans")?),
            "--json" => json = Some(value("--json")?),
            "--repeat-check" => repeat_check = true,
            other => return Err(ArgError::UnknownFlag(other.to_string())),
        }
    }
    let budget = match (reps, seconds) {
        (Some(_), Some(_)) => return Err(ArgError::Conflict("give --reps or --seconds, not both")),
        (Some(0), None) => {
            return Err(ArgError::BadValue {
                flag: "--reps",
                value: "0".into(),
            })
        }
        (Some(n), None) => Budget::Reps(n),
        (None, Some(s)) if !(s.is_finite() && s >= 0.0) => {
            return Err(ArgError::BadValue {
                flag: "--seconds",
                value: s.to_string(),
            })
        }
        (None, Some(s)) => Budget::Seconds(s),
        (None, None) => Budget::Reps(DEFAULT_REPS),
    };
    if spans.is_some() && !trace {
        return Err(ArgError::Conflict("--spans needs --trace 1"));
    }
    if repeat_check && trace {
        return Err(ArgError::Conflict(
            "--repeat-check runs untraced sets; drop --trace 1",
        ));
    }
    if workloads.is_empty() {
        workloads = Workload::ALL.to_vec();
    }
    Ok(Args {
        workloads,
        seed,
        budget,
        trace,
        spans,
        json,
        repeat_check,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(CHILD) {
        return child_main(&args[1..]);
    }
    match parse_args(&args) {
        Ok(args) => parent_main(&args),
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

/// `__child <workload|rows> <seed> <traced 0|1> <rep id>`: runs one rep
/// (or the layer rows) and prints its result as one JSON line.
fn child_main(args: &[String]) -> ExitCode {
    let [target, seed, traced, rep] = args else {
        eprintln!("error: a child takes <target> <seed> <traced> <rep>");
        return ExitCode::FAILURE;
    };
    let (Ok(seed), Ok(rep)) = (seed.parse::<u64>(), rep.parse::<usize>()) else {
        eprintln!("error: bad child seed or rep id");
        return ExitCode::FAILURE;
    };
    let traced = traced == "1";
    let (sent, errors, metrics, spans) = if target == ROWS {
        let rows = rows::run_rows(seed, 1);
        (0, rows.errors, rows.metrics, rows.spans)
    } else if let Some(w) = Workload::parse(target) {
        let mut r = workload::run_rep(w, seed, 1, traced);
        r.metrics.push(("sim.fingerprint", r.fingerprint as f64));
        (r.sent, r.errors, r.metrics, r.spans)
    } else {
        eprintln!("error: unknown child target `{target}`");
        return ExitCode::FAILURE;
    };
    let spans: Vec<Value> = (0..spans.len())
        .map(|i| spans[i].to_json(rep, target, trace::self_ns(&spans, i)))
        .collect();
    let metrics = Value::Object(
        metrics
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::from(v)))
            .collect(),
    );
    let out = json!({
        "sent": sent,
        "errors": errors,
        "metrics": metrics,
        "spans": Value::Array(spans),
    });
    println!(
        "{}",
        serde_json::to_string(&out).expect("a Value always serialises")
    );
    ExitCode::SUCCESS
}

/// The seed of input draw `draw` of `--seed`.
fn draw_seed(seed: u64, draw: u64) -> u64 {
    simcore::rng::derive_seed(seed, draw)
}

/// What a child reported, or why it did not.
struct Child {
    /// The input draw it simulated.
    draw: u64,
    /// Requests simulated; 0 when the child died before reporting.
    sent: u64,
    errors: Vec<String>,
    metrics: Vec<(String, f64)>,
    spans: Vec<Value>,
}

impl Child {
    fn failed(draw: u64, why: String) -> Child {
        Child {
            draw,
            sent: 0,
            errors: vec![why],
            metrics: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|&(_, v)| v)
    }

    /// Starts a child on draw `draw` of `seed`, waits for it to end and
    /// parses its last line.
    fn run(target: &str, seed: u64, draw: u64, traced: bool, rep: usize) -> Child {
        let exe = match std::env::current_exe() {
            Ok(exe) => exe,
            Err(e) => return Child::failed(draw, format!("cannot locate this binary: {e}")),
        };
        let out = Command::new(exe)
            .args([
                CHILD,
                target,
                &draw_seed(seed, draw).to_string(),
                if traced { "1" } else { "0" },
                &rep.to_string(),
            ])
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => return Child::failed(draw, format!("cannot start a {target} child: {e}")),
        };
        eprint!("{}", String::from_utf8_lossy(&out.stderr));
        if !out.status.success() {
            return Child::failed(draw, format!("{target} child exited with {}", out.status));
        }
        let stdout = String::from_utf8_lossy(&out.stdout);
        let Some(v) = stdout
            .lines()
            .last()
            .and_then(|l| serde_json::from_str::<Value>(l).ok())
        else {
            return Child::failed(draw, format!("{target} child printed no result"));
        };
        Child {
            draw,
            sent: v["sent"].as_u64().unwrap_or(0),
            errors: v["errors"]
                .as_array()
                .map(|a| {
                    a.iter()
                        .filter_map(|e| e.as_str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            metrics: v["metrics"]
                .as_object()
                .map(|m| {
                    m.iter()
                        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
                        .collect()
                })
                .unwrap_or_default(),
            spans: v["spans"].as_array().cloned().unwrap_or_default(),
        }
    }
}

/// The reps of one workload in one set.
struct Reps {
    workload: Workload,
    reps: Vec<Child>,
}

impl Reps {
    fn draw(&self, draw: u64) -> impl Iterator<Item = &Child> {
        self.reps.iter().filter(move |c| c.draw == draw)
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.reps.iter().filter_map(|c| c.metric(metric)).collect()
    }

    fn summary(&self, metric: &str) -> Option<Summary> {
        Summary::of(&self.values(metric))
    }

    /// The value an end-to-end metric reports: the mean over the input
    /// draws of each draw's lower quartile. Co-tenant bursts on a shared
    /// host slow a varying share of the reps, and the lower quartile is
    /// several times steadier across runs than the median; the mean over
    /// draws averages out the randomness of the inputs (see README.md).
    fn reported(&self, metric: &str) -> Option<f64> {
        let q1s: Vec<f64> = (0..DRAWS)
            .filter_map(|d| {
                let values: Vec<f64> = self.draw(d).filter_map(|c| c.metric(metric)).collect();
                Some(Summary::of(&values)?.q1)
            })
            .collect();
        (!q1s.is_empty()).then(|| q1s.iter().sum::<f64>() / q1s.len() as f64)
    }
}

/// Metric values by name, per workload.
type Values = Vec<(Workload, Vec<(String, f64)>)>;

/// Hands out rep ids, unique within one invocation.
#[derive(Default)]
struct RepIds(usize);

impl RepIds {
    fn next(&mut self) -> usize {
        self.0 += 1;
        self.0 - 1
    }
}

/// Runs untraced reps round-robin across the workloads until the budget
/// is spent. A `--seconds` budget stops before a round that would
/// overrun it, after at least [`MIN_REPS`] rounds.
fn run_set(args: &Args, ids: &mut RepIds) -> Vec<Reps> {
    let mut set: Vec<Reps> = args
        .workloads
        .iter()
        .map(|&workload| Reps {
            workload,
            reps: Vec::new(),
        })
        .collect();
    let start = Instant::now();
    for round in 1.. {
        let draw = (round as u64 - 1) % DRAWS;
        for r in &mut set {
            let child = Child::run(r.workload.name(), args.seed, draw, false, ids.next());
            r.reps.push(child);
        }
        let elapsed = start.elapsed().as_secs_f64();
        let done = match args.budget {
            Budget::Reps(n) => round >= n,
            Budget::Seconds(s) => round >= MIN_REPS && elapsed + elapsed / round as f64 > s,
        };
        if done {
            break;
        }
    }
    set
}

/// Output checks across the reps of a set: every rep's own checks, and
/// one fingerprint per input draw. Returns (errors, attempted, failed),
/// counting simulated requests; a failed rep fails all of its requests
/// (as many as the workload's largest draw when it died unreported).
fn check(set: &[Reps]) -> (Vec<String>, u64, u64) {
    let mut errors = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for r in set {
        let name = r.workload.name();
        let most = r.reps.iter().map(|c| c.sent).max().unwrap_or(0).max(1);
        for c in &r.reps {
            let sent = if c.sent > 0 { c.sent } else { most };
            attempted += sent;
            if !c.errors.is_empty() {
                failed += sent;
                errors.extend(c.errors.iter().map(|e| format!("{name}: {e}")));
            }
        }
        for draw in 0..DRAWS {
            let mut prints: Vec<f64> = r
                .draw(draw)
                .filter_map(|c| c.metric("sim.fingerprint"))
                .collect();
            prints.dedup();
            if prints.len() > 1 {
                errors.push(format!(
                    "{name}: sim.fingerprint differs across reps of draw {draw}: {prints:?}"
                ));
            }
        }
    }
    (errors, attempted, failed)
}

/// Prints the reported value of every (workload, end-to-end metric)
/// beside the median, quartiles and count of all its reps.
fn print_end_to_end(set: &[Reps]) {
    println!(
        "{:<13} {:<13} {:<4} {:>12} {:>12} {:>12} {:>12} {:>3} {:>8}",
        "workload", "metric", "unit", "value", "median", "q1", "q3", "n", "spread%"
    );
    for r in set {
        for m in &catalog().end_to_end {
            if let (Some(v), Some(s)) = (r.reported(&m.name), r.summary(&m.name)) {
                println!(
                    "{:<13} {:<13} {:<4} {:>12.6} {:>12.6} {:>12.6} {:>12.6} {:>3} {:>8.2}",
                    r.workload.name(),
                    m.name,
                    m.unit,
                    v,
                    s.median,
                    s.q1,
                    s.q3,
                    s.n,
                    s.spread() * 100.0
                );
            }
        }
    }
}

/// Prints, for every (workload, metric), the gap between the reported
/// values of two sets next to the metric's bound. Returns the JSON rows.
fn print_repeat_check(a: &[Reps], b: &[Reps]) -> Vec<Value> {
    println!(
        "{:<13} {:<13} {:>12} {:>12} {:>8} {:>8}",
        "workload", "metric", "set 1", "set 2", "gap%", "bound%"
    );
    let mut rows = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        for m in &catalog().end_to_end {
            let name = m.name.as_str();
            let (Some(va), Some(vb), Some(bound)) = (ra.reported(name), rb.reported(name), m.bound)
            else {
                continue;
            };
            let gap = vb / va - 1.0;
            let verdict = if gap.abs() <= bound { "" } else { "  over" };
            println!(
                "{:<13} {:<13} {:>12.6} {:>12.6} {:>8.2} {:>8.2}{verdict}",
                ra.workload.name(),
                name,
                va,
                vb,
                gap * 100.0,
                bound * 100.0
            );
            rows.push(json!({
                "workload": ra.workload.name(),
                "metric": name,
                "set_1": va,
                "set_2": vb,
                "gap": gap,
                "bound": bound,
            }));
        }
    }
    rows
}

/// Per-layer values of each workload from its traced rep, the shared
/// layer rows and the tracing overhead against the untraced reps.
fn per_layer(set: &[Reps], traced: &[Child], rows: &Child) -> Values {
    set.iter()
        .zip(traced)
        .map(|(r, t)| {
            let job = |c: &Child| Some(c.metric("setup_s")? + c.metric("run_s")?);
            let untraced: Vec<f64> = r.draw(t.draw).filter_map(job).collect();
            let mut values: Vec<(String, f64)> = Vec::new();
            for m in &catalog().per_layer {
                let name = m.name.as_str();
                let v = match name {
                    "trace.overhead_pct" => job(t)
                        .filter(|_| !untraced.is_empty())
                        .map(|j| (j / median_of(&untraced) - 1.0) * 100.0),
                    _ => t.metric(name).or_else(|| rows.metric(name)),
                };
                if let Some(v) = v {
                    values.push((name.to_string(), v));
                }
            }
            (r.workload, values)
        })
        .collect()
}

fn unit_of(name: &str) -> &'static str {
    let c = catalog();
    c.end_to_end
        .iter()
        .chain(&c.per_layer)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.as_str())
}

/// The final output line. With one workload the metrics go by their
/// plain names; with several, as `metric@workload`.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Values) -> Value {
    let single = metrics.len() == 1;
    let mut out = Vec::new();
    for (w, values) in metrics {
        for (name, v) in values {
            let key = if single {
                name.clone()
            } else {
                format!("{name}@{}", w.name())
            };
            out.push((key, json!({"value": *v, "unit": unit_of(name)})));
        }
    }
    json!({
        "correct": correct,
        "attempted": attempted.max(1),
        "failed": failed,
        "metrics": Value::Object(out),
    })
}

fn write_file(path: &str, v: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(v).expect("a Value always serialises");
    std::fs::write(path, text + "\n").map_err(|e| format!("writing {path}: {e}"))
}

/// The traced part of `--trace 1`: one traced rep of draw 0 per
/// workload and one run of the layer rows. Prints and returns every
/// per-layer value, and returns the spans; failed checks go to `errors`.
fn run_traced(
    args: &Args,
    set: &[Reps],
    ids: &mut RepIds,
    errors: &mut Vec<String>,
) -> (Values, Vec<Value>) {
    let traced: Vec<Child> = set
        .iter()
        .map(|r| Child::run(r.workload.name(), args.seed, 0, true, ids.next()))
        .collect();
    let rows = Child::run(ROWS, args.seed, 0, true, ids.next());
    for (r, t) in set.iter().zip(&traced) {
        let name = r.workload.name();
        errors.extend(t.errors.iter().map(|e| format!("{name} (traced): {e}")));
        let untraced = r.draw(0).next().and_then(|c| c.metric("sim.fingerprint"));
        if t.metric("sim.fingerprint") != untraced {
            errors.push(format!("{name}: the traced rep's fingerprint differs"));
        }
    }
    errors.extend(rows.errors.iter().map(|e| format!("rows: {e}")));
    let values = per_layer(set, &traced, &rows);
    println!(
        "\n{:<13} {:<28} {:<6} {:>16}",
        "workload", "metric", "unit", "value"
    );
    for (w, vals) in &values {
        for (name, v) in vals {
            println!(
                "{:<13} {:<28} {:<6} {:>16.6}",
                w.name(),
                name,
                unit_of(name),
                v
            );
        }
        let missing: Vec<&str> = catalog()
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .filter(|n| !vals.iter().any(|(k, _)| k == n))
            .collect();
        if !missing.is_empty() {
            errors.push(format!("{}: no value for {missing:?}", w.name()));
        }
    }
    let spans = traced
        .iter()
        .chain([&rows])
        .flat_map(|c| c.spans.iter().cloned())
        .collect();
    (values, spans)
}

fn parent_main(args: &Args) -> ExitCode {
    let mut ids = RepIds::default();
    let mut set = run_set(args, &mut ids);
    let mut repeat = Vec::new();
    if args.repeat_check {
        let second = run_set(args, &mut ids);
        repeat = print_repeat_check(&set, &second);
        for (r, more) in set.iter_mut().zip(second) {
            r.reps.extend(more.reps);
        }
    }
    let (mut errors, attempted, failed) = check(&set);
    print_end_to_end(&set);

    let (metrics, spans) = if args.trace {
        run_traced(args, &set, &mut ids, &mut errors)
    } else {
        let values = set
            .iter()
            .map(|r| {
                let values = catalog()
                    .end_to_end
                    .iter()
                    .filter_map(|m| Some((m.name.clone(), r.reported(&m.name)?)))
                    .collect();
                (r.workload, values)
            })
            .collect();
        (values, Vec::new())
    };
    let line = result_line(errors.is_empty(), attempted, failed, &metrics);

    // A file that cannot be written fails the run, but not its checks.
    let mut written = true;
    let mut write = |path: &str, v: &Value| {
        if let Err(e) = write_file(path, v) {
            eprintln!("error: {e}");
            written = false;
        }
    };
    if let Some(path) = &args.spans {
        write(path, &Value::Array(spans));
    }
    if let Some(path) = &args.json {
        let end_to_end: Vec<Value> = set
            .iter()
            .flat_map(|r| {
                catalog().end_to_end.iter().filter_map(move |m| {
                    let s = r.summary(&m.name)?;
                    Some(json!({
                        "workload": r.workload.name(),
                        "metric": m.name.as_str(),
                        "unit": m.unit.as_str(),
                        "value": r.reported(&m.name)?,
                        "median": s.median,
                        "q1": s.q1,
                        "q3": s.q3,
                        "n": s.n,
                    }))
                })
            })
            .collect();
        let doc = json!({
            "seed": args.seed,
            "errors": errors.clone(),
            "end_to_end": end_to_end,
            "repeat_check": repeat,
            "result": line.clone(),
        });
        write(path, &doc);
    }
    for e in &errors {
        eprintln!("check failed: {e}");
    }
    println!(
        "{}",
        serde_json::to_string(&line).expect("a Value always serialises")
    );
    if errors.is_empty() && written {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        let v: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&v)
    }

    #[test]
    fn defaults_run_every_workload_for_seven_reps() {
        let a = parse("").unwrap();
        assert_eq!(a.workloads, Workload::ALL.to_vec());
        assert_eq!(a.budget, Budget::Reps(7));
        assert_eq!(a.seed, bench::setup::SEED);
        assert!(!a.trace && !a.repeat_check);
    }

    #[test]
    fn the_driver_command_line_parses() {
        let a = parse("--workload decode-spill --seed 42 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::DecodeSpill]);
        assert_eq!(
            (a.seed, a.budget, a.trace),
            (42, Budget::Seconds(20.0), true)
        );
        let a =
            parse("--workload maf-oneshot --workload maf-traced --reps 3 --json o.json").unwrap();
        assert_eq!(a.workloads, vec![Workload::MafOneshot, Workload::MafTraced]);
        assert_eq!(
            (a.budget, a.json.as_deref()),
            (Budget::Reps(3), Some("o.json"))
        );
    }

    #[test]
    fn bad_flags_are_typed_errors() {
        assert_eq!(
            parse("--bogus"),
            Err(ArgError::UnknownFlag("--bogus".into()))
        );
        assert_eq!(parse("--seed"), Err(ArgError::MissingValue("--seed")));
        assert!(matches!(
            parse("--seed x"),
            Err(ArgError::BadValue { flag: "--seed", .. })
        ));
        assert!(matches!(parse("--seed -1"), Err(ArgError::BadValue { .. })));
        assert!(matches!(
            parse("--trace 2"),
            Err(ArgError::BadValue {
                flag: "--trace",
                ..
            })
        ));
        assert!(matches!(
            parse("--reps 0"),
            Err(ArgError::BadValue { flag: "--reps", .. })
        ));
        assert!(matches!(
            parse("--seconds nan"),
            Err(ArgError::BadValue { .. })
        ));
        assert_eq!(
            parse("--workload nope"),
            Err(ArgError::UnknownWorkload("nope".into()))
        );
        assert!(matches!(
            parse("--reps 2 --seconds 3"),
            Err(ArgError::Conflict(_))
        ));
        assert!(matches!(
            parse("--spans s.json"),
            Err(ArgError::Conflict(_))
        ));
        assert!(matches!(
            parse("--trace 1 --repeat-check"),
            Err(ArgError::Conflict(_))
        ));
    }

    /// BENCHMARK.json lists exactly these workloads, and bounds every
    /// end-to-end metric, `setup_s` with the largest bound.
    #[test]
    fn benchmark_json_matches_the_program() {
        let spec: Value = serde_json::from_str(BENCHMARK_JSON).unwrap();
        let workloads: Vec<&str> = spec["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w["name"].as_str().unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name).to_vec());
        let bounds: Vec<f64> = catalog()
            .end_to_end
            .iter()
            .map(|m| m.bound.unwrap())
            .collect();
        assert!(bounds.iter().all(|&b| b > 0.0 && b <= 0.25), "{bounds:?}");
        let setup = catalog()
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .unwrap();
        assert_eq!(setup.bound, bounds.iter().copied().reduce(f64::max));
        assert_eq!(setup.unit, "s");
    }

    /// A scaled traced rep plus the layer rows produce every per-layer
    /// metric; the parent adds only the tracing overhead.
    #[test]
    fn every_per_layer_metric_has_a_producer() {
        let rep = workload::run_rep(Workload::DecodeSpill, 9, 60, true);
        let rows = rows::run_rows(9, 60);
        for m in &catalog().per_layer {
            let name = m.name.as_str();
            let produced = name == "sim.fingerprint"
                || name == "trace.overhead_pct"
                || rep
                    .metrics
                    .iter()
                    .chain(&rows.metrics)
                    .any(|(k, _)| *k == name);
            assert!(produced, "nothing produces {name}");
        }
        for (name, _) in rep.metrics.iter().chain(&rows.metrics) {
            assert_ne!(unit_of(name), "", "{name} is not in the catalog");
        }
    }

    fn child(draw: u64, sent: u64, fingerprint: f64, errors: &[&str]) -> Child {
        Child {
            draw,
            sent,
            errors: errors.iter().map(|e| e.to_string()).collect(),
            metrics: vec![("sim.fingerprint".into(), fingerprint)],
            spans: Vec::new(),
        }
    }

    #[test]
    fn fingerprints_must_agree_within_a_draw_only() {
        let reps = |reps| {
            vec![Reps {
                workload: Workload::DecodeChaos,
                reps,
            }]
        };
        let ok = reps(vec![
            child(0, 10, 1.0, &[]),
            child(1, 12, 2.0, &[]),
            child(0, 10, 1.0, &[]),
        ]);
        assert_eq!(check(&ok), (vec![], 32, 0));
        let split = reps(vec![child(0, 10, 1.0, &[]), child(0, 10, 3.0, &[])]);
        assert_eq!(check(&split).0.len(), 1);
        // A child that died unreported fails as many requests as the
        // workload's largest draw.
        let died = reps(vec![child(0, 10, 1.0, &[]), child(1, 0, 0.0, &["exited"])]);
        let (errors, attempted, failed) = check(&died);
        assert_eq!((errors.len(), attempted, failed), (1, 20, 10));
    }

    #[test]
    fn reported_value_averages_the_lower_quartile_of_each_draw() {
        let rep = |draw, run_s| Child {
            metrics: vec![("run_s".into(), run_s)],
            ..child(draw, 1, 0.0, &[])
        };
        // Draw 0: 1, 2, 3 (q1 1.0); draw 1: 10, 20 (q1 7.5).
        let r = Reps {
            workload: Workload::MafOneshot,
            reps: vec![
                rep(0, 3.0),
                rep(1, 20.0),
                rep(0, 1.0),
                rep(1, 10.0),
                rep(0, 2.0),
            ],
        };
        assert_eq!(r.reported("run_s"), Some((1.0 + 7.5) / 2.0));
        assert_eq!(r.reported("absent"), None);
    }

    #[test]
    fn result_line_keys_by_workload_only_when_several() {
        let one = vec![(Workload::MafOneshot, vec![("run_s".to_string(), 1.5)])];
        let v = result_line(true, 10, 0, &one);
        assert_eq!(v["metrics"]["run_s"]["value"], 1.5);
        assert_eq!(v["metrics"]["run_s"]["unit"], "s");
        let two = vec![
            (Workload::MafOneshot, vec![("run_s".to_string(), 1.5)]),
            (Workload::MafTraced, vec![("run_s".to_string(), 2.5)]),
        ];
        let v = result_line(false, 0, 0, &two);
        assert_eq!(v["metrics"]["run_s@maf-traced"]["value"], 2.5);
        assert_eq!(
            (v["correct"].as_bool(), v["attempted"].as_u64()),
            (Some(false), Some(1))
        );
    }
}
