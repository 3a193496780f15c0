//! `deepplan-cli` input validation: every out-of-range value exits 1
//! with an `error:` line before any simulation state is built, never a
//! panic or a silently wrapped size; a flag whose value is missing or
//! does not parse exits 2 with the usage line. A valid `serve` exits 0,
//! and its metrics files are well formed.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deepplan-cli"))
        .args(args)
        .output()
        .expect("deepplan-cli runs")
}

#[test]
fn out_of_range_values_exit_1_with_an_error_line() {
    // Both overflow u64 once converted to bytes (KiB, MiB) or ns (ms).
    let huge = (1u64 << 60).to_string();
    let huge_mib = (1u64 << 44).to_string();
    let cases: &[&[&str]] = &[
        &["serve", "bert", "--concurrency", "0"],
        &["serve", "bert", "--rate", "0"],
        &["serve", "bert", "--rate", "-5"],
        &["serve", "bert", "--rate", "nan"],
        &["serve", "bert", "--rate", "inf"],
        // Every gap saturates to the end of simulated time.
        &["serve", "bert", "--rate", "1e-300", "--requests", "3"],
        // 1000 BERT-Base instances pin more weights than host memory.
        &["serve", "bert", "--concurrency", "1000"],
        &["serve", "gpt2", "--decode", "--page-kib", &huge],
        &[
            "serve",
            "gpt2",
            "--decode",
            "--kv-pool-mib",
            &huge_mib,
            "--requests",
            "20",
            "--concurrency",
            "4",
        ],
        &["plan", "bert", "--budget-mib", &huge_mib],
        &["serve", "bert", "--deadline-ms", &huge],
        &["serve", "bert", "--faults", "gpu-fail@1s"],
        // A zero mean dwell would flap every nanosecond until the
        // horizon; a dwell or instant past 2^64 ns would wrap the clock.
        &[
            "serve",
            "bert-base",
            "--requests",
            "50",
            "--faults",
            "gpu-crash:gpu=0,mtbf=0,mttr=0",
        ],
        &[
            "serve",
            "bert",
            "--faults",
            "link-flap:pcie=0,up=0,down=300ms,factor=0.3",
        ],
        // A 1 ns mean would materialize about horizon/1 ns faults.
        &[
            "serve",
            "bert",
            "--requests",
            "50",
            "--faults",
            "gpu-crash:gpu=0,mtbf=1ns,mttr=1ns",
        ],
        &[
            "serve",
            "bert",
            "--seed",
            "1",
            "--faults",
            "link-flap:pcie=0,up=500ms,down=1e12s,factor=0.3",
        ],
        &["serve", "bert", "--faults", "gpu-fail@2e10s:gpu=0"],
        &["serve", "bert", "--faults", "mem-pressure@1s:bytes=2e10g"],
        // Session resilience and SLO tiers act on decode sessions.
        &["serve", "bert", "--slo-tiers"],
        &["serve", "gpt2", "--resilience"],
        // A trace of u64::MAX requests overflows any allocation.
        &[
            "serve",
            "bert",
            "--requests",
            "18446744073709551615",
            "--rate",
            "1",
        ],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains("error:"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn missing_or_unparsable_flag_values_exit_2_with_the_usage_line() {
    let cases: &[&[&str]] = &[
        &["serve", "bert", "--requests", "many"],
        &["serve", "bert", "--concurrency", "-1"],
        &["serve", "bert", "--seed", "18446744073709551616"],
        &["serve", "bert", "--rate", "fast"],
        &["plan", "bert", "--budget-mib", "1.5"],
        &["serve", "bert", "--mode", "turbo"],
        &["serve", "bert", "--machine", "tpu"],
        &["serve", "gpt2", "--decode", "--kv-mode", "maybe"],
        // The flag is the last argument: no value follows it.
        &["serve", "bert", "--rate"],
        &["serve", "bert", "--events-out"],
        &["serve", "bert", "--mode"],
        &["serve", "gpt2", "--decode", "--page-kib"],
    ];
    for args in cases {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: deepplan-cli"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

/// Fault entries naming hardware the default 4-GPU p3.8xlarge lacks: the
/// server would skip each one, so the CLI rejects it by name.
#[test]
fn faults_on_missing_hardware_exit_1_naming_the_entry() {
    for entry in [
        "gpu-fail@1ms:gpu=9",
        "corrupt-transfer@1ms:pcie=77",
        "gpu-crash:gpu=42,mtbf=1s,mttr=1s",
        "link-degrade@1ms:uplink=9,factor=0.5",
    ] {
        let spec = format!("gpu-fail@1ms:gpu=3; {entry}");
        let out = cli(&["serve", "bert", "--requests", "5", "--faults", &spec]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{entry}: {stderr}");
        assert!(stderr.contains("error:"), "{entry}: {stderr}");
        assert!(stderr.contains(entry), "{entry}: {stderr}");
        assert!(!stderr.contains("panicked"), "{entry}: {stderr}");
    }
}

#[test]
fn faults_on_the_last_gpu_and_links_run() {
    let out = cli(&[
        "serve",
        "bert",
        "--requests",
        "5",
        "--faults",
        "gpu-crash:gpu=3,mtbf=1s,mttr=1s; link-degrade@1ms:pcie=3,factor=0.5; \
         link-flap:nvlink=3-0,up=1s,down=1s,factor=0.5",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn a_small_valid_serve_exits_0() {
    let out = cli(&["serve", "bert", "--requests", "20", "--concurrency", "4"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("completed 20"), "{stdout}");
}

/// A queue cap of zero sheds every request, and a shed request misses
/// the SLO: nothing completes, so goodput is zero, not the 100% of an
/// empty latency sample.
#[test]
fn shedding_every_request_reports_zero_goodput() {
    let out = cli(&["serve", "bert-base", "--requests", "5", "--queue-cap", "0"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("completed 0,"), "{stdout}");
    assert!(stdout.contains("goodput 0.0%"), "{stdout}");
}

/// `serve --metrics-out --metrics-json` writes both metrics files: the
/// Prometheus text declares each family once with its samples right
/// after it, and every row of the JSON series is as wide as `columns`.
#[test]
fn serve_writes_both_metrics_files() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let prom_path = dir.join(format!("cli-metrics-{}.prom", std::process::id()));
    let json_path = dir.join(format!("cli-metrics-{}.json", std::process::id()));
    let (prom_arg, json_arg) = (prom_path.to_str().unwrap(), json_path.to_str().unwrap());
    let out = cli(&[
        "serve",
        "bert-base",
        "--requests",
        "40",
        "--metrics-out",
        prom_arg,
        "--metrics-json",
        json_arg,
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let prom = std::fs::read_to_string(&prom_path).expect("metrics snapshot written");
    let json = std::fs::read_to_string(&json_path).expect("metrics series written");
    let _ = std::fs::remove_file(&prom_path);
    let _ = std::fs::remove_file(&json_path);

    let mut families: Vec<&str> = Vec::new();
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let name = rest.split(' ').next().unwrap_or_default();
            assert!(!families.contains(&name), "{name} declared twice");
            families.push(name);
        } else if !line.starts_with('#') {
            let family = families.last().expect("a sample before any family");
            let sample = line.split(['{', ' ']).next().unwrap_or_default();
            assert!(
                matches!(
                    sample.strip_prefix(family),
                    Some("" | "_bucket" | "_sum" | "_count")
                ),
                "{line} sits in {family}"
            );
        }
    }
    assert!(families.contains(&"deepplan_requests_completed_total"));

    let series: serde_json::Value = serde_json::from_str(&json).expect("series parses");
    let width = series["columns"].as_array().expect("columns").len();
    let rows = series["rows"].as_array().expect("rows");
    assert!(!rows.is_empty());
    for row in rows {
        assert_eq!(row.as_array().expect("row").len(), width, "{row:?}");
    }
}
