//! `deepplan-cli` input validation: every out-of-range value exits 1
//! with an `error:` line before any simulation state is built, never a
//! panic or a silently wrapped size.

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
