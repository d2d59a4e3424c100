//! Integration: the `fidelity` command-line front end.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_fidelity"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn rfa_prints_reuse_factors() {
    let (ok, stdout, _) = run(&["rfa", "--lanes", "8", "--hold", "4"]);
    assert!(ok);
    assert!(stdout.contains("RF = 8"), "{stdout}");
    assert!(stdout.contains("RF = 4"), "{stdout}");
}

#[test]
fn rfa_eyeriss_variant() {
    let (ok, stdout, _) = run(&["rfa", "--eyeriss", "5,3"]);
    assert!(ok);
    assert!(stdout.contains("RF = 15"), "{stdout}"); // k·t of b2
    assert!(stdout.contains("RF = 5"), "{stdout}");
}

#[test]
fn analyze_reports_fit() {
    let (ok, stdout, _) = run(&[
        "analyze",
        "--network",
        "mobilenet",
        "--samples",
        "20",
        "--seed",
        "7",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("Accelerator_FIT_rate"), "{stdout}");
    assert!(stdout.contains("ASIL-D"), "{stdout}");
}

#[test]
fn unknown_network_fails_with_usage() {
    let (ok, _, stderr) = run(&["analyze", "--network", "alexnet"]);
    assert!(!ok);
    assert!(stderr.contains("unknown network"), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
}

#[test]
fn missing_flag_value_is_reported() {
    let (ok, _, stderr) = run(&["analyze", "--network"]);
    assert!(!ok);
    assert!(stderr.contains("requires a value"), "{stderr}");
}

#[test]
fn trace_progress_metrics_and_report_roundtrip() {
    let dir = std::env::temp_dir().join(format!("fidelity-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("campaign.jsonl");
    let trace_str = trace.to_str().expect("utf-8 temp path");

    let (ok, stdout, stderr) = run(&[
        "analyze",
        "--network",
        "lstm",
        "--samples",
        "3",
        "--seed",
        "7",
        "--trace",
        trace_str,
        "--progress",
        "--metrics",
    ]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    // --metrics snapshot comes after the FIT report.
    assert!(stdout.contains("campaign.injections"), "{stdout}");
    // --progress renders the live status line on stderr.
    assert!(stderr.contains("cells"), "{stderr}");

    // Every line of the trace is an object with the reserved keys, and the
    // lifecycle events are present.
    let body = std::fs::read_to_string(&trace).expect("trace file written");
    assert!(!body.is_empty(), "trace must not be empty");
    for line in body.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        assert!(line.contains("\"ev\":"), "{line}");
        assert!(line.contains("\"t_us\":"), "{line}");
    }
    assert!(body.contains("\"ev\":\"campaign.start\""), "{body}");
    assert!(body.contains("\"ev\":\"cell.done\""), "{body}");
    assert!(body.contains("\"ev\":\"campaign.finish\""), "{body}");

    // `fidelity report` summarizes the same file.
    let (ok, stdout, stderr) = run(&["report", "--trace", trace_str]);
    assert!(ok, "stdout: {stdout}\nstderr: {stderr}");
    assert!(stdout.contains("events"), "{stdout}");
    assert!(stdout.contains("campaign.finish"), "{stdout}");
    assert!(stdout.contains("outcomes"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn report_requires_trace_flag() {
    let (ok, _, stderr) = run(&["report"]);
    assert!(!ok);
    assert!(stderr.contains("report requires --trace"), "{stderr}");
}

#[test]
fn report_rejects_empty_trace() {
    let dir = std::env::temp_dir().join(format!("fidelity-cli-empty-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let trace = dir.join("empty.jsonl");
    std::fs::write(&trace, "").expect("write empty trace");
    let (ok, _, stderr) = run(&["report", "--trace", trace.to_str().expect("utf-8")]);
    assert!(!ok);
    assert!(stderr.contains("no events"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn validate_small_run_passes() {
    let (ok, stdout, _) = run(&[
        "validate",
        "--network",
        "mobilenet",
        "--layer",
        "ds0_pw",
        "--sites",
        "120",
        "--samples",
        "10",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("NO MISMATCHES"), "{stdout}");
}

#[test]
fn runtime_failure_prints_named_error_without_usage() {
    let dir = std::env::temp_dir().join(format!("fidelity-cli-cert-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let cert = dir.join("bogus.ackpt");
    std::fs::write(&cert, "fidelity-ackpt v1\nnot a certificate\n").expect("write cert");
    let out = Command::new(env!("CARGO_BIN_EXE_fidelity"))
        .args(["statcheck", "--cert", cert.to_str().expect("utf-8")])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("error: "), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}
