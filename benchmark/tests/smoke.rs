//! Smoke test of the benchmark: every workload runs through the same code
//! at `--scale smoke` (about 1/1000 of the inputs, 2 ops), every metric
//! BENCHMARK.json names is emitted with its unit, no op fails, and an op
//! whose output was corrupted counts as failed. No timing is asserted.

use std::path::PathBuf;
use std::process::Command;

use serde_json::Value;

fn spec() -> (PathBuf, Value) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    (
        path,
        serde_json::from_str(&text).expect("BENCHMARK.json is JSON"),
    )
}

/// Run one workload at smoke scale; returns the exit status's success,
/// the last stdout line, and the workload's entry of `results.json`.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (bool, Value, Value) {
    let (spec_path, _) = spec();
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{workload}-{trace}"));
    let output = Command::new(env!("CARGO_BIN_EXE_exl-benchmark"))
        .args([
            "--workload",
            workload,
            "--scale",
            "smoke",
            "--ops",
            "2",
            "--seed",
            "11",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&out)
        .arg("--spec")
        .arg(&spec_path)
        .args(extra)
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    let last = stdout.lines().last().unwrap_or_default();
    let line: Value = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e}): {last}\n{}",
            String::from_utf8_lossy(&output.stderr)
        )
    });
    let results = std::fs::read_to_string(out.join(format!("{workload}.json")))
        .expect("per-workload results");
    let results = serde_json::from_str(&results).expect("results are JSON");
    (output.status.success(), line, results)
}

fn assert_emits_every_metric(workload: &str) {
    let (_, spec) = spec();
    let (ok, line, results) = run(workload, true, &[]);
    assert!(ok, "{workload}: benchmark failed: {line:?}");
    assert_eq!(line["correct"].as_bool(), Some(true), "{workload}");
    assert_eq!(line["attempted"].as_u64(), Some(2), "{workload}");
    assert_eq!(line["failed"].as_u64(), Some(0), "{workload}");
    assert_eq!(
        results["metrics"]["error_rate"]["value"].as_f64(),
        Some(0.0),
        "{workload}"
    );
    // end-to-end metrics come from the untraced ops, per-layer ones from
    // the traced ops, which the result line carries in a traced run
    for (list, emitted) in [
        ("end_to_end", &results["metrics"]),
        ("per_layer", &line["metrics"]),
    ] {
        for m in spec[list].as_array().expect("metric list") {
            let name = m["name"].as_str().expect("metric name");
            let got = &emitted[name];
            assert!(
                got["value"].as_f64().is_some(),
                "{workload}: {name} missing: {emitted:?}"
            );
            assert_eq!(got["unit"], m["unit"], "{workload}: unit of {name}");
        }
    }
}

#[test]
fn wide_emits_every_metric() {
    assert_emits_every_metric("wide");
}

#[test]
fn wide_sharded_emits_every_metric() {
    assert_emits_every_metric("wide-sharded");
}

#[test]
fn gdp_emits_every_metric() {
    assert_emits_every_metric("gdp");
}

#[test]
fn gdp_vintage_emits_every_metric() {
    assert_emits_every_metric("gdp-vintage");
}

#[test]
fn multi_target_emits_every_metric() {
    assert_emits_every_metric("multi-target");
}

#[test]
fn spec_names_exactly_the_workloads_the_benchmark_runs() {
    let (_, spec) = spec();
    let names: Vec<&str> = spec["workloads"]
        .as_array()
        .expect("workload list")
        .iter()
        .map(|w| w["name"].as_str().expect("workload name"))
        .collect();
    assert_eq!(
        names,
        ["wide", "wide-sharded", "gdp", "gdp-vintage", "multi-target"]
    );
}

#[test]
fn a_corrupted_output_counts_as_a_failed_op() {
    for workload in ["gdp", "multi-target"] {
        let (ok, line, _) = run(workload, false, &["--corrupt-op", "2"]);
        assert!(!ok, "{workload}: a failed check must fail the run");
        assert_eq!(line["correct"].as_bool(), Some(false), "{workload}");
        assert_eq!(line["attempted"].as_u64(), Some(2), "{workload}");
        assert_eq!(line["failed"].as_u64(), Some(1), "{workload}");
    }
}
