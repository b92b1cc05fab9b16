//! End-to-end tests for the `exlc` command-line tool.

use std::process::Command;

fn exlc(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_exlc"))
        .args(args)
        .output()
        .expect("spawn exlc")
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("exlc-test-{}-{name}", std::process::id()));
    std::fs::write(&path, content).unwrap();
    path
}

const PROGRAM: &str = r#"
cube A(q: time[quarter]) -> y;
B := 2 * A;
C := cumsum(B);
"#;

#[test]
fn check_reports_schemas() {
    let p = write_tmp("check.exl", PROGRAM);
    let out = exlc(&["check", p.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("ok: 2 statements"), "{stdout}");
    assert!(stdout.contains("elementary"), "{stdout}");
    assert!(stdout.contains("derived"), "{stdout}");
}

#[test]
fn tgds_prints_the_mapping() {
    let p = write_tmp("tgds.exl", PROGRAM);
    let out = exlc(&["tgds", p.to_str().unwrap()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("A(q, y) -> B(q, 2 * y)"), "{stdout}");
    assert!(stdout.contains("[egd]"), "{stdout}");
}

#[test]
fn translate_every_target() {
    let p = write_tmp("tr.exl", PROGRAM);
    for target in ["sql", "r", "matlab", "etl", "native", "chase"] {
        let out = exlc(&["translate", target, p.to_str().unwrap()]);
        assert!(out.status.success(), "{target}");
        assert!(!out.stdout.is_empty(), "{target}");
    }
    let out = exlc(&["translate", "cobol", p.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown target"));
}

#[test]
fn run_executes_with_json_data() {
    let p = write_tmp("run.exl", PROGRAM);
    let d = write_tmp(
        "run.json",
        r#"{ "A": [
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5]
        ]}"#,
    );
    let out = exlc(&["run", p.to_str().unwrap(), d.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    let parsed: serde_json::Value = serde_json::from_str(&stdout).unwrap();
    // C = cumsum(2*A) = [3, 8]
    let c = parsed["C"].as_array().unwrap();
    assert_eq!(c.len(), 2);
    assert_eq!(c[1][1].as_f64(), Some(8.0));
}

/// Run `exlc <flags> run <program> <data> <target>`, assert success, and
/// return its stdout.
fn run_stdout(flags: &[&str], program: &str, data: &str, target: &str) -> String {
    let mut args = flags.to_vec();
    args.extend(["run", program, data, target]);
    let out = exlc(&args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Every target computes the program, and the stdout of a run does not
/// depend on the dispatch supervisor's retry policy or on a ledger
/// being written: every run takes the one engine path.
#[test]
fn run_accepts_a_target_argument() {
    let p = write_tmp("tgt.exl", PROGRAM);
    let d = write_tmp(
        "tgt.json",
        r#"{ "A": [
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5]
        ]}"#,
    );
    let ledger = std::env::temp_dir().join(format!("exlc-tgt-ledger-{}", std::process::id()));
    let (p, d) = (p.to_str().unwrap(), d.to_str().unwrap());
    for target in ["native", "chase", "sql", "r", "matlab", "etl"] {
        let plain = run_stdout(&[], p, d, target);
        let parsed: serde_json::Value = serde_json::from_str(&plain).unwrap();
        assert_eq!(parsed["C"][1][1].as_f64(), Some(8.0), "{target}");
        assert_eq!(
            run_stdout(&["--retries", "1"], p, d, target),
            plain,
            "{target}: --retries 1"
        );
        let ledger_flags = ["--ledger-dir", ledger.to_str().unwrap()];
        assert_eq!(
            run_stdout(&ledger_flags, p, d, target),
            plain,
            "{target}: --ledger-dir"
        );
    }
    std::fs::remove_dir_all(&ledger).unwrap();
}

/// An operator the SQL target lacks (`addz` needs a full outer join)
/// falls back to the native engine whatever flags the run carries: the
/// plain, traced and supervised runs print the native run's stdout.
#[test]
fn unsupported_operator_falls_back_on_every_flag_combination() {
    let p = write_tmp(
        "addz.exl",
        "cube A(k: int) -> y; cube B(k: int) -> z; C := addz(A, B);",
    );
    let d = write_tmp(
        "addz.json",
        r#"{ "A": [ [[{"Int": 1}], 1.0] ], "B": [ [[{"Int": 2}], 5.0] ] }"#,
    );
    let t = std::env::temp_dir().join(format!("exlc-test-{}-addz.trace.json", std::process::id()));
    let (p, d) = (p.to_str().unwrap(), d.to_str().unwrap());
    let native = run_stdout(&[], p, d, "native");
    let parsed: serde_json::Value = serde_json::from_str(&native).unwrap();
    assert_eq!(parsed["C"].as_array().unwrap().len(), 2, "{native}");
    for flags in [
        &[][..],
        &["--trace", t.to_str().unwrap()][..],
        &["--retries", "1"][..],
    ] {
        assert_eq!(run_stdout(flags, p, d, "sql"), native, "sql {flags:?}");
    }
    std::fs::remove_file(&t).unwrap();
}

/// `run --dump-plan` writes the same overview `exlc plan` prints, for
/// any target: the dump describes the native plans and is written
/// before the run.
#[test]
fn dump_plan_file_equals_plan_stdout() {
    let p = write_tmp(
        "dump.exl",
        "cube A(q: time[quarter]) -> y; B := 2 * (A - shift(A, 1)) / A + 3; C := B * B;",
    );
    let d = write_tmp(
        "dump.json",
        r#"{ "A": [
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 3}}}], 3.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 4}}}], 4.5]
        ]}"#,
    );
    let (p, d) = (p.to_str().unwrap(), d.to_str().unwrap());
    let out = exlc(&["plan", p, d]);
    assert!(out.status.success());
    let plan = String::from_utf8(out.stdout).unwrap();
    assert!(plan.contains("fused="), "{plan}");
    for target in ["native", "sql"] {
        let dump = std::env::temp_dir().join(format!(
            "exlc-test-{}-dump-{target}.txt",
            std::process::id()
        ));
        let out = exlc(&["run", p, d, target, "--dump-plan", dump.to_str().unwrap()]);
        assert!(
            out.status.success(),
            "{target}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8(out.stderr)
            .unwrap()
            .contains("plan dumped to"));
        assert_eq!(std::fs::read_to_string(&dump).unwrap(), plan, "{target}");
        std::fs::remove_file(&dump).unwrap();
    }
}

#[test]
fn run_executes_with_csv_directory() {
    let p = write_tmp("csv.exl", PROGRAM);
    let dir = std::env::temp_dir().join(format!("exlc-csv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("A.csv"), "q,y\n2020-Q1,1.5\n2020-Q2,2.5\n").unwrap();
    let out = exlc(&["run", p.to_str().unwrap(), dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let parsed: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(parsed["C"][1][1].as_f64(), Some(8.0));
    // a malformed CSV is reported with its file and row
    std::fs::write(dir.join("A.csv"), "q,y\n2020-Q9,1.5\n").unwrap();
    let out = exlc(&["run", p.to_str().unwrap(), dir.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("row 2"));
}

#[test]
fn metrics_flag_writes_registry_json() {
    let p = write_tmp("metrics.exl", PROGRAM);
    let d = write_tmp(
        "metrics.json",
        r#"{ "A": [
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5]
        ]}"#,
    );
    let m = std::env::temp_dir().join(format!(
        "exlc-test-{}-metrics-chase.out.json",
        std::process::id()
    ));
    let out = exlc(&[
        "--metrics",
        m.to_str().unwrap(),
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
        "chase",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&m).unwrap()).unwrap();
    // parser/analyzer spans, per-subgraph timing, per-backend timing
    assert!(metrics["spans"]["lang.parse"]["count"].as_u64() >= Some(1));
    assert!(metrics["spans"]["lang.analyze"]["total_ns"].as_u64() > Some(0));
    assert!(
        metrics["spans"]["engine.subgraph.chase"]["count"].as_u64() >= Some(1),
        "{metrics:?}"
    );
    assert!(
        metrics["spans"]["target.execute.chase"]["total_ns"].as_u64() > Some(0),
        "{metrics:?}"
    );
    // backend-specific counters
    assert!(
        metrics["counters"]["chase.applications"].as_u64() > Some(0),
        "{metrics:?}"
    );
}

#[test]
fn metrics_flag_without_path_is_an_error() {
    let out = exlc(&["--metrics"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--metrics requires"));
}

#[test]
fn malformed_program_and_data_exit_nonzero_with_diagnostic() {
    // syntactically broken program
    let bad = write_tmp("malformed.exl", "cube A(k: int -> ;;");
    let out = exlc(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("exlc:"), "{stderr}");
    assert!(!stderr.is_empty());

    // well-formed program, malformed JSON data
    let p = write_tmp("malformed-ok.exl", PROGRAM);
    let d = write_tmp("malformed.json", "{ not json ");
    let out = exlc(&["run", p.to_str().unwrap(), d.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("exlc:"));

    // data for a cube the program does not declare
    let d = write_tmp("malformed-unknown.json", r#"{ "ZZZ": [] }"#);
    let out = exlc(&["run", p.to_str().unwrap(), d.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown cube"));
}

/// The removed pipeline-parallel ETL target is an unknown target like
/// any other name: the run fails before executing and lists the six
/// targets that exist.
#[test]
fn removed_target_is_an_unknown_target() {
    let p = write_tmp("gone.exl", PROGRAM);
    let d = write_tmp("gone.json", RUN_DATA);
    let gone = concat!("etl", "-parallel");
    let out = exlc(&["run", p.to_str().unwrap(), d.to_str().unwrap(), gone]);
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains(&format!("unknown target `{gone}`")),
        "{stderr}"
    );
    assert!(
        stderr.contains("native, chase, sql, r, matlab, etl)"),
        "{stderr}"
    );
}

#[test]
fn errors_are_reported_with_nonzero_exit() {
    let bad = write_tmp("bad.exl", "B := B + 1;");
    let out = exlc(&["check", bad.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("exlc:"));

    let out = exlc(&["check", "/nonexistent/file.exl"]);
    assert!(!out.status.success());

    let out = exlc(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown command"));
}

const RUN_DATA: &str = r#"{ "A": [
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5]
]}"#;

#[test]
fn unwritable_metrics_path_fails_before_running() {
    let p = write_tmp("mval.exl", PROGRAM);
    let out = exlc(&[
        "--metrics",
        "/nonexistent-dir/metrics.json",
        "check",
        p.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not writable"), "{stderr}");
    // the diagnostic comes before anything ran: no program output at all
    assert!(out.stdout.is_empty());
}

#[test]
fn fault_flags_run_through_the_supervisor() {
    let p = write_tmp("sup.exl", PROGRAM);
    let d = write_tmp("sup.json", RUN_DATA);
    for flags in [
        &["--retries", "2"][..],
        &["--subgraph-timeout-ms", "60000"][..],
        &["--keep-going"][..],
    ] {
        let mut args: Vec<&str> = flags.to_vec();
        args.extend(["run", p.to_str().unwrap(), d.to_str().unwrap()]);
        let out = exlc(&args);
        assert!(
            out.status.success(),
            "{flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let parsed: serde_json::Value =
            serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
        assert_eq!(parsed["C"][1][1].as_f64(), Some(8.0), "{flags:?}");
    }
    // malformed values are rejected with a diagnostic
    let out = exlc(&[
        "--retries",
        "many",
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("--retries"));
}

/// The wide program of `scripts/check.sh`: `A` is shard-local, `T` a
/// merge barrier, so a sharded run records several successful attempts.
const WIDE_PROGRAM: &str = r#"
cube W(q: time[quarter], r: text) -> v;
A := 2 * W;
T := sum(A, group by q);
"#;

const WIDE_DATA: &str = r#"{ "W": [
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}, {"Str": "north"}], 1.0],
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}, {"Str": "south"}], 2.0],
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}, {"Str": "north"}], 3.0],
    [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}, {"Str": "south"}], 4.0]
]}"#;

/// "run succeeded after …" reports retries, so it needs an attempt that
/// did not succeed: a clean sharded run (one successful attempt per shard
/// and per barrier) prints nothing, a retried fault prints one failure.
#[test]
fn retry_line_counts_only_failed_attempts() {
    let p = write_tmp("retry-line.exl", WIDE_PROGRAM);
    let d = write_tmp("retry-line.json", WIDE_DATA);
    let dir = std::env::temp_dir().join(format!("exlc-retry-line-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (p, d) = (p.to_str().unwrap(), d.to_str().unwrap());

    let clean = exlc(&[
        "--shards",
        "2",
        "--cache-dir",
        dir.to_str().unwrap(),
        "run",
        p,
        d,
    ]);
    let stderr = String::from_utf8_lossy(&clean.stderr);
    assert!(clean.status.success(), "{stderr}");
    assert!(!stderr.contains("run succeeded after"), "{stderr}");

    let retried = exlc(&[
        "--retries",
        "1",
        "--inject-fault",
        "exec.native:1:error",
        "--shards",
        "2",
        "run",
        p,
        d,
    ]);
    let stderr = String::from_utf8_lossy(&retried.stderr);
    assert!(retried.status.success(), "{stderr}");
    assert!(
        stderr.contains("run succeeded after 1 failed attempt"),
        "{stderr}"
    );
    assert_eq!(clean.stdout, retried.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn trace_flag_writes_chrome_trace_json() {
    let p = write_tmp("trace.exl", PROGRAM);
    let d = write_tmp("trace-data.json", RUN_DATA);
    let t = std::env::temp_dir().join(format!("exlc-test-{}-trace.out.json", std::process::id()));
    let out = exlc(&[
        "--trace",
        t.to_str().unwrap(),
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // the run itself still prints its derived cubes
    let parsed: serde_json::Value =
        serde_json::from_str(&String::from_utf8(out.stdout).unwrap()).unwrap();
    assert_eq!(parsed["C"][1][1].as_f64(), Some(8.0));
    // and the trace file is valid Chrome trace-event JSON with a rooted
    // span tree: a `run` root, and a subgraph span with cube/target attrs
    let trace: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&t).unwrap()).unwrap();
    let events = trace["traceEvents"].as_array().unwrap();
    assert!(!events.is_empty());
    let run = events
        .iter()
        .find(|e| e["name"].as_str() == Some("run"))
        .expect("run span");
    assert!(run["args"]["parent_id"].as_u64().is_none(), "run is a root");
    assert_eq!(run["args"]["status"].as_str(), Some("ok"));
    let subgraphs: Vec<&serde_json::Value> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("subgraph"))
        .collect();
    assert!(!subgraphs.is_empty(), "at least one subgraph span");
    for sub in &subgraphs {
        assert_eq!(sub["args"]["target"].as_str(), Some("native"));
        assert_eq!(sub["args"]["status"].as_str(), Some("computed"));
        assert!(sub["args"]["cubes"].as_str().is_some());
        assert!(sub["args"]["rows_out"].as_u64().is_some());
    }
    let cubes: Vec<&str> = subgraphs
        .iter()
        .flat_map(|s| s["args"]["cubes"].as_str().unwrap().split(','))
        .collect();
    assert!(cubes.contains(&"B") && cubes.contains(&"C"), "{cubes:?}");
    // every subgraph span sits under an ancestor chain that reaches `run`
    let attempt = events
        .iter()
        .find(|e| e["name"].as_str() == Some("attempt"))
        .expect("attempt span");
    assert_eq!(attempt["args"]["status"].as_str(), Some("ok"));
}

#[test]
fn unwritable_trace_path_fails_before_running() {
    let p = write_tmp("tval.exl", PROGRAM);
    let out = exlc(&[
        "--trace",
        "/nonexistent-dir/trace.json",
        "check",
        p.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("not writable"), "{stderr}");
    assert!(out.stdout.is_empty());
}

#[test]
fn duplicate_global_flags_are_rejected() {
    let p = write_tmp("dup.exl", PROGRAM);
    let d = write_tmp("dup.json", RUN_DATA);
    for dup in [
        &["--trace", "a.json", "--trace", "b.json"][..],
        &["--metrics", "a.json", "--metrics", "b.json"][..],
        &["--retries", "1", "--retries", "2"][..],
        &["--keep-going", "--keep-going"][..],
        &["--progress", "--progress"][..],
    ] {
        let mut args: Vec<&str> = dup.to_vec();
        args.extend(["run", p.to_str().unwrap(), d.to_str().unwrap()]);
        let out = exlc(&args);
        assert!(!out.status.success(), "{dup:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("duplicate"), "{dup:?}: {stderr}");
        assert!(stderr.contains(dup[0]), "{dup:?}: {stderr}");
    }
}

#[test]
fn progress_flag_reports_each_subgraph() {
    let p = write_tmp("prog.exl", PROGRAM);
    let d = write_tmp("prog.json", RUN_DATA);
    let out = exlc(&[
        "--progress",
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8(out.stderr).unwrap();
    let lines: Vec<&str> = stderr.lines().filter(|l| l.contains("computed")).collect();
    assert!(!lines.is_empty(), "{stderr}");
    // [done/total] counts up to completion on the last line
    let last = lines.last().unwrap();
    let n = lines.len();
    assert!(last.contains(&format!("[{n}/{n}]")), "{stderr}");
    assert!(last.contains("on native"), "{stderr}");
}

/// The paper's Fig. 1 GDP pipeline as CSV inputs: PDR (population per
/// region per sample day) and RGDPPC (real GDP per capita per quarter).
fn write_gdp_csv_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("exlc-gdp-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut pdr = String::from("d,r,p\n");
    let mut rgdppc = String::from("q,r,g\n");
    for qi in 0..12u32 {
        let year = 2015 + qi / 4;
        let quarter = qi % 4 + 1;
        for (ri, region) in ["north", "south"].iter().enumerate() {
            let base = 1000.0 + ri as f64 * 250.0;
            for di in 0..2u32 {
                let month = (quarter - 1) * 3 + 1 + di;
                pdr.push_str(&format!(
                    "{year}-{month:02}-15,{region},{}\n",
                    base + qi as f64 * 2.0 + di as f64
                ));
            }
            rgdppc.push_str(&format!(
                "{year}-Q{quarter},{region},{}\n",
                30.0 + ri as f64 * 2.0 + qi as f64 * 0.4
            ));
        }
    }
    std::fs::write(dir.join("PDR.csv"), pdr).unwrap();
    std::fs::write(dir.join("RGDPPC.csv"), rgdppc).unwrap();
    dir
}

const GDP_PROGRAM: &str = r#"
cube PDR(d: time[day], r: text) -> p;
cube RGDPPC(q: time[quarter], r: text) -> g;
PQR := avg(PDR, group by quarter(d) as q, r);
RGDP := RGDPPC * PQR;
GDP := sum(RGDP, group by q);
GDPT := stl_trend(GDP);
PCHNG := 100 * (GDPT - shift(GDPT, 1)) / GDPT;
"#;

#[test]
fn explain_prints_the_full_derivation_chain() {
    let p = write_tmp("explain.exl", GDP_PROGRAM);
    let dir = write_gdp_csv_dir("explain");
    let out = exlc(&[
        "explain",
        p.to_str().unwrap(),
        dir.to_str().unwrap(),
        "PCHNG",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    // the whole multi-hop chain, down to the elementary leaves
    let first = stdout.lines().next().unwrap();
    assert!(first.starts_with("PCHNG"), "{stdout}");
    for cube in ["GDPT", "GDP", "RGDP", "RGDPPC", "PQR"] {
        assert!(stdout.contains(cube), "{cube} missing:\n{stdout}");
    }
    assert!(stdout.contains("PDR (elementary)"), "{stdout}");
    assert!(stdout.contains("RGDPPC (elementary)"), "{stdout}");
    // run facts per derived step: backend, status, row counts, timing
    assert!(first.contains("backend="), "{stdout}");
    assert!(first.contains("status=computed"), "{stdout}");
    assert!(first.contains("rows_out="), "{stdout}");
    assert!(first.contains("attempts=1"), "{stdout}");

    // an unknown cube is a clear error
    let out = exlc(&[
        "explain",
        p.to_str().unwrap(),
        dir.to_str().unwrap(),
        "NOPE",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("unknown cube"));
}

/// `--cache-dir` persists the run cache across processes: the second
/// invocation resolves every statement from disk, prints identical JSON,
/// and says so on stderr. `--no-cache` forces a cold run even with a
/// cache directory on the line.
#[test]
fn run_cache_dir_warms_across_processes() {
    let p = write_tmp("cache.exl", PROGRAM);
    let d = write_tmp(
        "cache.json",
        r#"{ "A": [
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 1}}}], 1.5],
            [[{"Time": {"Quarter": {"year": 2020, "quarter": 2}}}], 2.5]
        ]}"#,
    );
    let dir = std::env::temp_dir().join(format!("exlc-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let run = |extra: &[&str]| {
        let mut args = vec!["run", p.to_str().unwrap(), d.to_str().unwrap()];
        args.extend_from_slice(extra);
        exlc(&args)
    };

    let cold = run(&["--cache-dir", dir.to_str().unwrap()]);
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8(cold.stderr).unwrap();
    assert!(cold_err.contains("cache: 0 hit"), "{cold_err}");

    // fresh process, same directory: everything replays from disk
    let warm = run(&["--cache-dir", dir.to_str().unwrap()]);
    assert!(
        warm.status.success(),
        "{}",
        String::from_utf8_lossy(&warm.stderr)
    );
    let warm_err = String::from_utf8(warm.stderr).unwrap();
    assert!(warm_err.contains("0 miss"), "{warm_err}");
    assert!(!warm_err.contains("cache: 0 hit"), "{warm_err}");
    assert_eq!(
        cold.stdout, warm.stdout,
        "warm output must be bit-identical"
    );

    // --no-cache wins over --cache-dir: cold semantics, no summary line
    let off = run(&["--cache-dir", dir.to_str().unwrap(), "--no-cache"]);
    assert!(
        off.status.success(),
        "{}",
        String::from_utf8_lossy(&off.stderr)
    );
    assert!(!String::from_utf8(off.stderr).unwrap().contains("cache:"));
    assert_eq!(cold.stdout, off.stdout);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn metrics_prom_flag_writes_prometheus_text() {
    let p = write_tmp("prom.exl", PROGRAM);
    let d = write_tmp("prom.json", RUN_DATA);
    let m = std::env::temp_dir().join(format!("exlc-test-{}-metrics.prom", std::process::id()));
    let out = exlc(&[
        "--metrics-prom",
        m.to_str().unwrap(),
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&m).unwrap();
    assert!(
        text.contains("# TYPE exl_lang_parse_spans_total counter"),
        "{text}"
    );
    assert!(text.contains("exl_lang_parse_ns_total"), "{text}");
    std::fs::remove_file(&m).unwrap();
}

#[test]
fn unwritable_bundle_and_ledger_dirs_fail_before_running() {
    let p = write_tmp("bval.exl", PROGRAM);
    for flag in ["--bundle-dir", "--ledger-dir"] {
        let out = exlc(&[flag, "/proc/nonexistent/dir", "check", p.to_str().unwrap()]);
        assert!(!out.status.success(), "{flag}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("not writable"), "{flag}: {stderr}");
        assert!(out.stdout.is_empty(), "{flag}");
    }
}

/// The full observability loop at the process level: an injected panic
/// writes a crash bundle (path announced on stderr), a clean run over
/// the same directory writes nothing more.
#[test]
fn inject_fault_run_writes_a_crash_bundle() {
    let p = write_tmp("bundle.exl", PROGRAM);
    let d = write_tmp("bundle.json", RUN_DATA);
    let dir = std::env::temp_dir().join(format!("exlc-bundle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = exlc(&[
        "--bundle-dir",
        dir.to_str().unwrap(),
        "--inject-fault",
        "exec.native:1:panic",
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("crash bundle written to"), "{stderr}");
    let bundles: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(bundles.len(), 1);
    let text = std::fs::read_to_string(bundles[0].as_ref().unwrap().path()).unwrap();
    let bundle: exl_engine::CrashBundle = serde_json::from_str(&text).unwrap();
    assert_eq!(bundle.error.kind, "panic");
    assert_eq!(bundle.fault_sites, vec!["exec.native".to_string()]);
    assert!(bundle.failing_subgraph.is_some());

    // a clean run over the same directory adds nothing
    let out = exlc(&[
        "--bundle-dir",
        dir.to_str().unwrap(),
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bad_inject_fault_spec_is_rejected() {
    let p = write_tmp("badfault.exl", PROGRAM);
    let d = write_tmp("badfault.json", RUN_DATA);
    for spec in [
        "exec.native",
        "exec.native:x:panic",
        "exec.native:1:explode",
    ] {
        let out = exlc(&[
            "--inject-fault",
            spec,
            "run",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "{spec}");
        assert!(
            String::from_utf8(out.stderr)
                .unwrap()
                .contains("--inject-fault"),
            "{spec}"
        );
    }
}

/// A site no `exl_fault::check` names would arm a fault that never
/// fires, and the run would pass: `--inject-fault` rejects it as a usage
/// error that lists the known sites.
#[test]
fn unknown_inject_fault_site_is_rejected() {
    let p = write_tmp("badsite.exl", PROGRAM);
    let d = write_tmp("badsite.json", RUN_DATA);
    for site in ["exec.nativ", "nowhere", concat!("exec.etl", "-parallel")] {
        let spec = format!("{site}:1:panic");
        let out = exlc(&[
            "--inject-fault",
            &spec,
            "run",
            p.to_str().unwrap(),
            d.to_str().unwrap(),
        ]);
        assert!(!out.status.success(), "{spec}");
        assert!(out.stdout.is_empty(), "{spec}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(
            stderr.contains(&format!("unknown site `{site}`")),
            "{stderr}"
        );
        for known in exl_fault::SITES {
            assert!(
                stderr.contains(known),
                "{spec}: {known} not listed: {stderr}"
            );
        }
        assert!(stderr.contains("<site>:<nth>:<action>"), "{stderr}");
    }
}

/// `exlc perf` end to end over a ledger with fixed timings: one real
/// run supplies a record as the engine writes it, three copies with
/// every statement at 1 ms form a healthy history that exits clean, and
/// a planted 10× slowdown in a fourth record trips the sentinel with a
/// non-zero exit. Fixed times keep wall-clock noise out of the verdict.
#[test]
fn perf_sentinel_detects_a_planted_slowdown() {
    let p = write_tmp("perf.exl", PROGRAM);
    let d = write_tmp("perf.json", RUN_DATA);
    let dir = std::env::temp_dir().join(format!("exlc-perf-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = exlc(&[
        "--ledger-dir",
        dir.to_str().unwrap(),
        "run",
        p.to_str().unwrap(),
        d.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = dir.join("ledger.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let mut rec: exl_engine::LedgerRecord = serde_json::from_str(text.trim_end()).unwrap();
    assert!(!rec.statements.is_empty());
    for stmt in &mut rec.statements {
        assert_eq!(stmt.status, "computed");
        stmt.wall_ms = 1.0;
    }
    let healthy = serde_json::to_string(&rec).unwrap();
    std::fs::write(&path, format!("{healthy}\n").repeat(3)).unwrap();
    let out = exlc(&["perf", dir.to_str().unwrap(), "--min-runs", "2"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("no regressions"), "{stdout}");

    // plant a 10x slowdown in a fourth record: the sentinel must exit
    // non-zero naming it
    rec.statements[0].wall_ms = 10.0;
    let forged = serde_json::to_string(&rec).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::write(&path, format!("{text}{forged}\n")).unwrap();
    let out = exlc(&[
        "perf",
        dir.to_str().unwrap(),
        "--min-runs",
        "2",
        "--threshold",
        "2.0",
    ]);
    assert!(!out.status.success(), "sentinel missed the slowdown");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stdout.contains("REGRESSED"), "{stdout}");
    assert!(stderr.contains("regression"), "{stderr}");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn perf_rejects_bad_flags() {
    let out = exlc(&["perf"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr).unwrap().contains("usage"));
    let out = exlc(&["perf", "/tmp", "--threshold", "0.5"]);
    assert!(!out.status.success());
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--threshold"));
}
