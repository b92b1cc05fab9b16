//! `exl-benchmark`: drives the engine end to end through the public
//! `ExlEngine` API on five seeded workloads, checks every op's output, and
//! prints every end-to-end metric with its unit. With `--trace` it also
//! replays ops layer by layer and reports per-layer metrics plus a Chrome
//! trace. See README.md for the metrics, the workloads and the protocol
//! for comparing two commits.
//!
//! ```text
//! exl-benchmark [--workload NAME] [--seed S] [--seconds N | --ops N]
//!               [--trace [0|1]] [--scale full|smoke] [--out DIR]
//!               [--spec BENCHMARK.json]
//! exl-benchmark --compare A.json[,A2.json...] B.json[,B2.json...] [--spec BENCHMARK.json]
//! ```
//!
//! Without `--workload`, every workload runs in its own process, one after
//! the other, and `DIR/results.json` collects them all.

mod check;
mod measure;
mod replay;
mod report;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use serde_json::Value;

use measure::Budget;
use report::{Metric, Spec, WorkloadResult};
use workload::{Inputs, Scale, Workload};

const USAGE: &str = "usage: exl-benchmark [--workload NAME] [--seed S] [--seconds N | --ops N] \
[--trace [0|1]] [--scale full|smoke] [--out DIR] [--spec PATH]\n       \
exl-benchmark --compare A.json[,...] B.json[,...] [--spec PATH]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    budget: Budget,
    trace: bool,
    scale: Scale,
    out: PathBuf,
    spec: PathBuf,
    /// Negative control: flip a bit in a copy of this op's outputs.
    corrupt_op: Option<usize>,
    compare: Option<(Vec<PathBuf>, Vec<PathBuf>)>,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        budget: Budget::Seconds(Duration::from_secs(20)),
        trace: false,
        scale: Scale::Full,
        out: PathBuf::from("benchmark/out"),
        spec: PathBuf::from("BENCHMARK.json"),
        corrupt_op: None,
        compare: None,
    };
    let mut argv = argv.by_ref().peekable();
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.budget = Budget::Seconds(Duration::from_secs(number(value()?)?)),
            "--ops" => args.budget = Budget::Ops(number(value()?)?.max(1) as usize),
            "--trace" => {
                args.trace = argv
                    .next_if(|v| v == "0" || v == "1")
                    .is_none_or(|v| v == "1");
            }
            "--scale" => {
                let name = value()?;
                args.scale = Scale::parse(&name).ok_or_else(|| format!("unknown scale {name}"))?;
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--spec" => args.spec = PathBuf::from(value()?),
            "--corrupt-op" => args.corrupt_op = Some(number(value()?)? as usize),
            "--compare" => {
                let files = |list: String| list.split(',').map(PathBuf::from).collect();
                let a = files(value()?);
                let b = files(argv.next().ok_or("--compare needs two sides")?);
                args.compare = Some((a, b));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    match run(std::env::args().skip(1)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("exl-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(argv: impl Iterator<Item = String>) -> Result<ExitCode, String> {
    let args = parse_args(argv)?;
    let spec = Spec::read(&args.spec)?;
    if let Some((a, b)) = &args.compare {
        let worse = report::compare(&spec, a, b)?;
        return Ok(if worse {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    match args.workload {
        Some(workload) => run_workload(workload, &args, &spec),
        None => run_all(&args),
    }
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

fn write_json(path: &Path, value: &Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn results_json(args: &Args, workloads: BTreeMap<String, Value>) -> Value {
    report::obj([
        ("seed", report::int(args.seed as usize)),
        ("scale", Value::String(args.scale.name().into())),
        ("host_cores", report::int(host_cores())),
        ("workloads", Value::Object(workloads)),
    ])
}

/// Run one workload in this process: the untraced ops, their checks,
/// and with `--trace` the traced ops.
fn run_workload(workload: Workload, args: &Args, spec: &Spec) -> Result<ExitCode, String> {
    let name = workload.name();
    let inputs = Inputs::generate(workload, args.scale, args.seed);
    eprintln!(
        "exl-benchmark: {name}: {} input rows, seed {}",
        inputs.rows(),
        args.seed
    );
    let measure::Measured {
        setup_s,
        op_ms,
        attempted,
        errors,
        checker,
    } = measure::run(&inputs, args.seed, args.budget, args.corrupt_op)
        .map_err(|e| format!("{name}: set-up failed: {e}"))?;
    // before any reference is computed: the engine's peak, not the checker's
    let peak_rss = peak_rss_mb()?;
    let failed = errors + checker.verify(&inputs)?;
    drop(checker);
    let chase = check::chase_cross_check(workload, args.scale, args.seed);
    if let Err(e) = &chase {
        eprintln!("exl-benchmark: {name}: chase cross-check failed: {e}");
    }

    let run = Metric::of_samples(&op_ms, "ms");
    let rows = inputs.rows() as f64;
    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_string(), Metric::of_samples(&setup_s, "s"));
    metrics.insert(
        "rows_per_s".to_string(),
        Metric {
            value: rows / (run.value / 1e3),
            unit: "rows/s",
            q1: rows / (run.q3 / 1e3),
            q3: rows / (run.q1 / 1e3),
        },
    );
    if let Some(p95) = report::p95(&op_ms) {
        metrics.insert("run_ms_p95".to_string(), Metric::single(p95, "ms"));
    }
    metrics.insert("run_ms_p50".to_string(), run.clone());
    metrics.insert("peak_rss_mb".to_string(), Metric::single(peak_rss, "MB"));
    metrics.insert(
        "error_rate".to_string(),
        Metric::single(failed as f64 / attempted as f64, "ratio"),
    );

    let mut result = WorkloadResult {
        workload: name.to_string(),
        correct: failed == 0 && chase.is_ok() && !op_ms.is_empty(),
        attempted,
        failed,
        input_rows: inputs.rows(),
        setup_s,
        op_ms,
        metrics,
        layers: BTreeMap::new(),
        crosscheck: BTreeMap::new(),
    };
    if args.trace {
        let traced = replay::run(&inputs, args.seed, run.value)
            .map_err(|e| format!("{name}: traced op failed: {e}"))?;
        result.layers = traced
            .metrics
            .into_iter()
            .map(|(k, (value, unit))| (k, Metric::single(value, unit)))
            .collect();
        result.crosscheck = traced.crosscheck;
        let path = args.out.join(format!("{name}.trace.json"));
        std::fs::write(&path, traced.chrome)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    let json = result.to_json();
    write_json(&args.out.join(format!("{name}.json")), &json)?;
    write_json(
        &args.out.join("results.json"),
        &results_json(args, BTreeMap::from([(name.to_string(), json)])),
    )?;
    print!("{}", result.table());
    let names: Vec<String> = if args.trace {
        spec.per_layer.clone()
    } else {
        spec.end_to_end.iter().map(|(n, _, _)| n.clone()).collect()
    };
    println!("{}", report::result_line(&result, &names, args.trace)?);
    Ok(if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Run every workload, each in its own process and one at a time, and
/// collect their results into `DIR/results.json`.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut all_ok = true;
    let mut workloads = BTreeMap::new();
    for workload in workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--scale", args.scale.name()])
            .arg("--out")
            .arg(&args.out)
            .arg("--spec")
            .arg(&args.spec)
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        match args.budget {
            Budget::Seconds(s) => cmd.args(["--seconds", &s.as_secs().to_string()]),
            Budget::Ops(n) => cmd.args(["--ops", &n.to_string()]),
        };
        if let Some(op) = args.corrupt_op {
            cmd.args(["--corrupt-op", &op.to_string()]);
        }
        let status = cmd
            .stdin(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        all_ok &= status.success();
        // a run that could not finish leaves no results of its own
        let path = args.out.join(format!("{}.json", workload.name()));
        if matches!(status.code(), Some(0 | 1)) {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let value = serde_json::from_str(&text)
                .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
            workloads.insert(workload.name().to_string(), value);
        }
    }
    write_json(
        &args.out.join("results.json"),
        &results_json(args, workloads),
    )?;
    Ok(if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
