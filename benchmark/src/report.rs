//! Statistics, the `results.json` format, the stdout table, the one-line
//! result the benchmark ends with, and `--compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde_json::Value;

/// Quartiles as Python's `statistics.quantiles(data, n=4)` gives them
/// (the "exclusive" method), so the numbers here and those of a script
/// reading the results agree.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), median(&v), q(3))
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The 95th percentile (nearest rank), only when at least ten samples lie
/// beyond it.
pub fn p95(samples: &[f64]) -> Option<f64> {
    let n = samples.len();
    let rank = (n * 95).div_ceil(100);
    if n < 1 || n - rank < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// One reported metric: its value, unit and, where it is a median of
/// samples, their quartiles.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub q1: f64,
    pub q3: f64,
}

impl Metric {
    pub fn single(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            q1: value,
            q3: value,
        }
    }

    pub fn of_samples(samples: &[f64], unit: &'static str) -> Metric {
        let (q1, value, q3) = quartiles(samples);
        Metric {
            value,
            unit,
            q1,
            q3,
        }
    }

    /// The value as JSON: counts as whole numbers.
    fn value_json(&self) -> Value {
        if self.unit == "count" && self.value.fract() == 0.0 && self.value >= 0.0 {
            int(self.value as usize)
        } else {
            num(self.value)
        }
    }

    fn to_json(&self) -> Value {
        obj([
            ("value", self.value_json()),
            ("unit", Value::String(self.unit.into())),
            ("q1", num(self.q1)),
            ("q3", num(self.q3)),
        ])
    }
}

pub fn num(x: f64) -> Value {
    Value::Number(serde_json::Number::Float(x))
}

pub fn int(n: usize) -> Value {
    Value::Number(serde_json::Number::from_u64(n as u64))
}

pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// Everything one workload run reports.
pub struct WorkloadResult {
    pub workload: String,
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub input_rows: usize,
    /// Wall seconds of each set-up.
    pub setup_s: Vec<f64>,
    /// Wall milliseconds of each timed op that succeeded.
    pub op_ms: Vec<f64>,
    /// End-to-end metrics, from untraced ops.
    pub metrics: BTreeMap<String, Metric>,
    /// Per-layer metrics, from the traced run (empty without `--trace`).
    pub layers: BTreeMap<String, Metric>,
    pub crosscheck: BTreeMap<String, f64>,
}

impl WorkloadResult {
    pub fn to_json(&self) -> Value {
        let map = |m: &BTreeMap<String, Metric>| {
            Value::Object(m.iter().map(|(k, v)| (k.clone(), v.to_json())).collect())
        };
        obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", int(self.attempted)),
            ("failed", int(self.failed)),
            ("input_rows", int(self.input_rows)),
            (
                "samples",
                obj([
                    (
                        "setup_s",
                        Value::Array(self.setup_s.iter().map(|&x| num(x)).collect()),
                    ),
                    (
                        "op_ms",
                        Value::Array(self.op_ms.iter().map(|&x| num(x)).collect()),
                    ),
                ]),
            ),
            ("metrics", map(&self.metrics)),
            ("layers", map(&self.layers)),
            (
                "crosscheck",
                Value::Object(
                    self.crosscheck
                        .iter()
                        .map(|(k, v)| (k.clone(), num(*v)))
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable table: one line per metric, with its unit.
    pub fn table(&self) -> String {
        let mut out = format!(
            "== {}: {} input rows, {} set-ups, {} timed ops, {} failed ({})\n",
            self.workload,
            self.input_rows,
            self.setup_s.len(),
            self.op_ms.len(),
            self.failed,
            if self.correct {
                "outputs correct"
            } else {
                "CHECK FAILED"
            }
        );
        let run_ms = self.metrics.get("run_ms_p50").map(|m| m.value);
        for (name, m) in self.metrics.iter().chain(self.layers.iter()) {
            let share = match (m.unit, run_ms) {
                ("ms", Some(run)) if self.layers.contains_key(name) => {
                    format!("  ({:5.1}% of run_ms_p50)", 100.0 * m.value / run)
                }
                _ => String::new(),
            };
            out.push_str(&format!(
                "  {name:<24} {:>14.4} {:<7}{share}\n",
                m.value, m.unit
            ));
        }
        out
    }
}

/// The metric names and bounds `BENCHMARK.json` declares.
pub struct Spec {
    /// (name, lower is better, bound) of each end-to-end metric.
    pub end_to_end: Vec<(String, bool, f64)>,
    pub per_layer: Vec<String>,
}

impl Spec {
    pub fn read(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let v: Value = serde_json::from_str(&text)
            .map_err(|e| format!("{} is not JSON: {e}", path.display()))?;
        let list = |key: &str| {
            v.get(key)
                .and_then(Value::as_array)
                .cloned()
                .ok_or_else(|| format!("{} has no {key} list", path.display()))
        };
        let name = |m: &Value| m.get("name").and_then(Value::as_str).map(str::to_string);
        let mut end_to_end = Vec::new();
        for m in list("end_to_end")? {
            let (Some(n), Some(better), Some(bound)) = (
                name(&m),
                m.get("better").and_then(Value::as_str),
                m.get("bound").and_then(Value::as_f64),
            ) else {
                return Err(format!("malformed end_to_end entry in {}", path.display()));
            };
            end_to_end.push((n, better == "lower", bound));
        }
        let per_layer = list("per_layer")?
            .iter()
            .map(|m| {
                name(m).ok_or_else(|| format!("malformed per_layer entry in {}", path.display()))
            })
            .collect::<Result<_, _>>()?;
        Ok(Spec {
            end_to_end,
            per_layer,
        })
    }
}

/// The benchmark's last line: `correct`, `attempted`, `failed`, and the
/// metrics the spec names (end-to-end ones, or per-layer ones when
/// traced), each with its unit.
pub fn result_line(r: &WorkloadResult, names: &[String], traced: bool) -> Result<String, String> {
    let source = if traced { &r.layers } else { &r.metrics };
    let mut metrics = BTreeMap::new();
    for name in names {
        let m = source
            .get(name)
            .ok_or_else(|| format!("metric {name} named in the spec was not measured"))?;
        metrics.insert(
            name.clone(),
            obj([
                ("value", m.value_json()),
                ("unit", Value::String(m.unit.into())),
            ]),
        );
    }
    let line = obj([
        ("correct", Value::Bool(r.correct)),
        ("attempted", int(r.attempted)),
        ("failed", int(r.failed)),
        ("metrics", Value::Object(metrics)),
    ]);
    serde_json::to_string(&line).map_err(|e| e.to_string())
}

/// How a metric moved from A to B.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

/// Classify a change with the metric's bound: the range of relative
/// changes the two sides' quartiles allow decides. Wholly beyond the bound
/// is worse (or better), wholly within it unchanged, and a range that
/// straddles the bound unresolved.
pub fn classify(a: &Metric, b: &Metric, lower_is_better: bool, bound: f64) -> Verdict {
    // relative change, positive = worse
    let worse_by = |from: f64, to: f64| {
        if lower_is_better {
            to / from - 1.0
        } else {
            from / to - 1.0
        }
    };
    let (lo, hi) = if lower_is_better {
        (worse_by(a.q3, b.q1), worse_by(a.q1, b.q3))
    } else {
        (worse_by(a.q1, b.q3), worse_by(a.q3, b.q1))
    };
    let (lo, hi) = (lo.min(hi), lo.max(hi));
    if lo > bound {
        Verdict::Worse
    } else if hi < -bound {
        Verdict::Better
    } else if lo >= -bound && hi <= bound {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    }
}

fn read_metric(v: &Value) -> Option<Metric> {
    let value = v.get("value")?.as_f64()?;
    Some(Metric {
        value,
        unit: "",
        q1: v.get("q1").and_then(Value::as_f64).unwrap_or(value),
        q3: v.get("q3").and_then(Value::as_f64).unwrap_or(value),
    })
}

/// The `workloads` object of each results file of one side.
fn read_side(paths: &[PathBuf]) -> Result<Vec<BTreeMap<String, Value>>, String> {
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p)
                .map_err(|e| format!("cannot read {}: {e}", p.display()))?;
            let v: Value = serde_json::from_str(&text)
                .map_err(|e| format!("{} is not JSON: {e}", p.display()))?;
            v.get("workloads")
                .and_then(Value::as_object)
                .cloned()
                .ok_or_else(|| format!("{} has no workloads", p.display()))
        })
        .collect()
}

/// One side's view of a metric: a single run keeps its per-op quartiles;
/// several runs are summarised by the median and quartiles of their
/// values, the run-to-run spread.
fn summarize(runs: &[Metric]) -> Metric {
    match runs {
        [one] => one.clone(),
        _ => Metric::of_samples(&runs.iter().map(|m| m.value).collect::<Vec<_>>(), ""),
    }
}

/// `--compare A B`: one line per workload × end-to-end metric, where each
/// side is one results file or a comma-separated list of them (runs of
/// one commit). With the same number of runs on both sides, run `i` of A
/// and run `i` of B form a pair and the line counts B's wins. Returns
/// whether any pairing got worse.
pub fn compare(spec: &Spec, a: &[PathBuf], b: &[PathBuf]) -> Result<bool, String> {
    let (side_a, side_b) = (read_side(a)?, read_side(b)?);
    let paired = a.len() == b.len() && a.len() >= 2;
    let mut checks: Vec<(&str, bool, Option<f64>)> = spec
        .end_to_end
        .iter()
        .map(|(name, lower, bound)| (name.as_str(), *lower, Some(*bound)))
        .collect();
    // error_rate may not increase at all
    checks.push(("error_rate", true, None));
    let mut any_worse = false;
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "wins"
    );
    for workload in side_a
        .first()
        .map(|w| w.keys().cloned().collect::<Vec<_>>())
        .unwrap_or_default()
    {
        let runs = |side: &[BTreeMap<String, Value>], name: &str| -> Option<Vec<Metric>> {
            side.iter()
                .map(|w| {
                    w.get(&workload)?
                        .get("metrics")?
                        .get(name)
                        .and_then(read_metric)
                })
                .collect()
        };
        for &(name, lower, bound) in &checks {
            let (Some(ra), Some(rb)) = (runs(&side_a, name), runs(&side_b, name)) else {
                println!("{workload:<14} {name:<14} missing on one side");
                continue;
            };
            let (ma, mb) = (summarize(&ra), summarize(&rb));
            let verdict = match bound {
                Some(bound) => classify(&ma, &mb, lower, bound),
                None => {
                    let worst = |r: &[Metric]| r.iter().map(|m| m.value).fold(0.0, f64::max);
                    match worst(&rb).total_cmp(&worst(&ra)) {
                        std::cmp::Ordering::Greater => Verdict::Worse,
                        std::cmp::Ordering::Less => Verdict::Better,
                        std::cmp::Ordering::Equal => Verdict::Unchanged,
                    }
                }
            };
            any_worse |= verdict == Verdict::Worse;
            let change = if ma.value == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (mb.value / ma.value - 1.0))
            };
            let wins = if paired {
                let won = ra
                    .iter()
                    .zip(&rb)
                    .filter(|(x, y)| {
                        if lower {
                            y.value < x.value
                        } else {
                            y.value > x.value
                        }
                    })
                    .count();
                format!("{won}/{}", ra.len())
            } else {
                "-".to_string()
            };
            println!(
                "{workload:<14} {name:<14} {:>14.4} {:>14.4} {change:>8} {wins:>6}  {}",
                ma.value,
                mb.value,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // values from statistics.quantiles(data, n=4)
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn p95_needs_ten_samples_beyond_it() {
        let samples: Vec<f64> = (1..=199).map(f64::from).collect();
        assert_eq!(p95(&samples), None);
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(p95(&samples), Some(190.0));
    }

    fn m(q1: f64, value: f64, q3: f64) -> Metric {
        Metric {
            value,
            unit: "ms",
            q1,
            q3,
        }
    }

    #[test]
    fn classify_uses_the_bound_and_both_quartile_ranges() {
        let a = m(99.0, 100.0, 101.0);
        // lower is better: 30% slower beyond any overlap is worse
        assert_eq!(
            classify(&a, &m(129.0, 130.0, 131.0), true, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            classify(&a, &m(69.0, 70.0, 71.0), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            classify(&a, &m(101.0, 102.0, 103.0), true, 0.10),
            Verdict::Unchanged
        );
        // a range that straddles the bound cannot be decided
        assert_eq!(
            classify(&a, &m(105.0, 110.0, 115.0), true, 0.10),
            Verdict::Unresolved
        );
        // higher is better flips the direction
        assert_eq!(
            classify(&a, &m(69.0, 70.0, 71.0), false, 0.10),
            Verdict::Worse
        );
        assert_eq!(
            classify(&a, &m(129.0, 130.0, 131.0), false, 0.10),
            Verdict::Better
        );
    }
}
