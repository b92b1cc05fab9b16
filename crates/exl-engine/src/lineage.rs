//! Per-cube lineage: how a derived cube came to be, reconstructed from a
//! run's span tree plus the tgd dependency graph.
//!
//! The determination engine knows the *static* derivation structure (which
//! statements read which cubes); the tracer records the *dynamic* facts of
//! one run (which backend executed each subgraph, how many attempts it
//! took, how many rows went in and out). [`LineageReport`] joins the two:
//! for every cube it keeps one [`LineageStep`], and
//! [`LineageReport::chain_text`] renders the full derivation chain of a
//! cube as an indented tree — the output of `exlc explain`.

use std::collections::BTreeMap;

use exl_model::schema::CubeId;
use exl_obs::TraceSnapshot;

use crate::determination::GlobalGraph;

/// One node in a cube's derivation chain.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageStep {
    /// The cube.
    pub cube: CubeId,
    /// True when the cube is base data (no producing statement).
    pub elementary: bool,
    /// Direct inputs of the producing statement (empty for elementary).
    pub inputs: Vec<CubeId>,
    /// Backend that executed the producing subgraph in the traced run.
    pub target: Option<String>,
    /// Final status of the producing subgraph (`computed` / `failed` /
    /// `skipped`).
    pub status: Option<String>,
    /// Execution attempts the subgraph took (retries + fallbacks).
    pub attempts: Option<u64>,
    /// Rows read by the producing subgraph (all of its inputs together).
    pub rows_in: Option<u64>,
    /// Rows this cube holds after the run.
    pub rows_out: Option<u64>,
    /// Wall time of the producing subgraph.
    pub duration_nanos: Option<u64>,
}

/// Lineage of every cube touched by a traced run.
#[derive(Debug, Clone, Default)]
pub struct LineageReport {
    steps: BTreeMap<CubeId, LineageStep>,
}

impl LineageReport {
    /// Join a trace snapshot with the dependency graph. The graph
    /// contributes the static structure (every derived cube and its
    /// inputs, elementary leaves); `subgraph` spans in the trace
    /// contribute the run facts. When the tracer saw several runs, the
    /// latest subgraph span per cube wins.
    pub fn from_trace(snapshot: &TraceSnapshot, graph: &GlobalGraph) -> LineageReport {
        let mut steps: BTreeMap<CubeId, LineageStep> = BTreeMap::new();
        for stmt in graph.statements() {
            let inputs = stmt.expr.cube_refs();
            for input in &inputs {
                steps.entry(input.clone()).or_insert_with(|| LineageStep {
                    cube: input.clone(),
                    elementary: true,
                    inputs: Vec::new(),
                    target: None,
                    status: None,
                    attempts: None,
                    rows_in: None,
                    rows_out: None,
                    duration_nanos: None,
                });
            }
            let step = steps
                .entry(stmt.target.clone())
                .or_insert_with(|| LineageStep {
                    cube: stmt.target.clone(),
                    elementary: true,
                    inputs: Vec::new(),
                    target: None,
                    status: None,
                    attempts: None,
                    rows_in: None,
                    rows_out: None,
                    duration_nanos: None,
                });
            step.elementary = false;
            step.inputs = inputs;
        }
        // span ids grow monotonically, so iterating in order makes the
        // latest run's subgraph span win for each cube
        for span in snapshot.spans_named("subgraph") {
            let Some(cubes) = span.attr_str("cubes") else {
                continue;
            };
            for cube in cubes.split(',').filter(|c| !c.is_empty()) {
                let id = CubeId::new(cube);
                let Some(step) = steps.get_mut(&id) else {
                    continue;
                };
                step.target = span.attr_str("target").map(str::to_string);
                step.status = span.attr_str("status").map(str::to_string);
                step.attempts = span.attr_u64("attempts");
                step.rows_in = span.attr_u64("rows_in");
                step.rows_out = span
                    .attr_u64(&format!("rows_out.{cube}"))
                    .or_else(|| span.attr_u64("rows_out"));
                step.duration_nanos = Some(span.duration_nanos());
            }
        }
        LineageReport { steps }
    }

    /// The step for one cube, if the graph knows it.
    pub fn step(&self, cube: &CubeId) -> Option<&LineageStep> {
        self.steps.get(cube)
    }

    /// All cubes in the report, sorted.
    pub fn cubes(&self) -> Vec<&CubeId> {
        self.steps.keys().collect()
    }

    /// Render the full derivation chain of `cube` as an indented tree:
    /// the cube first, each direct input below it, recursively down to
    /// the elementary leaves. A cube whose subtree was already printed is
    /// referenced, not repeated.
    pub fn chain_text(&self, cube: &CubeId) -> String {
        let mut out = String::new();
        let mut printed: Vec<CubeId> = Vec::new();
        self.write_chain(&mut out, cube, "", true, true, &mut printed);
        out
    }

    fn write_chain(
        &self,
        out: &mut String,
        cube: &CubeId,
        prefix: &str,
        last: bool,
        root: bool,
        printed: &mut Vec<CubeId>,
    ) {
        let (connector, child_prefix) = if root {
            (String::new(), String::new())
        } else if last {
            (format!("{prefix}└─ "), format!("{prefix}   "))
        } else {
            (format!("{prefix}├─ "), format!("{prefix}│  "))
        };
        let Some(step) = self.steps.get(cube) else {
            out.push_str(&format!("{connector}{cube} (unknown cube)\n"));
            return;
        };
        let already = printed.contains(cube);
        out.push_str(&format!("{connector}{}\n", describe(step, already)));
        if already || step.elementary {
            return;
        }
        printed.push(cube.clone());
        let n = step.inputs.len();
        for (i, input) in step.inputs.iter().enumerate() {
            self.write_chain(out, input, &child_prefix, i + 1 == n, false, printed);
        }
    }
}

/// One line of the chain: cube name plus the run facts that exist.
fn describe(step: &LineageStep, already_printed: bool) -> String {
    if step.elementary {
        return format!("{} (elementary)", step.cube);
    }
    let mut parts: Vec<String> = Vec::new();
    if let Some(t) = &step.target {
        parts.push(format!("backend={t}"));
    }
    if let Some(s) = &step.status {
        parts.push(format!("status={s}"));
    }
    if let Some(a) = step.attempts {
        parts.push(format!("attempts={a}"));
    }
    if let Some(r) = step.rows_in {
        parts.push(format!("rows_in={r}"));
    }
    if let Some(r) = step.rows_out {
        parts.push(format!("rows_out={r}"));
    }
    if let Some(d) = step.duration_nanos {
        parts.push(exl_obs::fmt_duration(d));
    }
    let facts = if parts.is_empty() {
        "not executed in this run".to_string()
    } else {
        parts.join(", ")
    };
    let again = if already_printed { ", shown above" } else { "" };
    format!("{}  [{facts}{again}]", step.cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExlEngine;
    use exl_model::value::DimValue;
    use exl_model::CubeData;

    fn diamond_engine() -> ExlEngine {
        let mut e = ExlEngine::new();
        e.register_program(
            "diamond",
            "cube A(k: int) -> a; B := 2 * A; C := 3 * A; D := B + C;",
        )
        .unwrap();
        e.load_elementary(
            &"A".into(),
            CubeData::from_tuples(vec![
                (vec![DimValue::Int(1)], 1.0),
                (vec![DimValue::Int(2)], 2.0),
            ])
            .unwrap(),
        )
        .unwrap();
        e
    }

    #[test]
    fn lineage_joins_graph_and_trace() {
        let mut e = diamond_engine();
        let tracer = e.enable_tracing();
        e.run_all().unwrap();
        let report = LineageReport::from_trace(&tracer.snapshot(), e.graph());

        let d = report.step(&"D".into()).unwrap();
        assert!(!d.elementary);
        assert_eq!(d.inputs, vec![CubeId::new("B"), CubeId::new("C")]);
        assert_eq!(d.status.as_deref(), Some("computed"));
        assert_eq!(d.target.as_deref(), Some("native"));
        assert_eq!(d.rows_out, Some(2));
        assert_eq!(d.attempts, Some(1));

        let a = report.step(&"A".into()).unwrap();
        assert!(a.elementary);
        assert!(a.inputs.is_empty());
    }

    /// Sharded and cache-served subgraphs carry the same run facts as
    /// dispatched ones, so their lineage steps show attempts and rows.
    #[test]
    fn sharded_and_cached_subgraphs_have_rows_in_lineage() {
        let mut e = diamond_engine();
        e.shards = Some(2);
        e.enable_cache();
        let tracer = e.enable_tracing();
        for (run, status, attempts) in [("cold", "computed", Some(2)), ("warm", "cached", Some(0))]
        {
            e.run_all().unwrap();
            let snapshot = tracer.snapshot();
            let sub = snapshot.spans_named("subgraph").pop().unwrap();
            assert_eq!(sub.attr_u64("shards"), Some(2), "{run}: not sharded");
            let report = LineageReport::from_trace(&snapshot, e.graph());
            let d = report.step(&"D".into()).unwrap();
            assert_eq!(d.status.as_deref(), Some(status), "{run}");
            assert_eq!(d.attempts, attempts, "{run}");
            assert_eq!(d.rows_out, Some(2), "{run}");
            let text = report.chain_text(&"D".into());
            assert!(text.contains("rows_out=2"), "{run}: {text}");
        }
    }

    #[test]
    fn chain_text_walks_to_elementary_leaves_without_repeats() {
        let mut e = diamond_engine();
        let tracer = e.enable_tracing();
        e.run_all().unwrap();
        let report = LineageReport::from_trace(&tracer.snapshot(), e.graph());
        let text = report.chain_text(&"D".into());
        let first = text.lines().next().unwrap();
        assert!(first.starts_with("D"), "{text}");
        assert!(first.contains("backend=native"), "{text}");
        assert!(text.contains("├─ B"), "{text}");
        assert!(text.contains("└─ C"), "{text}");
        // A appears under both B and C: once expanded, once as elementary
        // leaf both times (elementary nodes never expand, so no cycle)
        assert_eq!(
            text.lines()
                .filter(|l| l.contains("A (elementary)"))
                .count(),
            2,
            "{text}"
        );
    }

    #[test]
    fn untraced_run_still_yields_static_structure() {
        let e = diamond_engine();
        let report = LineageReport::from_trace(&TraceSnapshot::default(), e.graph());
        let d = report.step(&"D".into()).unwrap();
        assert_eq!(d.inputs.len(), 2);
        assert!(d.target.is_none());
        let text = report.chain_text(&"D".into());
        assert!(text.contains("not executed in this run"), "{text}");
    }
}
