//! Crash bundles: one self-describing JSON artifact per failed run.
//!
//! When a bundle directory is armed ([`crate::ExlEngine::set_bundle_dir`],
//! `exlc --bundle-dir`) and a run fails — a contained panic, a deadline,
//! a tripped budget, a cancellation, or a failed subgraph under
//! `keep_going` — the engine dumps everything a post-mortem needs into
//! one JSON file: its own flight ring's event tail, the distinct fault
//! sites that fired, a metrics snapshot, governance state, per-subgraph
//! statuses, and enough environment to reproduce. Successful runs write
//! nothing. The schema is versioned ([`BUNDLE_VERSION`]) and documented
//! in docs/OBSERVABILITY.md; `scripts/check.sh` validates an emitted
//! bundle against it on every CI run.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use serde::{Deserialize, Serialize};

use crate::engine::{RunObservation, RunReport};
use crate::error::EngineError;
use crate::govern::{GovernConfig, Governor};
use exl_obs::flight::{FlightEvent, FlightRing};
use exl_obs::MetricsRegistry;

/// Where an engine's crash bundles go, and the engine's own flight ring
/// their event tails come from.
#[derive(Debug, Clone)]
pub(crate) struct BundleSink {
    pub(crate) dir: PathBuf,
    pub(crate) ring: FlightRing,
}

/// Schema version stamped into every bundle (`version` field).
pub const BUNDLE_VERSION: &str = "exl-bundle-v1";

/// Distinguishes concurrent bundle writers within one process.
static BUNDLE_SEQ: AtomicU64 = AtomicU64::new(0);

/// The bundle document. `Deserialize` is derived so tests (and tools)
/// can validate an emitted file simply by parsing it back.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrashBundle {
    /// Always [`BUNDLE_VERSION`].
    pub version: String,
    /// Wall-clock write time, milliseconds since the Unix epoch.
    pub unix_ms: u64,
    /// The error that failed the run.
    pub error: BundleError,
    /// The first subgraph that failed (absent when the run failed
    /// outside any subgraph, e.g. a between-stage cancellation).
    pub failing_subgraph: Option<BundleSubgraph>,
    /// Every subgraph outcome observed before the run ended, in
    /// dispatch order.
    pub subgraphs: Vec<BundleSubgraph>,
    /// Distinct injected-fault sites that fired during the run, from the
    /// event ring (empty outside chaos testing).
    pub fault_sites: Vec<String>,
    /// The flight recorder's event tail, oldest first.
    pub events: Vec<BundleEvent>,
    /// Metrics snapshot (the `exl-obs` JSON document; `{}`-shaped even
    /// when metrics are disabled).
    pub metrics: serde_json::Value,
    /// Governance state at the end of the run.
    pub govern: BundleGovern,
    /// Process environment relevant to reproduction.
    pub env: BundleEnv,
}

/// `error` section: a stable kind plus the rendered message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleError {
    /// [`EngineError::kind`], or `subgraph-failures` for a degraded
    /// `keep_going` run that returned Ok with failed cubes.
    pub kind: String,
    /// Human-readable error text.
    pub message: String,
}

/// One subgraph outcome.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleSubgraph {
    /// Cubes the subgraph computes.
    pub cubes: Vec<String>,
    /// Target that executed (or would have executed) it.
    pub target: String,
    /// [`SubgraphStatus::name`](crate::SubgraphStatus::name).
    pub status: String,
    /// Wall-clock milliseconds spent executing.
    pub wall_ms: f64,
    /// Total rows produced.
    pub rows_out: u64,
    /// Execution attempts (0 for cached and skipped subgraphs).
    pub attempts: u64,
    /// The error that failed it, when it failed.
    pub error: Option<String>,
}

/// One flight-recorder event.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleEvent {
    /// Monotonic sequence number within the engine's ring.
    pub seq: u64,
    /// Milliseconds since the engine's ring was made (bundle dir armed).
    pub ms: f64,
    /// [`FlightKind::as_str`](exl_obs::FlightKind::as_str).
    pub kind: String,
    /// Span name, fault site, or subsystem path.
    pub site: String,
    /// Free-form detail.
    pub detail: String,
}

/// `govern` section: cancellation and budget state at end of run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleGovern {
    /// Whether the run token ended up cancelled.
    pub cancelled: bool,
    /// The cancellation reason, when cancelled.
    pub cancel_reason: Option<String>,
    /// Peak accounted memory, bytes.
    pub mem_peak_bytes: u64,
    /// Accounted memory still held at end of run, bytes.
    pub mem_used_bytes: u64,
    /// Rows charged against the row budget.
    pub rows_charged: u64,
    /// Configured run deadline, milliseconds (absent = unlimited).
    pub deadline_ms: Option<u64>,
    /// Configured memory ceiling, bytes (absent = unlimited).
    pub max_memory_bytes: Option<u64>,
    /// Configured row limit (absent = unlimited).
    pub max_rows: Option<u64>,
}

/// `env` section: what a reproduction needs to know about the process.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleEnv {
    /// Process id (also part of the bundle file name).
    pub pid: u32,
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// Available parallelism.
    pub nproc: u64,
    /// The engine's pinned native-evaluator worker count
    /// ([`ExecOpts::eval_threads`](crate::ExecOpts)), when set.
    pub eval_threads: Option<String>,
    /// `CHAOS_SEED`, when set (chaos sweeps stamp their seed here).
    pub chaos_seed: Option<String>,
}

fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

fn subgraph_entry(r: &crate::SubgraphReport) -> BundleSubgraph {
    BundleSubgraph {
        cubes: r.cubes.iter().map(|c| c.to_string()).collect(),
        target: r.target.name().to_string(),
        status: r.status.name().to_string(),
        wall_ms: r.wall_nanos as f64 / 1e6,
        rows_out: r.rows_out,
        attempts: r.attempts.len() as u64,
        error: r.error.clone(),
    }
}

fn is_failing(status: crate::SubgraphStatus) -> bool {
    matches!(
        status,
        crate::SubgraphStatus::Failed
            | crate::SubgraphStatus::Cancelled
            | crate::SubgraphStatus::BudgetExceeded
    )
}

/// Assemble the bundle document for a failed run.
pub(crate) fn build_bundle(
    result: &Result<RunReport, EngineError>,
    events: Vec<FlightEvent>,
    obs: &RunObservation,
    governor: &Governor,
    config: &GovernConfig,
    metrics: Option<&MetricsRegistry>,
    eval_threads: Option<usize>,
) -> CrashBundle {
    let error = match result {
        Err(e) => BundleError {
            kind: e.kind().to_string(),
            message: e.to_string(),
        },
        Ok(report) => BundleError {
            kind: "subgraph-failures".to_string(),
            message: format!(
                "run degraded under keep_going: {} failed cube(s): {}",
                report.failed.len(),
                report
                    .failed
                    .iter()
                    .map(|c| c.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        },
    };
    let subgraphs: Vec<BundleSubgraph> = obs.subgraphs.iter().map(subgraph_entry).collect();
    let failing_subgraph = obs
        .subgraphs
        .iter()
        .find(|r| is_failing(r.status) || r.error.is_some())
        .map(subgraph_entry);
    let events: Vec<BundleEvent> = events
        .into_iter()
        .map(|e| BundleEvent {
            seq: e.seq,
            ms: e.nanos as f64 / 1e6,
            kind: e.kind.as_str().to_string(),
            site: e.site,
            detail: e.detail,
        })
        .collect();
    let mut fault_sites: Vec<String> = events
        .iter()
        .filter(|e| e.kind == exl_obs::FlightKind::FaultFired.as_str())
        .map(|e| e.site.clone())
        .collect();
    fault_sites.sort();
    fault_sites.dedup();
    // the snapshot's own JSON rendering is the source of truth; parse it
    // so the bundle embeds an object, not an escaped string
    let metrics_json = metrics
        .map(|m| m.snapshot().to_json())
        .unwrap_or_else(|| exl_obs::MetricsSnapshot::default().to_json());
    let metrics = serde_json::from_str(&metrics_json)
        .unwrap_or(serde_json::Value::Object(Default::default()));
    let budget = governor.budget();
    // subgraph-level governance stops cancel a *child* token, so the run
    // token alone under-reports: a governance error is a cancellation too
    // (the same rule the run span applies)
    let cancelled =
        governor.token().is_cancelled() || matches!(result, Err(e) if e.is_governance());
    let cancel_reason = governor.token().reason().or_else(|| match result {
        Err(e) if e.is_governance() => Some(e.to_string()),
        _ => None,
    });
    CrashBundle {
        version: BUNDLE_VERSION.to_string(),
        unix_ms: unix_ms(),
        error,
        failing_subgraph,
        subgraphs,
        fault_sites,
        events,
        metrics,
        govern: BundleGovern {
            cancelled,
            cancel_reason,
            mem_peak_bytes: budget.mem_peak_bytes(),
            mem_used_bytes: budget.mem_used_bytes(),
            rows_charged: budget.rows_charged(),
            deadline_ms: config.run_deadline.map(|d| d.as_millis() as u64),
            max_memory_bytes: config.max_memory_bytes,
            max_rows: config.max_rows,
        },
        env: BundleEnv {
            pid: std::process::id(),
            os: std::env::consts::OS.to_string(),
            nproc: std::thread::available_parallelism()
                .map(|n| n.get() as u64)
                .unwrap_or(1),
            eval_threads: eval_threads.map(|n| n.to_string()),
            chaos_seed: std::env::var("CHAOS_SEED").ok(),
        },
    }
}

/// Write the bundle for a failed run into the sink's directory, with the
/// sink's ring as the event tail, and return its path.
/// The file is written via temp + rename so a reader never sees a torn
/// bundle; the name (`bundle-<unix_ms>-<pid>-<seq>.json`) is unique per
/// run even when several engines share one directory.
pub(crate) fn write_crash_bundle(
    sink: &BundleSink,
    result: &Result<RunReport, EngineError>,
    obs: &RunObservation,
    governor: &Governor,
    config: &GovernConfig,
    metrics: Option<&MetricsRegistry>,
    eval_threads: Option<usize>,
) -> Result<PathBuf, EngineError> {
    let tail = sink.ring.tail();
    let bundle = build_bundle(result, tail, obs, governor, config, metrics, eval_threads);
    let seq = BUNDLE_SEQ.fetch_add(1, Ordering::Relaxed);
    let name = format!("bundle-{}-{}-{seq}.json", bundle.unix_ms, bundle.env.pid);
    let path = sink.dir.join(name);
    let text = serde_json::to_string_pretty(&bundle)
        .map_err(|e| EngineError::Persistence(format!("cannot serialize crash bundle: {e}")))?;
    let tmp = path.with_extension("json.tmp");
    std::fs::write(&tmp, text.as_bytes())
        .and_then(|()| std::fs::rename(&tmp, &path))
        .map_err(|e| {
            EngineError::Persistence(format!("cannot write crash bundle {}: {e}", path.display()))
        })?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundle_round_trips_through_json() {
        let obs = RunObservation::default();
        let governor = Governor::detached();
        let config = GovernConfig::default();
        let result: Result<RunReport, EngineError> = Err(EngineError::Execution("boom".into()));
        let bundle = build_bundle(&result, Vec::new(), &obs, &governor, &config, None, None);
        assert_eq!(bundle.version, BUNDLE_VERSION);
        assert_eq!(bundle.error.kind, "execution");
        assert!(bundle.metrics.as_object().is_some());
        let text = serde_json::to_string(&bundle).unwrap();
        let back: CrashBundle = serde_json::from_str(&text).unwrap();
        assert_eq!(back.error.message, bundle.error.message);
    }

    #[test]
    fn degraded_ok_runs_get_the_subgraph_failures_kind() {
        let report = RunReport {
            failed: vec![exl_model::schema::CubeId::new("X")],
            ..RunReport::default()
        };
        let bundle = build_bundle(
            &Ok(report),
            Vec::new(),
            &RunObservation::default(),
            &Governor::detached(),
            &GovernConfig::default(),
            None,
            None,
        );
        assert_eq!(bundle.error.kind, "subgraph-failures");
        assert!(bundle.error.message.contains('X'));
    }
}
