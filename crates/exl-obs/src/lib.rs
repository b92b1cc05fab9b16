//! Engine-wide observability: counters, gauges, histograms and wall-time
//! spans, recorded through a [`Recorder`] threaded through the pipeline.
//!
//! The layer is deliberately zero-dependency: the in-memory
//! [`MetricsRegistry`] aggregates under a plain mutex and serializes
//! itself to JSON with a hand-rolled emitter, so production crates can
//! depend on it without pulling in serde. Call sites hold a
//! `&dyn Recorder` (or an `Arc<MetricsRegistry>`) and pay nothing when
//! given the [`NoopRecorder`].
//!
//! Naming convention: dotted lowercase paths, `<subsystem>.<what>`,
//! e.g. `chase.facts_generated`, `engine.subgraph.native` — stable names
//! that downstream tooling (`scripts/collect_bench.py`, BENCH_*.json
//! trajectories) can key on.

#![warn(missing_docs)]

pub mod flight;
pub mod trace;

pub use flight::{FlightEvent, FlightKind};
pub use trace::{fmt_duration, AttrValue, Span, TraceEvent, TraceSnapshot, TraceSpan, Tracer};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Sink for metric events. Implementations must be cheap and
/// thread-safe; hot paths call these under contention.
pub trait Recorder: Send + Sync {
    /// Add `delta` to the named monotonic counter.
    fn incr_counter(&self, name: &str, delta: u64);

    /// Record the current value of the named gauge (the registry keeps
    /// the last value and the observed maximum).
    fn set_gauge(&self, name: &str, value: i64);

    /// Record one observation of the named histogram.
    fn observe(&self, name: &str, value: f64);

    /// Record one completed span of `nanos` wall time. Usually invoked
    /// by a dropping [`SpanGuard`] rather than directly.
    fn record_span(&self, name: &str, nanos: u64);
}

/// A recorder that drops everything; the default for callers that did
/// not ask for metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopRecorder;

impl Recorder for NoopRecorder {
    fn incr_counter(&self, _name: &str, _delta: u64) {}
    fn set_gauge(&self, _name: &str, _value: i64) {}
    fn observe(&self, _name: &str, _value: f64) {}
    fn record_span(&self, _name: &str, _nanos: u64) {}
}

/// RAII wall-time span: created by [`span`], records its duration into
/// the recorder when dropped.
pub struct SpanGuard<'a> {
    recorder: &'a dyn Recorder,
    name: String,
    start: Instant,
}

impl SpanGuard<'_> {
    /// Nanoseconds elapsed so far, without closing the span.
    pub fn elapsed_nanos(&self) -> u64 {
        nanos_u64(self.start.elapsed().as_nanos())
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let nanos = nanos_u64(self.start.elapsed().as_nanos());
        self.recorder.record_span(&self.name, nanos);
        // span closes also feed the flight recorder's event ring — one
        // relaxed atomic load when it is disarmed (the default)
        flight::record_with(flight::FlightKind::SpanClose, &self.name, || {
            format!("{nanos} ns")
        });
    }
}

/// Open a wall-time span; it closes (and records) when the returned
/// guard drops.
pub fn span<'a>(recorder: &'a dyn Recorder, name: impl Into<String>) -> SpanGuard<'a> {
    SpanGuard {
        recorder,
        name: name.into(),
        start: Instant::now(),
    }
}

fn nanos_u64(nanos: u128) -> u64 {
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Last value and running maximum of a gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeStat {
    /// Most recently set value.
    pub last: i64,
    /// Largest value ever set.
    pub max: i64,
}

/// Retained observations per histogram for quantile estimation; when the
/// buffer fills, every other sample is dropped and the sampling stride
/// doubles (deterministic systematic subsampling — no RNG).
pub const HISTOGRAM_SAMPLE_CAP: usize = 512;

/// Aggregate over a histogram's observations.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramStat {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Every `stride`-th observation, capped at
    /// [`HISTOGRAM_SAMPLE_CAP`]; the basis of the quantile estimates.
    pub samples: Vec<f64>,
    /// Current sampling stride (1 until the buffer first fills).
    pub stride: u64,
}

impl HistogramStat {
    fn new(value: f64) -> HistogramStat {
        HistogramStat {
            count: 1,
            sum: value,
            min: value,
            max: value,
            samples: vec![value],
            stride: 1,
        }
    }

    fn observe(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if (self.count - 1).is_multiple_of(self.stride) {
            if self.samples.len() >= HISTOGRAM_SAMPLE_CAP {
                // halve the retained set, double the stride: stays a
                // systematic every-stride-th subsample of the stream
                let mut keep = false;
                self.samples.retain(|_| {
                    keep = !keep;
                    keep
                });
                self.stride = self.stride.saturating_mul(2);
                if !(self.count - 1).is_multiple_of(self.stride) {
                    return;
                }
            }
            self.samples.push(value);
        }
    }

    /// Arithmetic mean of the observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Nearest-rank quantile estimate (`q` in `0..=1`) over the retained
    /// samples. Exact until the histogram exceeds
    /// [`HISTOGRAM_SAMPLE_CAP`] observations, an estimate from the
    /// systematic subsample after.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        sorted[rank - 1]
    }
}

/// Aggregate over a span's completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of completed spans.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_nanos: u64,
    /// Shortest completion, nanoseconds.
    pub min_nanos: u64,
    /// Longest completion, nanoseconds.
    pub max_nanos: u64,
}

/// A point-in-time copy of everything a [`MetricsRegistry`] holds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauges by name.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramStat>,
    /// Spans by name.
    pub spans: BTreeMap<String, SpanStat>,
}

impl MetricsSnapshot {
    /// Counter value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Total nanoseconds recorded under a span name, 0 when absent.
    pub fn span_total_nanos(&self, name: &str) -> u64 {
        self.spans.get(name).map(|s| s.total_nanos).unwrap_or(0)
    }

    /// Render as a JSON object with `counters` / `gauges` /
    /// `histograms` / `spans` sections (the schema `exlc --metrics`
    /// writes and `scripts/collect_bench.py` ingests).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        write_entries(&mut out, &self.counters, |out, v| {
            let _ = write!(out, "{v}");
        });
        out.push_str("},\n  \"gauges\": {");
        write_entries(&mut out, &self.gauges, |out, v| {
            let _ = write!(out, "{{\"last\": {}, \"max\": {}}}", v.last, v.max);
        });
        out.push_str("},\n  \"histograms\": {");
        write_entries(&mut out, &self.histograms, |out, v| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                v.count,
                json_f64(v.sum),
                json_f64(v.min),
                json_f64(v.max),
                json_f64(v.mean()),
                json_f64(v.quantile(0.50)),
                json_f64(v.quantile(0.95)),
                json_f64(v.quantile(0.99))
            );
        });
        out.push_str("},\n  \"spans\": {");
        write_entries(&mut out, &self.spans, |out, v| {
            let _ = write!(
                out,
                "{{\"count\": {}, \"total_ns\": {}, \"min_ns\": {}, \"max_ns\": {}}}",
                v.count, v.total_nanos, v.min_nanos, v.max_nanos
            );
        });
        out.push_str("}\n}");
        out
    }

    /// Render as Prometheus text exposition format (the payload a
    /// `/metrics` endpoint serves; `exlc --metrics-prom` writes it to a
    /// file). Metric names get an `exl_` prefix and dots become
    /// underscores: `engine.subgraphs` → `exl_engine_subgraphs`.
    /// Counters map to `counter`, gauges to a pair of `gauge` series
    /// (last value and observed maximum), histograms to a `summary`
    /// with p50/p95/p99 quantiles, and spans to a nanosecond-total
    /// counter plus a completion counter.
    pub fn to_prometheus_text(&self) -> String {
        fn prom_name(name: &str) -> String {
            let mut out = String::with_capacity(name.len() + 4);
            out.push_str("exl_");
            for c in name.chars() {
                if c.is_ascii_alphanumeric() {
                    out.push(c);
                } else {
                    out.push('_');
                }
            }
            out
        }
        fn prom_f64(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "NaN".to_string()
            }
        }
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, g) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {}", g.last);
            let _ = writeln!(out, "# TYPE {n}_max gauge\n{n}_max {}", g.max);
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} summary");
            for (q, label) in [(0.50, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                let _ = writeln!(
                    out,
                    "{n}{{quantile=\"{label}\"}} {}",
                    prom_f64(h.quantile(q))
                );
            }
            let _ = writeln!(out, "{n}_sum {}", prom_f64(h.sum));
            let _ = writeln!(out, "{n}_count {}", h.count);
        }
        for (name, s) in &self.spans {
            let n = prom_name(name);
            let _ = writeln!(
                out,
                "# TYPE {n}_ns_total counter\n{n}_ns_total {}",
                s.total_nanos
            );
            let _ = writeln!(
                out,
                "# TYPE {n}_spans_total counter\n{n}_spans_total {}",
                s.count
            );
        }
        out
    }
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn write_entries<V>(
    out: &mut String,
    map: &BTreeMap<String, V>,
    mut write_value: impl FnMut(&mut String, &V),
) {
    for (i, (name, v)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        push_json_string(out, name);
        out.push_str(": ");
        write_value(out, v);
    }
    if !map.is_empty() {
        out.push_str("\n  ");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Thread-safe in-memory aggregation of all metric kinds; the recorder
/// used whenever metrics were requested.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// Fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Copy out the current state.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.inner.lock().expect("metrics lock poisoned").clone()
    }

    /// Counter value, 0 when never incremented.
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("metrics lock poisoned")
            .counter(name)
    }

    /// JSON rendering of [`MetricsRegistry::snapshot`].
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// Prometheus text rendering of [`MetricsRegistry::snapshot`] (see
    /// [`MetricsSnapshot::to_prometheus_text`]).
    pub fn to_prometheus_text(&self) -> String {
        self.snapshot().to_prometheus_text()
    }
}

impl Recorder for MetricsRegistry {
    fn incr_counter(&self, name: &str, delta: u64) {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        let slot = inner.counters.entry(name.to_string()).or_insert(0);
        *slot = slot.saturating_add(delta);
    }

    fn set_gauge(&self, name: &str, value: i64) {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        inner
            .gauges
            .entry(name.to_string())
            .and_modify(|g| {
                g.last = value;
                g.max = g.max.max(value);
            })
            .or_insert(GaugeStat {
                last: value,
                max: value,
            });
    }

    fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .and_modify(|h| h.observe(value))
            .or_insert_with(|| HistogramStat::new(value));
    }

    fn record_span(&self, name: &str, nanos: u64) {
        let mut inner = self.inner.lock().expect("metrics lock poisoned");
        inner
            .spans
            .entry(name.to_string())
            .and_modify(|s| {
                s.count += 1;
                s.total_nanos = s.total_nanos.saturating_add(nanos);
                s.min_nanos = s.min_nanos.min(nanos);
                s.max_nanos = s.max_nanos.max(nanos);
            })
            .or_insert(SpanStat {
                count: 1,
                total_nanos: nanos,
                min_nanos: nanos,
                max_nanos: nanos,
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counters_accumulate_and_saturate() {
        let reg = MetricsRegistry::new();
        reg.incr_counter("a", 2);
        reg.incr_counter("a", 3);
        reg.incr_counter("b", u64::MAX);
        reg.incr_counter("b", 10);
        assert_eq!(reg.counter("a"), 5);
        assert_eq!(reg.counter("b"), u64::MAX);
        assert_eq!(reg.counter("missing"), 0);
    }

    #[test]
    fn concurrent_counter_increments_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..per_thread {
                        reg.incr_counter("hits", 1);
                    }
                });
            }
        });
        assert_eq!(reg.counter("hits"), threads * per_thread);
    }

    #[test]
    fn gauges_track_last_and_max() {
        let reg = MetricsRegistry::new();
        reg.set_gauge("q", 5);
        reg.set_gauge("q", 9);
        reg.set_gauge("q", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.gauges["q"], GaugeStat { last: 2, max: 9 });
    }

    #[test]
    fn histograms_aggregate() {
        let reg = MetricsRegistry::new();
        for v in [1.0, 3.0, 2.0] {
            reg.observe("h", v);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 6.0);
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 3.0);
        assert_eq!(h.mean(), 2.0);
        assert_eq!(h.quantile(0.50), 2.0);
        assert_eq!(h.quantile(0.99), 3.0);
    }

    #[test]
    fn histogram_quantiles_are_exact_below_the_cap() {
        let reg = MetricsRegistry::new();
        // 1..=100 in a scrambled but deterministic order
        for i in 0..100u64 {
            reg.observe("h", ((i * 37) % 100 + 1) as f64);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.quantile(0.50), 50.0);
        assert_eq!(h.quantile(0.95), 95.0);
        assert_eq!(h.quantile(0.99), 99.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn histogram_sampling_degrades_gracefully_past_the_cap() {
        let reg = MetricsRegistry::new();
        let n = (HISTOGRAM_SAMPLE_CAP * 8) as u64;
        for i in 0..n {
            reg.observe("h", i as f64);
        }
        let snap = reg.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, n);
        assert!(h.samples.len() <= HISTOGRAM_SAMPLE_CAP);
        assert!(h.samples.len() >= HISTOGRAM_SAMPLE_CAP / 4);
        assert!(h.stride > 1);
        // the estimate over a uniform ramp stays within a stride of truth
        let p50 = h.quantile(0.50);
        assert!(
            (p50 - n as f64 / 2.0).abs() <= 2.0 * h.stride as f64,
            "p50 {p50} for n {n} stride {}",
            h.stride
        );
    }

    #[test]
    fn spans_nest_and_record_on_drop() {
        let reg = MetricsRegistry::new();
        {
            let _outer = span(&reg, "outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span(&reg, "inner");
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            // inner has closed, outer still open
            assert_eq!(reg.snapshot().spans.get("inner").map(|s| s.count), Some(1));
            assert!(!reg.snapshot().spans.contains_key("outer"));
        }
        let snap = reg.snapshot();
        let outer = snap.spans["outer"];
        let inner = snap.spans["inner"];
        assert_eq!(outer.count, 1);
        assert!(
            outer.total_nanos >= inner.total_nanos,
            "outer {} < inner {}",
            outer.total_nanos,
            inner.total_nanos
        );
    }

    #[test]
    fn noop_recorder_accepts_everything() {
        let noop = NoopRecorder;
        noop.incr_counter("x", 1);
        noop.set_gauge("x", 1);
        noop.observe("x", 1.0);
        let _s = span(&noop, "x");
    }

    #[test]
    fn json_round_trips_through_serde_json() {
        let reg = MetricsRegistry::new();
        reg.incr_counter("chase.facts_generated", 42);
        reg.set_gauge("etl.channel.depth", 7);
        reg.observe("etl.rows_per_step", 120.0);
        reg.record_span("engine.subgraph.native", 1_500);
        reg.record_span("engine.subgraph.native", 2_500);
        let text = reg.to_json();
        let v: serde_json::Value =
            serde_json::from_str(&text).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{text}"));
        assert_eq!(v["counters"]["chase.facts_generated"].as_u64(), Some(42));
        assert_eq!(v["gauges"]["etl.channel.depth"]["last"].as_i64(), Some(7));
        assert_eq!(v["gauges"]["etl.channel.depth"]["max"].as_i64(), Some(7));
        assert_eq!(
            v["histograms"]["etl.rows_per_step"]["mean"].as_f64(),
            Some(120.0)
        );
        assert_eq!(
            v["spans"]["engine.subgraph.native"]["count"].as_u64(),
            Some(2)
        );
        assert_eq!(
            v["spans"]["engine.subgraph.native"]["total_ns"].as_u64(),
            Some(4_000)
        );
        assert_eq!(
            v["spans"]["engine.subgraph.native"]["min_ns"].as_u64(),
            Some(1_500)
        );
    }

    #[test]
    fn prometheus_text_renders_every_metric_kind() {
        let reg = MetricsRegistry::new();
        reg.incr_counter("engine.subgraphs", 3);
        reg.set_gauge("govern.mem_peak_bytes", 4096);
        reg.observe("etl.rows_per_step", 10.0);
        reg.observe("etl.rows_per_step", 30.0);
        reg.record_span("engine.subgraph.native", 2_000);
        let text = reg.to_prometheus_text();
        assert!(text.contains("# TYPE exl_engine_subgraphs counter"));
        assert!(text.contains("exl_engine_subgraphs 3"));
        assert!(text.contains("exl_govern_mem_peak_bytes 4096"));
        assert!(text.contains("exl_govern_mem_peak_bytes_max 4096"));
        assert!(text.contains("exl_etl_rows_per_step{quantile=\"0.95\"} 30"));
        assert!(text.contains("exl_etl_rows_per_step_sum 40"));
        assert!(text.contains("exl_etl_rows_per_step_count 2"));
        assert!(text.contains("exl_engine_subgraph_native_ns_total 2000"));
        assert!(text.contains("exl_engine_subgraph_native_spans_total 1"));
        // well-formed exposition: every line is a comment or `name value`
        // with a finite value, and no metric name is type-declared twice
        let mut types = std::collections::BTreeSet::new();
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let name = rest.split_whitespace().next().unwrap();
                assert!(types.insert(name.to_string()), "duplicate TYPE {name}");
            } else {
                let (name, value) = line.rsplit_once(' ').unwrap();
                assert!(!name.is_empty());
                assert!(value.parse::<f64>().unwrap().is_finite(), "{line}");
            }
        }
    }

    #[test]
    fn empty_registry_serializes_to_valid_json() {
        let reg = MetricsRegistry::new();
        let v: serde_json::Value = serde_json::from_str(&reg.to_json()).unwrap();
        assert!(v["counters"]
            .as_object()
            .map(|m| m.is_empty())
            .unwrap_or(false));
    }
}
