//! Hierarchical run tracing: a tree of timed spans with typed attributes
//! and a bounded per-span event log.
//!
//! Where the flat [`MetricsRegistry`](crate::MetricsRegistry) aggregates
//! *how much* (counters, histograms, span totals), the [`Tracer`] records
//! *what happened when*: every span has a stable id, a parent link, start
//! and end nanoseconds relative to the trace epoch, the recording thread,
//! and ordered `key → value` attributes (`cube`, `target`, `attempt`,
//! `rows_in`, `rows_out`, `status`, …). One engine run yields one rooted
//! tree.
//!
//! The layer keeps the crate's zero-dependency, no-op discipline: a
//! disarmed tracer ([`Tracer::disabled`], also the `Default`) allocates
//! nothing and every operation on it — span creation, attributes, events —
//! is a branch on an `Option` and an immediate return. Armed tracers share
//! one mutex-guarded buffer through an `Arc`, and a [`Span`] is `Sync`:
//! scoped worker threads (dispatch workers, shard workers) open children
//! of a span their dispatcher lends them.
//!
//! Naming convention: short dotted lowercase names describing the unit of
//! work, not the specific instance — `run`, `plan`, `stage`, `subgraph`,
//! `attempt`, `execute.sql`, `chase.tgd`, `etl.flow`, `sql.stmt`,
//! `rmini.stmt`, `matmini.stmt`. The instance (which cube, which target)
//! goes in attributes. See `docs/TRACING.md`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Cap on events retained per span; later events are counted, not stored.
pub const MAX_EVENTS_PER_SPAN: usize = 64;

/// A typed attribute value attached to a span.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// Text.
    Str(String),
    /// Signed integer.
    Int(i64),
    /// Unsigned integer (row counts, attempt ordinals).
    UInt(u64),
    /// Floating point.
    Float(f64),
    /// Boolean (e.g. `fallback`).
    Bool(bool),
}

impl AttrValue {
    /// The value as text when it is [`AttrValue::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a `u64` when it is [`AttrValue::UInt`].
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            AttrValue::UInt(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool when it is [`AttrValue::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(v) => Some(*v),
            _ => None,
        }
    }

    fn write_json(&self, out: &mut String) {
        match self {
            AttrValue::Str(s) => crate::push_json_string(out, s),
            AttrValue::Int(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            AttrValue::Float(v) => out.push_str(&crate::json_f64(*v)),
            AttrValue::Bool(v) => {
                let _ = write!(out, "{v}");
            }
        }
    }
}

impl std::fmt::Display for AttrValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AttrValue::Str(s) => f.write_str(s),
            AttrValue::Int(v) => write!(f, "{v}"),
            AttrValue::UInt(v) => write!(f, "{v}"),
            AttrValue::Float(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(v: &str) -> AttrValue {
        AttrValue::Str(v.to_string())
    }
}
impl From<String> for AttrValue {
    fn from(v: String) -> AttrValue {
        AttrValue::Str(v)
    }
}
impl From<i64> for AttrValue {
    fn from(v: i64) -> AttrValue {
        AttrValue::Int(v)
    }
}
impl From<u64> for AttrValue {
    fn from(v: u64) -> AttrValue {
        AttrValue::UInt(v)
    }
}
impl From<usize> for AttrValue {
    fn from(v: usize) -> AttrValue {
        AttrValue::UInt(v as u64)
    }
}
impl From<f64> for AttrValue {
    fn from(v: f64) -> AttrValue {
        AttrValue::Float(v)
    }
}
impl From<bool> for AttrValue {
    fn from(v: bool) -> AttrValue {
        AttrValue::Bool(v)
    }
}

/// One timestamped message inside a span's bounded event log.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Nanoseconds since the trace epoch.
    pub nanos: u64,
    /// The message.
    pub message: String,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Stable id, unique within the trace, in creation order from 1.
    pub id: u64,
    /// Parent span id; `None` for roots.
    pub parent: Option<u64>,
    /// Span name (the unit of work; see the module docs for the naming
    /// convention).
    pub name: String,
    /// Start, nanoseconds since the trace epoch.
    pub start_nanos: u64,
    /// End, nanoseconds since the trace epoch; `None` while still open.
    pub end_nanos: Option<u64>,
    /// Dense id of the recording thread (1 = first thread seen).
    pub thread: u64,
    /// Ordered attributes; setting an existing key overwrites in place.
    pub attrs: Vec<(String, AttrValue)>,
    /// Bounded event log (at most [`MAX_EVENTS_PER_SPAN`] entries).
    pub events: Vec<TraceEvent>,
    /// Events dropped once the log was full.
    pub events_dropped: u64,
}

impl TraceSpan {
    /// Attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// String attribute by key.
    pub fn attr_str(&self, key: &str) -> Option<&str> {
        self.attr(key).and_then(|v| v.as_str())
    }

    /// Unsigned attribute by key.
    pub fn attr_u64(&self, key: &str) -> Option<u64> {
        self.attr(key).and_then(|v| v.as_u64())
    }

    /// Wall time, nanoseconds; 0 while the span is still open.
    pub fn duration_nanos(&self) -> u64 {
        self.end_nanos
            .map(|e| e.saturating_sub(self.start_nanos))
            .unwrap_or(0)
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<TraceSpan>,
    threads: HashMap<ThreadId, u64>,
}

impl TraceBuf {
    fn thread_ordinal(&mut self) -> u64 {
        let next = self.threads.len() as u64 + 1;
        *self
            .threads
            .entry(std::thread::current().id())
            .or_insert(next)
    }
}

#[derive(Debug)]
struct TracerInner {
    epoch: Instant,
    buf: Mutex<TraceBuf>,
}

/// Records a tree of [`TraceSpan`]s. Cheap to clone (an `Arc` when armed,
/// nothing when disabled); the default is disabled.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<TracerInner>>,
}

impl Tracer {
    /// An armed tracer with an empty buffer; its epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            inner: Some(Arc::new(TracerInner {
                epoch: Instant::now(),
                buf: Mutex::new(TraceBuf::default()),
            })),
        }
    }

    /// A disarmed tracer: every operation is a no-op.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// True when spans are actually recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Open a root span (no parent).
    pub fn root(&self, name: impl Into<String>) -> Span {
        self.start_span(None, name)
    }

    fn now_nanos(inner: &TracerInner) -> u64 {
        u64::try_from(inner.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn start_span(&self, parent: Option<u64>, name: impl Into<String>) -> Span {
        let Some(inner) = &self.inner else {
            return Span::disabled();
        };
        let start = Self::now_nanos(inner);
        let mut buf = inner.buf.lock().expect("trace lock poisoned");
        let thread = buf.thread_ordinal();
        let id = buf.spans.len() as u64 + 1;
        buf.spans.push(TraceSpan {
            id,
            parent,
            name: name.into(),
            start_nanos: start,
            end_nanos: None,
            thread,
            attrs: Vec::new(),
            events: Vec::new(),
            events_dropped: 0,
        });
        Span {
            tracer: self.clone(),
            id,
        }
    }

    fn with_span(&self, id: u64, f: impl FnOnce(&mut TraceSpan, u64)) {
        let Some(inner) = &self.inner else { return };
        let now = Self::now_nanos(inner);
        let mut buf = inner.buf.lock().expect("trace lock poisoned");
        if let Some(span) = buf.spans.get_mut((id - 1) as usize) {
            f(span, now);
        }
    }

    /// Copy out everything recorded so far (open spans keep
    /// `end_nanos: None`).
    pub fn snapshot(&self) -> TraceSnapshot {
        let spans = match &self.inner {
            Some(inner) => inner.buf.lock().expect("trace lock poisoned").spans.clone(),
            None => Vec::new(),
        };
        TraceSnapshot { spans }
    }
}

/// RAII handle on an open span: ends (records `end_nanos`) when dropped.
/// Obtained from [`Tracer::root`] or [`Span::child`]; a handle from a
/// disabled tracer is inert.
#[must_use = "a span ends when its handle drops"]
#[derive(Debug)]
pub struct Span {
    tracer: Tracer,
    id: u64,
}

impl Span {
    /// An inert handle (no tracer): children are inert too, attributes
    /// and events vanish. The traced code paths take `&Span` and work
    /// unchanged — and at full speed — when handed this.
    pub fn disabled() -> Span {
        Span {
            tracer: Tracer::disabled(),
            id: 0,
        }
    }

    /// True when the span actually records.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// This span's id (0 when disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Open a child span.
    pub fn child(&self, name: impl Into<String>) -> Span {
        if !self.tracer.is_enabled() {
            return Span::disabled();
        }
        self.tracer.start_span(Some(self.id), name)
    }

    /// Set (or overwrite) an attribute.
    pub fn set_attr(&self, key: &str, value: impl Into<AttrValue>) {
        if !self.tracer.is_enabled() {
            return;
        }
        let value = value.into();
        self.tracer.with_span(self.id, |span, _| {
            match span.attrs.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => span.attrs.push((key.to_string(), value)),
            }
        });
    }

    /// Append a timestamped message to the span's bounded event log.
    pub fn add_event(&self, message: impl Into<String>) {
        if !self.tracer.is_enabled() {
            return;
        }
        let message = message.into();
        self.tracer.with_span(self.id, |span, now| {
            if span.events.len() < MAX_EVENTS_PER_SPAN {
                span.events.push(TraceEvent {
                    nanos: now,
                    message,
                });
            } else {
                span.events_dropped += 1;
            }
        });
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        self.tracer.with_span(self.id, |span, now| {
            if span.end_nanos.is_none() {
                span.end_nanos = Some(now);
            }
        });
    }
}

/// A point-in-time copy of a tracer's spans, ordered by id (= creation
/// order).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceSnapshot {
    /// All spans.
    pub spans: Vec<TraceSpan>,
}

impl TraceSnapshot {
    /// Spans with no parent, in creation order.
    pub fn roots(&self) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent.is_none()).collect()
    }

    /// Direct children of a span, in creation order.
    pub fn children_of(&self, id: u64) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.parent == Some(id)).collect()
    }

    /// All spans with the given name, in creation order.
    pub fn spans_named(&self, name: &str) -> Vec<&TraceSpan> {
        self.spans.iter().filter(|s| s.name == name).collect()
    }

    /// Span by id.
    pub fn span(&self, id: u64) -> Option<&TraceSpan> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// Render as Chrome trace-event JSON — an object with a `traceEvents`
    /// array of complete (`"ph": "X"`) events, loadable in Perfetto
    /// (<https://ui.perfetto.dev>) or `chrome://tracing`. Timestamps are
    /// microseconds since the trace epoch; span attributes, the span/parent
    /// ids, and the event log land in `args`. Span events are additionally
    /// emitted as thread-scoped instant (`"ph": "i"`) events.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n\"traceEvents\": [");
        let mut first = true;
        for span in &self.spans {
            if !first {
                out.push(',');
            }
            first = false;
            let end = span.end_nanos.unwrap_or(span.start_nanos);
            out.push_str("\n  {\"name\": ");
            crate::push_json_string(&mut out, &span.name);
            let _ = write!(
                out,
                ", \"cat\": \"exl\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": 1, \"tid\": {}, \"args\": {{",
                micros(span.start_nanos),
                micros(end.saturating_sub(span.start_nanos)),
                span.thread
            );
            let _ = write!(out, "\"span_id\": {}", span.id);
            if let Some(parent) = span.parent {
                let _ = write!(out, ", \"parent_id\": {parent}");
            }
            for (key, value) in &span.attrs {
                out.push_str(", ");
                crate::push_json_string(&mut out, key);
                out.push_str(": ");
                value.write_json(&mut out);
            }
            if span.events_dropped > 0 {
                let _ = write!(out, ", \"events_dropped\": {}", span.events_dropped);
            }
            out.push_str("}}");
            for event in &span.events {
                out.push_str(",\n  {\"name\": ");
                crate::push_json_string(&mut out, &event.message);
                let _ = write!(
                    out,
                    ", \"cat\": \"exl\", \"ph\": \"i\", \"s\": \"t\", \"ts\": {}, \"pid\": 1, \"tid\": {}}}",
                    micros(event.nanos),
                    span.thread
                );
            }
        }
        out.push_str("\n]\n}");
        out
    }

    /// Render as a human-readable indented tree: one line per span with
    /// its duration and attributes, events nested beneath.
    pub fn to_text_tree(&self) -> String {
        let mut out = String::new();
        for root in self.roots() {
            self.write_tree(&mut out, root, 0);
        }
        out
    }

    fn write_tree(&self, out: &mut String, span: &TraceSpan, depth: usize) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&span.name);
        match span.end_nanos {
            Some(_) => {
                let _ = write!(out, "  [{}]", fmt_duration(span.duration_nanos()));
            }
            None => out.push_str("  [open]"),
        }
        for (key, value) in &span.attrs {
            let _ = write!(out, "  {key}={value}");
        }
        out.push('\n');
        for event in &span.events {
            for _ in 0..depth + 1 {
                out.push_str("  ");
            }
            let _ = writeln!(out, "@{}: {}", fmt_duration(event.nanos), event.message);
        }
        if span.events_dropped > 0 {
            for _ in 0..depth + 1 {
                out.push_str("  ");
            }
            let _ = writeln!(out, "({} events dropped)", span.events_dropped);
        }
        for child in self.children_of(span.id) {
            self.write_tree(out, child, depth + 1);
        }
    }
}

/// Nanoseconds → microseconds with fractional part, as Chrome expects.
fn micros(nanos: u64) -> String {
    format!("{}.{:03}", nanos / 1_000, nanos % 1_000)
}

/// Human-readable duration (`1.23s` / `4.56ms` / `7.8us` / `9ns`), as
/// used by the text-tree exporter and the lineage report.
pub fn fmt_duration(nanos: u64) -> String {
    if nanos >= 1_000_000_000 {
        format!("{:.2}s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.2}ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.1}us", nanos as f64 / 1e3)
    } else {
        format!("{nanos}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> TraceSnapshot {
        let tracer = Tracer::new();
        {
            let run = tracer.root("run");
            run.set_attr("changed", "A");
            {
                let sub = run.child("subgraph");
                sub.set_attr("cubes", "B,C");
                sub.set_attr("target", "sql");
                sub.set_attr("rows_out", 42u64);
                let attempt = sub.child("attempt");
                attempt.set_attr("attempt", 1u64);
                attempt.set_attr("status", "success");
                attempt.add_event("executing 3 statements");
            }
        }
        tracer.snapshot()
    }

    #[test]
    fn spans_form_a_tree_with_stable_ids() {
        let snap = sample_trace();
        assert_eq!(snap.spans.len(), 3);
        let roots = snap.roots();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].name, "run");
        assert_eq!(roots[0].id, 1);
        let children = snap.children_of(1);
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].name, "subgraph");
        let grand = snap.children_of(children[0].id);
        assert_eq!(grand.len(), 1);
        assert_eq!(grand[0].name, "attempt");
        // all closed, nested durations
        for s in &snap.spans {
            assert!(s.end_nanos.is_some(), "{} still open", s.name);
        }
        assert!(roots[0].duration_nanos() >= children[0].duration_nanos());
    }

    #[test]
    fn attributes_overwrite_in_place_and_type() {
        let tracer = Tracer::new();
        let span = tracer.root("x");
        span.set_attr("status", "running");
        span.set_attr("status", "done");
        span.set_attr("n", 7u64);
        drop(span);
        let snap = tracer.snapshot();
        let s = &snap.spans[0];
        assert_eq!(s.attrs.len(), 2);
        assert_eq!(s.attr_str("status"), Some("done"));
        assert_eq!(s.attr_u64("n"), Some(7));
    }

    #[test]
    fn event_log_is_bounded() {
        let tracer = Tracer::new();
        let span = tracer.root("x");
        for i in 0..(MAX_EVENTS_PER_SPAN + 10) {
            span.add_event(format!("e{i}"));
        }
        drop(span);
        let snap = tracer.snapshot();
        assert_eq!(snap.spans[0].events.len(), MAX_EVENTS_PER_SPAN);
        assert_eq!(snap.spans[0].events_dropped, 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        let span = tracer.root("x");
        assert!(!span.is_enabled());
        span.set_attr("k", 1u64);
        span.add_event("nothing");
        let child = span.child("y");
        let grandchild = child.child("z");
        drop(grandchild);
        drop(child);
        drop(span);
        assert!(tracer.snapshot().spans.is_empty());
        // the inert standalone handle behaves the same
        let inert = Span::disabled();
        inert.set_attr("k", 1u64);
        assert!(!inert.is_enabled());
    }

    #[test]
    fn cross_thread_children_attach_to_their_parent() {
        let tracer = Tracer::new();
        let root = tracer.root("run");
        std::thread::scope(|scope| {
            for i in 0..3u64 {
                let root = &root;
                scope.spawn(move || {
                    let span = root.child("worker");
                    span.set_attr("index", i);
                });
            }
        });
        drop(root);
        let snap = tracer.snapshot();
        let workers = snap.spans_named("worker");
        assert_eq!(workers.len(), 3);
        for w in &workers {
            assert_eq!(w.parent, Some(1));
            assert!(w.thread > 1, "worker ran on a distinct thread");
        }
    }

    #[test]
    fn chrome_export_parses_and_carries_the_tree() {
        let snap = sample_trace();
        let json = snap.to_chrome_json();
        let v: serde_json::Value =
            serde_json::from_str(&json).unwrap_or_else(|e| panic!("invalid JSON: {e}\n{json}"));
        let events = v["traceEvents"].as_array().unwrap();
        // 3 complete spans + 1 instant event
        let complete: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        let instants: Vec<_> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("i"))
            .collect();
        assert_eq!(complete.len(), 3);
        assert_eq!(instants.len(), 1);
        for e in &complete {
            assert_eq!(e["cat"].as_str(), Some("exl"));
            assert_eq!(e["pid"].as_u64(), Some(1));
            assert!(e["ts"].as_f64().is_some());
            assert!(e["dur"].as_f64().is_some());
            assert!(e["args"]["span_id"].as_u64().is_some());
        }
        let sub = complete
            .iter()
            .find(|e| e["name"].as_str() == Some("subgraph"))
            .unwrap();
        assert_eq!(sub["args"]["parent_id"].as_u64(), Some(1));
        assert_eq!(sub["args"]["cubes"].as_str(), Some("B,C"));
        assert_eq!(sub["args"]["target"].as_str(), Some("sql"));
        assert_eq!(sub["args"]["rows_out"].as_u64(), Some(42));
        let att = complete
            .iter()
            .find(|e| e["name"].as_str() == Some("attempt"))
            .unwrap();
        assert_eq!(att["args"]["status"].as_str(), Some("success"));
        assert_eq!(instants[0]["name"].as_str(), Some("executing 3 statements"));
    }

    #[test]
    fn text_tree_indents_by_depth() {
        let snap = sample_trace();
        let text = snap.to_text_tree();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("run  ["), "{text}");
        assert!(lines[0].contains("changed=A"), "{text}");
        assert!(lines[1].starts_with("  subgraph  ["), "{text}");
        assert!(lines[1].contains("cubes=B,C"), "{text}");
        assert!(lines[1].contains("target=sql"), "{text}");
        assert!(lines[2].starts_with("    attempt  ["), "{text}");
        assert!(lines[2].contains("status=success"), "{text}");
        assert!(lines[3].trim_start().starts_with('@'), "{text}");
        assert!(lines[3].contains("executing 3 statements"), "{text}");
    }
}
