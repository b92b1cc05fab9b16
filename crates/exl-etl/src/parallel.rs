//! Pipeline-parallel flow execution.
//!
//! §6 notes that the dispatcher applies "parallelization and optimization
//! patterns"; ETL engines additionally pipeline their steps. This runner
//! executes one flow with each step in its own thread, rows streaming
//! through bounded crossbeam channels: sources stream concurrently, the
//! merge step builds its hash table from the right stream while the left
//! is still being produced, tuple-level transforms stream row by row, and
//! blocking steps (aggregator, series) buffer only where semantics demand
//! it. The B5 benchmark compares this runner against the sequential one.
//!
//! Errors travel **in-band**: every channel carries `Result<Row, EtlError>`,
//! so the first failure anywhere in the pipeline flows downstream to the
//! output stage and fails the whole flow. Once the output stage stops
//! consuming, its receiver drops, upstream `send`s start failing, and the
//! stages unwind in cascade — no stage is ever left blocked on a full
//! bounded channel, and no partial [`CubeData`] is returned as success.

use crossbeam::channel::{bounded, Receiver, Sender};
use exl_model::{CubeData, Dataset};
use exl_obs::{NoopRecorder, Recorder};

use crate::flow::{
    apply_transform, merge_rows, read_source, write_output, EtlError, Flow, Job, TransformStep,
};
use crate::row::Row;

const CHANNEL_CAP: usize = 1024;

/// Sample the occupancy gauge once per this many rows sent, so the
/// instrumented path stays O(1) amortized per row.
const OCCUPANCY_SAMPLE_EVERY: u64 = 64;

/// What flows through a stage channel: a row, or the error that killed
/// the producing stage.
type RowResult = Result<Row, EtlError>;

/// Execute a flow with one thread per step.
pub fn run_flow_parallel(flow: &Flow, data: &Dataset) -> Result<CubeData, EtlError> {
    run_flow_parallel_traced(flow, data, &NoopRecorder, &exl_obs::Span::disabled())
}

/// [`run_flow_parallel`] with per-step row counters (`etl.rows.source`,
/// `etl.rows.merge`, `etl.rows.transform`, `etl.rows.output`) and a
/// channel-occupancy gauge (`etl.channel.depth`) emitted to `recorder`,
/// and hierarchical tracing: the flow
/// runs under an `etl.flow` child span of `trace`, and every pipeline
/// stage records its own span (`etl.source`, `etl.merge`,
/// `etl.transform`, `etl.output`) *from its worker thread*, so the
/// exported trace shows the stages genuinely overlapping in time.
pub fn run_flow_parallel_traced(
    flow: &Flow,
    data: &Dataset,
    recorder: &dyn Recorder,
    trace: &exl_obs::Span,
) -> Result<CubeData, EtlError> {
    if flow.sources.is_empty() {
        return Err(EtlError::msg(format!("flow {}: no data sources", flow.id)));
    }
    exl_fault::check("etl.flow").map_err(|e| EtlError::msg(e.to_string()))?;
    exl_fault::govern::checkpoint()?;
    let flow_span = trace.child("etl.flow");
    flow_span.set_attr("flow", flow.id.clone());
    flow_span.set_attr("cube", flow.output.relation.to_string());
    let flow_ctx = flow_span.context();
    // stage threads can't see the spawning thread's ambient governor, so
    // capture it here and check it explicitly at each stage entry
    let governor = exl_fault::govern::governor();
    let governor = &governor;

    std::thread::scope(|scope| -> Result<CubeData, EtlError> {
        // source stages
        let mut stream_rx: Vec<Receiver<RowResult>> = Vec::with_capacity(flow.sources.len());
        for source in &flow.sources {
            let (tx, rx) = bounded::<RowResult>(CHANNEL_CAP);
            stream_rx.push(rx);
            let ctx = flow_ctx.clone();
            scope.spawn(move || {
                let span = ctx.child("etl.source");
                span.set_attr("relation", source.relation.to_string());
                let mut sent = 0u64;
                match stage_entry(governor).and_then(|()| read_source(source, data)) {
                    Ok(rows) => {
                        send_rows(&tx, rows, recorder, &mut sent);
                    }
                    Err(e) => {
                        span.add_event(e.to_string());
                        let _ = tx.send(Err(e));
                    }
                }
                span.set_attr("rows_out", sent);
                recorder.incr_counter("etl.rows.source", sent);
            });
        }

        // merge stages: each consumes the accumulated stream and one new
        // source stream
        let mut acc = stream_rx.remove(0);
        for (merge, right_rx) in flow.merges.iter().zip(stream_rx) {
            let (tx, rx) = bounded::<RowResult>(CHANNEL_CAP);
            let left_rx = acc;
            acc = rx;
            let ctx = flow_ctx.clone();
            scope.spawn(move || {
                // build from the right stream, then probe with the left
                let span = ctx.child("etl.merge");
                let mut sent = 0u64;
                let merged = stage_entry(governor)
                    .and_then(|()| collect_rows(right_rx))
                    .and_then(|right| collect_rows(left_rx).map(|left| (left, right)))
                    .and_then(|(left, right)| {
                        span.set_attr("rows_in", (left.len() + right.len()) as u64);
                        merge_rows(left, right, merge)
                    });
                match merged {
                    Ok(rows) => {
                        send_rows(&tx, rows, recorder, &mut sent);
                    }
                    Err(e) => {
                        span.add_event(e.to_string());
                        let _ = tx.send(Err(e));
                    }
                }
                span.set_attr("rows_out", sent);
                recorder.incr_counter("etl.rows.merge", sent);
            });
        }

        // transform stages
        for t in &flow.transforms {
            let (tx, rx) = bounded::<RowResult>(CHANNEL_CAP);
            let input = acc;
            acc = rx;
            let ctx = flow_ctx.clone();
            scope.spawn(move || {
                let span = ctx.child("etl.transform");
                span.set_attr("kind", t.kind());
                let mut sent = 0u64;
                if let Err(e) = stage_entry(governor) {
                    span.add_event(e.to_string());
                    let _ = tx.send(Err(e));
                } else if is_streaming(t) {
                    // row-at-a-time
                    loop {
                        match input.recv() {
                            Ok(Ok(row)) => match apply_transform(t, vec![row]) {
                                Ok(rows) => {
                                    if !send_rows(&tx, rows, recorder, &mut sent) {
                                        break;
                                    }
                                }
                                Err(e) => {
                                    span.add_event(e.to_string());
                                    let _ = tx.send(Err(e));
                                    break;
                                }
                            },
                            Ok(Err(e)) => {
                                let _ = tx.send(Err(e));
                                break;
                            }
                            Err(_) => break, // upstream finished cleanly
                        }
                    }
                } else {
                    // blocking: buffer the whole stream
                    match collect_rows(input).and_then(|rows| apply_transform(t, rows)) {
                        Ok(rows) => {
                            send_rows(&tx, rows, recorder, &mut sent);
                        }
                        Err(e) => {
                            span.add_event(e.to_string());
                            let _ = tx.send(Err(e));
                        }
                    }
                }
                span.set_attr("rows_out", sent);
                recorder.incr_counter("etl.rows.transform", sent);
            });
        }

        // output stage (on this thread); a failure here drops every
        // receiver we still hold, which cascades the shutdown upstream
        let span = flow_span.child("etl.output");
        let rows = collect_rows(acc)?;
        exl_fault::govern::checkpoint()?;
        span.set_attr("rows_in", rows.len() as u64);
        recorder.incr_counter("etl.rows.output", rows.len() as u64);
        let out = write_output(&flow.output, rows)?;
        flow_span.set_attr("rows_out", out.len() as u64);
        exl_fault::govern::charge(
            out.len() as u64,
            exl_fault::govern::approx_cube_bytes(
                out.len() as u64,
                flow.output.dim_fields.len() as u64,
            ),
        );
        Ok(out)
    })
}

/// Per-stage governance check for pipeline worker threads: the captured
/// governor stands in for the spawning thread's ambient one. A stop is
/// sent in-band like any other stage failure, so it cascades downstream
/// and unwinds the pipeline without leaving a stage blocked.
fn stage_entry(governor: &Option<exl_fault::govern::Governor>) -> Result<(), EtlError> {
    if let Some(g) = governor {
        g.checkpoint()?;
    }
    Ok(())
}

/// Drain a stage's input completely, or stop at the first in-band error
/// (dropping the receiver, which unblocks the producer).
fn collect_rows(rx: Receiver<RowResult>) -> Result<Vec<Row>, EtlError> {
    let mut rows = Vec::new();
    for item in rx.iter() {
        rows.push(item?);
    }
    Ok(rows)
}

/// Send rows downstream, counting them and sampling channel occupancy.
/// Returns `false` when the receiver hung up (downstream failed or
/// stopped consuming) — the caller should wind down quietly.
fn send_rows(
    tx: &Sender<RowResult>,
    rows: impl IntoIterator<Item = Row>,
    recorder: &dyn Recorder,
    sent: &mut u64,
) -> bool {
    for row in rows {
        if tx.send(Ok(row)).is_err() {
            return false;
        }
        *sent += 1;
        if (*sent).is_multiple_of(OCCUPANCY_SAMPLE_EVERY) {
            recorder.set_gauge("etl.channel.depth", tx.len() as i64);
        }
    }
    true
}

/// True for steps that can process one row at a time.
fn is_streaming(t: &TransformStep) -> bool {
    !matches!(
        t,
        TransformStep::Aggregator { .. } | TransformStep::Series { .. }
    )
}

/// Run a whole job with pipeline-parallel flows (flows still execute in
/// tgd total order, since later flows read earlier results).
pub fn run_job_parallel(job: &Job, input: &Dataset) -> Result<Dataset, EtlError> {
    run_job_parallel_traced(job, input, &NoopRecorder, &exl_obs::Span::disabled())
}

/// [`run_job_parallel`] with the whole job timed under the `etl.job` span,
/// per-step row counters emitted to `recorder`, and each flow traced
/// under an `etl.flow` child span of `trace` (see
/// [`run_flow_parallel_traced`]).
pub fn run_job_parallel_traced(
    job: &Job,
    input: &Dataset,
    recorder: &dyn Recorder,
    trace: &exl_obs::Span,
) -> Result<Dataset, EtlError> {
    let _span = exl_obs::span(recorder, "etl.job");
    let mut ds = input.clone();
    for flow in &job.flows {
        let data = run_flow_parallel_traced(flow, &ds, recorder, trace)?;
        let schema = job
            .schemas
            .get(&flow.output.relation)
            .ok_or_else(|| EtlError::msg(format!("no schema for {}", flow.output.relation)))?
            .clone();
        ds.put(exl_model::Cube::new(schema, data));
    }
    recorder.incr_counter("etl.flows", job.flows.len() as u64);
    Ok(ds)
}

/// A sender/receiver pair alias kept public for tests of backpressure.
pub type RowChannel = (Sender<RowResult>, Receiver<RowResult>);
