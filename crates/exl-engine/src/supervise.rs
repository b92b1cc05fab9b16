//! The dispatch supervisor: a fault boundary around subgraph execution.
//!
//! The paper's dispatcher (§5) assumes every translated subgraph runs
//! cleanly on its target; a production engine cannot. This module wraps
//! each backend execution so that:
//!
//! * a **panic** inside a target engine is contained (`catch_unwind`) and
//!   surfaces as [`EngineError::Panic`], never as an engine panic;
//! * a **stalled** backend is cut off by a per-subgraph deadline
//!   ([`DispatchPolicy::subgraph_timeout`]) — the supervisor cancels the
//!   worker's [`CancelToken`](crate::govern::CancelToken) and **joins**
//!   it: the worker observes the cancellation at its next governance
//!   checkpoint and exits, so no busy thread is ever leaked;
//! * **transient failures** are retried with exponential backoff
//!   ([`DispatchPolicy::retries`], [`DispatchPolicy::backoff_base`]);
//! * when a non-native backend keeps failing *at execution time*, the
//!   supervisor re-runs the subgraph on the native engine — the runtime
//!   counterpart of the translation-time fallback of §5
//!   ([`DispatchPolicy::runtime_fallback`]).
//!
//! Every retry, timeout, contained panic, and fallback increments an
//! `exl-obs` counter (`engine.retries`, `engine.timeouts`,
//! `engine.panics_caught`, `engine.runtime_fallbacks`), and the attempt
//! history is reported per subgraph in
//! [`SubgraphReport::attempts`](crate::engine::SubgraphReport).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use exl_model::schema::CubeId;
use exl_model::{CubeData, Dataset};

use crate::error::EngineError;
use crate::target::{execute_in, ExecCtx, TargetCode, TargetKind};

/// How the dispatcher behaves when a subgraph execution fails.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatchPolicy {
    /// Re-execution attempts after a retryable failure (0 = fail fast).
    pub retries: u32,
    /// Backoff before retry `n` is `backoff_base * 2^n` (0 = no wait;
    /// tests use 0, production a few milliseconds).
    pub backoff_base: Duration,
    /// Wall-clock deadline per subgraph execution attempt. `None` waits
    /// forever (and executes on the dispatching thread itself).
    pub subgraph_timeout: Option<Duration>,
    /// Degradation mode: complete every subgraph not downstream of a
    /// failure and report failures in the [`RunReport`](crate::RunReport)
    /// instead of aborting the run.
    pub keep_going: bool,
    /// After retries are exhausted on a non-native target, re-run the
    /// subgraph on the native engine before giving up.
    pub runtime_fallback: bool,
}

impl Default for DispatchPolicy {
    fn default() -> Self {
        DispatchPolicy {
            retries: 0,
            backoff_base: Duration::from_millis(5),
            subgraph_timeout: None,
            keep_going: false,
            runtime_fallback: false,
        }
    }
}

/// How one execution attempt ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttemptOutcome {
    /// The backend produced the subgraph's cubes.
    Success,
    /// The backend returned an error.
    Error(String),
    /// The backend panicked; the panic was contained.
    Panicked(String),
    /// The deadline elapsed before the backend finished.
    TimedOut,
}

/// One execution attempt of one subgraph, for the run report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attempt {
    /// The target that executed this attempt (the native engine for
    /// runtime-fallback attempts).
    pub target: TargetKind,
    /// How it ended.
    pub outcome: AttemptOutcome,
}

/// What finally happened to a subgraph in a supervised run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubgraphStatus {
    /// Executed; its cubes are part of the run's commit.
    Computed,
    /// Not executed: every statement was resolved from the run cache
    /// (exact content hit or delta re-evaluation); its cubes are part of
    /// the run's commit.
    Cached,
    /// Every attempt (and any fallback) failed.
    Failed,
    /// Not executed: an upstream subgraph failed (only under
    /// [`DispatchPolicy::keep_going`]).
    Skipped,
    /// The run was cancelled (external request, SIGINT, or an injected
    /// cancel) before or while this subgraph executed.
    Cancelled,
    /// A resource budget (run deadline, memory ceiling, row limit) was
    /// exhausted before or while this subgraph executed.
    BudgetExceeded,
}

impl SubgraphStatus {
    /// Stable lowercase name, shared by `exlc` output, the run ledger,
    /// and the crash-bundle schema.
    pub fn name(self) -> &'static str {
        match self {
            SubgraphStatus::Computed => "computed",
            SubgraphStatus::Cached => "cached",
            SubgraphStatus::Failed => "failed",
            SubgraphStatus::Skipped => "skipped",
            SubgraphStatus::Cancelled => "cancelled",
            SubgraphStatus::BudgetExceeded => "budget-exceeded",
        }
    }
}

/// What [`run_supervised`] returns: the wanted cubes in order (or the
/// error that ended the chain) and the attempt history.
pub type Supervised = (Result<Vec<(CubeId, CubeData)>, EngineError>, Vec<Attempt>);

/// Execute translated code under the full fault boundary: panic
/// containment, deadline, retry with backoff, and the native fallback
/// chain, all as `ctx.policy` says. Returns the cubes named in `wanted`,
/// in that order, together with the per-attempt history.
///
/// Every execution attempt (retries and runtime-fallback attempts
/// included) becomes an `attempt` child span of `ctx.trace`, siblings of
/// each other, carrying `target`, `attempt` (ordinal) and `status`
/// attributes. A backend that succeeds without producing a wanted cube
/// fails the call after the chain: that is deterministic, so it is
/// neither retried nor sent to the fallback.
pub fn run_supervised(
    code: &TargetCode,
    native: Option<&TargetCode>,
    input: &Dataset,
    wanted: &[CubeId],
    ctx: &ExecCtx,
) -> Supervised {
    let mut attempts = Vec::new();
    let primary = attempt_chain(code, input, wanted, &mut attempts, ctx);
    let result = match primary {
        Err(e) if e.is_retryable() && ctx.policy.runtime_fallback => match native {
            Some(native) => {
                ctx.recorder.incr_counter("engine.runtime_fallbacks", 1);
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::Fallback,
                    code.target_name(),
                    || format!("runtime fallback to {}: {e}", native.target_name()),
                );
                ctx.trace.add_event(format!(
                    "runtime fallback: {} -> {}",
                    code.target_name(),
                    native.target_name()
                ));
                attempt_chain(native, input, wanted, &mut attempts, ctx)
            }
            None => Err(e),
        },
        other => other,
    };
    let items = result.and_then(|ds| {
        wanted
            .iter()
            .map(|id| match ds.data(id) {
                Some(data) => Ok((id.clone(), data.clone())),
                None => Err(EngineError::Execution(format!(
                    "target produced no data for {id}"
                ))),
            })
            .collect()
    });
    (items, attempts)
}

/// Try one target up to `1 + retries` times, backing off exponentially
/// between retryable failures.
fn attempt_chain(
    code: &TargetCode,
    input: &Dataset,
    wanted: &[CubeId],
    attempts: &mut Vec<Attempt>,
    ctx: &ExecCtx,
) -> Result<Dataset, EngineError> {
    let (policy, recorder) = (ctx.policy, ctx.recorder);
    let target = code.target_kind();
    let mut attempt = 0u32;
    loop {
        let span = ctx.trace.child("attempt");
        span.set_attr("target", target.name());
        span.set_attr("attempt", attempts.len() as u64 + 1);
        let result = execute_guarded(code, input, wanted, &ctx.under(&span));
        let outcome = match &result {
            Ok(_) => AttemptOutcome::Success,
            Err(EngineError::Panic { message, .. }) => {
                recorder.incr_counter("engine.panics_caught", 1);
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::PanicCaught,
                    target.name(),
                    || message.clone(),
                );
                AttemptOutcome::Panicked(message.clone())
            }
            Err(EngineError::Timeout { millis, .. }) => {
                recorder.incr_counter("engine.timeouts", 1);
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::Timeout,
                    target.name(),
                    || format!("deadline of {millis} ms exceeded"),
                );
                AttemptOutcome::TimedOut
            }
            Err(e) => AttemptOutcome::Error(e.to_string()),
        };
        span.set_attr(
            "status",
            match &outcome {
                AttemptOutcome::Success => "ok",
                AttemptOutcome::Error(_) => "error",
                AttemptOutcome::Panicked(_) => "panicked",
                AttemptOutcome::TimedOut => "timeout",
            },
        );
        if let Err(e) = &result {
            span.add_event(e.to_string());
        }
        drop(span);
        attempts.push(Attempt { target, outcome });
        match result {
            Ok(ds) => return Ok(ds),
            Err(e) if e.is_retryable() && attempt < policy.retries => {
                recorder.incr_counter("engine.retries", 1);
                exl_obs::flight::record_with(
                    exl_obs::flight::FlightKind::Retry,
                    target.name(),
                    || format!("attempt {} failed: {e}", attempt + 1),
                );
                let backoff = policy.backoff_base.saturating_mul(1 << attempt.min(16));
                if !backoff.is_zero() {
                    std::thread::sleep(backoff);
                }
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// One execution attempt behind the fault boundary. Without a deadline
/// the backend runs on the calling thread under `catch_unwind` (and under
/// whatever governor the caller installed); with one it runs on a scoped
/// worker thread holding a **child** governor, borrowing the code, the
/// input and `ctx` (so its `execute.<target>` span nests under the
/// attempt span). When the deadline passes the supervisor cancels the
/// child's token and joins the worker: the backend observes the
/// cancellation at its next checkpoint and exits, so the thread is
/// reclaimed instead of abandoned. The child token keeps the
/// cancellation local to this attempt — a retry (or the native fallback)
/// starts with a fresh, uncancelled child.
fn execute_guarded(
    code: &TargetCode,
    input: &Dataset,
    wanted: &[CubeId],
    ctx: &ExecCtx,
) -> Result<Dataset, EngineError> {
    let target = code.target_name();
    // the one attempt body of both branches: the backend runs under the
    // `engine.subgraph.<target>` metrics span, a panic becomes
    // `EngineError::Panic`
    let attempt = || {
        let _span = exl_obs::span(ctx.recorder, format!("engine.subgraph.{target}"));
        catch_unwind(AssertUnwindSafe(|| execute_in(code, input, wanted, ctx))).unwrap_or_else(
            |payload| {
                Err(EngineError::Panic {
                    target: target.to_string(),
                    message: panic_message(payload),
                })
            },
        )
    };
    let Some(deadline) = ctx.policy.subgraph_timeout else {
        return attempt();
    };

    // the worker governs under a child of the caller's governor: run-level
    // cancels still reach it, while the deadline cancel below stays local
    let attempt_governor = crate::govern::governor()
        .unwrap_or_else(crate::govern::Governor::detached)
        .child();
    let attempt_token = attempt_governor.token().clone();
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        let worker = std::thread::Builder::new()
            .name(format!("exl-dispatch-{target}"))
            .spawn_scoped(scope, move || {
                let _governor = crate::govern::set_governor(attempt_governor);
                // the receiver may have given up on us: ignore send failure
                let _ = tx.send(attempt());
            })
            .map_err(|e| EngineError::Execution(format!("cannot spawn dispatch worker: {e}")))?;
        let result = match rx.recv_timeout(deadline) {
            Ok(result) => result,
            Err(mpsc::RecvTimeoutError::Timeout) => {
                attempt_token.cancel(format!(
                    "subgraph deadline of {} ms exceeded",
                    deadline.as_millis()
                ));
                Err(EngineError::Timeout {
                    target: target.to_string(),
                    millis: deadline.as_millis() as u64,
                })
            }
            // unreachable in practice: the worker always sends (panics are
            // caught), but a vanished worker must not hang the dispatcher
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(EngineError::Panic {
                target: target.to_string(),
                message: "dispatch worker vanished without a result".to_string(),
            }),
        };
        // cancel-then-join: after a timeout the worker sees the cancelled
        // token at its next checkpoint (injected delays are sliced and abort
        // early) and exits; on the success/error paths it has already sent,
        // so the join is immediate either way
        let _ = worker.join();
        result
    })
}

/// Render a `catch_unwind` payload as text.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::target::{translate, ExecOpts};
    use exl_obs::MetricsRegistry;
    use exl_workload::{gdp_scenario, GdpConfig};

    fn native_setup() -> (TargetCode, Dataset, Vec<CubeId>) {
        let (analyzed, input) = gdp_scenario(GdpConfig::default());
        let wanted = analyzed.program.derived_ids();
        let code = translate(&analyzed, TargetKind::Native).unwrap();
        (code, input.restrict(&analyzed.elementary_inputs()), wanted)
    }

    /// [`run_supervised`] untraced, with default execution options.
    fn supervise(
        code: &TargetCode,
        native: Option<&TargetCode>,
        input: &Dataset,
        wanted: &[CubeId],
        policy: &DispatchPolicy,
        metrics: Option<&MetricsRegistry>,
    ) -> Supervised {
        let recorder: &dyn exl_obs::Recorder = match metrics {
            Some(m) => m,
            None => &exl_obs::NoopRecorder,
        };
        let ctx = ExecCtx {
            recorder,
            trace: &exl_obs::Span::disabled(),
            opts: ExecOpts::default(),
            policy,
        };
        run_supervised(code, native, input, wanted, &ctx)
    }

    #[test]
    fn clean_run_is_one_successful_attempt() {
        let (code, input, wanted) = native_setup();
        let (result, attempts) = supervise(
            &code,
            None,
            &input,
            &wanted,
            &DispatchPolicy::default(),
            None,
        );
        assert!(result.is_ok());
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].outcome, AttemptOutcome::Success);
        assert_eq!(attempts[0].target, TargetKind::Native);
    }

    #[test]
    fn deadline_cuts_off_a_stalled_backend() {
        let (code, input, wanted) = native_setup();
        let _guard = exl_fault::install(exl_fault::FaultPlan::delay_once("exec.native", 200));
        let policy = DispatchPolicy {
            subgraph_timeout: Some(Duration::from_millis(20)),
            ..DispatchPolicy::default()
        };
        let (result, attempts) = supervise(&code, None, &input, &wanted, &policy, None);
        assert!(
            matches!(result, Err(EngineError::Timeout { .. })),
            "{result:?}"
        );
        assert_eq!(attempts.last().unwrap().outcome, AttemptOutcome::TimedOut);
        // cancel-then-join: the worker was reclaimed before run_supervised
        // returned
    }

    #[test]
    fn timed_out_workers_are_joined_not_leaked() {
        use exl_obs::flight::{FlightKind, FlightRing};
        let (code, input, wanted) = native_setup();
        let policy = DispatchPolicy {
            subgraph_timeout: Some(Duration::from_millis(10)),
            ..DispatchPolicy::default()
        };
        // the worker records into this test's ring, and only this test's
        let ring = FlightRing::new(256);
        let _entered = ring.enter();
        for round in 0..8 {
            let _guard = exl_fault::install(exl_fault::FaultPlan::delay_once("exec.native", 500));
            let seen = ring.total_recorded();
            let (result, _) = supervise(&code, None, &input, &wanted, &policy, None);
            assert!(
                matches!(result, Err(EngineError::Timeout { .. })),
                "{result:?}"
            );
            // the cut-off worker ran on to its next checkpoint, tripped on
            // the deadline cancel, and was joined before the call returned
            let trips = ring
                .tail()
                .iter()
                .filter(|e| e.seq >= seen && e.kind == FlightKind::GovernTrip)
                .count();
            assert!(trips >= 1, "round {round}: worker not joined on return");
        }
    }

    #[test]
    fn panic_is_contained_and_retry_succeeds() {
        let (code, input, wanted) = native_setup();
        let _guard = exl_fault::install(exl_fault::FaultPlan::panic_once("exec.native"));
        let policy = DispatchPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
            ..DispatchPolicy::default()
        };
        let registry = MetricsRegistry::new();
        let (result, attempts) = supervise(&code, None, &input, &wanted, &policy, Some(&registry));
        assert!(result.is_ok(), "{result:?}");
        assert_eq!(attempts.len(), 2);
        assert!(matches!(attempts[0].outcome, AttemptOutcome::Panicked(_)));
        assert_eq!(attempts[1].outcome, AttemptOutcome::Success);
        assert_eq!(registry.counter("engine.retries"), 1);
        assert_eq!(registry.counter("engine.panics_caught"), 1);
    }

    #[test]
    fn fallback_chain_reroutes_to_native() {
        let (analyzed, input) = gdp_scenario(GdpConfig::default());
        let wanted = analyzed.program.derived_ids();
        let sql = translate(&analyzed, TargetKind::Sql).unwrap();
        let native = translate(&analyzed, TargetKind::Native).unwrap();
        let _guard = exl_fault::install(exl_fault::FaultPlan::fail_always("exec.sql"));
        let policy = DispatchPolicy {
            retries: 1,
            backoff_base: Duration::ZERO,
            runtime_fallback: true,
            ..DispatchPolicy::default()
        };
        let registry = MetricsRegistry::new();
        let input = input.restrict(&analyzed.elementary_inputs());
        let (result, attempts) = supervise(
            &sql,
            Some(&native),
            &input,
            &wanted,
            &policy,
            Some(&registry),
        );
        assert!(result.is_ok(), "{result:?}");
        // two failed sql attempts, then one native success
        assert_eq!(attempts.len(), 3);
        assert_eq!(attempts[0].target, TargetKind::Sql);
        assert_eq!(attempts[2].target, TargetKind::Native);
        assert_eq!(attempts[2].outcome, AttemptOutcome::Success);
        assert_eq!(registry.counter("engine.runtime_fallbacks"), 1);
    }

    #[test]
    fn non_retryable_errors_fail_fast() {
        let (code, input, _) = native_setup();
        // wanting a cube the program does not produce is a deterministic
        // failure: no retry should happen even with retries allowed
        let wanted = vec![CubeId::new("NOPE")];
        let policy = DispatchPolicy {
            retries: 3,
            backoff_base: Duration::ZERO,
            ..DispatchPolicy::default()
        };
        let registry = MetricsRegistry::new();
        let (result, attempts) = supervise(&code, None, &input, &wanted, &policy, Some(&registry));
        let err = result.unwrap_err();
        assert!(
            err.to_string().contains("produced no data for NOPE"),
            "{err}"
        );
        assert_eq!(attempts.len(), 1);
        assert_eq!(attempts[0].outcome, AttemptOutcome::Success);
        assert_eq!(registry.counter("engine.retries"), 0);
    }
}
