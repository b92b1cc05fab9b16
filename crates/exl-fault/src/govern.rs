//! Run governance primitives: cooperative cancellation and resource
//! budgets.
//!
//! A [`CancelToken`] is a cheap atomic flag with parent→child linking: a
//! child observes its own cancellation *and* every ancestor's, so the
//! engine can hand each subgraph (and each execution attempt) its own
//! token while a run-level cancel still reaches everything. A
//! [`RunBudget`] adds wall-clock deadlines, a byte-accounted memory
//! ceiling, and an optional row/derivation limit. The two travel
//! together as a [`Governor`].
//!
//! Long-running loops across the workspace — chase tgd rounds, batch
//! evaluator statements and partitioned workers, ETL stages, the mini
//! interpreters' statement loops — call [`checkpoint`] at batch
//! boundaries. Like [`check`](crate::check), the ambient governor is
//! carried in a thread-local rather than threaded through every
//! signature; worker threads re-install it explicitly (thread-locals do
//! not cross `thread::spawn`). With no governor installed a checkpoint
//! is a thread-local read and nothing else.
//!
//! The governor is the one run context: it also carries the installed
//! fault plan ([`crate::install`]) and the entered [`exl_obs::flight`]
//! ring, so a worker re-entering a captured [`governor`] sees the plan
//! and records into the ring of the thread that spawned it.
//!
//! This module lives in `exl-fault` (the lowest shared layer — its only
//! dependency is the equally foundation-level `exl-obs`) so every
//! backend can observe the token; the engine re-exports and drives it
//! from `exl_engine::govern`. A *tripped* checkpoint — cancellation
//! observed or a budget limit exceeded — is recorded into the entered
//! flight ring (inert when none is); the vastly more common passing
//! checkpoint records nothing.

use std::cell::RefCell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

use exl_obs::flight::{self, EnteredRing, FlightRing};

use crate::FaultState;

/// Why a governed execution stopped early.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernError {
    /// The token was cancelled (external request, SIGINT, supervisor
    /// deadline, or an injected cancel).
    Cancelled {
        /// Human-readable cancellation reason.
        reason: String,
    },
    /// The budget's wall-clock deadline passed.
    DeadlineExceeded {
        /// The deadline that was exceeded, in milliseconds.
        millis: u64,
    },
    /// The byte-accounted memory ceiling was exceeded.
    MemoryExceeded {
        /// The configured ceiling in bytes.
        limit_bytes: u64,
        /// Accounted usage when the ceiling was hit.
        used_bytes: u64,
    },
    /// The row/derivation limit was exceeded.
    RowLimitExceeded {
        /// The configured limit.
        limit: u64,
        /// Accounted rows when the limit was hit.
        rows: u64,
    },
}

impl fmt::Display for GovernError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GovernError::Cancelled { reason } => write!(f, "cancelled: {reason}"),
            GovernError::DeadlineExceeded { millis } => {
                write!(f, "run deadline of {millis} ms exceeded")
            }
            GovernError::MemoryExceeded {
                limit_bytes,
                used_bytes,
            } => write!(
                f,
                "memory budget exceeded: {used_bytes} bytes accounted against a {limit_bytes} byte ceiling"
            ),
            GovernError::RowLimitExceeded { limit, rows } => {
                write!(f, "row budget exceeded: {rows} rows against a limit of {limit}")
            }
        }
    }
}

impl std::error::Error for GovernError {}

#[derive(Debug, Default)]
struct TokenInner {
    flag: AtomicBool,
    /// First recorded reason; `raw_cancel` (signal handlers) skips it.
    reason: Mutex<Option<String>>,
    parent: Option<CancelToken>,
}

/// A cooperative cancellation flag. Cloning shares the flag; [`child`]
/// links a new flag that also observes this one, so cancelling a parent
/// cancels the whole subtree while a child's cancel stays local.
///
/// [`child`]: CancelToken::child
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    inner: Arc<TokenInner>,
}

impl CancelToken {
    /// A fresh, uncancelled root token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that observes `self` (and its ancestors) in addition to
    /// its own flag.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            inner: Arc::new(TokenInner {
                flag: AtomicBool::new(false),
                reason: Mutex::new(None),
                parent: Some(self.clone()),
            }),
        }
    }

    /// Cancel this token (and with it every descendant), recording
    /// `reason` if none was recorded yet.
    pub fn cancel(&self, reason: impl Into<String>) {
        let mut slot = self
            .inner
            .reason
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(reason.into());
        }
        drop(slot);
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Cancel with a single atomic store and nothing else — the only
    /// form that is async-signal-safe (no lock, no allocation). The
    /// reason falls back to a generic message.
    pub fn raw_cancel(&self) {
        self.inner.flag.store(true, Ordering::SeqCst);
    }

    /// Whether this token or any ancestor was cancelled. One relaxed
    /// load per chain link (chains are two or three deep in practice).
    pub fn is_cancelled(&self) -> bool {
        let mut node = Some(self);
        while let Some(t) = node {
            if t.inner.flag.load(Ordering::Relaxed) {
                return true;
            }
            node = t.inner.parent.as_ref();
        }
        false
    }

    /// The first recorded reason up the chain, if any.
    pub fn reason(&self) -> Option<String> {
        let mut node = Some(self);
        while let Some(t) = node {
            if t.inner.flag.load(Ordering::Relaxed) {
                let slot = t
                    .inner
                    .reason
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                return Some(slot.clone().unwrap_or_else(|| "cancelled".to_string()));
            }
            node = t.inner.parent.as_ref();
        }
        None
    }

    /// The [`GovernError`] a checkpoint would return right now, if any.
    pub fn cancellation(&self) -> Option<GovernError> {
        self.reason()
            .map(|reason| GovernError::Cancelled { reason })
    }
}

/// Resource limits for one run, shared (via [`Governor`] clones) by
/// every thread working on it. All accounting is saturating and coarse:
/// backends charge materialized intermediates at batch boundaries, not
/// individual allocations.
#[derive(Debug, Default)]
pub struct RunBudget {
    deadline: Option<Instant>,
    deadline_millis: u64,
    mem_limit: Option<u64>,
    mem_used: AtomicU64,
    mem_peak: AtomicU64,
    row_limit: Option<u64>,
    rows: AtomicU64,
}

impl RunBudget {
    /// An unlimited budget.
    pub fn unlimited() -> RunBudget {
        RunBudget::default()
    }

    /// Add a wall-clock deadline measured from now.
    pub fn with_deadline(mut self, after: Duration) -> RunBudget {
        self.deadline = Some(Instant::now() + after);
        self.deadline_millis = after.as_millis() as u64;
        self
    }

    /// Add a byte-accounted memory ceiling.
    pub fn with_memory_limit(mut self, bytes: u64) -> RunBudget {
        self.mem_limit = Some(bytes);
        self
    }

    /// Add a row/derivation limit.
    pub fn with_row_limit(mut self, rows: u64) -> RunBudget {
        self.row_limit = Some(rows);
        self
    }

    /// Account `bytes` of materialized intermediate data.
    pub fn charge_bytes(&self, bytes: u64) {
        let used = self.mem_used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.mem_peak.fetch_max(used, Ordering::Relaxed);
    }

    /// Return previously charged bytes (batch eviction, dropped
    /// intermediates).
    pub fn release_bytes(&self, bytes: u64) {
        let _ = self
            .mem_used
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |used| {
                Some(used.saturating_sub(bytes))
            });
    }

    /// Account `rows` derived rows.
    pub fn charge_rows(&self, rows: u64) {
        self.rows.fetch_add(rows, Ordering::Relaxed);
    }

    /// Peak accounted memory so far, in bytes.
    pub fn mem_peak_bytes(&self) -> u64 {
        self.mem_peak.load(Ordering::Relaxed)
    }

    /// Currently accounted memory, in bytes.
    pub fn mem_used_bytes(&self) -> u64 {
        self.mem_used.load(Ordering::Relaxed)
    }

    /// Total accounted rows so far.
    pub fn rows_charged(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Check every limit; `Err` names the first exceeded one.
    pub fn verdict(&self) -> Result<(), GovernError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(GovernError::DeadlineExceeded {
                    millis: self.deadline_millis,
                });
            }
        }
        if let Some(limit) = self.mem_limit {
            let used = self.mem_used.load(Ordering::Relaxed);
            if used > limit {
                return Err(GovernError::MemoryExceeded {
                    limit_bytes: limit,
                    used_bytes: used,
                });
            }
        }
        if let Some(limit) = self.row_limit {
            let rows = self.rows.load(Ordering::Relaxed);
            if rows > limit {
                return Err(GovernError::RowLimitExceeded { limit, rows });
            }
        }
        Ok(())
    }
}

/// The run context: a cancellation token and a resource budget, plus the
/// installed fault plan and the entered flight ring, travelling together.
/// Cloning shares all four; [`child`](Governor::child) derives a child
/// token over the *same* budget, plan and ring (budgets are per run,
/// tokens per unit of work).
#[derive(Debug, Clone, Default)]
pub struct Governor {
    token: CancelToken,
    budget: Arc<RunBudget>,
    pub(crate) faults: Option<Arc<FaultState>>,
    ring: Option<FlightRing>,
}

impl Governor {
    /// Govern with `token` under `budget`.
    pub fn new(token: CancelToken, budget: RunBudget) -> Governor {
        Governor {
            token,
            budget: Arc::new(budget),
            ..Governor::default()
        }
    }

    /// An ungoverned governor: never cancelled, unlimited budget.
    pub fn detached() -> Governor {
        Governor::default()
    }

    /// A governor whose token is a child of this one, over the same
    /// budget.
    pub fn child(&self) -> Governor {
        Governor {
            token: self.token.child(),
            ..self.clone()
        }
    }

    /// This governor's token.
    pub fn token(&self) -> &CancelToken {
        &self.token
    }

    /// This governor's budget.
    pub fn budget(&self) -> &RunBudget {
        &self.budget
    }

    /// The cooperative checkpoint: cancellation first, then budget
    /// limits. A budget violation also cancels the token so sibling
    /// threads stop at their own next checkpoint. Trips land in the
    /// flight recorder's event ring; passing checkpoints stay free.
    pub fn checkpoint(&self) -> Result<(), GovernError> {
        if let Some(err) = self.token.cancellation() {
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::GovernTrip,
                "govern.checkpoint",
                || err.to_string(),
            );
            return Err(err);
        }
        if let Err(err) = self.budget.verdict() {
            self.token.cancel(err.to_string());
            exl_obs::flight::record_with(
                exl_obs::flight::FlightKind::GovernTrip,
                "govern.checkpoint",
                || err.to_string(),
            );
            return Err(err);
        }
        Ok(())
    }
}

thread_local! {
    /// The ambient governor stack for this thread (a stack so nested
    /// scopes — run → subgraph → attempt — restore cleanly).
    static CURRENT: RefCell<Vec<Governor>> = const { RefCell::new(Vec::new()) };
}

/// Restores the previous ambient governor (and flight ring) on drop.
#[must_use = "the governor is uninstalled when the guard drops"]
pub struct GovernorGuard {
    depth: usize,
    _ring: Option<EnteredRing>,
}

impl Drop for GovernorGuard {
    fn drop(&mut self) {
        CURRENT.with(|c| c.borrow_mut().truncate(self.depth));
    }
}

/// Install `governor` as this thread's ambient governor until the guard
/// drops. A governor without a fault plan inherits the one installed
/// below it; a governor captured by [`governor`] also re-enters the
/// flight ring it was captured with. Worker threads must re-install
/// explicitly: thread-locals do not propagate across
/// `thread::spawn`/`thread::scope`.
pub fn set_governor(mut governor: Governor) -> GovernorGuard {
    let ring = governor.ring.as_ref().map(FlightRing::enter);
    let depth = CURRENT.with(|c| {
        let mut stack = c.borrow_mut();
        if governor.faults.is_none() {
            governor.faults = stack.last().and_then(|g| g.faults.clone());
        }
        stack.push(governor);
        stack.len() - 1
    });
    GovernorGuard { depth, _ring: ring }
}

/// This thread's ambient governor with the flight ring entered here, if
/// a governor is installed (cloned — a few `Arc` bumps).
pub fn governor() -> Option<Governor> {
    let mut governor = CURRENT.with(|c| c.borrow().last().cloned())?;
    governor.ring = flight::current();
    Some(governor)
}

/// The fault plan installed in the ambient governor, if any.
pub(crate) fn faults() -> Option<Arc<FaultState>> {
    CURRENT.with(|c| c.borrow().last().and_then(|g| g.faults.clone()))
}

/// The cooperative checkpoint against the ambient governor. With none
/// installed this is one thread-local read.
pub fn checkpoint() -> Result<(), GovernError> {
    match CURRENT.with(|c| c.borrow().last().cloned()) {
        Some(g) => g.checkpoint(),
        None => Ok(()),
    }
}

/// Charge rows and bytes against the ambient budget (no-op when
/// ungoverned). `bytes` is a coarse estimate of materialized
/// intermediates — see docs/GOVERNANCE.md for the accounting rules.
pub fn charge(rows: u64, bytes: u64) {
    CURRENT.with(|c| {
        if let Some(g) = c.borrow().last() {
            if rows > 0 {
                g.budget.charge_rows(rows);
            }
            if bytes > 0 {
                g.budget.charge_bytes(bytes);
            }
        }
    });
}

/// Return previously charged bytes to the ambient budget (no-op when
/// ungoverned).
pub fn release(bytes: u64) {
    CURRENT.with(|c| {
        if let Some(g) = c.borrow().last() {
            g.budget.release_bytes(bytes);
        }
    });
}

/// Cancel the ambient governor's token (used by
/// [`FaultAction::Cancel`](crate::FaultAction)); no-op when ungoverned.
pub fn cancel_current(reason: &str) {
    if let Some(g) = CURRENT.with(|c| c.borrow().last().cloned()) {
        g.token.cancel(reason);
    }
}

/// A coarse byte estimate for a cube-shaped intermediate: `rows` keys of
/// `dims` dimension cells (16 B each: discriminant + payload/`Arc` ptr)
/// plus one 8 B measure.
pub fn approx_cube_bytes(rows: u64, dims: u64) -> u64 {
    rows.saturating_mul(dims.saturating_mul(16).saturating_add(8))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_token_is_live() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        assert_eq!(t.reason(), None);
        assert_eq!(t.cancellation(), None);
    }

    #[test]
    fn cancel_reaches_children_not_parents() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        child.cancel("subgraph deadline");
        assert!(!parent.is_cancelled());
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
        assert_eq!(grandchild.reason().unwrap(), "subgraph deadline");
        // first reason wins
        child.cancel("second");
        assert_eq!(child.reason().unwrap(), "subgraph deadline");
    }

    #[test]
    fn raw_cancel_is_observable_with_fallback_reason() {
        let t = CancelToken::new();
        t.raw_cancel();
        assert!(t.is_cancelled());
        assert_eq!(t.reason().unwrap(), "cancelled");
    }

    #[test]
    fn budget_deadline_trips_checkpoint_and_cancels_token() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited().with_deadline(Duration::ZERO),
        );
        std::thread::sleep(Duration::from_millis(1));
        let err = g.checkpoint().unwrap_err();
        assert!(matches!(err, GovernError::DeadlineExceeded { .. }), "{err}");
        // the violation cancelled the token: siblings observe it too
        assert!(g.token().is_cancelled());
    }

    #[test]
    fn memory_and_row_budgets_account_and_trip() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited()
                .with_memory_limit(1000)
                .with_row_limit(10),
        );
        g.budget().charge_bytes(600);
        g.budget().charge_rows(5);
        assert!(g.checkpoint().is_ok());
        g.budget().charge_bytes(600);
        let err = g.checkpoint().unwrap_err();
        assert!(
            matches!(
                err,
                GovernError::MemoryExceeded {
                    used_bytes: 1200,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(g.budget().mem_peak_bytes(), 1200);
        // releasing brings usage back under the ceiling, but the trip
        // already cancelled the token — cancellation is sticky
        g.budget().release_bytes(600);
        assert_eq!(g.budget().mem_used_bytes(), 600);
        assert!(g.checkpoint().is_err());
    }

    #[test]
    fn row_limit_trips() {
        let g = Governor::new(
            CancelToken::new(),
            RunBudget::unlimited().with_row_limit(10),
        );
        g.budget().charge_rows(11);
        let err = g.checkpoint().unwrap_err();
        assert!(
            matches!(
                err,
                GovernError::RowLimitExceeded {
                    rows: 11,
                    limit: 10
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn ambient_governor_nests_and_restores() {
        assert!(checkpoint().is_ok());
        let outer = Governor::detached();
        let _g1 = set_governor(outer);
        {
            let inner = Governor::detached();
            inner.token().cancel("inner only");
            let _g2 = set_governor(inner);
            assert!(checkpoint().is_err());
        }
        assert!(checkpoint().is_ok(), "outer governor restored");
    }

    #[test]
    fn ambient_charge_accounts_against_installed_budget() {
        let g = Governor::new(CancelToken::new(), RunBudget::unlimited());
        let guard = set_governor(g.clone());
        charge(3, 100);
        release(40);
        drop(guard);
        charge(1000, 1000); // ungoverned: no-op
        assert_eq!(g.budget().rows_charged(), 3);
        assert_eq!(g.budget().mem_used_bytes(), 60);
        assert_eq!(g.budget().mem_peak_bytes(), 100);
    }

    #[test]
    fn child_governor_shares_budget_but_scopes_token() {
        let run = Governor::new(CancelToken::new(), RunBudget::unlimited());
        let sub = run.child();
        sub.budget().charge_rows(7);
        assert_eq!(run.budget().rows_charged(), 7);
        sub.token().cancel("local");
        assert!(sub.checkpoint().is_err());
        assert!(run.checkpoint().is_ok(), "subgraph cancel stays local");
        run.token().cancel("run-wide");
        assert!(sub.child().checkpoint().is_err(), "run cancel reaches all");
    }

    #[test]
    fn plan_and_ring_reach_reentered_workers_and_pushed_governors_only() {
        use exl_obs::flight::FlightKind;
        let ring = FlightRing::new(64);
        let _entered = ring.enter();
        let guard = crate::install(crate::FaultPlan::fail_always("w"));
        {
            // a governor pushed on top (an engine's run governor) inherits both
            let _run = set_governor(Governor::detached());
            assert!(crate::check("w").is_err());
            flight::record_with(FlightKind::Statement, "pushed", String::new);
        }
        let captured = governor().expect("installing a plan installs a governor");
        std::thread::scope(|s| {
            s.spawn(|| {
                // a worker re-entering the captured governor sees both
                let _g = set_governor(captured.child());
                assert!(crate::check("w").is_err());
                flight::record_with(FlightKind::Statement, "worker", String::new);
            });
        });
        std::thread::spawn(|| {
            // a bare spawn sees neither
            assert!(governor().is_none());
            assert!(flight::current().is_none());
            assert!(crate::check("w").is_ok());
            flight::record_with(FlightKind::Statement, "bare", String::new);
        })
        .join()
        .unwrap();
        assert_eq!(guard.fired_count(), 2);
        let events: Vec<String> = ring
            .tail()
            .iter()
            .map(|e| format!("{} {}", e.kind.as_str(), e.site))
            .collect();
        assert_eq!(
            events,
            [
                "fault.fired w",
                "stmt pushed",
                "fault.fired w",
                "stmt worker"
            ]
        );
    }
}
