//! Query-lifetime execution context and the typed error every fault
//! surfaces as.
//!
//! The engines this reproduction models (F1 Query, Napa) treat per-query
//! fault isolation as table stakes: a query can be cancelled, can time
//! out, can exhaust its spill budget, and can lose a worker to a panic —
//! and in every case the *query* fails with a typed error while the
//! process (and every other query) keeps running.  This module provides
//! the two halves of that contract:
//!
//! * [`QueryCtx`] — a cheaply cloneable handle carrying a cooperative
//!   cancellation token, an optional deadline, and an optional spill
//!   budget.  Executors thread it through their operators and call
//!   [`QueryCtx::check`] at batch and run boundaries; a tripped check
//!   returns an [`ExecError`].
//! * [`ExecError`] — the one error value.  Errors travel as values:
//!   `BatchStream::next_batch`, the sorts and the spill devices return
//!   `Result`, and each operator hands its input's error on with `?`.
//!   Only a *plain* panic (a bug, or an injected fault) still unwinds;
//!   [`contain`] (at a worker spawn or an execution entry point) and
//!   [`join_all`] (when scoped workers join) turn it into
//!   [`ExecError::WorkerPanic`] — contained, never process-fatal.
//!
//! Checks are engineered to be cheap enough for hot paths: cancellation
//! is one relaxed atomic load, and the deadline comparison is only
//! reached when a deadline was actually requested.

use std::any::Any;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

/// Typed execution failure.  Every fault the engine tolerates — user
/// cancellation, deadline expiry, spill-device I/O errors, spill
/// corruption, budget exhaustion, and contained worker panics — maps to
/// exactly one variant, so callers (and the wire protocol) can react by
/// kind instead of string-matching panic messages.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecError {
    /// The query's [`QueryCtx`] was cancelled (client disconnect,
    /// explicit kill, server shutdown).
    Cancelled,
    /// The query ran past its deadline.
    DeadlineExceeded {
        /// The time budget the query was given.
        budget: Duration,
    },
    /// A spill device failed to read or write (I/O error, injected
    /// fault).
    SpillIo {
        /// Human-readable failure detail.
        detail: String,
    },
    /// A spilled run failed validation on read-back: bad magic, torn
    /// frame, or checksum mismatch.
    SpillCorruption {
        /// Human-readable failure detail.
        detail: String,
    },
    /// Writing a run would exceed the query's spill budget.
    SpillBudgetExceeded {
        /// The configured budget in bytes.
        budget_bytes: u64,
        /// Total bytes the query attempted to spill.
        attempted_bytes: u64,
    },
    /// A worker thread panicked; the panic was contained and the
    /// payload (if a string) captured here.
    WorkerPanic {
        /// The panic message, when one was recoverable.
        detail: String,
    },
}

impl ExecError {
    /// Stable machine-readable reason code, used by the server's error
    /// frames and metrics labels.
    pub fn reason(&self) -> &'static str {
        match self {
            ExecError::Cancelled => "cancelled",
            ExecError::DeadlineExceeded { .. } => "timeout",
            ExecError::SpillIo { .. } => "spill_io",
            ExecError::SpillCorruption { .. } => "spill_corruption",
            ExecError::SpillBudgetExceeded { .. } => "spill_budget",
            ExecError::WorkerPanic { .. } => "worker_panic",
        }
    }

    /// True for spill-device failures ([`ExecError::SpillIo`] /
    /// [`ExecError::SpillCorruption`]) — the errors a re-sort-from-source
    /// retry can recover from (the data still exists upstream; only the
    /// spilled copy is bad).
    pub fn is_spill_fault(&self) -> bool {
        matches!(
            self,
            ExecError::SpillIo { .. } | ExecError::SpillCorruption { .. }
        )
    }
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Cancelled => write!(f, "query cancelled"),
            ExecError::DeadlineExceeded { budget } => {
                write!(f, "query deadline exceeded (budget {budget:?})")
            }
            ExecError::SpillIo { detail } => write!(f, "spill I/O error: {detail}"),
            ExecError::SpillCorruption { detail } => {
                write!(f, "spill corruption detected: {detail}")
            }
            ExecError::SpillBudgetExceeded {
                budget_bytes,
                attempted_bytes,
            } => write!(
                f,
                "spill budget exceeded: attempted {attempted_bytes} bytes against a \
                 budget of {budget_bytes}"
            ),
            ExecError::WorkerPanic { detail } => write!(f, "worker panicked: {detail}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Run `f`, containing any unwind: a panic (a genuine bug, an injected
/// `panic!`) becomes [`ExecError::WorkerPanic`] with the panic message
/// as detail.
pub fn contain<R>(f: impl FnOnce() -> R) -> Result<R, ExecError> {
    panic::catch_unwind(AssertUnwindSafe(f)).map_err(error_from_panic)
}

/// Join every scoped worker, collecting what the successful ones
/// returned and the **first** failure — a worker's own `Err`, or its
/// panic as [`ExecError::WorkerPanic`].  Every handle joins before the
/// failure is reported, so no thread outlives a failing query and the
/// caller can still absorb the survivors' work.
pub fn join_all<T>(
    handles: Vec<ScopedJoinHandle<'_, Result<T, ExecError>>>,
) -> (Vec<T>, Option<ExecError>) {
    let mut done = Vec::with_capacity(handles.len());
    let mut failure = None;
    for handle in handles {
        match handle.join().map_err(error_from_panic).and_then(|r| r) {
            Ok(value) => done.push(value),
            Err(err) => {
                failure.get_or_insert(err);
            }
        }
    }
    (done, failure)
}

/// Map a caught panic payload to [`ExecError::WorkerPanic`].
fn error_from_panic(payload: Box<dyn Any + Send>) -> ExecError {
    let detail = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked with a non-string payload".to_string()
    };
    ExecError::WorkerPanic { detail }
}

#[derive(Debug)]
struct CtxInner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
    budget: Option<Duration>,
    spill_budget_bytes: Option<u64>,
    spilled_bytes: AtomicU64,
}

/// Per-query execution context: cancellation token, optional deadline,
/// optional spill budget.  Clones share state (the handle is an `Arc`),
/// so a server can keep one clone to cancel a query while worker threads
/// poll another.
///
/// A context with no deadline and no budget never trips on its own — it
/// only fails a query if [`QueryCtx::cancel`] is called — so threading
/// one through an executor is behaviour-preserving for untimed queries.
#[derive(Clone, Debug)]
pub struct QueryCtx {
    inner: Arc<CtxInner>,
}

impl Default for QueryCtx {
    fn default() -> Self {
        QueryCtx::new()
    }
}

impl QueryCtx {
    /// A context with no deadline and no spill budget (cancellable
    /// only).
    pub fn new() -> Self {
        QueryCtx::build(None, None)
    }

    /// A context that trips [`ExecError::DeadlineExceeded`] once
    /// `timeout` has elapsed from now.
    pub fn with_timeout(timeout: Duration) -> Self {
        QueryCtx::build(Some(timeout), None)
    }

    /// Full constructor: optional time budget (measured from now) and
    /// optional spill budget in bytes.
    pub fn build(timeout: Option<Duration>, spill_budget_bytes: Option<u64>) -> Self {
        let now = Instant::now();
        QueryCtx {
            inner: Arc::new(CtxInner {
                cancelled: AtomicBool::new(false),
                deadline: timeout.map(|t| now + t),
                budget: timeout,
                spill_budget_bytes,
                spilled_bytes: AtomicU64::new(0),
            }),
        }
    }

    /// Request cooperative cancellation.  Running operators observe it
    /// at their next check and fail the query with
    /// [`ExecError::Cancelled`].
    pub fn cancel(&self) {
        // ovc-lint: allow(relaxed-ordering-audit) -- monotonic one-way flag; observers only need eventual visibility, no data is published under it
        self.inner.cancelled.store(true, Ordering::Relaxed);
    }

    /// Check cancellation and deadline.  One relaxed atomic load on the
    /// happy path; the clock is only consulted when a deadline exists.
    pub fn check(&self) -> Result<(), ExecError> {
        // ovc-lint: allow(relaxed-ordering-audit) -- monotonic flag read on the per-batch hot path; staleness delays the typed error by one check
        if self.inner.cancelled.load(Ordering::Relaxed) {
            return Err(ExecError::Cancelled);
        }
        if let Some(deadline) = self.inner.deadline {
            if Instant::now() >= deadline {
                return Err(ExecError::DeadlineExceeded {
                    budget: self.inner.budget.unwrap_or_default(),
                });
            }
        }
        Ok(())
    }

    /// Charge `bytes` of spill volume against the budget (if one is
    /// configured).  Returns [`ExecError::SpillBudgetExceeded`] once the
    /// running total crosses the budget.
    pub fn charge_spill(&self, bytes: u64) -> Result<(), ExecError> {
        let total = self
            .inner
            .spilled_bytes
            // ovc-lint: allow(relaxed-ordering-audit) -- monotonic byte counter; the budget check reads the fetch_add return value, which is exact
            .fetch_add(bytes, Ordering::Relaxed)
            .saturating_add(bytes);
        if let Some(budget) = self.inner.spill_budget_bytes {
            if total > budget {
                return Err(ExecError::SpillBudgetExceeded {
                    budget_bytes: budget,
                    attempted_bytes: total,
                });
            }
        }
        Ok(())
    }

    /// Total bytes charged so far via [`QueryCtx::charge_spill`].
    pub fn spilled_bytes(&self) -> u64 {
        // ovc-lint: allow(relaxed-ordering-audit) -- monotonic counter read for reporting, same contract as the stats counters
        self.inner.spilled_bytes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_ctx_never_trips() {
        let ctx = QueryCtx::new();
        assert!(ctx.check().is_ok());
        assert!(ctx.charge_spill(u64::MAX / 2).is_ok());
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let ctx = QueryCtx::new();
        let other = ctx.clone();
        other.cancel();
        assert_eq!(ctx.check(), Err(ExecError::Cancelled));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let ctx = QueryCtx::with_timeout(Duration::ZERO);
        match ctx.check() {
            Err(ExecError::DeadlineExceeded { budget }) => assert_eq!(budget, Duration::ZERO),
            other => panic!("expected deadline error, got {other:?}"),
        }
    }

    #[test]
    fn spill_budget_trips_on_crossing() {
        let ctx = QueryCtx::build(None, Some(100));
        assert!(ctx.charge_spill(60).is_ok());
        let err = ctx.charge_spill(60).unwrap_err();
        assert_eq!(err.reason(), "spill_budget");
        assert_eq!(ctx.spilled_bytes(), 120);
    }

    #[test]
    fn contain_maps_plain_panics_to_worker_panic() {
        let plain = contain(|| panic!("boom {}", 7));
        match plain {
            Err(ExecError::WorkerPanic { detail }) => assert_eq!(detail, "boom 7"),
            other => panic!("expected worker panic, got {other:?}"),
        }
        assert_eq!(contain(|| 42), Ok(42));
    }

    #[test]
    fn join_all_joins_every_worker_and_keeps_the_first_failure() {
        let (done, failure) = std::thread::scope(|scope| {
            let handles = vec![
                scope.spawn(|| Ok(1)),
                scope.spawn(|| Err(ExecError::Cancelled)),
                scope.spawn(|| panic!("late")),
                scope.spawn(|| Ok(4)),
            ];
            join_all(handles)
        });
        assert_eq!(done, [1, 4]);
        assert_eq!(failure, Some(ExecError::Cancelled));
    }
}
