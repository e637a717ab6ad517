//! Tenant session handles and awaitable responses.

use crate::config::SubmitOptions;
use crate::engine::{self, relock, rewait, Shared};
use crate::error::ServeError;
use crate::scheduler::Event;
use insum::{Profile, Tensor};
use std::collections::BTreeMap;
use std::fmt;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::task::{Context, Poll, Waker};

/// Identifier of an admitted request (unique per engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

/// A completed request: the output tensor and execution profile are
/// bit-identical to a serial [`insum::Compiled::run`] of the same
/// request, regardless of how the engine queued or batched it.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request this response answers.
    pub id: RequestId,
    /// The submitting tenant.
    pub tenant: String,
    /// The output tensor (the unmodified output binding for analytic
    /// requests).
    pub output: Tensor,
    /// Simulated launch reports.
    pub profile: Profile,
    /// Wall-clock the request waited from admission to execution start,
    /// seconds (includes any artifact compilation it had to wait on).
    pub queue_seconds: f64,
    /// Size of the batched launch this request executed in (1 when it
    /// ran alone).
    pub batch_size: usize,
    /// Whether the compiled artifact was served from the registry.
    pub registry_hit: bool,
    /// Execution attempts this response took (`1` when the first attempt
    /// succeeded; retries after transient failures increment it).
    /// Retries never change bits: the output and profile are identical
    /// no matter which attempt finally succeeded.
    pub attempts: u32,
    /// The request's full span: timestamped phase transitions (admitted
    /// → scheduled → batched → registry/compile → respond, plus any
    /// retries) on the engine clock, with aggregated
    /// compile/autotune/launch hook timings. `None` when the engine was
    /// built with [`crate::ServeConfig::with_telemetry`] disabled.
    /// Deterministic under a [`crate::TestClock`].
    pub trace: Option<insum_telemetry::Trace>,
}

#[derive(Default)]
struct TicketState {
    result: Option<Result<Response, ServeError>>,
    waker: Option<Waker>,
}

/// Completion cell shared between the engine and one [`ResponseHandle`].
#[derive(Default)]
pub(crate) struct TicketInner {
    state: Mutex<TicketState>,
    done: Condvar,
    /// First-wins completion latch, independent of whether a waiter has
    /// already taken the result (so a late safety-net completion — see
    /// `Pending`'s `Drop` — can never overwrite a delivered response).
    completed: AtomicBool,
}

impl TicketInner {
    /// True once a completion has been latched (cheap; used by the
    /// `Pending` drop safety net to skip building an error that would
    /// only be discarded).
    pub(crate) fn is_complete(&self) -> bool {
        self.completed.load(Ordering::Acquire)
    }

    /// Latch `result` into the ticket. Returns `true` when this call won
    /// the first-wins race (so callers can count the outcome exactly
    /// once — e.g. cancellation racing normal completion).
    pub(crate) fn complete(&self, result: Result<Response, ServeError>) -> bool {
        if self.completed.swap(true, Ordering::AcqRel) {
            return false;
        }
        let mut state = relock(&self.state);
        state.result = Some(result);
        let waker = state.waker.take();
        drop(state);
        self.done.notify_all();
        if let Some(w) = waker {
            w.wake();
        }
        true
    }
}

/// An in-flight request. Await it (it implements [`Future`]; see
/// [`crate::block_on`] for a dependency-free executor) or block with
/// [`ResponseHandle::wait`].
pub struct ResponseHandle {
    pub(crate) id: RequestId,
    pub(crate) tenant: Arc<str>,
    pub(crate) ticket: Arc<TicketInner>,
    /// Weak so an abandoned handle never keeps a shut-down engine alive.
    pub(crate) shared: Weak<Shared>,
}

impl fmt::Debug for ResponseHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ResponseHandle")
            .field("id", &self.id)
            .finish()
    }
}

impl ResponseHandle {
    /// The admitted request's identifier.
    pub fn id(&self) -> RequestId {
        self.id
    }

    /// Block the calling thread until the response is ready.
    ///
    /// # Errors
    ///
    /// Whatever error the engine completed the request with
    /// (compilation, execution, or shutdown).
    pub fn wait(self) -> Result<Response, ServeError> {
        let mut state = relock(&self.ticket.state);
        loop {
            if let Some(result) = state.result.take() {
                return result;
            }
            state = rewait(&self.ticket.done, state);
        }
    }

    /// Non-blocking poll: `Some` once the response is ready (taking it),
    /// `None` while the request is still in flight.
    pub fn try_take(&self) -> Option<Result<Response, ServeError>> {
        relock(&self.ticket.state).result.take()
    }

    /// Cancel the request: the handle resolves with
    /// [`ServeError::Cancelled`] and, if the request was still queued,
    /// its slot is freed immediately (unblocking a waiting submitter).
    /// A request already mid-execution is marked abandoned — the
    /// scheduler discards its result instead of delivering it — but its
    /// in-flight launch is not interrupted.
    ///
    /// Returns `true` if this call cancelled the request, `false` if it
    /// had already completed (the existing result stands).
    pub fn cancel(&self) -> bool {
        let Some(shared) = self.shared.upgrade() else {
            return self.ticket.complete(Err(ServeError::Cancelled));
        };
        // Complete under the core lock, where every other completion of
        // an admitted request happens, so the core's first-wins check
        // (`is_complete`) is exact.
        let mut core = relock(&shared.core);
        if !self.ticket.complete(Err(ServeError::Cancelled)) {
            return false;
        }
        let tenant = Arc::clone(&self.tenant);
        shared.step(
            &mut core,
            Event::Cancel {
                id: self.id.0,
                tenant,
            },
        );
        true
    }
}

impl Future for ResponseHandle {
    type Output = Result<Response, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = relock(&self.ticket.state);
        if let Some(result) = state.result.take() {
            Poll::Ready(result)
        } else {
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }
}

/// A tenant's handle onto the engine. Sessions are cheap to clone and
/// may submit from any thread; the tenant name namespaces the engine's
/// per-tenant metrics.
#[derive(Clone)]
pub struct Session {
    pub(crate) tenant: Arc<str>,
    pub(crate) shared: Arc<Shared>,
}

impl Session {
    /// The tenant this session submits as.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Submit an indirect-Einsum request with the engine's default
    /// options in [`insum::Mode::Execute`]. Returns as soon as the
    /// request is admitted; the returned handle resolves when the
    /// scheduler has executed it.
    ///
    /// # Errors
    ///
    /// * [`ServeError::Saturated`] under the reject admission policy
    ///   when the queue is full (the blocking policy waits instead).
    /// * [`ServeError::Closed`] if the engine is shut down.
    /// * [`ServeError::Config`] for invalid per-request options.
    pub fn submit(
        &self,
        expression: &str,
        tensors: &BTreeMap<String, Tensor>,
    ) -> Result<ResponseHandle, ServeError> {
        self.submit_with(expression, tensors, &SubmitOptions::default())
    }

    /// [`Session::submit`] with per-request overrides.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::submit`].
    pub fn submit_with(
        &self,
        expression: &str,
        tensors: &BTreeMap<String, Tensor>,
        options: &SubmitOptions,
    ) -> Result<ResponseHandle, ServeError> {
        engine::submit(self, expression, tensors, options)
    }
}
