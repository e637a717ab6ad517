//! The serving engine: admission, lifecycle, and observability.

use crate::clock::{Clock, SystemClock};
use crate::config::{AdmissionPolicy, ServeConfig, SubmitOptions};
use crate::error::ServeError;
use crate::metrics::{MetricsInner, MetricsSnapshot};
use crate::registry::ArtifactRegistry;
use crate::scheduler;
use crate::session::{RequestId, ResponseHandle, Session, TicketInner};
use insum::{InsumOptions, Mode, Tensor};
use insum_inductor::ProgramCache;
use insum_telemetry::{FlightRecorder, Phase, RecordedTrace, Trace, TraceOutcome};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Acquire a lock, recovering the guard if a previous holder panicked.
///
/// Every engine panic site is isolated (`scheduler::execute_batch`
/// catches unwinds at the execution boundary), and the guarded state —
/// queues and counters — is kept consistent at every point a panic can
/// unwind through, so a poisoned guard is safe to reuse. Recovering here
/// means one panicking request can never take down unrelated tenants via
/// cascading `PoisonError` panics in `submit`/`metrics`/`shutdown`.
pub(crate) fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`relock`].
pub(crate) fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout`] with the same poison recovery as
/// [`relock`] (the timeout flag is dropped: callers re-check their
/// predicates either way).
pub(crate) fn rewait_timeout<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    dur: Duration,
) -> MutexGuard<'a, T> {
    cv.wait_timeout(guard, dur)
        .map(|(g, _)| g)
        .unwrap_or_else(|e| e.into_inner().0)
}

/// One admitted, not-yet-executed request.
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) tenant: Arc<str>,
    pub(crate) expr: String,
    pub(crate) tensors: BTreeMap<String, Tensor>,
    pub(crate) options: InsumOptions,
    pub(crate) mode: Mode,
    /// Admission stamp on the engine clock.
    pub(crate) submitted_at: Duration,
    /// Absolute expiry on the engine clock (admission + the relative
    /// deadline from [`SubmitOptions::deadline`]); `None` never expires.
    pub(crate) deadline: Option<Duration>,
    pub(crate) max_retries: u32,
    pub(crate) priority: i32,
    /// Zero-based attempt counter; incremented each time a transient
    /// failure requeues the request.
    pub(crate) attempt: u32,
    /// Backoff gate: the scheduler leaves the request queued until this
    /// clock stamp (ignored when the engine is draining for shutdown).
    pub(crate) not_before: Option<Duration>,
    pub(crate) ticket: Arc<TicketInner>,
    /// The request's span (empty when telemetry is disabled). Owned by
    /// whoever owns the `Pending`; finalized exactly once at the
    /// terminal decision by [`finalize_terminal`].
    pub(crate) trace: Trace,
}

/// Safety net for the ticket contract: every admitted request's handle
/// must resolve. If a `Pending` is ever dropped without its ticket
/// having been completed — e.g. an unforeseen panic unwinding through
/// the scheduler's drained window into the last-resort catch — the
/// waiter gets an [`ServeError::Engine`] instead of blocking forever.
/// (`TicketInner::complete` is first-wins, so the normal completion
/// paths are unaffected.)
impl Drop for Pending {
    fn drop(&mut self) {
        // Normal completions take only this relaxed-cost flag check; the
        // error is built solely on the abnormal path.
        if !self.ticket.is_complete() {
            self.ticket.complete(Err(ServeError::Engine(
                "request dropped by the engine without a response (internal \
                 panic while it was in flight)"
                    .to_string(),
            )));
        }
    }
}

pub(crate) struct QueueState {
    pub(crate) queue: VecDeque<Pending>,
    pub(crate) closed: bool,
    pub(crate) paused: bool,
}

/// State shared between sessions, the engine handle, and the scheduler
/// thread.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) state: Mutex<QueueState>,
    pub(crate) not_empty: Condvar,
    pub(crate) not_full: Condvar,
    pub(crate) registry: ArtifactRegistry,
    pub(crate) metrics: Mutex<MetricsInner>,
    pub(crate) recorder: FlightRecorder,
    next_id: AtomicU64,
}

/// The async multi-tenant serving engine. See the crate docs for the
/// execution model, the determinism guarantee, and the backpressure
/// contract.
pub struct ServeEngine {
    shared: Arc<Shared>,
    worker: Option<JoinHandle<()>>,
}

impl ServeEngine {
    /// Start an engine (spawns the scheduler thread).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid configuration.
    pub fn new(config: ServeConfig) -> Result<ServeEngine, ServeError> {
        ServeEngine::with_clock(config, Arc::new(SystemClock::new()))
    }

    /// Start an engine on an explicit [`Clock`] (deterministic tests
    /// inject a [`crate::TestClock`]; production uses
    /// [`ServeEngine::new`]).
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for an invalid configuration.
    pub fn with_clock(
        config: ServeConfig,
        clock: Arc<dyn Clock>,
    ) -> Result<ServeEngine, ServeError> {
        config.validate()?;
        // Warm start: seed the process-wide program cache (and autotune
        // winners) from the configured snapshot before the scheduler can
        // see its first request. Infallible by design — a missing,
        // truncated, or corrupt snapshot degrades to a cold start, with
        // the damage visible in `snapshot_rejected`.
        if let Some(path) = &config.snapshot_path {
            ProgramCache::global().load_snapshot(path);
        }
        let registry = ArtifactRegistry::with_capacity(config.registry_capacity);
        let recorder = FlightRecorder::new(if config.telemetry {
            config.flight_recorder_capacity
        } else {
            0
        });
        let shared = Arc::new(Shared {
            config,
            clock,
            state: Mutex::new(QueueState {
                queue: VecDeque::new(),
                closed: false,
                paused: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            registry,
            metrics: Mutex::new(MetricsInner::default()),
            recorder,
            next_id: AtomicU64::new(0),
        });
        // Clock jumps (a TestClock advance) must re-check every timed
        // scheduler wait; weak so the subscription never keeps a dropped
        // engine alive. The scheduler reads the clock and parks under
        // `state`, so passing through that mutex first orders the wake-up
        // either before the read (which then sees the new time) or after
        // the park (which then receives it) — never in between, lost.
        let waker = Arc::downgrade(&shared);
        shared.clock.subscribe(Box::new(move || {
            if let Some(shared) = waker.upgrade() {
                drop(relock(&shared.state));
                shared.not_empty.notify_all();
            }
        }));
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("insum-serve-scheduler".to_string())
                .spawn(move || scheduler::run(&shared))
                .expect("spawn scheduler thread")
        };
        Ok(ServeEngine {
            shared,
            worker: Some(worker),
        })
    }

    /// An engine with the default configuration.
    ///
    /// # Errors
    ///
    /// Never fails in practice (the default configuration is valid);
    /// kept fallible for signature symmetry with [`ServeEngine::new`].
    pub fn with_defaults() -> Result<ServeEngine, ServeError> {
        ServeEngine::new(ServeConfig::default())
    }

    /// Open a session for `tenant` (sessions namespace the per-tenant
    /// metrics; any number may exist concurrently).
    pub fn session(&self, tenant: &str) -> Session {
        Session {
            tenant: Arc::from(tenant),
            shared: Arc::clone(&self.shared),
        }
    }

    /// Stop scheduling new batches; admitted requests stay queued (and
    /// admission keeps filling the queue up to capacity, exercising the
    /// backpressure path). Used for drain control and deterministic
    /// tests.
    pub fn pause(&self) {
        relock(&self.shared.state).paused = true;
        self.shared.not_empty.notify_all();
    }

    /// Resume scheduling after [`ServeEngine::pause`].
    pub fn resume(&self) {
        relock(&self.shared.state).paused = false;
        self.shared.not_empty.notify_all();
    }

    /// A point-in-time snapshot of the engine's counters (queue depths
    /// are read live; the program-cache section reflects the
    /// process-wide [`ProgramCache::global`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot_of(&self.shared)
    }

    /// The flight recorder's recent terminal request spans, oldest
    /// first. Empty when telemetry is disabled.
    pub fn traces(&self) -> Vec<RecordedTrace> {
        self.shared.recorder.recent()
    }

    /// The flight recorder's failure ring: spans of requests that
    /// failed, expired, were cancelled, or were rejected — kept
    /// separately so success floods cannot evict them. Oldest first.
    pub fn failed_traces(&self) -> Vec<RecordedTrace> {
        self.shared.recorder.failures()
    }

    /// Render every failure span as an ASCII report (dump-on-failure).
    pub fn dump_failed_traces(&self) -> String {
        self.shared.recorder.dump_failures()
    }

    /// Shut down: admission closes immediately (blocked submitters fail
    /// with [`ServeError::Closed`]), already-admitted requests are still
    /// served, and the scheduler thread is joined. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        {
            relock(&self.shared.state).closed = true;
        }
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        if let Some(worker) = self.worker.take() {
            // The scheduler contains panics at the execution boundary; if
            // one still escapes, a panicking join inside Drop would abort
            // the process — swallow it and finish the shutdown.
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Build a point-in-time [`MetricsSnapshot`] from the shared engine
/// state. Factored out of [`ServeEngine::metrics`] so the scheduler's
/// telemetry-dump path renders the identical view.
pub(crate) fn snapshot_of(shared: &Shared) -> MetricsSnapshot {
    // Lock order state → metrics, matching admission: every queued
    // request's submission (and tenant entry) is visible in the
    // counters, so a snapshot never shows completed > submitted or
    // misses a queued tenant's depth.
    let state = relock(&shared.state);
    let inner = relock(&shared.metrics);
    let program_cache = ProgramCache::global().stats();
    let mut snap = MetricsSnapshot {
        submitted: inner.submitted,
        completed: inner.completed,
        failed: inner.failed,
        rejected: inner.rejected,
        retries: inner.retries,
        deadline_expired: inner.deadline_expired,
        cancelled: inner.cancelled,
        budget_rejected: inner.budget_rejected,
        quarantined: inner.quarantined,
        queue_depth: state.queue.len(),
        queue_depth_max: inner.queue_depth_max,
        batches: inner.batches,
        batched_requests: inner.batched_requests,
        largest_batch: inner.largest_batch,
        registry: shared.registry.stats(),
        snapshot_writes: inner.snapshot_writes,
        telemetry_dumps: inner.telemetry_dumps,
        warm_start_hits: program_cache.warm_hits,
        snapshot_rejected: program_cache.snapshot_rejected,
        program_cache,
        tenants: inner.tenants.clone(),
        kernels: inner.kernels.clone(),
    };
    drop(inner);
    for t in snap.tenants.values_mut() {
        t.queue_depth = 0;
    }
    for p in &state.queue {
        if let Some(t) = snap.tenants.get_mut(p.tenant.as_ref()) {
            t.queue_depth += 1;
        }
    }
    snap
}

/// Finalize a terminal request exactly once: record its queue wait into
/// the tenant's latency histogram and, when telemetry is on, stamp the
/// terminal phase onto its trace and hand the span to the flight
/// recorder.
///
/// The caller owns the `Pending` (it is about to be dropped) and holds
/// the metrics lock. Exactly one call happens per admitted request —
/// whoever removes the request from engine ownership makes it: the
/// cancel path for queue removals, the scheduler for everything it
/// drained. `wait` is the queue wait to record (admission → terminal
/// decision, or admission → execution start for executed requests);
/// `at` timestamps the terminal trace event on the engine clock.
///
/// Returns the finalized span for `Completed` outcomes (so the caller
/// can attach it to the [`crate::Response`]); `None` otherwise or when
/// telemetry is disabled.
pub(crate) fn finalize_terminal(
    shared: &Shared,
    pending: &mut Pending,
    outcome: TraceOutcome,
    metrics: &mut MetricsInner,
    wait: Duration,
    at: Duration,
) -> Option<Trace> {
    metrics
        .tenant(&pending.tenant)
        .queue_wait
        .record_duration(wait);
    if !shared.config.telemetry {
        return None;
    }
    let (phase, info) = match &outcome {
        TraceOutcome::Completed => (Phase::Respond, u64::from(pending.attempt) + 1),
        TraceOutcome::Failed(_) => (Phase::Failed, u64::from(pending.attempt) + 1),
        TraceOutcome::Cancelled => (Phase::Cancelled, 0),
        TraceOutcome::Expired => (Phase::Expired, 0),
        TraceOutcome::BudgetRejected => (Phase::BudgetRejected, 0),
        TraceOutcome::Quarantined => (Phase::Quarantined, 0),
    };
    pending.trace.push(phase, at, info);
    let trace = std::mem::take(&mut pending.trace);
    if matches!(outcome, TraceOutcome::Completed) {
        shared.recorder.record(trace.clone(), outcome);
        Some(trace)
    } else {
        shared.recorder.record(trace, outcome);
        None
    }
}

/// Admission: validate, apply backpressure, enqueue, hand out a ticket.
pub(crate) fn submit(
    session: &Session,
    expression: &str,
    tensors: &BTreeMap<String, Tensor>,
    submit_options: &SubmitOptions,
) -> Result<ResponseHandle, ServeError> {
    let shared = &session.shared;
    let options = submit_options
        .options
        .clone()
        .unwrap_or_else(|| shared.config.options.clone());
    options.validate()?;
    let mode = submit_options.mode.unwrap_or(Mode::Execute);

    let mut state = relock(&shared.state);
    loop {
        if state.closed {
            drop(state);
            note_rejection(shared, &session.tenant);
            return Err(ServeError::Closed);
        }
        if state.queue.len() < shared.config.queue_capacity {
            break;
        }
        match shared.config.admission {
            AdmissionPolicy::Reject => {
                drop(state);
                note_rejection(shared, &session.tenant);
                return Err(ServeError::Saturated {
                    capacity: shared.config.queue_capacity,
                });
            }
            AdmissionPolicy::Block => {
                state = rewait(&shared.not_full, state);
            }
        }
    }

    let id = shared.next_id.fetch_add(1, Ordering::Relaxed);
    let ticket = Arc::new(TicketInner::default());
    let now = shared.clock.now();
    let trace = if shared.config.telemetry {
        let mut t = Trace::new(id, &session.tenant);
        t.push(Phase::Admitted, now, 0);
        t
    } else {
        Trace::default()
    };
    state.queue.push_back(Pending {
        id,
        tenant: Arc::clone(&session.tenant),
        expr: expression.to_string(),
        tensors: tensors.clone(),
        options,
        mode,
        submitted_at: now,
        deadline: submit_options.deadline.map(|d| now + d),
        max_retries: submit_options.max_retries,
        priority: submit_options.priority,
        attempt: 0,
        not_before: None,
        ticket: Arc::clone(&ticket),
        trace,
    });
    let depth = state.queue.len();
    // Record the submission while still holding the queue lock (lock
    // order: state → metrics, matching [`ServeEngine::metrics`]) so a
    // snapshot can never observe a completed request before its
    // submission was counted.
    {
        let mut metrics = relock(&shared.metrics);
        metrics.submitted += 1;
        metrics.queue_depth_max = metrics.queue_depth_max.max(depth);
        metrics.tenant(&session.tenant).submitted += 1;
    }
    drop(state);
    shared.not_empty.notify_all();

    Ok(ResponseHandle {
        id: RequestId(id),
        tenant: Arc::clone(&session.tenant),
        ticket,
        shared: Arc::downgrade(shared),
    })
}

fn note_rejection(shared: &Shared, tenant: &str) {
    let mut metrics = relock(&shared.metrics);
    metrics.rejected += 1;
    metrics.tenant(tenant).rejected += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use insum_tensor::Tensor as T;

    fn tensors() -> BTreeMap<String, Tensor> {
        [
            ("C".to_string(), T::zeros(vec![8])),
            ("A".to_string(), T::ones(vec![8])),
        ]
        .into_iter()
        .collect()
    }

    /// A panic while holding the engine locks must not cascade: after a
    /// deliberate poisoning, `submit`, `metrics`, `pause`/`resume`, and
    /// `shutdown` all recover the guards and keep serving.
    #[test]
    fn poisoned_engine_locks_are_recovered() {
        let mut engine = ServeEngine::with_defaults().unwrap();
        for lock in [true, false] {
            let shared = Arc::clone(&engine.shared);
            let _ = std::thread::spawn(move || {
                if lock {
                    let _guard = shared.state.lock().unwrap();
                    panic!("deliberate state poisoning");
                } else {
                    let _guard = shared.metrics.lock().unwrap();
                    panic!("deliberate metrics poisoning");
                }
            })
            .join();
        }
        assert!(engine.shared.state.is_poisoned());
        assert!(engine.shared.metrics.is_poisoned());

        engine.pause();
        engine.resume();
        let response = engine
            .session("tenant-after-poison")
            .submit("C[i] = A[i]", &tensors())
            .expect("admission recovers the poisoned lock")
            .wait()
            .expect("execution succeeds");
        assert!(response.output.data().iter().all(|&v| v == 1.0));
        let m = engine.metrics();
        assert_eq!(m.submitted, 1);
        assert_eq!(m.completed, 1);
        engine.shutdown();
    }
}
