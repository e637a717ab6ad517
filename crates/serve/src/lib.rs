//! # Insum-serve — async multi-tenant einsum serving
//!
//! Real deployments of sparse GPU kernels (sparse DL inference in the
//! style of Gale et al., *Sparse GPU Kernels for Deep Learning*) are
//! driven by many concurrent requests, not single launches. This crate
//! puts an asynchronous, multi-tenant serving engine in front of the
//! Insum compile/run stack:
//!
//! * **Sessions** ([`ServeEngine::session`]) submit requests as plain
//!   `(expression, tensors)` pairs and get back awaitable
//!   [`ResponseHandle`]s ([`Session::submit`] returns at admission; the
//!   handle implements [`std::future::Future`] and also offers blocking
//!   [`ResponseHandle::wait`]).
//! * **A bounded admission queue** applies backpressure (see below).
//! * **A batching scheduler** groups launch-compatible pending requests
//!   and executes each group as one batched launch
//!   ([`insum::Compiled::run_batch_mode`], which batches step by step),
//!   so the simulator's host threads are shared by the batch instead of
//!   being scheduled per request
//!   ([`insum_gpu::Program::launch_batch_with`]). Every request resolves
//!   to the one artifact type, so compatibility is one rule: the same
//!   shared artifact and the same mode. The registry key behind the
//!   artifact fixes every step's kernel, grid and argument metadata.
//! * **A compiled-artifact registry** shares `Arc<`[`insum::Compiled`]`>`
//!   handles — pairwise statements and planned chains alike — across
//!   tenants with single-flight compilation, layered on the process-wide
//!   [`insum_inductor::ProgramCache`] — concurrent tenants never re-lower
//!   (or re-autotune) the same program.
//! * **Per-tenant and per-kernel metrics** ([`ServeEngine::metrics`]):
//!   queue depths, registry/program-cache hits, batch sizes, simulated
//!   instance counts, and log-bucketed latency histograms (queue wait,
//!   compile, end-to-end, cost units) with p50/p95/p99 quantiles.
//! * **Request tracing and exposition**
//!   ([`Response::trace`], [`ServeEngine::traces`],
//!   [`MetricsSnapshot::render_prometheus`]): every request carries a
//!   timestamped span of its phase transitions on the engine clock, the
//!   last N spans live in a flight recorder with a dedicated failures
//!   ring ([`ServeEngine::dump_failed_traces`]), and the whole metrics
//!   snapshot renders as Prometheus text or JSON — optionally dumped
//!   atomically on a cadence ([`ServeConfig::with_telemetry_dump`]).
//!
//! ## Determinism guarantee
//!
//! **Batching never changes bits.** For every admitted request the
//! response's output tensor and [`insum::Profile`] are bit-identical to
//! a synchronous one-shot `insum_with(expr, &tensors, &options)?.run(&tensors)`
//! of that same request, regardless of arrival order, queue state, batch
//! composition, or the engine's thread budget. This holds because (a)
//! compilation is deterministic, so the registry's shared artifact is
//! the one the request would have compiled itself; (b) a batched launch
//! executes each request with exactly the per-request interpreter
//! semantics — requests own their tensors, so request-level parallelism
//! needs no merge — and (c) the simulator's intra-request sharding is
//! itself bit-deterministic at every thread count (PR 1's write-log
//! replay). The engine only decides *when* work runs, never *what* it
//! computes.
//!
//! ## Request lifecycle
//!
//! The scheduler is a deterministic state machine: a pure core that
//! steps on events (`Submit`, `Cancel`, `Clock`, `Pause`, `Close`,
//! `Resolved`, `Launched`, `Persisted`) at an engine-clock time and
//! answers with actions (`Resolve`, `Launch`, `Respond` — complete one
//! request — `Park` until a time or a wake-up, `Persist` a snapshot or
//! dump, `Exit`), and a thin shell that locks, parks, reads the clock,
//! compiles and launches. Every admitted request moves through the
//! core's lifecycle, and every path out of it resolves the client's
//! [`ResponseHandle`]:
//!
//! ```text
//!              Submit
//!                 │
//!                 ▼
//!  ┌─────────► queued ──────────────┬────────────► cancelled
//!  │              │                 │              (Cancel; frees the slot)
//!  │   Clock: drained in a window   │
//!  │              ▼                 │
//!  │          scheduled ────────────┼────────────► expired
//!  │         │    │     │          deadline        (ServeError::DeadlineExceeded:
//!  │  breaker│    │     │budget     elapses         even while paused, and
//!  │    open │    │     │exhausted                 again at launch)
//!  │         ▼    │     ▼
//!  │  quarantined │   budget-rejected (also re-gated at launch)
//!  │              ▼
//!  │   Resolve → Resolved → Launch ───────────────► Respond (Ok / deterministic Err)
//!  │              │
//!  │     Launched with a transient failure (contained panic, injected fault)
//!  │              │
//!  │   attempt < max_retries and not cancelled?
//!  └──── yes: retrying ──── no: failed (ServeError::Engine)
//!        (exponential backoff:
//!         retry_backoff × 2^(attempt−1), capped)
//! ```
//!
//! Deadlines ([`SubmitOptions::with_deadline`]) are relative to
//! admission and checked when a request is drained and again when its
//! batch launches, so a timed-out request never occupies a batch slot
//! and is never charged. Cancellation
//! ([`ResponseHandle::cancel`]) removes queued requests immediately and
//! marks in-flight ones abandoned (the engine discards their results).
//! Retries re-enter the same scheduling path and **never change bits**:
//! a response that eventually succeeds is byte-for-byte the one the
//! first attempt would have produced ([`Response::attempts`] records
//! how many tries it took). All timing runs on an injectable [`Clock`]
//! — production uses the monotonic [`SystemClock`], tests drive a
//! [`TestClock`] so deadline/backoff/breaker behavior is deterministic.
//!
//! ## Trace spans
//!
//! With telemetry enabled (the default), every request records the same
//! state machine as a [`Trace`] — timestamped [`Phase`] events on the
//! engine clock, one event per transition the request actually took:
//!
//! ```text
//!  admitted ─► scheduled ─► registry_wait ─► batched ─► respond
//!     │            │          (info: hit?)  (info: size)  (info: attempts)
//!     │            ├──► expired / quarantined / budget_rejected
//!     │            ├──► retry (info: attempt) ─► scheduled ─► …
//!     │            └──► failed (info: attempts)
//!     └──► cancelled             (terminal phases end the span)
//! ```
//!
//! Aggregated compile / autotune / launch timings from the profiling
//! hook ([`insum_telemetry::hook`]) fold into the span as
//! [`PhaseCost`]s. A completed request's span rides back on
//! [`Response::trace`]; every terminal span also lands in the engine's
//! flight recorder ([`ServeEngine::traces`]), where failures go to a
//! dedicated ring that success floods cannot evict
//! ([`ServeEngine::failed_traces`], [`ServeEngine::dump_failed_traces`]).
//! Under a [`TestClock`] every timestamp is virtual, so spans are
//! bit-deterministic and assertable in tests.
//!
//! ## Budget model and fairness
//!
//! The simulator's per-launch counters are bit-deterministic, so cost
//! accounting can be exact: every completed request is charged
//! [`insum::Profile::total_cost_units`] (instructions + weighted DRAM
//! sectors + atomics) against its tenant's [`CostBudget`] — a token
//! bucket of `capacity` units refilling at `refill_per_second`
//! ([`ServeConfig::with_budget`], [`ServeConfig::with_default_budget`]).
//! A tenant whose balance goes negative is *deprioritized* (scheduled
//! after every in-budget tenant); overdrawn past a full `capacity`, its
//! requests are rejected with [`ServeError::BudgetExhausted`] until the
//! refill catches up. When the scheduler assembles launch-compatible
//! batches it orders requests by deficit-weighted fairness — in-budget
//! first, then higher [`SubmitOptions::with_priority`], then least
//! lifetime cost consumed — so no tenant starves behind a greedy one.
//! Ordering only changes *when* work runs, never what it computes, so
//! the determinism guarantee is untouched. A per-tenant circuit breaker
//! ([`ServeConfig::with_breaker`]) quarantines tenants whose requests
//! repeatedly panic or expire ([`ServeError::Quarantined`]), with a
//! half-open probe after the cooldown to recover.
//!
//! ## Fault isolation
//!
//! Failures are contained per request. A request that fails inside a
//! batched launch is re-run alone so it cannot fail its batch-mates; a
//! request that *panics* the simulator is caught at the execution
//! boundary and — once its retries are exhausted — completed with
//! [`ServeError::Engine`] while the scheduler thread keeps running; and
//! every engine lock recovers from poisoning, so one bad request can
//! never take down unrelated tenants' `submit`/`metrics`/`shutdown`
//! calls.
//!
//! ## Zero-copy request path
//!
//! `Tensor` storage is Arc-backed copy-on-write, so admission
//! (`Session::submit` captures the tensor map), scheduling, and launch
//! binding all share the caller's buffers — an admitted request holds
//! references, not copies, and only its written output materializes.
//! The scheduler exploits this with a [`insum_tensor::Tensor::ptr_eq`]
//! first pass: fan-out requests binding pointer-identical tensors prove
//! launch compatibility without metadata extraction. The CI smoke
//! (`servebench --smoke`) asserts the warm shared-argument batched path
//! performs zero deep tensor copies in analytic mode.
//!
//! ## Backpressure model
//!
//! Admission is bounded by [`ServeConfig::queue_capacity`], counting
//! requests that are admitted but not yet picked up by the scheduler.
//! At capacity, [`AdmissionPolicy::Block`] (default) parks the
//! submitting thread until the scheduler drains the queue — pushing the
//! slowdown into producers — while [`AdmissionPolicy::Reject`] fails
//! fast with [`ServeError::Saturated`] so callers can shed load.
//! Shutdown closes admission immediately (blocked submitters observe
//! [`ServeError::Closed`]) but still serves everything already
//! admitted.
//!
//! ## Example
//!
//! ```
//! use insum_serve::{block_on, ServeConfig, ServeEngine};
//! use insum_tensor::Tensor;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), insum_serve::ServeError> {
//! let engine = ServeEngine::new(ServeConfig::default())?;
//! let session = engine.session("tenant-a");
//!
//! let mut tensors = BTreeMap::new();
//! tensors.insert("C".into(), Tensor::zeros(vec![4, 32]));
//! tensors.insert("AM".into(), Tensor::from_indices(vec![3], vec![0, 2, 3]).unwrap());
//! tensors.insert("AK".into(), Tensor::from_indices(vec![3], vec![1, 0, 7]).unwrap());
//! tensors.insert("AV".into(), Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap());
//! tensors.insert("B".into(), Tensor::ones(vec![8, 32]));
//!
//! let handle = session.submit("C[AM[p],n] += AV[p] * B[AK[p],n]", &tensors)?;
//! let response = block_on(handle)?; // or handle.wait()
//! assert_eq!(response.output.at(&[2, 0]), 2.0);
//! assert_eq!(response.profile.launches(), 1);
//! # Ok(())
//! # }
//! ```

mod clock;
mod config;
mod engine;
mod error;
#[cfg(feature = "fault-injection")]
#[doc(hidden)]
pub mod faults;
mod lifecycle;
mod metrics;
mod registry;
mod scheduler;
mod session;

pub use clock::{Clock, SystemClock, TestClock};
pub use config::{AdmissionPolicy, CostBudget, ServeConfig, SubmitOptions};
pub use engine::ServeEngine;
pub use error::ServeError;
pub use metrics::{KernelMetrics, MetricsSnapshot, RegistryStats, TenantMetrics};
pub use session::{RequestId, Response, ResponseHandle, Session};

// Telemetry vocabulary re-exported so dependents can consume
// [`Response::trace`] and [`ServeEngine::traces`] without naming the
// telemetry crate.
pub use insum_telemetry::{
    Histogram, Phase, PhaseCost, RecordedTrace, Trace, TraceEvent, TraceOutcome,
};

use std::future::Future;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};

struct ThreadWaker(std::thread::Thread);

impl std::task::Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }
}

/// Drive a future to completion on the calling thread — a minimal,
/// dependency-free executor for awaiting [`ResponseHandle`]s outside an
/// async runtime.
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}
