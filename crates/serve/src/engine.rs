//! The serving engine's shell: the one place that locks, parks, reads
//! the clock, calls the registry and launches.
//!
//! All scheduling decisions live in the pure [`Core`] (`scheduler.rs`).
//! The shell steps it under one mutex — from client threads for submit,
//! cancel, pause/resume and close, from the scheduler thread for
//! everything else — reading the engine clock for every step while the
//! lock is held. It performs `Respond` (complete a ticket) and `Wake`
//! (notify the one condvar) before releasing the lock; the scheduler
//! thread then carries out its one `Resolve`, `Launch`, `Park`,
//! `Persist` or `Exit` and reports the result as its next event.

use crate::clock::{Clock, SystemClock};
use crate::config::{ServeConfig, SubmitOptions};
use crate::error::ServeError;
use crate::metrics::MetricsSnapshot;
use crate::registry::ArtifactRegistry;
use crate::scheduler::{Action, Core, Event, Request, Resolution, Resolved};
use crate::session::{RequestId, ResponseHandle, Session, TicketInner};
use insum::{LaunchOptions, Mode, Tensor};
use insum_inductor::ProgramCache;
use insum_telemetry::hook;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Acquire a lock, recovering the guard if a previous holder panicked.
///
/// Every engine panic site is isolated (compilation and execution are
/// caught at their boundaries), and the guarded state is kept consistent
/// at every point a panic can unwind through, so a poisoned guard is
/// safe to reuse. Recovering here means one panicking request can never
/// take down unrelated tenants via cascading `PoisonError` panics in
/// `submit`/`metrics`/`shutdown`.
pub(crate) fn relock<T>(lock: &Mutex<T>) -> MutexGuard<'_, T> {
    lock.lock().unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait`] with the same poison recovery as [`relock`].
pub(crate) fn rewait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// Render a caught panic payload for [`ServeError::Engine`].
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// State shared between sessions, the engine handle, and the scheduler
/// thread.
pub(crate) struct Shared {
    pub(crate) config: ServeConfig,
    pub(crate) clock: Arc<dyn Clock>,
    pub(crate) core: Mutex<Core>,
    /// Parks the scheduler (on `Park`) and blocked submitters (on
    /// `Blocked`); notified on every `Wake`.
    wake: Condvar,
    pub(crate) registry: ArtifactRegistry,
}

impl Shared {
    /// Step the core (whose lock the caller holds) at the current clock
    /// time and perform the actions that must happen under the lock.
    /// Returns the one action left for the caller: an admission answer
    /// for a submit, the scheduler's next move for its own events.
    pub(crate) fn step(&self, core: &mut Core, event: Event) -> Option<Action> {
        let mut next = None;
        for action in core.step(event, self.clock.now()) {
            match action {
                Action::Respond(pending, result) => {
                    pending.req.ticket.complete(result);
                }
                Action::Wake => self.wake.notify_all(),
                other => next = Some(other),
            }
        }
        next
    }
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
        let shared = Arc::new(Shared {
            core: Mutex::new(Core::new(config.clone(), clock.now())),
            registry: ArtifactRegistry::with_capacity(config.registry_capacity),
            config,
            clock,
            wake: Condvar::new(),
        });
        // Clock jumps (a TestClock advance) must wake a parked scheduler,
        // whose next step then sees the new time; weak so the
        // subscription never keeps a dropped engine alive. The scheduler
        // reads the clock and parks under the core lock, so passing
        // through that lock first orders the wake-up either before the
        // read (which then sees the new time) or after the park (which
        // then receives it) — never in between, lost.
        let waker = Arc::downgrade(&shared);
        shared.clock.subscribe(Box::new(move || {
            if let Some(shared) = waker.upgrade() {
                drop(relock(&shared.core));
                shared.wake.notify_all();
            }
        }));
        let worker = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("insum-serve-scheduler".to_string())
                .spawn(move || run(&shared))
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
        self.event(Event::Pause(true));
    }

    /// Resume scheduling after [`ServeEngine::pause`].
    pub fn resume(&self) {
        self.event(Event::Pause(false));
    }

    fn event(&self, event: Event) {
        self.shared.step(&mut relock(&self.shared.core), event);
    }

    /// A point-in-time snapshot of the engine's counters (queue depths
    /// are read live; the program-cache section reflects the
    /// process-wide [`ProgramCache::global`]).
    pub fn metrics(&self) -> MetricsSnapshot {
        snapshot_of(&self.shared)
    }

    /// The flight recorder's recent terminal request spans, oldest
    /// first. Empty when telemetry is disabled.
    pub fn traces(&self) -> Vec<insum_telemetry::RecordedTrace> {
        relock(&self.shared.core).recorder.recent()
    }

    /// The flight recorder's failure ring: spans of requests that
    /// failed, expired, were cancelled, or were rejected — kept
    /// separately so success floods cannot evict them. Oldest first.
    pub fn failed_traces(&self) -> Vec<insum_telemetry::RecordedTrace> {
        relock(&self.shared.core).recorder.failures()
    }

    /// Render every failure span as an ASCII report (dump-on-failure).
    pub fn dump_failed_traces(&self) -> String {
        relock(&self.shared.core).recorder.dump_failures()
    }

    /// Shut down: admission closes immediately (blocked submitters fail
    /// with [`ServeError::Closed`]), already-admitted requests are still
    /// served, and the scheduler thread is joined. Idempotent; also runs
    /// on drop.
    pub fn shutdown(&mut self) {
        self.event(Event::Close);
        if let Some(worker) = self.worker.take() {
            // A panicking join inside Drop would abort the process —
            // swallow it and finish the shutdown.
            let _ = worker.join();
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The scheduler thread. Compilation, autotuning and launches all run
/// here, so a thread-local profiling collector sees exactly the work
/// done for the requests being processed; the engine clock is its time
/// source, so under a virtual `TestClock` every hook duration is 0 and
/// traces stay bit-deterministic.
fn run(shared: &Shared) {
    let _hook_guard = shared.config.telemetry.then(|| {
        let clock = Arc::clone(&shared.clock);
        hook::collect(Box::new(move || clock.now()))
    });
    // Last-resort containment: compilation and execution contain their
    // own panics, but if one ever escapes, the scheduler thread must
    // survive — a dead scheduler strands every queued and future request
    // of every tenant. The core resumes from wherever it stood.
    while catch_unwind(AssertUnwindSafe(|| drive(shared))).is_err() {}
}

fn drive(shared: &Shared) {
    let mut core = relock(&shared.core);
    let mut event = Event::Clock;
    loop {
        let action = shared.step(&mut core, event);
        event = match action.expect("the core names the scheduler's next move") {
            Action::Resolve(pending) => {
                drop(core);
                let req = &pending.req;
                let (result, registry_hit, compile_lowered) =
                    shared
                        .registry
                        .get_or_compile(&req.expr, &req.tensors, &req.options);
                let hooks = hook::drain();
                core = relock(&shared.core);
                Event::Resolved(Resolution {
                    pending,
                    result,
                    registry_hit,
                    compile_lowered,
                    hooks,
                })
            }
            Action::Launch(batch) => {
                drop(core);
                let event = launch(shared, batch);
                core = relock(&shared.core);
                event
            }
            Action::Park(until) => {
                core = match until.and_then(|t| shared.clock.wait_budget(t)) {
                    // A virtual clock (`None` budget) or no timed
                    // obligation: park until woken.
                    None => rewait(&shared.wake, core),
                    Some(budget) if budget.is_zero() => core,
                    Some(budget) => shared
                        .wake
                        .wait_timeout(core, budget)
                        .map_or_else(|e| e.into_inner().0, |(guard, _)| guard),
                };
                Event::Clock
            }
            Action::Persist { snapshot, dump } => {
                drop(core);
                let event = Event::Persisted {
                    snapshot: snapshot && write_snapshot(shared),
                    dump: dump && write_telemetry_dump(shared),
                };
                core = relock(&shared.core);
                event
            }
            Action::Exit => return,
            _ => unreachable!("admission and completion answer client events only"),
        };
    }
}

/// Execute one launch-compatible batch. Panics are contained at this
/// boundary: a request that panics the simulator must fail alone —
/// retrying if attempts remain — instead of killing the scheduler
/// thread. No engine lock is held across the launch.
fn launch(shared: &Shared, batch: Vec<Resolved>) -> Event {
    let artifact = Arc::clone(&batch[0].artifact);
    let mode = batch[0].pending.req.mode;
    let options = LaunchOptions {
        threads: shared.config.sim_threads,
        ..Default::default()
    };
    let inputs: Vec<&BTreeMap<String, Tensor>> =
        batch.iter().map(|r| &r.pending.req.tensors).collect();
    // A miss whose compile lowered nothing classifies here: if this
    // first launch lowers nothing either, every program was already
    // resident (snapshot-seeded) and the miss counts as warm.
    let compiles_before = batch
        .iter()
        .any(|r| r.warm_pending)
        .then(|| ProgramCache::global().stats().compiles);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        {
            use crate::faults;
            if let Some(t) = faults::panic_tenant() {
                if batch.iter().any(|r| r.pending.req.tenant.as_ref() == t) {
                    panic!("injected fault for tenant {t:?}");
                }
            }
            for r in &batch {
                if let Some(d) = faults::exec_latency(r.pending.id, r.pending.attempt) {
                    shared.clock.delay(d);
                }
            }
            if let Some(r) = batch
                .iter()
                .find(|r| faults::exec_panic(r.pending.id, r.pending.attempt))
            {
                panic!(
                    "injected chaos execution fault for request {} (attempt {})",
                    r.pending.id, r.pending.attempt
                );
            }
        }
        artifact.run_batch_mode(&inputs, mode, &options)
    }));
    drop(inputs);
    let hooks = hook::drain();
    let result = match caught {
        Err(payload) => Err(ServeError::Engine(panic_message(payload))),
        Ok(Err(e)) => Err(ServeError::from(e)),
        Ok(Ok(results)) => {
            if compiles_before.is_some_and(|c| ProgramCache::global().stats().compiles == c) {
                for _ in batch.iter().filter(|r| r.warm_pending) {
                    shared.registry.note_warm_miss();
                }
            }
            let charged = results
                .into_iter()
                .zip(&batch)
                .map(|((output, profile), _r)| {
                    #[cfg(feature = "fault-injection")]
                    let spike = crate::faults::budget_spike(_r.pending.id);
                    #[cfg(not(feature = "fault-injection"))]
                    let spike = 0u64;
                    let units = profile.total_cost_units().saturating_add(spike);
                    (output, profile, units)
                });
            Ok(charged.collect())
        }
    };
    Event::Launched {
        batch,
        result,
        hooks,
    }
}

/// Atomically write the metrics snapshot to the configured telemetry
/// dump path: Prometheus text at the path itself, JSON at a `.json`
/// sibling — both via the snapshot crate's temp + fsync + rename write.
/// Failures are absorbed: an engine that cannot dump keeps serving.
fn write_telemetry_dump(shared: &Shared) -> bool {
    let Some(path) = &shared.config.telemetry_dump_path else {
        return false;
    };
    let snap = snapshot_of(shared);
    insum_snapshot::write_atomic(path, snap.render_prometheus().as_bytes()).is_ok()
        && insum_snapshot::write_atomic(&path.with_extension("json"), snap.render_json().as_bytes())
            .is_ok()
}

/// Atomically persist the process-wide program cache and autotune
/// winners to the configured snapshot path (temp + fsync + rename).
/// Failures are absorbed — a server that cannot persist keeps serving,
/// it just restarts cold.
fn write_snapshot(shared: &Shared) -> bool {
    shared
        .config
        .snapshot_path
        .as_ref()
        .is_some_and(|path| ProgramCache::global().save_snapshot(path).is_ok())
}

/// Build a point-in-time [`MetricsSnapshot`]. Factored out of
/// [`ServeEngine::metrics`] so the telemetry dump renders the identical
/// view. One lock covers the queue and the counters, so a snapshot
/// never shows completed > submitted or misses a queued tenant's depth.
pub(crate) fn snapshot_of(shared: &Shared) -> MetricsSnapshot {
    let core = relock(&shared.core);
    let mut snap = core.metrics.clone();
    snap.queue_depth = core.queue.len();
    for p in &core.queue {
        if let Some(t) = snap.tenants.get_mut(p.req.tenant.as_ref()) {
            t.queue_depth += 1;
        }
    }
    drop(core);
    snap.registry = shared.registry.stats();
    snap.program_cache = ProgramCache::global().stats();
    snap.warm_start_hits = snap.program_cache.warm_hits;
    snap.snapshot_rejected = snap.program_cache.snapshot_rejected;
    snap
}

/// Admission: validate, then submit to the core — parking while the
/// queue is full under the blocking policy — and hand out a ticket.
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
    let ticket = Arc::new(TicketInner::default());
    let mut request = Request {
        tenant: Arc::clone(&session.tenant),
        expr: expression.to_string(),
        tensors: tensors.clone(),
        options,
        mode: submit_options.mode.unwrap_or(Mode::Execute),
        deadline: submit_options.deadline,
        max_retries: submit_options.max_retries,
        priority: submit_options.priority,
        ticket: Arc::clone(&ticket),
    };
    let mut core = relock(&shared.core);
    let id = loop {
        match shared.step(&mut core, Event::Submit(request)) {
            Some(Action::Admitted(id)) => break id,
            Some(Action::Refused(e)) => return Err(e),
            Some(Action::Blocked(r)) => {
                request = r;
                core = rewait(&shared.wake, core);
            }
            _ => unreachable!("admission answers every submit"),
        }
    };
    Ok(ResponseHandle {
        id: RequestId(id),
        tenant: Arc::clone(&session.tenant),
        ticket,
        shared: Arc::downgrade(shared),
    })
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

    /// A panic while holding the engine lock must not cascade: after a
    /// deliberate poisoning, `submit`, `metrics`, `pause`/`resume`, and
    /// `shutdown` all recover the guard and keep serving.
    #[test]
    fn poisoned_engine_locks_are_recovered() {
        let mut engine = ServeEngine::with_defaults().unwrap();
        let shared = Arc::clone(&engine.shared);
        let _ = std::thread::spawn(move || {
            let _guard = shared.core.lock().unwrap();
            panic!("deliberate core poisoning");
        })
        .join();
        assert!(engine.shared.core.is_poisoned());

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
