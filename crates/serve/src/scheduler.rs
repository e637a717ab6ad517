//! The scheduler core: a deterministic state machine.
//!
//! [`Core::step`] takes one [`Event`] and the engine-clock time it
//! happened at and returns the [`Action`]s the shell (`engine.rs`)
//! performs. The core owns the admission queue, pause and close,
//! deadlines, retry gates, the [`CostMeter`], the [`BreakerPanel`], the
//! snapshot/dump cadence stamps, the metrics and the flight recorder. It
//! never locks, parks, reads a clock, compiles or launches: the shell
//! steps it under one mutex, reads the clock for every step, and carries
//! out its `Resolve`, `Launch`, `Park`, `Persist` and `Exit` actions
//! (one per step of the scheduler thread, always the step's last action)
//! before it reports the result as the next event. Time reaches the core
//! only as a step's `now`, so a lost wake-up cannot be expressed: the
//! scheduler parks only on a `Park` its own step returned, and a client
//! event that finds it parked answers with `Wake`.
//!
//! **A window.** When the scheduler is idle the core drains every
//! *eligible* queued request (past its deadline — even while paused — or
//! runnable and past its retry gate; gates are waived once closed) and
//! gates each one at the drain time: deadline expiry, then the circuit
//! breaker, then the budget, so an expired request never counts against
//! its tenant's budget and a quarantined tenant's requests don't drain
//! its bucket. Survivors are resolved one at a time (`Resolve` →
//! `Resolved`) and grouped; the groups are ordered by deficit-weighted
//! fairness and cut into batches of at most `max_batch`. Every batch is
//! gated again when it launches — deadline and budget, since earlier
//! batches of the window charged their costs and took their time — so a
//! timed-out request never occupies a batch slot. A failed batch of
//! several requests is re-run one request at a time, so one bad request
//! cannot fail its batch-mates; transient failures (contained panics,
//! injected faults) requeue with bounded exponential backoff up to the
//! request's `max_retries`.
//!
//! **Grouping.** Every request resolves to an [`insum::Compiled`], a plan
//! of steps, and a window groups by one key: the artifact's identity
//! plus the interpreter mode. The registry key behind that `Arc` —
//! expression, every argument's name, shape and dtype, and the
//! normalized options — fixes each step's kernel, grid and argument
//! metadata, so requests that share an artifact are launch-compatible
//! step for step, whatever storage their tensors live in. Grouping only
//! ever changes *scheduling*: each request inside a batch is executed
//! with exactly the per-request interpreter semantics, so its response
//! is bit-identical to a serial [`insum::Compiled::run`] no matter the
//! arrival order or batch composition.
//!
//! **Terminal outcomes** all go through [`Core::finish`]: the queue
//! wait, the trace, first-wins against a cancel (the handle completes
//! its ticket under the same lock before it reports `Cancel`), the
//! outcome counters, and the `Respond` action that completes the ticket.

use crate::config::{AdmissionPolicy, ServeConfig};
use crate::error::ServeError;
use crate::lifecycle::{BreakerDecision, BreakerPanel, BudgetStatus, CostMeter};
use crate::metrics::MetricsSnapshot;
use crate::session::{RequestId, Response, TicketInner};
use insum::{Compiled, InsumOptions, Mode, Profile, Tensor};
use insum_telemetry::hook::HookPhase;
use insum_telemetry::{FlightRecorder, Phase, Trace, TraceOutcome};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// A client's submission, as admission receives it.
pub(crate) struct Request {
    pub(crate) tenant: Arc<str>,
    pub(crate) expr: String,
    pub(crate) tensors: BTreeMap<String, Tensor>,
    pub(crate) options: InsumOptions,
    pub(crate) mode: Mode,
    /// Relative deadline from [`crate::SubmitOptions::deadline`].
    pub(crate) deadline: Option<Duration>,
    pub(crate) max_retries: u32,
    pub(crate) priority: i32,
    pub(crate) ticket: Arc<TicketInner>,
}

/// One admitted, not-yet-terminal request.
pub(crate) struct Pending {
    pub(crate) id: u64,
    pub(crate) req: Request,
    /// Admission stamp on the engine clock.
    pub(crate) submitted_at: Duration,
    /// Absolute expiry on the engine clock; `None` never expires.
    pub(crate) deadline: Option<Duration>,
    /// Zero-based attempt counter; incremented by each retry.
    pub(crate) attempt: u32,
    /// Backoff gate: the request stays queued until this clock stamp
    /// (waived when the engine is draining for shutdown).
    pub(crate) not_before: Option<Duration>,
    /// The request's span (empty when telemetry is disabled), finalized
    /// by [`Core::finish`].
    pub(crate) trace: Trace,
}

/// Safety net for the ticket contract: every admitted request's handle
/// must resolve. If a `Pending` is ever dropped without its ticket
/// having been completed — e.g. an unforeseen panic unwinding through
/// the shell while it holds the request — the waiter gets an
/// [`ServeError::Engine`] instead of blocking forever. (Completion is
/// first-wins, so the normal paths are unaffected.)
impl Drop for Pending {
    fn drop(&mut self) {
        if !self.req.ticket.is_complete() {
            self.req.ticket.complete(Err(ServeError::Engine(
                "request dropped by the engine without a response (internal \
                 panic while it was in flight)"
                    .to_string(),
            )));
        }
    }
}

/// A request resolved to its compiled artifact, waiting for a batch.
pub(crate) struct Resolved {
    pub(crate) pending: Pending,
    pub(crate) artifact: Arc<Compiled>,
    registry_hit: bool,
    /// Miss whose compile lowered no simulator program: warm/cold is
    /// decided at the artifact's first launch (lazy lowering).
    pub(crate) warm_pending: bool,
}

/// What happened, as the shell reports it. (Events and actions are moved
/// once and never stored in bulk, so their large variants stay unboxed.)
#[allow(clippy::large_enum_variant)]
pub(crate) enum Event {
    /// A client submits a request.
    Submit(Request),
    /// A client cancelled request `id`; its handle has already completed
    /// the ticket with [`ServeError::Cancelled`].
    Cancel { id: u64, tenant: Arc<str> },
    /// The scheduler thread woke up (a wake-up, a timer, a clock jump).
    Clock,
    /// Pause (`true`) or resume (`false`) scheduling.
    Pause(bool),
    /// Shutdown: admission closes, admitted requests are still served.
    Close,
    /// The registry answered a `Resolve`.
    Resolved(Resolution),
    /// A `Launch` finished: per member its output, profile and charged
    /// cost units, or the batch's error ([`ServeError::Engine`] for a
    /// contained panic).
    Launched {
        batch: Vec<Resolved>,
        result: Result<Vec<(Tensor, Profile, u64)>, ServeError>,
        hooks: Vec<(HookPhase, u64)>,
    },
    /// A `Persist` finished; each flag says that write succeeded.
    Persisted { snapshot: bool, dump: bool },
}

/// What the registry answered for one request.
pub(crate) struct Resolution {
    pub(crate) pending: Pending,
    pub(crate) result: Result<Arc<Compiled>, ServeError>,
    pub(crate) registry_hit: bool,
    /// The compile lowered at least one simulator program.
    pub(crate) compile_lowered: bool,
    /// Profiling-hook intervals the resolve produced.
    pub(crate) hooks: Vec<(HookPhase, u64)>,
}

/// What the shell must do.
#[allow(clippy::large_enum_variant)]
pub(crate) enum Action {
    /// Admission accepted the submitted request under this id.
    Admitted(u64),
    /// Admission refused the submitted request.
    Refused(ServeError),
    /// The queue is full under [`AdmissionPolicy::Block`]: park the
    /// submitter until a `Wake`, then submit the request again.
    Blocked(Request),
    /// Wake every parked thread (the scheduler, blocked submitters).
    Wake,
    /// Complete one request's ticket (before the core lock is released,
    /// so a cancel can never slip between the counters and the ticket).
    Respond(Pending, Result<Response, ServeError>),
    /// Resolve the request's artifact, then report `Resolved`.
    Resolve(Pending),
    /// Launch one batch, then report `Launched`.
    Launch(Vec<Resolved>),
    /// Nothing to do: park the scheduler until a `Wake` or until the
    /// given clock time (a deadline or a retry gate), then report `Clock`.
    Park(Option<Duration>),
    /// Write the snapshot and/or the telemetry dump, then report
    /// `Persisted`.
    Persist { snapshot: bool, dump: bool },
    /// The engine is closed and drained: the scheduler thread exits.
    Exit,
}

/// How a request ends.
enum End {
    Completed {
        output: Tensor,
        profile: Profile,
        batch_size: usize,
        registry_hit: bool,
        kernel: String,
        units: u64,
    },
    Failed(ServeError),
    Expired,
    Quarantined,
    BudgetRejected,
    Cancelled,
}

/// The window in progress.
#[derive(Default)]
struct Window {
    open: bool,
    /// The drain time: gates, fair ranks, compile-failure outcomes.
    start: Duration,
    resolve: VecDeque<Pending>,
    groups: Vec<(GroupKey, Vec<Resolved>)>,
    launches: VecDeque<Vec<Resolved>>,
    /// When the `Resolve` or `Launch` in flight was issued.
    since: Duration,
}

/// The scheduler core. See the module docs.
pub(crate) struct Core {
    config: ServeConfig,
    pub(crate) queue: VecDeque<Pending>,
    paused: bool,
    closed: bool,
    /// The scheduler thread is parked on a `Park` this core returned.
    parked: bool,
    /// The final snapshot/dump has been issued.
    exiting: bool,
    next_id: u64,
    meter: CostMeter,
    breaker: BreakerPanel,
    pub(crate) metrics: MetricsSnapshot,
    pub(crate) recorder: FlightRecorder,
    last_snapshot: Duration,
    last_dump: Duration,
    window: Window,
}

impl Core {
    pub(crate) fn new(config: ServeConfig, now: Duration) -> Core {
        Core {
            meter: CostMeter::new(config.budgets.clone(), config.default_budget),
            breaker: BreakerPanel::new(config.breaker_threshold, config.breaker_cooldown),
            recorder: FlightRecorder::new(if config.telemetry {
                config.flight_recorder_capacity
            } else {
                0
            }),
            config,
            queue: VecDeque::new(),
            paused: false,
            closed: false,
            parked: false,
            exiting: false,
            next_id: 0,
            metrics: MetricsSnapshot::default(),
            last_snapshot: now,
            last_dump: now,
            window: Window::default(),
        }
    }

    /// Handle one event at engine-clock time `now`.
    pub(crate) fn step(&mut self, event: Event, now: Duration) -> Vec<Action> {
        let mut out = Vec::new();
        match event {
            Event::Submit(req) => self.admit(req, now, &mut out),
            Event::Cancel { id, tenant } => {
                self.metrics.cancelled += 1;
                self.metrics.tenant(&tenant).cancelled += 1;
                // Still queued: it leaves here. In flight: `finish` sees
                // the completed ticket when its result comes back.
                if let Some(i) = self.queue.iter().position(|p| p.id == id) {
                    let full = self.full();
                    let p = self.queue.remove(i).expect("position is in range");
                    let wait = now.saturating_sub(p.submitted_at);
                    self.finish(p, End::Cancelled, wait, now, &mut out);
                    if full {
                        self.wake(&mut out);
                    }
                }
            }
            Event::Pause(paused) => {
                self.paused = paused;
                if self.parked {
                    self.wake(&mut out);
                }
            }
            Event::Close => {
                self.closed = true;
                self.wake(&mut out);
            }
            Event::Clock => {
                self.parked = false;
                self.advance(now, &mut out);
            }
            Event::Resolved(resolution) => {
                self.resolved(resolution, now, &mut out);
                self.advance(now, &mut out);
            }
            Event::Launched {
                batch,
                result,
                hooks,
            } => {
                self.launched(batch, result, hooks, now, &mut out);
                self.advance(now, &mut out);
            }
            Event::Persisted { snapshot, dump } => {
                if snapshot {
                    self.metrics.snapshot_writes += 1;
                    self.last_snapshot = now;
                }
                if dump {
                    self.metrics.telemetry_dumps += 1;
                    self.last_dump = now;
                }
                self.advance(now, &mut out);
            }
        }
        out
    }

    fn full(&self) -> bool {
        self.queue.len() >= self.config.queue_capacity
    }

    fn wake(&mut self, out: &mut Vec<Action>) {
        self.parked = false;
        out.push(Action::Wake);
    }

    /// Admission: refuse, block, or queue and hand out an id.
    fn admit(&mut self, req: Request, now: Duration, out: &mut Vec<Action>) {
        let refusal = if self.closed {
            ServeError::Closed
        } else if !self.full() {
            let id = self.next_id;
            self.next_id += 1;
            let mut trace = Trace::default();
            if self.config.telemetry {
                trace = Trace::new(id, &req.tenant);
                trace.push(Phase::Admitted, now, 0);
            }
            self.metrics.submitted += 1;
            self.metrics.tenant(&req.tenant).submitted += 1;
            self.queue.push_back(Pending {
                id,
                submitted_at: now,
                deadline: req.deadline.map(|d| now + d),
                attempt: 0,
                not_before: None,
                trace,
                req,
            });
            self.metrics.queue_depth_max = self.metrics.queue_depth_max.max(self.queue.len());
            out.push(Action::Admitted(id));
            if self.parked {
                self.wake(out);
            }
            return;
        } else if self.config.admission == AdmissionPolicy::Block {
            return out.push(Action::Blocked(req));
        } else {
            ServeError::Saturated {
                capacity: self.config.queue_capacity,
            }
        };
        self.metrics.rejected += 1;
        self.metrics.tenant(&req.tenant).rejected += 1;
        out.push(Action::Refused(refusal));
    }

    /// The scheduler's next move: continue the window, start one, persist,
    /// park, or exit. Always pushes exactly one scheduler action.
    fn advance(&mut self, now: Duration, out: &mut Vec<Action>) {
        loop {
            if let Some(p) = self.window.resolve.pop_front() {
                self.window.since = now;
                return out.push(Action::Resolve(p));
            }
            if !self.window.groups.is_empty() {
                self.order_launches();
            }
            while let Some(batch) = self.window.launches.pop_front() {
                let mut kept = Vec::with_capacity(batch.len());
                for r in batch {
                    if let Some(pending) = self.gate(r.pending, now, false, out) {
                        kept.push(Resolved { pending, ..r });
                    }
                }
                if !kept.is_empty() {
                    if self.config.telemetry {
                        let size = kept.len() as u64;
                        for r in &mut kept {
                            r.pending.trace.push(Phase::Batched, now, size);
                        }
                    }
                    self.window.since = now;
                    return out.push(Action::Launch(kept));
                }
            }
            if std::mem::take(&mut self.window.open) {
                let snapshot = self.config.snapshot_path.is_some()
                    && now.saturating_sub(self.last_snapshot) >= self.config.snapshot_interval;
                let dump = self.config.telemetry_dump_path.is_some()
                    && now.saturating_sub(self.last_dump) >= self.config.telemetry_dump_interval;
                if snapshot || dump {
                    return out.push(Action::Persist { snapshot, dump });
                }
            }
            if self.closed && self.queue.is_empty() {
                // Drain/shutdown write: whatever was compiled since the
                // last cadence write becomes durable before the exit.
                let snapshot = self.config.snapshot_path.is_some();
                let dump = self.config.telemetry_dump_path.is_some();
                if !std::mem::replace(&mut self.exiting, true) && (snapshot || dump) {
                    return out.push(Action::Persist { snapshot, dump });
                }
                return out.push(Action::Exit);
            }
            if !self.open_window(now, out) {
                self.parked = true;
                let runnable = !self.paused || self.closed;
                let due = self
                    .queue
                    .iter()
                    .flat_map(|p| [p.deadline, p.not_before.filter(|_| runnable)])
                    .flatten()
                    .filter(|&t| t > now)
                    .min();
                return out.push(Action::Park(due));
            }
        }
    }

    /// Drain every eligible request into a new window and gate it.
    /// Returns `false` (draining nothing) when no request is eligible.
    fn open_window(&mut self, now: Duration, out: &mut Vec<Action>) -> bool {
        let closed = self.closed;
        let runnable = !self.paused || closed;
        let eligible = |p: &Pending| {
            p.deadline.is_some_and(|d| now >= d)
                || (runnable && p.not_before.is_none_or(|gate| closed || now >= gate))
        };
        if !self.queue.iter().any(eligible) {
            return false;
        }
        let full = self.full();
        let (drained, kept): (VecDeque<Pending>, VecDeque<Pending>) =
            self.queue.drain(..).partition(eligible);
        self.queue = kept;
        if full {
            self.wake(out);
        }
        self.window.open = true;
        self.window.start = now;
        for mut p in drained {
            if self.config.telemetry {
                p.trace.push(Phase::Scheduled, now, 0);
            }
            if let Some(p) = self.gate(p, now, true, out) {
                self.window.resolve.push_back(p);
            }
        }
        true
    }

    /// The lifecycle gate: deadline expiry, then (at the drain, `admit`)
    /// the circuit breaker, then the budget. At launch only the deadline
    /// and the budget are checked again: earlier batches of the window
    /// took their time and charged their costs. Returns the request if it
    /// passes; otherwise it ends here.
    fn gate(
        &mut self,
        p: Pending,
        now: Duration,
        admit: bool,
        out: &mut Vec<Action>,
    ) -> Option<Pending> {
        let tenant = &p.req.tenant;
        let end = if p.deadline.is_some_and(|d| now >= d) {
            // Timeouts are breaker-relevant: a tenant whose requests keep
            // expiring is burning queue slots.
            self.breaker_failure(tenant, now);
            End::Expired
        } else if admit && self.breaker.admit(tenant, now) == BreakerDecision::Reject {
            End::Quarantined
        } else if self.meter.status(tenant, now) == BudgetStatus::Exhausted {
            End::BudgetRejected
        } else {
            return Some(p);
        };
        let wait = now.saturating_sub(p.submitted_at);
        self.finish(p, end, wait, now, out);
        None
    }

    fn breaker_failure(&mut self, tenant: &str, now: Duration) {
        if self.breaker.record_failure(tenant, now) {
            self.metrics.tenant(tenant).breaker_open_transitions += 1;
        }
    }

    fn resolved(&mut self, resolution: Resolution, now: Duration, out: &mut Vec<Action>) {
        let Resolution {
            mut pending,
            result,
            registry_hit,
            compile_lowered,
            hooks,
        } = resolution;
        let started = self.window.since;
        let took = now.saturating_sub(started);
        if self.config.telemetry {
            pending
                .trace
                .push(Phase::RegistryWait, started, u64::from(registry_hit));
            // Compile/autotune intervals belong to this request alone —
            // it is the one the registry compiled for.
            for (phase, nanos) in hooks {
                pending.trace.add_cost(phase.trace_phase(), nanos);
            }
        }
        let tenant = self.metrics.tenant(&pending.req.tenant);
        if registry_hit {
            tenant.registry_hits += 1;
        } else {
            tenant.registry_misses += 1;
            tenant.compile.record_duration(took);
        }
        match result {
            // Compile failures are decided at the drain time, like the
            // other outcomes of the window's gate.
            Err(e) => {
                let start = self.window.start;
                let wait = start.saturating_sub(pending.submitted_at);
                self.fail(pending, e, wait, start, out);
            }
            Ok(artifact) => {
                if !registry_hit {
                    let key = kernel_key(&artifact);
                    self.metrics.kernel(&key).compile.record_duration(took);
                }
                let resolved = Resolved {
                    pending,
                    artifact,
                    registry_hit,
                    warm_pending: !registry_hit && !compile_lowered,
                };
                join_group(&mut self.window.groups, resolved);
            }
        }
    }

    /// Deficit-weighted fair ordering of the window's groups, cut into
    /// batches. Each request's key is (over-budget?, -priority, tenant's
    /// lifetime charged cost, id): in-budget tenants run before
    /// deprioritized ones, higher priority runs earlier, and among equals
    /// the tenant that has consumed the least simulated cost goes first.
    /// The sorts are stable and the final id component reproduces arrival
    /// order on full ties, so an unbudgeted equal-priority workload is
    /// scheduled exactly as it arrived — and the ordering never changes
    /// *what* executes, only when, so responses stay bit-identical.
    fn order_launches(&mut self) {
        let start = self.window.start;
        let mut groups = std::mem::take(&mut self.window.groups);
        let mut rank: BTreeMap<Arc<str>, (bool, u64)> = BTreeMap::new();
        for r in groups.iter().flat_map(|(_, members)| members) {
            let tenant = &r.pending.req.tenant;
            if !rank.contains_key(tenant) {
                let deprioritized = self.meter.status(tenant, start) == BudgetStatus::Deprioritized;
                rank.insert(
                    Arc::clone(tenant),
                    (deprioritized, self.meter.charged(tenant)),
                );
            }
        }
        let key_of = |r: &Resolved| {
            let (deprioritized, charged) = rank[&r.pending.req.tenant];
            let priority = std::cmp::Reverse(r.pending.req.priority);
            (deprioritized, priority, charged, r.pending.id)
        };
        for (_, members) in &mut groups {
            members.sort_by_key(&key_of);
        }
        groups.sort_by_key(|(_, members)| key_of(&members[0]));
        for (_, members) in groups {
            let mut members = members.into_iter().peekable();
            while members.peek().is_some() {
                let batch = members.by_ref().take(self.config.max_batch).collect();
                self.window.launches.push_back(batch);
            }
        }
    }

    fn launched(
        &mut self,
        mut batch: Vec<Resolved>,
        result: Result<Vec<(Tensor, Profile, u64)>, ServeError>,
        hooks: Vec<(HookPhase, u64)>,
        now: Duration,
        out: &mut Vec<Action>,
    ) {
        let start = self.window.since;
        if self.config.telemetry {
            // Every member experienced the whole launch (and any lazy
            // lowering it did).
            for r in &mut batch {
                for &(phase, nanos) in &hooks {
                    r.pending.trace.add_cost(phase.trace_phase(), nanos);
                }
            }
        }
        let results = match result {
            Ok(results) => results,
            // Isolation: a batched launch reports only its first failure
            // and the determinism guarantee is per request, so re-run each
            // member alone, next, in order.
            Err(_) if batch.len() > 1 => {
                for r in batch.into_iter().rev() {
                    self.window.launches.push_front(vec![r]);
                }
                return;
            }
            Err(e) => {
                for r in batch {
                    let wait = start.saturating_sub(r.pending.submitted_at);
                    self.fail(r.pending, e.clone(), wait, now, out);
                }
                return;
            }
        };
        debug_assert_eq!(results.len(), batch.len());
        let batch_size = batch.len();
        let kernel = kernel_key(&batch[0].artifact);
        self.metrics.batches += 1;
        self.metrics.batched_requests += batch_size as u64;
        self.metrics.largest_batch = self.metrics.largest_batch.max(batch_size);
        let km = self.metrics.kernel(&kernel);
        km.requests += batch_size as u64;
        km.batches += 1;
        km.largest_batch = km.largest_batch.max(batch_size);
        for (r, (output, profile, units)) in batch.into_iter().zip(results) {
            let wait = start.saturating_sub(r.pending.submitted_at);
            let km = self.metrics.kernel(&kernel);
            km.instances_simulated += profile.total_stats().instances;
            km.simulated_seconds_total += profile.total_time();
            km.queue_wait.record_duration(wait);
            // The work executed whether or not the client still wants the
            // result: charge the budget and credit the breaker regardless.
            self.meter.charge(&r.pending.req.tenant, units, now);
            self.breaker.record_success(&r.pending.req.tenant);
            let end = End::Completed {
                output,
                profile,
                batch_size,
                registry_hit: r.registry_hit,
                kernel: kernel.clone(),
                units,
            };
            self.finish(r.pending, end, wait, now, out);
        }
    }

    /// A failed attempt. A transient failure ([`ServeError::Engine`]: a
    /// contained panic — the registry evicts a panicked compile, so a
    /// retry recompiles) requeues with backoff `retry_backoff ×
    /// 2^(attempt−1)`, capped at `retry_backoff_max`, while attempts
    /// remain and the client has not cancelled; retries bypass the
    /// admission capacity, since the request was admitted once.
    /// Deterministic errors would fail identically and end the request.
    fn fail(
        &mut self,
        mut p: Pending,
        err: ServeError,
        wait: Duration,
        now: Duration,
        out: &mut Vec<Action>,
    ) {
        let transient = matches!(err, ServeError::Engine(_));
        if transient && p.attempt < p.req.max_retries && !p.req.ticket.is_complete() {
            p.attempt += 1;
            if self.config.telemetry {
                p.trace.push(Phase::Retry, now, u64::from(p.attempt));
            }
            let backoff = self
                .config
                .retry_backoff
                .saturating_mul(1u32 << (p.attempt - 1).min(20))
                .min(self.config.retry_backoff_max);
            p.not_before = Some(now + backoff);
            self.metrics.retries += 1;
            self.metrics.tenant(&p.req.tenant).retries += 1;
            self.queue.push_back(p);
            return;
        }
        if transient {
            self.breaker_failure(&p.req.tenant, now);
        }
        self.finish(p, End::Failed(err), wait, now, out);
    }

    /// The one terminal path: record the queue wait (admission → terminal
    /// decision, or → launch for executed requests) exactly once, stamp
    /// and record the trace at `at`, and — unless a cancel already won
    /// the ticket and counted the request — count the outcome and
    /// respond.
    fn finish(
        &mut self,
        mut p: Pending,
        end: End,
        wait: Duration,
        at: Duration,
        out: &mut Vec<Action>,
    ) {
        let tenant = Arc::clone(&p.req.tenant);
        self.metrics
            .tenant(&tenant)
            .queue_wait
            .record_duration(wait);
        let end = if p.req.ticket.is_complete() {
            End::Cancelled
        } else {
            end
        };
        let attempts = p.attempt + 1;
        let trace = self.config.telemetry.then(|| {
            let (phase, info, outcome) = match &end {
                End::Completed { .. } => (Phase::Respond, attempts, TraceOutcome::Completed),
                End::Failed(e) => (Phase::Failed, attempts, TraceOutcome::Failed(e.to_string())),
                End::Expired => (Phase::Expired, 0, TraceOutcome::Expired),
                End::Quarantined => (Phase::Quarantined, 0, TraceOutcome::Quarantined),
                End::BudgetRejected => (Phase::BudgetRejected, 0, TraceOutcome::BudgetRejected),
                End::Cancelled => (Phase::Cancelled, 0, TraceOutcome::Cancelled),
            };
            p.trace.push(phase, at, u64::from(info));
            let trace = std::mem::take(&mut p.trace);
            self.recorder.record(trace.clone(), outcome);
            trace
        });
        let m = &mut self.metrics;
        let result = match end {
            End::Cancelled => return,
            End::Completed {
                output,
                profile,
                batch_size,
                registry_hit,
                kernel,
                units,
            } => {
                let e2e = at.saturating_sub(p.submitted_at);
                let instances = profile.total_stats().instances;
                m.completed += 1;
                m.kernel(&kernel).e2e.record_duration(e2e);
                let tm = m.tenant(&tenant);
                tm.completed += 1;
                tm.e2e.record_duration(e2e);
                tm.instances_simulated += instances;
                tm.cost_units += units;
                tm.cost.record(units);
                Ok(Response {
                    id: RequestId(p.id),
                    tenant: tenant.to_string(),
                    output,
                    profile,
                    queue_seconds: wait.as_secs_f64(),
                    batch_size,
                    registry_hit,
                    attempts,
                    trace,
                })
            }
            End::Failed(e) => {
                m.failed += 1;
                m.tenant(&tenant).failed += 1;
                Err(e)
            }
            End::Expired => {
                m.deadline_expired += 1;
                m.tenant(&tenant).deadline_expired += 1;
                let deadline = p.deadline.unwrap_or_default();
                Err(ServeError::DeadlineExceeded {
                    deadline: deadline.saturating_sub(p.submitted_at),
                })
            }
            End::Quarantined => {
                m.quarantined += 1;
                m.tenant(&tenant).quarantined += 1;
                Err(ServeError::Quarantined {
                    tenant: tenant.to_string(),
                })
            }
            End::BudgetRejected => {
                m.budget_rejected += 1;
                m.tenant(&tenant).budget_rejected += 1;
                Err(ServeError::BudgetExhausted {
                    tenant: tenant.to_string(),
                })
            }
        };
        out.push(Action::Respond(p, result));
    }
}

/// Launch-compatibility key: requests with equal keys share batches.
/// Every `Resolved` of the window holds its `Arc`, so no artifact
/// address is reused while the window's groups exist.
#[derive(PartialEq, Eq)]
struct GroupKey {
    /// `Arc::as_ptr` of the registry artifact.
    artifact: usize,
    analytic: bool,
}

/// Add a resolved request to the group of its [`GroupKey`]. Groups are
/// ordered by their earliest request and requests stay in arrival order
/// inside each group (fair ordering only reorders on unequal keys).
fn join_group(groups: &mut Vec<(GroupKey, Vec<Resolved>)>, resolved: Resolved) {
    let key = GroupKey {
        artifact: Arc::as_ptr(&resolved.artifact) as usize,
        analytic: resolved.pending.req.mode == Mode::Analytic,
    };
    match groups.iter_mut().find(|(k, _)| *k == key) {
        Some((_, members)) => members.push(resolved),
        None => groups.push((key, vec![resolved])),
    }
}

fn kernel_key(artifact: &Compiled) -> String {
    if artifact.plan().is_some() {
        let (steps, expr) = (artifact.step_count(), artifact.expression());
        return format!("chain[{steps} steps]:{expr}");
    }
    match (artifact.fast_path_pattern(), artifact.launch_signature()) {
        (Some(pattern), _) => format!("fastpath:{}", pattern.name()),
        (None, Some(sig)) => format!("{:016x}@{:?}", sig.kernel_fingerprint, sig.grid),
        (None, None) => format!(
            "unfused:{}",
            artifact.statement().expect("compiled from a statement")
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CostBudget, SubmitOptions};
    use crate::session::ResponseHandle;
    use insum::{insum_with, LaunchOptions};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::sync::Weak;

    fn map(pairs: &[(&str, Tensor)]) -> BTreeMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect()
    }

    // ---- Event-sequence tests: the core on a virtual clock, no thread. ----

    const EXPR: &str = "C[i] = A[i] * A[i]";
    const SPMM: &str = "C[AM[p],n] += AV[p] * B[AK[p],n]";
    const MATMUL: &str = "C[y,x] = A[y,r] * B[r,x]";

    fn secs(s: f64) -> Duration {
        Duration::from_secs_f64(s)
    }

    fn small(fill: f32) -> BTreeMap<String, Tensor> {
        map(&[
            ("C", Tensor::zeros(vec![16])),
            ("A", Tensor::from_vec(vec![16], vec![fill; 16]).unwrap()),
        ])
    }

    fn spmm(seed: u64) -> BTreeMap<String, Tensor> {
        let mut rng = SmallRng::seed_from_u64(seed);
        map(&[
            ("C", Tensor::zeros(vec![8, 4])),
            ("AM", insum_tensor::randint(vec![7], 8, &mut rng)),
            ("AK", insum_tensor::randint(vec![7], 6, &mut rng)),
            (
                "AV",
                insum_tensor::rand_uniform(vec![7], -1.0, 1.0, &mut rng),
            ),
            (
                "B",
                insum_tensor::rand_uniform(vec![6, 4], -1.0, 1.0, &mut rng),
            ),
        ])
    }

    fn matmul(seed: u64) -> BTreeMap<String, Tensor> {
        let mut rng = SmallRng::seed_from_u64(seed);
        map(&[
            ("C", Tensor::zeros(vec![6, 5])),
            (
                "A",
                insum_tensor::rand_uniform(vec![6, 4], -1.0, 1.0, &mut rng),
            ),
            (
                "B",
                insum_tensor::rand_uniform(vec![4, 5], -1.0, 1.0, &mut rng),
            ),
        ])
    }

    /// The shell's part, inline: a core on a virtual clock, resolving and
    /// launching on the calling thread.
    struct Harness {
        core: Core,
        now: Duration,
        artifacts: BTreeMap<String, Arc<Compiled>>,
        /// Request ids of every launch, in launch order.
        launched: Vec<Vec<u64>>,
    }

    impl Harness {
        fn new(config: ServeConfig) -> Harness {
            Harness {
                core: Core::new(config, Duration::ZERO),
                now: Duration::ZERO,
                artifacts: BTreeMap::new(),
                launched: Vec::new(),
            }
        }

        /// Step at `now`, completing tickets as the shell does — the
        /// core must never answer a ticket that is already complete.
        fn step(&mut self, event: Event) -> Vec<Action> {
            let mut rest = Vec::new();
            for action in self.core.step(event, self.now) {
                match action {
                    Action::Respond(p, result) => {
                        assert!(p.req.ticket.complete(result), "{} answered twice", p.id);
                    }
                    Action::Wake => {}
                    other => rest.push(other),
                }
            }
            rest
        }

        /// The scheduler's one next move after `event`.
        fn next(&mut self, event: Event) -> Action {
            let mut actions = self.step(event);
            assert_eq!(actions.len(), 1, "one scheduler action per step");
            actions.pop().unwrap()
        }

        fn submit(
            &mut self,
            tenant: &str,
            expr: &str,
            tensors: &BTreeMap<String, Tensor>,
            opts: SubmitOptions,
        ) -> Option<ResponseHandle> {
            let ticket = Arc::new(TicketInner::default());
            let req = Request {
                tenant: Arc::from(tenant),
                expr: expr.to_string(),
                tensors: tensors.clone(),
                options: opts.options.unwrap_or_default(),
                mode: opts.mode.unwrap_or(Mode::Execute),
                deadline: opts.deadline,
                max_retries: opts.max_retries,
                priority: opts.priority,
                ticket: Arc::clone(&ticket),
            };
            match self.step(Event::Submit(req)).pop() {
                Some(Action::Admitted(id)) => Some(ResponseHandle {
                    id: RequestId(id),
                    tenant: Arc::from(tenant),
                    ticket,
                    shared: Weak::new(),
                }),
                _ => None,
            }
        }

        /// `ResponseHandle::cancel`, which completes the ticket under the
        /// core lock and then reports it.
        fn cancel(&mut self, handle: &ResponseHandle) -> bool {
            if !handle.ticket.complete(Err(ServeError::Cancelled)) {
                return false;
            }
            let tenant = Arc::clone(&handle.tenant);
            self.step(Event::Cancel {
                id: handle.id.0,
                tenant,
            });
            true
        }

        /// Resolve like the registry: each expression compiles once.
        fn resolve(&mut self, pending: Pending) -> Event {
            let req = &pending.req;
            let registry_hit = self.artifacts.contains_key(&req.expr);
            let artifact = self.artifacts.entry(req.expr.clone()).or_insert_with(|| {
                Arc::new(insum_with(&req.expr, &req.tensors, &req.options).unwrap())
            });
            Event::Resolved(Resolution {
                result: Ok(Arc::clone(artifact)),
                pending,
                registry_hit,
                compile_lowered: true,
                hooks: Vec::new(),
            })
        }

        /// Launch like the shell, inline.
        fn execute(&mut self, batch: Vec<Resolved>) -> Event {
            self.launched
                .push(batch.iter().map(|r| r.pending.id).collect());
            let inputs: Vec<_> = batch.iter().map(|r| &r.pending.req.tensors).collect();
            let mode = batch[0].pending.req.mode;
            let result = batch[0]
                .artifact
                .run_batch_mode(&inputs, mode, &LaunchOptions::default())
                .map(|results| {
                    let charge = |(o, p): (Tensor, Profile)| {
                        let units = p.total_cost_units();
                        (o, p, units)
                    };
                    results.into_iter().map(charge).collect()
                })
                .map_err(ServeError::from);
            drop(inputs);
            Event::Launched {
                batch,
                result,
                hooks: Vec::new(),
            }
        }

        /// Run the scheduler from `Clock` until it parks or exits.
        fn drive(&mut self) -> Action {
            let mut action = self.next(Event::Clock);
            loop {
                let event = match action {
                    Action::Resolve(p) => self.resolve(p),
                    Action::Launch(batch) => self.execute(batch),
                    Action::Persist { .. } => Event::Persisted {
                        snapshot: false,
                        dump: false,
                    },
                    park_or_exit => return park_or_exit,
                };
                action = self.next(event);
            }
        }

        /// Every terminal request's queue wait is recorded exactly once.
        fn assert_books(&self) {
            let m = &self.core.metrics;
            for (tenant, t) in &m.tenants {
                assert_eq!(t.queue_wait.count(), t.terminal(), "{tenant}: {t:?}");
                assert_eq!(t.e2e.count(), t.completed, "{tenant}");
            }
            let terminal = m.completed
                + m.failed
                + m.cancelled
                + m.deadline_expired
                + m.budget_rejected
                + m.quarantined;
            assert_eq!(m.submitted, terminal + self.core.queue.len() as u64);
        }
    }

    fn parked_until(action: &Action) -> Option<Duration> {
        match action {
            Action::Park(until) => *until,
            _ => panic!("expected the scheduler to park"),
        }
    }

    #[test]
    fn first_wins_between_a_cancel_and_a_completion() {
        let mut h = Harness::new(ServeConfig::default());
        let t = small(2.0);
        // Cancelled while its launch is in flight: the result is dropped,
        // the cancel counted it, its queue wait is recorded once.
        let a = h.submit("t", EXPR, &t, SubmitOptions::default()).unwrap();
        let Action::Resolve(p) = h.next(Event::Clock) else {
            panic!("resolve first")
        };
        let event = h.resolve(p);
        let Action::Launch(batch) = h.next(event) else {
            panic!("then launch")
        };
        assert!(h.cancel(&a));
        let event = h.execute(batch);
        assert!(matches!(h.next(event), Action::Park(None)));
        assert!(matches!(a.try_take(), Some(Err(ServeError::Cancelled))));
        let outcome = &h.core.recorder.recent()[0].outcome;
        assert_eq!(*outcome, TraceOutcome::Cancelled);
        // Completed first: the cancel loses and changes nothing.
        let b = h.submit("t", EXPR, &t, SubmitOptions::default()).unwrap();
        assert!(matches!(h.drive(), Action::Park(None)));
        assert!(!h.cancel(&b));
        assert!(b.try_take().unwrap().is_ok());
        let m = &h.core.metrics;
        assert_eq!((m.completed, m.cancelled), (1, 1));
        h.assert_books();
    }

    #[test]
    fn deadlines_expire_while_paused() {
        let mut h = Harness::new(ServeConfig::default());
        let t = small(1.0);
        h.step(Event::Pause(true));
        let five = SubmitOptions::default().with_deadline(secs(5.0));
        let late = h.submit("t", EXPR, &t, five).unwrap();
        let kept = h.submit("t", EXPR, &t, SubmitOptions::default()).unwrap();
        assert_eq!(parked_until(&h.drive()), Some(secs(5.0)));
        h.now = secs(5.0);
        assert_eq!(parked_until(&h.drive()), None, "paused: the other waits");
        match late.try_take() {
            Some(Err(ServeError::DeadlineExceeded { deadline })) => assert_eq!(deadline, secs(5.0)),
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
        assert!(kept.try_take().is_none());
        h.step(Event::Pause(false));
        h.drive();
        assert!(kept.try_take().unwrap().is_ok());
        assert_eq!(h.core.metrics.deadline_expired, 1);
        h.assert_books();
    }

    #[test]
    fn backoff_gates_hold_a_retry_until_it_is_due() {
        let config = ServeConfig::default().with_retry_backoff(secs(1.0), secs(8.0));
        let mut h = Harness::new(config);
        let t = small(3.0);
        let opts = SubmitOptions::default().with_max_retries(2);
        let handle = h.submit("t", EXPR, &t, opts).unwrap();
        let panic = |batch| Event::Launched {
            batch,
            result: Err(ServeError::Engine("injected".to_string())),
            hooks: Vec::new(),
        };
        // Two transient failures: gates at t = 1 s, then 1 + 2 s.
        for (now, gate) in [(0.0, 1.0), (1.0, 3.0)] {
            h.now = secs(now);
            let Action::Resolve(p) = h.next(Event::Clock) else {
                panic!("resolve")
            };
            let event = h.resolve(p);
            let Action::Launch(batch) = h.next(event) else {
                panic!("launch")
            };
            assert_eq!(parked_until(&h.next(panic(batch))), Some(secs(gate)));
            h.now = secs(gate) - secs(0.001);
            assert_eq!(parked_until(&h.drive()), Some(secs(gate)), "not before");
        }
        h.now = secs(3.0);
        h.drive();
        let response = handle.try_take().unwrap().unwrap();
        assert_eq!(response.attempts, 3);
        let trace = response.trace.unwrap();
        let retries: Vec<_> = trace
            .events
            .iter()
            .filter(|e| e.phase == Phase::Retry)
            .collect();
        assert_eq!(retries.len(), 2);
        assert_eq!((retries[1].at, retries[1].info), (secs(1.0), 2));
        assert_eq!(h.core.metrics.retries, 2);
        h.assert_books();
    }

    #[test]
    fn a_compile_failure_does_not_retry_a_cancelled_request() {
        let mut h = Harness::new(ServeConfig::default());
        let opts = SubmitOptions::default().with_max_retries(3);
        let handle = h.submit("t", EXPR, &small(1.0), opts).unwrap();
        let Action::Resolve(pending) = h.next(Event::Clock) else {
            panic!("resolve")
        };
        assert!(h.cancel(&handle));
        let failed = Event::Resolved(Resolution {
            pending,
            result: Err(ServeError::Engine("compilation panicked".to_string())),
            registry_hit: false,
            compile_lowered: false,
            hooks: Vec::new(),
        });
        assert!(matches!(h.next(failed), Action::Park(None)));
        assert!(h.core.queue.is_empty(), "not requeued");
        let m = &h.core.metrics;
        assert_eq!((m.retries, m.cancelled, m.failed), (0, 1, 0));
        let recorded = &h.core.recorder.recent()[0];
        assert_eq!(recorded.outcome, TraceOutcome::Cancelled);
        assert!(!recorded.trace.has_phase(Phase::Retry));
        h.assert_books();
    }

    #[test]
    fn budgets_reject_at_the_gate_and_at_launch_and_recover_on_refill() {
        let budget = CostBudget {
            capacity: 1,
            refill_per_second: 1,
        };
        let config = ServeConfig::default()
            .with_budget("greedy", budget)
            .with_max_batch(1);
        let mut h = Harness::new(config);
        let t = small(2.5);
        // Two requests in one window, one per batch: the first overdraws
        // the bucket, so the second is rejected when its batch launches.
        h.step(Event::Pause(true));
        let first = h
            .submit("greedy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        let second = h
            .submit("greedy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        h.step(Event::Pause(false));
        h.drive();
        let units = first
            .try_take()
            .unwrap()
            .unwrap()
            .profile
            .total_cost_units();
        assert!(units > 1, "a launch costs more than the bucket holds");
        let exhausted = |r| matches!(r, Some(Err(ServeError::BudgetExhausted { .. })));
        assert!(exhausted(second.try_take()));
        // At the next window's gate too; an unbudgeted tenant is untouched.
        let third = h
            .submit("greedy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        let free = h
            .submit("free", EXPR, &t, SubmitOptions::default())
            .unwrap();
        h.drive();
        assert!(exhausted(third.try_take()));
        assert!(free.try_take().unwrap().is_ok());
        // Refilled at 1 unit/s: back in budget.
        h.now = secs((units + 1) as f64);
        let fourth = h
            .submit("greedy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        h.drive();
        assert!(fourth.try_take().unwrap().is_ok());
        let greedy = &h.core.metrics.tenants["greedy"];
        assert_eq!((greedy.budget_rejected, greedy.completed), (2, 2));
        assert_eq!(greedy.cost_units, 2 * units);
        h.assert_books();
    }

    #[test]
    fn the_breaker_quarantines_and_recovers_through_a_probe() {
        let config = ServeConfig::default().with_breaker(2, secs(10.0));
        let mut h = Harness::new(config);
        let t = small(4.0);
        let failing = |h: &mut Harness| {
            let handle = h
                .submit("flaky", EXPR, &t, SubmitOptions::default())
                .unwrap();
            let Action::Resolve(p) = h.next(Event::Clock) else {
                panic!("resolve")
            };
            let event = h.resolve(p);
            let Action::Launch(batch) = h.next(event) else {
                panic!("launch")
            };
            h.next(Event::Launched {
                batch,
                result: Err(ServeError::Engine("injected".to_string())),
                hooks: Vec::new(),
            });
            handle.try_take().unwrap()
        };
        assert!(matches!(failing(&mut h), Err(ServeError::Engine(_))));
        assert!(matches!(failing(&mut h), Err(ServeError::Engine(_))));
        let quarantined = h
            .submit("flaky", EXPR, &t, SubmitOptions::default())
            .unwrap();
        let healthy = h
            .submit("healthy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        h.drive();
        assert!(matches!(
            quarantined.try_take(),
            Some(Err(ServeError::Quarantined { .. }))
        ));
        assert!(healthy.try_take().unwrap().is_ok());
        // Cooldown over: the half-open probe succeeds and closes it.
        h.now = secs(10.0);
        for _ in 0..2 {
            let handle = h
                .submit("flaky", EXPR, &t, SubmitOptions::default())
                .unwrap();
            h.drive();
            assert!(handle.try_take().unwrap().is_ok());
        }
        let flaky = &h.core.metrics.tenants["flaky"];
        assert_eq!(flaky.breaker_open_transitions, 1);
        assert_eq!(
            (flaky.failed, flaky.quarantined, flaky.completed),
            (2, 1, 2)
        );
        h.assert_books();
    }

    #[test]
    fn a_flooding_tenant_goes_after_one_that_has_consumed_less() {
        let mut h = Harness::new(ServeConfig::default().with_max_batch(2));
        let t = small(1.0);
        let warm = h
            .submit("greedy", EXPR, &t, SubmitOptions::default())
            .unwrap();
        h.drive();
        assert!(warm.try_take().unwrap().is_ok());
        h.step(Event::Pause(true));
        let flood: Vec<_> = (0..6)
            .map(|_| {
                h.submit("greedy", EXPR, &t, SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        let fair: Vec<_> = (0..2)
            .map(|_| {
                h.submit("fair", EXPR, &t, SubmitOptions::default())
                    .unwrap()
            })
            .collect();
        h.launched.clear();
        h.step(Event::Pause(false));
        h.drive();
        let fair_ids: Vec<u64> = fair.iter().map(|f| f.id.0).collect();
        assert_eq!(h.launched[0], fair_ids, "the fair tenant launches first");
        assert_eq!(h.launched.len(), 4);
        for handle in flood.iter().chain(&fair) {
            assert!(handle.try_take().unwrap().is_ok());
        }
        h.assert_books();
    }

    #[test]
    fn shuffled_arrival_never_changes_bits() {
        let mut cases = Vec::new();
        for seed in 0..4 {
            cases.push((SPMM, spmm(seed), Mode::Execute));
        }
        for seed in 0..3 {
            cases.push((MATMUL, matmul(seed), Mode::Execute));
        }
        cases.push((SPMM, spmm(1), Mode::Analytic));
        let want: Vec<_> = cases
            .iter()
            .map(|(expr, t, mode)| {
                let op = insum_with(expr, t, &InsumOptions::default()).unwrap();
                match mode {
                    Mode::Execute => op.run(t).unwrap(),
                    Mode::Analytic => (t["C"].clone(), op.time(t).unwrap()),
                }
            })
            .collect();
        let mut largest = 0;
        for scenario in 0..6 {
            let mut rng = SmallRng::seed_from_u64(scenario);
            let max_batch = [1, 2, 4, 8][rng.gen_range(0..4usize)];
            let mut h = Harness::new(ServeConfig::default().with_max_batch(max_batch));
            let mut order: Vec<usize> = (0..cases.len()).collect();
            order.shuffle(&mut rng);
            let preload = rng.gen_bool(0.5);
            h.step(Event::Pause(preload));
            let mut handles = Vec::new();
            for i in order {
                let (expr, t, mode) = &cases[i];
                let tenant = format!("tenant-{}", rng.gen_range(0..3));
                let opts = SubmitOptions::default().with_mode(*mode);
                handles.push((i, h.submit(&tenant, expr, t, opts).unwrap()));
                if !preload && rng.gen_bool(0.5) {
                    h.drive();
                }
            }
            h.step(Event::Pause(false));
            h.drive();
            for (i, handle) in handles {
                let r = handle.try_take().unwrap().unwrap();
                assert!(r.output.bit_eq(&want[i].0), "scenario {scenario}, case {i}");
                assert_eq!(r.profile, want[i].1, "scenario {scenario}, case {i}");
            }
            largest = largest.max(h.core.metrics.largest_batch);
            h.assert_books();
        }
        assert!(largest > 1, "some scenario must batch");
    }

    /// Random interleavings of every event, with random compile and launch
    /// failures and cancels landing mid-flight: every handle resolves once
    /// and the books reconcile.
    #[test]
    fn random_event_sequences_keep_the_books() {
        let t = small(1.0);
        let artifact = Arc::new(insum_with(EXPR, &t, &InsumOptions::default()).unwrap());
        for seed in 0..40u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let budget = CostBudget {
                capacity: 4,
                refill_per_second: 2,
            };
            let config = ServeConfig::default()
                .with_queue_capacity(6)
                .with_admission(AdmissionPolicy::Reject)
                .with_max_batch(3)
                .with_retry_backoff(secs(0.1), secs(0.4))
                .with_breaker(3, secs(2.0))
                .with_budget("t1", budget);
            let mut h = Harness::new(config);
            let mut handles: Vec<ResponseHandle> = Vec::new();
            let mut paused = false;
            let mut closed = false;
            for round in 0..120 {
                closed |= round == 100;
                if closed {
                    h.step(Event::Close);
                }
                match rng.gen_range(0..10) {
                    0..=3 if !closed => {
                        let mut opts = SubmitOptions::default()
                            .with_max_retries(rng.gen_range(0..3))
                            .with_priority(rng.gen_range(-1..2));
                        if rng.gen_bool(0.3) {
                            opts = opts.with_deadline(secs(rng.gen_range(0.0..2.0)));
                        }
                        let tenant = format!("t{}", rng.gen_range(0..3));
                        handles.extend(h.submit(&tenant, EXPR, &t, opts));
                    }
                    4 if !handles.is_empty() => {
                        let i = rng.gen_range(0..handles.len());
                        let handle = handles.swap_remove(i);
                        h.cancel(&handle);
                        handles.push(handle);
                    }
                    5 => h.now += secs(rng.gen_range(0.0..1.5)),
                    6 => {
                        paused = !paused;
                        h.step(Event::Pause(paused));
                    }
                    _ => {
                        let mut action = h.next(Event::Clock);
                        loop {
                            if !handles.is_empty() && rng.gen_bool(0.1) {
                                let i = rng.gen_range(0..handles.len());
                                let handle = handles.swap_remove(i);
                                h.cancel(&handle);
                                handles.push(handle);
                            }
                            let roll = rng.gen_range(0..20);
                            let event = match action {
                                Action::Resolve(pending) => Event::Resolved(Resolution {
                                    result: match roll {
                                        0 | 1 => Err(ServeError::Engine("compile".into())),
                                        2 => Err(ServeError::Config("bad".into())),
                                        _ => Ok(Arc::clone(&artifact)),
                                    },
                                    pending,
                                    registry_hit: roll % 2 == 0,
                                    compile_lowered: false,
                                    hooks: Vec::new(),
                                }),
                                Action::Launch(batch) => Event::Launched {
                                    result: match roll {
                                        0..=2 => Err(ServeError::Engine("launch".into())),
                                        3 => Err(ServeError::Config("bad".into())),
                                        _ => Ok(batch
                                            .iter()
                                            .map(|_| {
                                                let units = rng.gen_range(0..4);
                                                (Tensor::zeros(vec![1]), Profile::default(), units)
                                            })
                                            .collect()),
                                    },
                                    batch,
                                    hooks: Vec::new(),
                                },
                                Action::Persist { .. } => Event::Persisted {
                                    snapshot: false,
                                    dump: false,
                                },
                                Action::Exit => break,
                                _ if closed => {
                                    h.now += secs(1.0);
                                    Event::Clock
                                }
                                _ => break,
                            };
                            action = h.next(event);
                        }
                    }
                }
                h.assert_books();
            }
            // Closed: the scheduler drains everything (gates waived) and exits.
            loop {
                if let Action::Exit = h.drive() {
                    break;
                }
                h.now += secs(1.0);
            }
            assert!(h.core.queue.is_empty());
            for handle in &handles {
                assert!(
                    handle.try_take().is_some(),
                    "seed {seed}: {} unresolved",
                    handle.id
                );
            }
            h.assert_books();
        }
    }

    /// Every group `join_group` forms is launch-compatible: it runs as
    /// one `run_batch_mode` call and each member gets the bits and
    /// profile of its own serial run — over shared, equal-content fresh
    /// and unique tensors, both modes, and single-kernel, chain,
    /// fast-path and unfused artifacts. Requests of one artifact and mode
    /// form one group whatever storage their tensors live in.
    #[test]
    fn every_group_is_one_launch_compatible_batch() {
        let fresh = |m: &BTreeMap<String, Tensor>| -> BTreeMap<String, Tensor> {
            m.iter()
                .map(|(n, t)| {
                    let copy =
                        Tensor::from_vec_with(t.shape().to_vec(), t.data().to_vec(), t.dtype());
                    (n.clone(), copy.unwrap())
                })
                .collect()
        };
        let chain = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut op = |shape| insum_tensor::rand_uniform(shape, -1.0, 1.0, &mut rng);
            map(&[
                ("op0", op(vec![3, 4])),
                ("op1", op(vec![4, 2])),
                ("op2", op(vec![2, 5])),
            ])
        };
        let transpose = |seed: u64| {
            let a = (0..12).map(|i| (i as u64 * seed) as f32).collect();
            map(&[
                ("C", Tensor::zeros(vec![4, 3])),
                ("A", Tensor::from_vec(vec![3, 4], a).unwrap()),
            ])
        };
        let unfused = InsumOptions::unfused();
        let opts = InsumOptions::default();
        let compiled = |c: Result<Compiled, insum::InsumError>| Arc::new(c.unwrap());
        // (artifact, shared tensors, a unique variant)
        let kinds = [
            (
                compiled(insum_with(SPMM, &spmm(1), &opts)),
                spmm(1),
                spmm(2),
            ),
            (
                compiled(insum::plan("ij,jk,kl->il", &chain(1), &opts)),
                chain(1),
                chain(2),
            ),
            (
                compiled(insum_with("C[j,i] = A[i,j]", &transpose(1), &opts)),
                transpose(1),
                transpose(2),
            ),
            (
                compiled(insum_with(SPMM, &spmm(1), &unfused)),
                spmm(1),
                spmm(3),
            ),
        ];
        assert!(kinds[0].0.launch_signature().is_some() && kinds[0].0.plan().is_none());
        assert!(kinds[1].0.plan().is_some());
        assert!(kinds[2].0.fast_path_pattern().is_some());
        assert!(kinds[3].0.launch_signature().is_none());
        for seed in 0..30 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let (mut groups, mut kind_of) = (Vec::new(), Vec::new());
            for id in 0..24u64 {
                let kind = rng.gen_range(0..kinds.len());
                kind_of.push(kind);
                let (artifact, shared, unique) = &kinds[kind];
                let tensors = match rng.gen_range(0..3) {
                    0 => shared.clone(),
                    1 => fresh(shared),
                    _ => unique.clone(),
                };
                let mode = [Mode::Execute, Mode::Analytic][rng.gen_range(0..2)];
                let resolved = Resolved {
                    pending: pending(id, tensors, mode),
                    artifact: Arc::clone(artifact),
                    registry_hit: true,
                    warm_pending: false,
                };
                join_group(&mut groups, resolved);
            }
            let mut seen = Vec::new();
            for (_, members) in &groups {
                let rep = &members[0].pending;
                let kind = kind_of[rep.id as usize];
                let kind_mode = (kind, rep.req.mode);
                assert!(
                    !seen.contains(&kind_mode),
                    "seed {seed}: one group per kind and mode"
                );
                seen.push(kind_mode);
                let inputs: Vec<_> = members.iter().map(|r| &r.pending.req.tensors).collect();
                let artifact = &members[0].artifact;
                let batch = artifact
                    .run_batch_mode(&inputs, rep.req.mode, &LaunchOptions::default())
                    .unwrap();
                for (r, (output, profile)) in members.iter().zip(batch) {
                    let req = &r.pending.req;
                    assert_eq!(kind_of[r.pending.id as usize], kind, "seed {seed}");
                    assert_eq!(req.mode, rep.req.mode, "seed {seed}");
                    match req.mode {
                        Mode::Execute => {
                            let (want, want_profile) = artifact.run(&req.tensors).unwrap();
                            assert!(output.bit_eq(&want), "seed {seed}, id {}", r.pending.id);
                            assert_eq!(profile, want_profile, "seed {seed}, id {}", r.pending.id);
                        }
                        Mode::Analytic => {
                            let want_profile = artifact.time(&req.tensors).unwrap();
                            assert_eq!(profile, want_profile, "seed {seed}, id {}", r.pending.id);
                        }
                    }
                }
            }
        }
    }

    fn pending(id: u64, tensors: BTreeMap<String, Tensor>, mode: Mode) -> Pending {
        Pending {
            id,
            req: Request {
                tenant: Arc::from("t"),
                expr: String::new(),
                tensors,
                options: InsumOptions::default(),
                mode,
                deadline: None,
                max_retries: 0,
                priority: 0,
                ticket: Arc::new(TicketInner::default()),
            },
            submitted_at: Duration::ZERO,
            deadline: None,
            attempt: 0,
            not_before: None,
            trace: Trace::default(),
        }
    }
}
