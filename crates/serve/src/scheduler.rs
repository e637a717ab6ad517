//! The batching scheduler.
//!
//! The scheduler thread drains the admission queue, resolves every
//! request to a compiled artifact through the registry — always an
//! [`insum::Compiled`], a plan of steps — groups launch-compatible
//! requests, and executes each group as one batched launch over the
//! shared simulator thread pool ([`insum::Compiled::run_batch_mode`],
//! which batches step by step). `GroupKey` has three variants: an
//! artifact that is exactly one fused kernel groups by `Batched` (shared
//! artifact plus the launch signature, argument metadata, interpreter
//! mode and device spelled out); planned chains and fast-path artifacts
//! have no single launch signature and group by `Artifact` (shared
//! artifact plus mode — the registry key already fixes everything else);
//! an unfused artifact or an unresolvable binding runs alone under
//! `Single`. Grouping only ever
//! changes *scheduling*: each request inside a batch is executed with
//! exactly the per-request interpreter semantics, so its response is
//! bit-identical to a serial [`insum::Compiled::run`] no matter the
//! arrival order or batch composition.
//!
//! Layered on top is the request lifecycle (see the crate docs for the
//! full state machine): before executing anything from a drained
//! window the scheduler expires past-deadline requests, rejects
//! quarantined tenants (circuit breaker) and exhausted budgets, and
//! orders the surviving launch-compatible groups by deficit-weighted
//! fairness — tenants that have consumed the least simulated cost go
//! first, over-budget tenants go last — before chunking them into
//! batches. Transient failures (contained panics, injected faults)
//! requeue with bounded exponential backoff up to the request's
//! `max_retries`; retried attempts re-enter this same path.

use crate::engine::{
    finalize_terminal, relock, rewait, rewait_timeout, snapshot_of, Pending, Shared,
};
use crate::error::ServeError;
use crate::lifecycle::{BreakerDecision, BreakerPanel, BudgetStatus, CostMeter};
use crate::session::{RequestId, Response};
use insum::{Compiled, LaunchOptions, Mode, Tensor};
use insum_telemetry::{hook, Phase, TraceOutcome};
use insum_tensor::DType;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Test-only fault injection, compiled only under the `fault-injection`
/// feature (enabled by this crate's own tests through a self
/// dev-dependency), so release builds carry neither the hooks nor their
/// per-batch checks.
///
/// Two layers coexist:
///
/// * **Targeted faults** — panic a named tenant's batches at the
///   execution boundary ([`set_panic_tenant`]) or a named expression
///   inside the compile boundary ([`set_panic_compile_expr`]),
///   simulating simulator/compiler bugs so the panic-isolation and
///   lock-recovery paths can be exercised end to end.
/// * **A seeded chaos plan** ([`FaultPlan`], installed with
///   [`set_plan`]) — deterministic pseudo-random execute panics,
///   compile panics, injected latency, and budget spikes. Execute-side
///   decisions are pure functions of `(seed, request id, attempt)`, so
///   a faulted attempt faults on every replay while its retry can
///   deterministically succeed; compile-side decisions key on a global
///   compile-attempt counter so a recompile after an evicted panic
///   entry rolls fresh.
#[cfg(feature = "fault-injection")]
#[doc(hidden)]
pub mod faults {
    use crate::engine::relock;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Mutex;
    use std::time::Duration;

    static ACTIVE: AtomicBool = AtomicBool::new(false);
    static PANIC_TENANT: Mutex<Option<String>> = Mutex::new(None);
    static PANIC_COMPILE_EXPR: Mutex<Option<String>> = Mutex::new(None);
    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    static COMPILE_ATTEMPTS: AtomicU64 = AtomicU64::new(0);

    /// A seeded, deterministic chaos plan. Every rate is per-mille
    /// (`0..=1000`); a zeroed plan injects nothing.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultPlan {
        /// Seed for every fault decision.
        pub seed: u64,
        /// Per-mille chance an execution attempt panics.
        pub exec_panic_per_mille: u16,
        /// Per-mille chance a compile attempt panics (keyed by a global
        /// compile-attempt counter, so retries recompile cleanly).
        pub compile_panic_per_mille: u16,
        /// Per-mille chance a request's launch sees injected latency.
        pub latency_per_mille: u16,
        /// The injected latency, in engine-clock time.
        pub latency: Duration,
        /// Per-mille chance a request's charged cost spikes.
        pub budget_spike_per_mille: u16,
        /// Extra cost units charged on a spike.
        pub budget_spike_units: u64,
    }

    /// Arm (or with `None` disarm) the execution-boundary fault: any
    /// batch containing a request from this tenant panics.
    pub fn set_panic_tenant(tenant: Option<&str>) {
        *relock(&PANIC_TENANT) = tenant.map(str::to_string);
        rearm();
    }

    /// Arm (or with `None` disarm) the compile-boundary fault: compiling
    /// this exact expression panics.
    pub fn set_panic_compile_expr(expr: Option<&str>) {
        *relock(&PANIC_COMPILE_EXPR) = expr.map(str::to_string);
        rearm();
    }

    /// Install (or with `None` clear) the chaos plan. Resets the
    /// compile-attempt counter so runs replay from a clean slate.
    pub fn set_plan(plan: Option<FaultPlan>) {
        *relock(&PLAN) = plan;
        COMPILE_ATTEMPTS.store(0, Ordering::Relaxed);
        rearm();
    }

    fn rearm() {
        let armed = relock(&PANIC_TENANT).is_some()
            || relock(&PANIC_COMPILE_EXPR).is_some()
            || relock(&PLAN).is_some();
        ACTIVE.store(armed, Ordering::Relaxed);
    }

    fn plan() -> Option<FaultPlan> {
        if ACTIVE.load(Ordering::Relaxed) {
            *relock(&PLAN)
        } else {
            None
        }
    }

    /// SplitMix64-style mix of the seed and decision coordinates.
    fn decision(seed: u64, a: u64, b: u64, salt: u64) -> u64 {
        let mut z = seed
            ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ salt.wrapping_mul(0x94D0_49BB_1331_11EB);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn roll(plan: &FaultPlan, per_mille: u16, a: u64, b: u64, salt: u64) -> bool {
        per_mille > 0 && decision(plan.seed, a, b, salt) % 1000 < u64::from(per_mille)
    }

    pub(crate) fn panic_tenant() -> Option<String> {
        if ACTIVE.load(Ordering::Relaxed) {
            relock(&PANIC_TENANT).clone()
        } else {
            None
        }
    }

    pub(crate) fn exec_panic(id: u64, attempt: u32) -> bool {
        plan().is_some_and(|p| roll(&p, p.exec_panic_per_mille, id, u64::from(attempt), 1))
    }

    pub(crate) fn exec_latency(id: u64, attempt: u32) -> Option<Duration> {
        let p = plan()?;
        if roll(&p, p.latency_per_mille, id, u64::from(attempt), 2) {
            Some(p.latency)
        } else {
            None
        }
    }

    pub(crate) fn budget_spike(id: u64) -> u64 {
        plan().map_or(0, |p| {
            if roll(&p, p.budget_spike_per_mille, id, 0, 3) {
                p.budget_spike_units
            } else {
                0
            }
        })
    }

    pub(crate) fn maybe_panic_compile(expr: &str) {
        if !ACTIVE.load(Ordering::Relaxed) {
            return;
        }
        if relock(&PANIC_COMPILE_EXPR).as_deref() == Some(expr) {
            panic!("injected compile fault for expression {expr:?}");
        }
        if let Some(p) = *relock(&PLAN) {
            let n = COMPILE_ATTEMPTS.fetch_add(1, Ordering::Relaxed);
            if roll(&p, p.compile_panic_per_mille, n, 0, 4) {
                panic!("injected chaos compile fault (compile attempt {n})");
            }
        }
    }
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

/// Launch-compatibility key: requests with equal keys may share one
/// batched launch.
#[derive(Clone, PartialEq, Eq, Hash)]
enum GroupKey {
    Batched {
        /// Identity of the shared registry artifact
        /// (`Arc::as_ptr`-derived). The 64-bit fingerprint alone could
        /// collide across distinct kernels — `ProgramCache` guards the
        /// same case with full kernel equality — so batches only ever
        /// form within one compiled artifact, which the registry already
        /// dedups across tenants.
        artifact: usize,
        kernel_fingerprint: u64,
        grid: Vec<usize>,
        params: Vec<String>,
        lens: Vec<usize>,
        dtypes: Vec<DType>,
        analytic: bool,
        device: String,
    },
    /// A planned contraction chain or a fast-path artifact (microkernel
    /// or stride view): there is no single simulator launch signature to
    /// compare, but two requests resolve to the same `Arc` only through
    /// the same registry key — equal expression, argument metadata
    /// (names, shapes, dtypes), and normalized options — so artifact
    /// identity plus interpreter mode already proves launch
    /// compatibility, step for step. Chains batch per step; fast-path
    /// members execute back-to-back under one batched entry point (and
    /// one fault-injection check).
    Artifact { artifact: usize, analytic: bool },
    /// Unbatchable (unfused pipeline or unresolvable binding): executes
    /// alone, keyed by request id.
    Single(u64),
}

struct Resolved {
    pending: Pending,
    artifact: Arc<Compiled>,
    registry_hit: bool,
    /// Miss whose compile lowered no simulator program: warm/cold is
    /// decided at the artifact's first launch (lazy lowering).
    warm_pending: bool,
    /// Content fingerprints of the bound tensors in map order, computed
    /// lazily so the content-identity grouping fallback hashes each
    /// request's tensors at most once per drain window (and never when
    /// `ptr_eq` settles every comparison).
    fingerprints: std::cell::OnceCell<Vec<u64>>,
}

/// Scheduler main loop: wait for eligible work, drain, process; exit
/// once the engine is closed and the queue is empty. The cost meter and
/// circuit breaker live here — they are scheduler-thread-local, so every
/// budget and quarantine decision happens at a deterministic point in
/// the scheduling order, without locks.
pub(crate) fn run(shared: &Shared) {
    let mut meter = CostMeter::new(shared.config.budgets.clone(), shared.config.default_budget);
    let mut breaker = BreakerPanel::new(
        shared.config.breaker_threshold,
        shared.config.breaker_cooldown,
    );
    // Profiling hook: compilation, autotuning, and launches all execute
    // on this thread, so a thread-local collector sees exactly the work
    // done for the requests being processed. The engine clock is the
    // time source — under a virtual TestClock every hook duration is 0
    // and traces stay bit-deterministic.
    let _hook_guard = shared.config.telemetry.then(|| {
        let clock = Arc::clone(&shared.clock);
        hook::collect(Box::new(move || clock.now()))
    });
    let mut last_snapshot = shared.clock.now();
    let mut last_dump = last_snapshot;
    while let Some(drained) = wait_for_work(shared) {
        shared.not_full.notify_all();
        // Last-resort containment: `process` isolates panics at the
        // compilation and execution boundaries itself, but if one ever
        // escapes, the scheduler thread must survive — a dead scheduler
        // strands every queued and future request of every tenant.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            process(shared, drained, &mut meter, &mut breaker);
        }));
        maybe_snapshot(shared, &mut last_snapshot);
        maybe_dump(shared, &mut last_dump);
    }
    // Drain/shutdown write: whatever was compiled since the last cadence
    // write becomes durable before the scheduler thread exits.
    write_snapshot(shared);
    write_telemetry_dump(shared);
}

/// Cadence persistence: once [`ServeConfig::snapshot_interval`] has
/// elapsed since the last write, persist the program cache and autotune
/// winners. Runs between drained windows on the scheduler thread, so it
/// never blocks admission or an in-flight batch.
fn maybe_snapshot(shared: &Shared, last: &mut Duration) {
    if shared.config.snapshot_path.is_none() {
        return;
    }
    let now = shared.clock.now();
    if now.saturating_sub(*last) < shared.config.snapshot_interval {
        return;
    }
    if write_snapshot(shared) {
        *last = now;
    }
}

/// Cadence telemetry dump: once [`ServeConfig::telemetry_dump_interval`]
/// has elapsed since the last dump, atomically write the metrics
/// snapshot (Prometheus text + JSON sibling). Runs between drained
/// windows on the scheduler thread.
///
/// [`ServeConfig::telemetry_dump_interval`]: crate::ServeConfig::telemetry_dump_interval
fn maybe_dump(shared: &Shared, last: &mut Duration) {
    if shared.config.telemetry_dump_path.is_none() {
        return;
    }
    let now = shared.clock.now();
    if now.saturating_sub(*last) < shared.config.telemetry_dump_interval {
        return;
    }
    if write_telemetry_dump(shared) {
        *last = now;
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
    let prom = snap.render_prometheus();
    let json = snap.render_json();
    let ok = insum_snapshot::write_atomic(path, prom.as_bytes()).is_ok()
        && insum_snapshot::write_atomic(&path.with_extension("json"), json.as_bytes()).is_ok();
    if ok {
        relock(&shared.metrics).telemetry_dumps += 1;
    }
    ok
}

/// Atomically persist the process-wide program cache and autotune
/// winners to the configured snapshot path (temp + fsync + rename).
/// Returns whether a write happened; failures are absorbed — a server
/// that cannot persist keeps serving, it just restarts cold.
fn write_snapshot(shared: &Shared) -> bool {
    let Some(path) = &shared.config.snapshot_path else {
        return false;
    };
    match insum_inductor::ProgramCache::global().save_snapshot(path) {
        Ok(_) => {
            relock(&shared.metrics).snapshot_writes += 1;
            true
        }
        Err(_) => false,
    }
}

/// Block until at least one queued request is *eligible* and drain the
/// eligible subset (preserving arrival order among them; the rest stay
/// queued). Returns `None` once the engine is closed and empty.
///
/// Eligibility: a past-deadline request is always eligible (expiry is
/// enforced even while the engine is paused); otherwise the engine must
/// be runnable (not paused, or draining for shutdown) and the request's
/// retry-backoff gate must have passed (the gate is waived at shutdown
/// so draining never stalls). Cancelled requests are purged here, which
/// frees their admission slots.
fn wait_for_work(shared: &Shared) -> Option<Vec<Pending>> {
    let mut state = relock(&shared.state);
    loop {
        if state.closed && state.queue.is_empty() {
            return None;
        }
        // Purge cancelled requests (their cancel path counted them but —
        // if the scheduler got here first — could not remove them from
        // the queue). Whoever removes a request from the queue finalizes
        // it, so its queue wait lands in the histograms exactly once.
        if state.queue.iter().any(|p| p.ticket.is_complete()) {
            let purge_now = shared.clock.now();
            let mut metrics = relock(&shared.metrics);
            let mut kept = VecDeque::with_capacity(state.queue.len());
            for mut p in state.queue.drain(..) {
                if p.ticket.is_complete() {
                    let wait = purge_now.saturating_sub(p.submitted_at);
                    finalize_terminal(
                        shared,
                        &mut p,
                        TraceOutcome::Cancelled,
                        &mut metrics,
                        wait,
                        purge_now,
                    );
                } else {
                    kept.push_back(p);
                }
            }
            state.queue = kept;
            drop(metrics);
            shared.not_full.notify_all();
        }
        let now = shared.clock.now();
        let closed = state.closed;
        let runnable = !state.paused || closed;
        let is_eligible = |p: &Pending| {
            if p.deadline.is_some_and(|d| now >= d) {
                return true;
            }
            if !runnable {
                return false;
            }
            match p.not_before {
                None => true,
                Some(gate) => closed || now >= gate,
            }
        };
        if state.queue.iter().any(is_eligible) {
            let mut drained = Vec::new();
            let mut kept = VecDeque::new();
            for p in state.queue.drain(..) {
                if is_eligible(&p) {
                    drained.push(p);
                } else {
                    kept.push_back(p);
                }
            }
            state.queue = kept;
            return Some(drained);
        }
        if closed && state.queue.is_empty() {
            return None;
        }
        // Nothing eligible: park until notified (submit, cancel, pause
        // toggles, clock jumps) or until the earliest timed obligation —
        // a pending deadline, or a backoff gate if we could run it.
        let mut next_due: Option<Duration> = None;
        for p in &state.queue {
            let mut consider = |t: Duration| {
                next_due = Some(next_due.map_or(t, |d| d.min(t)));
            };
            if let Some(d) = p.deadline {
                if d > now {
                    consider(d);
                }
            }
            if runnable {
                if let Some(gate) = p.not_before {
                    if gate > now {
                        consider(gate);
                    }
                }
            }
        }
        state = match next_due.and_then(|due| shared.clock.wait_budget(due)) {
            // A virtual clock (`None` budget) or no timed obligation:
            // park until notified.
            None => rewait(&shared.not_empty, state),
            Some(budget) if budget.is_zero() => state, // due now: re-check
            Some(budget) => rewait_timeout(&shared.not_empty, state, budget),
        };
    }
}

/// Expire, admit, resolve, order, and execute one drained window.
fn process(
    shared: &Shared,
    drained: Vec<Pending>,
    meter: &mut CostMeter,
    breaker: &mut BreakerPanel,
) {
    let now = shared.clock.now();

    // Lifecycle gate: deadline expiry, circuit breaker, budget — in that
    // order, so an expired request never counts against its tenant's
    // budget and a quarantined tenant's requests don't drain its bucket.
    // Every terminal decision below finalizes the request (queue-wait
    // histogram + trace) exactly once; a completion that loses the
    // first-wins race lost to a cancel, so the finalize outcome flips to
    // `Cancelled` (the cancel path already counted it but the scheduler
    // owns the `Pending`).
    let telemetry = shared.config.telemetry;
    let mut survivors: Vec<Pending> = Vec::with_capacity(drained.len());
    for mut pending in drained {
        // Cancelled between drain and processing: the cancel path
        // counted it; the scheduler owns the span and the wait.
        if pending.ticket.is_complete() {
            let wait = now.saturating_sub(pending.submitted_at);
            let mut metrics = relock(&shared.metrics);
            finalize_terminal(
                shared,
                &mut pending,
                TraceOutcome::Cancelled,
                &mut metrics,
                wait,
                now,
            );
            continue;
        }
        if telemetry {
            pending.trace.push(Phase::Scheduled, now, 0);
        }
        let wait = now.saturating_sub(pending.submitted_at);
        if let Some(deadline) = pending.deadline {
            if now >= deadline {
                // Timeouts are breaker-relevant: a tenant whose requests
                // keep expiring is burning queue slots.
                let opened = breaker.record_failure(&pending.tenant, now);
                let mut metrics = relock(&shared.metrics);
                let outcome = if pending.ticket.complete(Err(ServeError::DeadlineExceeded {
                    deadline: deadline.saturating_sub(pending.submitted_at),
                })) {
                    metrics.deadline_expired += 1;
                    metrics.tenant(&pending.tenant).deadline_expired += 1;
                    TraceOutcome::Expired
                } else {
                    TraceOutcome::Cancelled
                };
                finalize_terminal(shared, &mut pending, outcome, &mut metrics, wait, now);
                if opened {
                    metrics.tenant(&pending.tenant).breaker_open_transitions += 1;
                }
                continue;
            }
        }
        if breaker.admit(&pending.tenant, now) == BreakerDecision::Reject {
            let mut metrics = relock(&shared.metrics);
            let outcome = if pending.ticket.complete(Err(ServeError::Quarantined {
                tenant: pending.tenant.to_string(),
            })) {
                metrics.quarantined += 1;
                metrics.tenant(&pending.tenant).quarantined += 1;
                TraceOutcome::Quarantined
            } else {
                TraceOutcome::Cancelled
            };
            finalize_terminal(shared, &mut pending, outcome, &mut metrics, wait, now);
            continue;
        }
        if meter.status(&pending.tenant, now) == BudgetStatus::Exhausted {
            reject_exhausted(shared, pending, now);
            continue;
        }
        survivors.push(pending);
    }

    // Grouping preserves arrival order: groups are ordered by their
    // earliest request, and requests stay in arrival order inside each
    // group (fair ordering below only reorders on unequal keys).
    let mut groups: Vec<(GroupKey, Vec<Resolved>)> = Vec::new();
    for mut pending in survivors {
        let resolve_start = shared.clock.now();
        let (result, registry_hit, compile_lowered) =
            shared
                .registry
                .get_or_compile(&pending.expr, &pending.tensors, &pending.options);
        let resolve_took = shared.clock.now().saturating_sub(resolve_start);
        if telemetry {
            pending
                .trace
                .push(Phase::RegistryWait, resolve_start, u64::from(registry_hit));
            // Compile/autotune hook intervals emitted while resolving
            // belong to this request alone — it is the one the registry
            // compiled for.
            for (phase, nanos) in hook::drain() {
                pending.trace.add_cost(phase.trace_phase(), nanos);
            }
        }
        {
            let mut metrics = relock(&shared.metrics);
            let tenant = metrics.tenant(&pending.tenant);
            if registry_hit {
                tenant.registry_hits += 1;
            } else {
                tenant.registry_misses += 1;
                tenant.compile.record_duration(resolve_took);
            }
        }
        match result {
            Err(e) => {
                // A compile *panic* (ServeError::Engine) is transient —
                // the registry evicts it, so a retry recompiles.
                // Deterministic compile errors would fail identically
                // and never retry.
                let transient = matches!(e, ServeError::Engine(_));
                if transient && pending.attempt < pending.max_retries {
                    schedule_retry(shared, pending, now);
                } else {
                    let opened = transient && breaker.record_failure(&pending.tenant, now);
                    let msg = e.to_string();
                    let mut metrics = relock(&shared.metrics);
                    let outcome = if pending.ticket.complete(Err(e)) {
                        metrics.failed += 1;
                        metrics.tenant(&pending.tenant).failed += 1;
                        TraceOutcome::Failed(msg)
                    } else {
                        TraceOutcome::Cancelled
                    };
                    let wait = now.saturating_sub(pending.submitted_at);
                    finalize_terminal(shared, &mut pending, outcome, &mut metrics, wait, now);
                    if opened {
                        metrics.tenant(&pending.tenant).breaker_open_transitions += 1;
                    }
                }
            }
            Ok(artifact) => {
                if !registry_hit {
                    relock(&shared.metrics)
                        .kernel(&kernel_key(&artifact))
                        .compile
                        .record_duration(resolve_took);
                }
                let resolved = Resolved {
                    pending,
                    artifact,
                    registry_hit,
                    warm_pending: !registry_hit && !compile_lowered,
                    fingerprints: std::cell::OnceCell::new(),
                };
                // Cheap first pass: if every tensor handle is pointer-
                // identical to a batched group representative's (same
                // shared artifact, same mode), launch compatibility is
                // proved without re-extracting argument metadata — the
                // common case for retry storms and fan-out, where
                // requests share copy-on-write storage. `ptr_eq` implies
                // equal lengths and dtypes, so the fast path can only
                // join groups the full key would also join.
                match groups.iter_mut().find(|(k, members)| {
                    !matches!(k, GroupKey::Single(_)) && ptr_identical(&resolved, &members[0])
                }) {
                    Some((_, members)) => members.push(resolved),
                    None => {
                        let key = group_key(&resolved.artifact, &resolved.pending);
                        match groups.iter_mut().find(|(k, _)| *k == key) {
                            Some((_, members)) => members.push(resolved),
                            None => groups.push((key, vec![resolved])),
                        }
                    }
                }
            }
        }
    }

    // Deficit-weighted fair ordering. Each request's key is
    // (over-budget?, -priority, tenant's lifetime charged cost, id):
    // in-budget tenants run before deprioritized ones, higher priority
    // runs earlier, and among equals the tenant that has consumed the
    // least simulated cost goes first. The sorts are stable and the
    // final id component reproduces arrival order on full ties, so an
    // unbudgeted equal-priority workload is scheduled exactly as it
    // arrived — and the ordering never changes *what* executes, only
    // when, so responses stay bit-identical.
    let mut rank: BTreeMap<String, (bool, u64)> = BTreeMap::new();
    for (_, members) in &groups {
        for r in members {
            let tenant = r.pending.tenant.as_ref();
            if !rank.contains_key(tenant) {
                let deprioritized = meter.status(tenant, now) == BudgetStatus::Deprioritized;
                rank.insert(tenant.to_string(), (deprioritized, meter.charged(tenant)));
            }
        }
    }
    let key_of = |r: &Resolved| {
        let (deprioritized, charged) = rank
            .get(r.pending.tenant.as_ref())
            .copied()
            .unwrap_or((false, 0));
        (
            deprioritized,
            std::cmp::Reverse(r.pending.priority),
            charged,
            r.pending.id,
        )
    };
    for (_, members) in &mut groups {
        members.sort_by_key(&key_of);
    }
    groups.sort_by_key(|(_, members)| key_of(&members[0]));

    for (_, mut members) in groups {
        while !members.is_empty() {
            let take = members.len().min(shared.config.max_batch);
            // Re-gate budgets at launch time: charges land as earlier
            // batches of this window execute, so a tenant that floods a
            // single drain window cannot outrun its bucket — by the time
            // its later batches launch, the balance reflects what the
            // earlier ones actually cost.
            let launch_now = shared.clock.now();
            let mut batch: Vec<Resolved> = Vec::with_capacity(take);
            for r in members.drain(..take) {
                if meter.status(&r.pending.tenant, launch_now) == BudgetStatus::Exhausted {
                    reject_exhausted(shared, r.pending, launch_now);
                } else {
                    batch.push(r);
                }
            }
            if !batch.is_empty() {
                execute_batch(shared, batch, meter, breaker);
            }
        }
    }
}

/// Complete a request with [`ServeError::BudgetExhausted`], counting it
/// only if the completion won against a concurrent cancel, and finalize
/// its queue wait and trace either way.
fn reject_exhausted(shared: &Shared, mut pending: Pending, now: Duration) {
    let mut metrics = relock(&shared.metrics);
    let outcome = if pending.ticket.complete(Err(ServeError::BudgetExhausted {
        tenant: pending.tenant.to_string(),
    })) {
        metrics.budget_rejected += 1;
        metrics.tenant(&pending.tenant).budget_rejected += 1;
        TraceOutcome::BudgetRejected
    } else {
        TraceOutcome::Cancelled
    };
    let wait = now.saturating_sub(pending.submitted_at);
    finalize_terminal(shared, &mut pending, outcome, &mut metrics, wait, now);
}

/// Requeue a transiently failed request with bounded exponential
/// backoff (`retry_backoff × 2^(attempt-1)`, capped at
/// `retry_backoff_max`). Retries bypass the admission capacity check —
/// the request was already admitted once, and re-admission against a
/// full queue could deadlock the scheduler behind blocked submitters.
fn schedule_retry(shared: &Shared, mut pending: Pending, now: Duration) {
    pending.attempt += 1;
    if shared.config.telemetry {
        pending
            .trace
            .push(Phase::Retry, now, u64::from(pending.attempt));
    }
    let shift = (pending.attempt - 1).min(20);
    let backoff = shared
        .config
        .retry_backoff
        .saturating_mul(1u32 << shift)
        .min(shared.config.retry_backoff_max);
    pending.not_before = Some(now + backoff);
    let mut state = relock(&shared.state);
    {
        let mut metrics = relock(&shared.metrics);
        metrics.retries += 1;
        metrics.tenant(&pending.tenant).retries += 1;
    }
    state.queue.push_back(pending);
    drop(state);
    shared.not_empty.notify_all();
}

/// Terminal or retryable handling of a single request's transient
/// failure (a contained panic): requeue if attempts remain, otherwise
/// record the breaker failure and complete the ticket.
fn transient_failure(
    shared: &Shared,
    mut pending: Pending,
    err: ServeError,
    breaker: &mut BreakerPanel,
    now: Duration,
    wait: Duration,
) {
    if pending.attempt < pending.max_retries && !pending.ticket.is_complete() {
        schedule_retry(shared, pending, now);
        return;
    }
    let opened = breaker.record_failure(&pending.tenant, now);
    let msg = err.to_string();
    let mut metrics = relock(&shared.metrics);
    let outcome = if pending.ticket.complete(Err(err)) {
        metrics.failed += 1;
        metrics.tenant(&pending.tenant).failed += 1;
        TraceOutcome::Failed(msg)
    } else {
        TraceOutcome::Cancelled
    };
    finalize_terminal(shared, &mut pending, outcome, &mut metrics, wait, now);
    if opened {
        metrics.tenant(&pending.tenant).breaker_open_transitions += 1;
    }
}

/// The cheap first pass of launch-compatibility grouping: same registry
/// artifact, same interpreter mode, and identical tensor bindings —
/// pointer-identical ([`Tensor::ptr_eq`], free), or bit-identical by
/// content fingerprint (the ROADMAP's content-identity dedup first
/// step: bit-identical-but-not-*shared* arguments group together too).
/// Either proof implies equal lengths and dtypes, so this pass can only
/// join groups the full key would also join.
fn ptr_identical(candidate: &Resolved, rep: &Resolved) -> bool {
    Arc::ptr_eq(&candidate.artifact, &rep.artifact)
        && candidate.pending.mode == rep.pending.mode
        && bindings_identical(
            &candidate.pending.tensors,
            &rep.pending.tensors,
            &candidate.fingerprints,
            &rep.fingerprints,
        )
}

/// True when both maps bind the same names to identical tensors.
/// `ptr_eq` settles a pair for free; pairs it cannot settle fall back to
/// equal shape + dtype (launch compatibility stays proven even under a
/// hash collision) plus equal [`Tensor::content_fingerprint`], memoized
/// in `memo_*` so each request's tensors are hashed at most once per
/// drain window.
fn bindings_identical(
    a: &BTreeMap<String, Tensor>,
    b: &BTreeMap<String, Tensor>,
    memo_a: &std::cell::OnceCell<Vec<u64>>,
    memo_b: &std::cell::OnceCell<Vec<u64>>,
) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut unsettled = Vec::new();
    for (i, ((an, at), (bn, bt))) in a.iter().zip(b.iter()).enumerate() {
        if an != bn || at.dtype() != bt.dtype() || at.shape() != bt.shape() {
            return false;
        }
        if !at.ptr_eq(bt) {
            unsettled.push(i);
        }
    }
    if unsettled.is_empty() {
        return true;
    }
    let fp = |map: &BTreeMap<String, Tensor>| -> Vec<u64> {
        map.values().map(Tensor::content_fingerprint).collect()
    };
    let fa = memo_a.get_or_init(|| fp(a));
    let fb = memo_b.get_or_init(|| fp(b));
    unsettled.into_iter().all(|i| fa[i] == fb[i])
}

fn group_key(artifact: &Arc<Compiled>, pending: &Pending) -> GroupKey {
    if artifact.plan().is_some() || artifact.fast_path_pattern().is_some() {
        // See the variant docs: artifact identity subsumes the
        // launch-compatibility conditions a kernel signature would
        // encode, for every step.
        return GroupKey::Artifact {
            artifact: Arc::as_ptr(artifact) as usize,
            analytic: pending.mode == Mode::Analytic,
        };
    }
    let Some(sig) = artifact.launch_signature() else {
        return GroupKey::Single(pending.id);
    };
    let mut lens = Vec::with_capacity(sig.params.len());
    let mut dtypes = Vec::with_capacity(sig.params.len());
    for name in &sig.params {
        let Some(t) = pending.tensors.get(name) else {
            // Missing binding: let the execution path report it for this
            // request alone.
            return GroupKey::Single(pending.id);
        };
        lens.push(t.len());
        dtypes.push(t.dtype());
    }
    GroupKey::Batched {
        artifact: Arc::as_ptr(artifact) as usize,
        kernel_fingerprint: sig.kernel_fingerprint,
        grid: sig.grid,
        params: sig.params,
        lens,
        dtypes,
        analytic: pending.mode == Mode::Analytic,
        device: format!("{:?}", artifact.options().device),
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

/// Execute one launch-compatible batch and complete its tickets.
fn execute_batch(
    shared: &Shared,
    mut batch: Vec<Resolved>,
    meter: &mut CostMeter,
    breaker: &mut BreakerPanel,
) {
    let artifact = batch[0].artifact.clone();
    let mode = batch[0].pending.mode;
    let launch = LaunchOptions {
        threads: shared.config.sim_threads,
        ..Default::default()
    };
    let batch_size = batch.len();
    let start = shared.clock.now();
    let telemetry = shared.config.telemetry;
    if telemetry {
        for r in &mut batch {
            r.pending
                .trace
                .push(Phase::Batched, start, batch_size as u64);
        }
    }
    let waits: Vec<Duration> = batch
        .iter()
        .map(|r| start.saturating_sub(r.pending.submitted_at))
        .collect();
    let inputs: Vec<&std::collections::BTreeMap<String, Tensor>> =
        batch.iter().map(|r| &r.pending.tensors).collect();
    // A miss whose compile lowered nothing classifies here: if this
    // first launch lowers nothing either, every program was already
    // resident (snapshot-seeded) and the miss counts as warm.
    let compiles_before = batch
        .iter()
        .any(|r| r.warm_pending)
        .then(|| insum_inductor::ProgramCache::global().stats().compiles);
    // Contain panics at the execution boundary: a request that panics the
    // simulator must fail alone — retrying if attempts remain, else
    // completing its ticket with [`ServeError::Engine`] — instead of
    // killing the scheduler thread (which would strand every other
    // tenant) or poisoning the engine locks. The engine state is
    // consistent here: no engine lock is held across this call.
    let caught = catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "fault-injection")]
        {
            if let Some(t) = faults::panic_tenant() {
                if batch.iter().any(|r| r.pending.tenant.as_ref() == t) {
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
        artifact.run_batch_mode(&inputs, mode, &launch)
    }));
    let kkey = kernel_key(&artifact);
    drop(inputs);
    if telemetry {
        // Every batch member experienced the whole launch: the hook's
        // launch (and any lazy-lowering compile) intervals fold into
        // every member's span.
        let intervals = hook::drain();
        if !intervals.is_empty() {
            for r in &mut batch {
                for &(phase, nanos) in &intervals {
                    r.pending.trace.add_cost(phase.trace_phase(), nanos);
                }
            }
        }
    }
    let result = match caught {
        Ok(result) => result,
        Err(payload) if batch_size > 1 => {
            // Same isolation as a batched error below: re-run each
            // request alone so one panicking tenant cannot fail (or
            // hang) its batch-mates.
            drop(payload);
            for resolved in batch {
                execute_batch(shared, vec![resolved], meter, breaker);
            }
            return;
        }
        Err(payload) => {
            let err = ServeError::Engine(panic_message(payload));
            let now = shared.clock.now();
            for (resolved, wait) in batch.into_iter().zip(waits) {
                transient_failure(shared, resolved.pending, err.clone(), breaker, now, wait);
            }
            return;
        }
    };

    match result {
        Ok(results) => {
            debug_assert_eq!(results.len(), batch_size);
            if let Some(before) = compiles_before {
                if insum_inductor::ProgramCache::global().stats().compiles == before {
                    for _ in batch.iter().filter(|r| r.warm_pending) {
                        shared.registry.note_warm_miss();
                    }
                }
            }
            let end = shared.clock.now();
            let mut metrics = relock(&shared.metrics);
            metrics.batches += 1;
            metrics.batched_requests += batch_size as u64;
            metrics.largest_batch = metrics.largest_batch.max(batch_size);
            {
                let km = metrics.kernel(&kkey);
                km.requests += batch_size as u64;
                km.batches += 1;
                km.largest_batch = km.largest_batch.max(batch_size);
            }
            for ((mut resolved, (output, profile)), wait) in
                batch.into_iter().zip(results).zip(waits)
            {
                let instances = profile.total_stats().instances;
                #[cfg(feature = "fault-injection")]
                let spike = faults::budget_spike(resolved.pending.id);
                #[cfg(not(feature = "fault-injection"))]
                let spike = 0u64;
                let units = profile.total_cost_units().saturating_add(spike);
                let e2e = end.saturating_sub(resolved.pending.submitted_at);
                {
                    let km = metrics.kernel(&kkey);
                    km.instances_simulated += instances;
                    km.simulated_seconds_total += profile.total_time();
                    km.queue_wait.record_duration(wait);
                }
                // The work executed whether or not the client still
                // wants the result: charge the budget and credit the
                // breaker unconditionally.
                meter.charge(&resolved.pending.tenant, units, end);
                breaker.record_success(&resolved.pending.tenant);
                // Cancelled mid-flight: the result is discarded (the
                // cancel path counted it) but the scheduler still owns
                // the span and queue wait.
                if resolved.pending.ticket.is_complete() {
                    finalize_terminal(
                        shared,
                        &mut resolved.pending,
                        TraceOutcome::Cancelled,
                        &mut metrics,
                        wait,
                        end,
                    );
                    continue;
                }
                // Finalize before completing so the response can carry
                // the full span. A cancel that sneaks in between here
                // and `complete` keeps the counters consistent: the
                // queue wait was recorded exactly once, the cancel path
                // counted `cancelled`, and the `completed` counters
                // below are skipped because the completion lost.
                let trace = finalize_terminal(
                    shared,
                    &mut resolved.pending,
                    TraceOutcome::Completed,
                    &mut metrics,
                    wait,
                    end,
                );
                let response = Response {
                    id: RequestId(resolved.pending.id),
                    tenant: resolved.pending.tenant.to_string(),
                    output,
                    profile,
                    queue_seconds: wait.as_secs_f64(),
                    batch_size,
                    registry_hit: resolved.registry_hit,
                    attempts: resolved.pending.attempt + 1,
                    trace,
                };
                // First-wins against a racing cancel: count the outcome
                // only if this completion actually delivered (the
                // metrics lock is held across the completion, so a
                // waiter can never observe the response before its
                // counters).
                if resolved.pending.ticket.complete(Ok(response)) {
                    metrics.completed += 1;
                    metrics.kernel(&kkey).e2e.record_duration(e2e);
                    let tm = metrics.tenant(&resolved.pending.tenant);
                    tm.completed += 1;
                    tm.e2e.record_duration(e2e);
                    tm.instances_simulated += instances;
                    tm.cost_units += units;
                    tm.cost.record(units);
                }
            }
        }
        Err(_) if batch_size > 1 => {
            // Isolate the failure: the batched launch reports only the
            // first failing request, and the determinism guarantee is
            // per request — a bad tenant must not fail its batch-mates.
            // Re-run each request alone (single-request batches take
            // the arm below on error).
            for resolved in batch {
                execute_batch(shared, vec![resolved], meter, breaker);
            }
        }
        Err(e) => {
            // Deterministic execution error: retrying would fail
            // identically, so complete immediately (no breaker — this is
            // the request's own error, not an engine fault).
            let err = ServeError::from(e);
            let now = shared.clock.now();
            let mut metrics = relock(&shared.metrics);
            for (mut resolved, wait) in batch.into_iter().zip(waits) {
                let outcome = if resolved.pending.ticket.complete(Err(err.clone())) {
                    metrics.failed += 1;
                    metrics.tenant(&resolved.pending.tenant).failed += 1;
                    TraceOutcome::Failed(err.to_string())
                } else {
                    TraceOutcome::Cancelled
                };
                finalize_terminal(
                    shared,
                    &mut resolved.pending,
                    outcome,
                    &mut metrics,
                    wait,
                    now,
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::OnceCell;

    fn map(pairs: &[(&str, Tensor)]) -> BTreeMap<String, Tensor> {
        pairs
            .iter()
            .map(|(n, t)| (n.to_string(), t.clone()))
            .collect()
    }

    #[test]
    fn ptr_eq_path_groups_shared_storage_without_hashing() {
        let a = Tensor::from_vec(vec![4], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let left = map(&[("A", a.clone()), ("C", Tensor::zeros(vec![4]))]);
        // Tensor clones share storage, so every pair settles on ptr_eq.
        let right = left.clone();
        let (ma, mb) = (OnceCell::new(), OnceCell::new());
        assert!(bindings_identical(&left, &right, &ma, &mb));
        assert!(
            ma.get().is_none() && mb.get().is_none(),
            "the pointer path never pays for a content hash"
        );
    }

    #[test]
    fn content_path_groups_bit_identical_distinct_buffers() {
        let bits = |v: Vec<f32>| Tensor::from_vec(vec![4], v).unwrap();
        let left = map(&[("A", bits(vec![1.0, -0.0, f32::NAN, 4.0]))]);
        let right = map(&[("A", bits(vec![1.0, -0.0, f32::NAN, 4.0]))]);
        assert!(!left["A"].ptr_eq(&right["A"]), "distinct storage");
        let (ma, mb) = (OnceCell::new(), OnceCell::new());
        assert!(
            bindings_identical(&left, &right, &ma, &mb),
            "bit-identical-but-not-shared arguments group together"
        );
        assert!(
            ma.get().is_some() && mb.get().is_some(),
            "the fallback memoized both fingerprint vectors"
        );
        // The memo is reused: a third comparison against `left` must not
        // recompute its fingerprints (OnceCell can only be set once, so
        // reaching another successful compare proves reuse).
        assert!(bindings_identical(&left, &right, &ma, &mb));
    }

    #[test]
    fn content_path_rejects_differing_bits_shapes_and_names() {
        let t = |v: Vec<f32>| Tensor::from_vec(vec![2], v).unwrap();
        let base = map(&[("A", t(vec![1.0, 2.0]))]);
        let cells = || (OnceCell::new(), OnceCell::new());
        // Different value bits (including a sign-of-zero flip).
        for other in [
            map(&[("A", t(vec![1.0, 2.5]))]),
            map(&[("A", t([1.0, -0.0].iter().map(|&v| v * 2.0).collect()))]),
        ] {
            let (ma, mb) = cells();
            assert!(!bindings_identical(&base, &other, &ma, &mb));
        }
        // Different binding name, shape, or dtype short-circuit before
        // any hashing happens.
        for other in [
            map(&[("B", t(vec![1.0, 2.0]))]),
            map(&[("A", Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap())]),
            map(&[("A", t(vec![1.0, 2.0]).cast(insum_tensor::DType::F16))]),
        ] {
            let (ma, mb) = cells();
            assert!(!bindings_identical(&base, &other, &ma, &mb));
            assert!(ma.get().is_none(), "structural mismatch never hashes");
        }
    }
}
