//! Engine and per-submit configuration.

use crate::error::ServeError;
use insum::{InsumOptions, Mode};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// A per-tenant cost budget: a token bucket of the simulator's
/// deterministic cost units (see [`insum_gpu::KernelStats::cost_units`]).
///
/// The bucket starts full at `capacity`, drains by each request's
/// simulated cost, and refills continuously at `refill_per_second` up to
/// `capacity`. A tenant whose balance goes negative is deprioritized
/// (served after every in-budget tenant); once the balance is overdrawn
/// past a full `capacity`, requests are rejected with
/// [`ServeError::BudgetExhausted`] until the refill catches up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CostBudget {
    /// Maximum banked cost units (also the overdraft allowance before
    /// hard rejection).
    pub capacity: u64,
    /// Cost units restored per second.
    pub refill_per_second: u64,
}

/// What [`crate::Session::submit`] does when the admission queue is at
/// capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Block the submitting thread until a slot frees up (or the engine
    /// shuts down). This propagates backpressure into the caller.
    #[default]
    Block,
    /// Fail fast with [`ServeError::Saturated`] so the caller can shed
    /// load or retry with its own policy.
    Reject,
}

/// Engine-wide configuration. Construct with [`ServeConfig::default`]
/// and refine with the builder-style setters:
///
/// ```
/// use insum_serve::{AdmissionPolicy, ServeConfig};
/// let config = ServeConfig::default()
///     .with_queue_capacity(32)
///     .with_max_batch(16)
///     .with_admission(AdmissionPolicy::Reject);
/// assert_eq!(config.queue_capacity, 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Maximum requests admitted but not yet scheduled; submissions
    /// beyond it block or reject per [`ServeConfig::admission`].
    pub queue_capacity: usize,
    /// Maximum requests executed as one batched launch.
    pub max_batch: usize,
    /// Behavior at capacity.
    pub admission: AdmissionPolicy,
    /// Host threads the scheduler's shared simulator pool may use per
    /// batch; `None` resolves automatically (see
    /// [`insum::LaunchOptions`]). The engine owns host scheduling:
    /// per-request `sim_threads` never changes results or profiles, so
    /// it is ignored at execution time.
    pub sim_threads: Option<usize>,
    /// Default compilation options for requests that don't override them
    /// at submit time.
    pub options: InsumOptions,
    /// Maximum resident compiled artifacts in the engine's registry;
    /// the least-recently-used artifact is evicted on overflow (a
    /// revisited key recompiles).
    pub registry_capacity: usize,
    /// Base delay before the first retry of a transiently failed request
    /// (doubles per attempt, capped at [`ServeConfig::retry_backoff_max`]).
    pub retry_backoff: Duration,
    /// Upper bound on the exponential retry backoff.
    pub retry_backoff_max: Duration,
    /// Per-tenant cost budgets, keyed by tenant name. Tenants not listed
    /// here fall back to [`ServeConfig::default_budget`].
    pub budgets: BTreeMap<String, CostBudget>,
    /// Budget applied to tenants without an explicit entry in
    /// [`ServeConfig::budgets`]; `None` leaves them unbudgeted
    /// (unlimited, but still cost-metered for fair ordering).
    pub default_budget: Option<CostBudget>,
    /// Consecutive breaker-relevant failures (contained panics, deadline
    /// expiries) that quarantine a tenant. `0` disables the circuit
    /// breaker.
    pub breaker_threshold: u32,
    /// How long a quarantined tenant waits before the breaker admits a
    /// half-open probe request.
    pub breaker_cooldown: Duration,
    /// Snapshot file for crash-safe artifact persistence. When set, the
    /// engine warm-starts the global [`insum_inductor::ProgramCache`]
    /// from this file at boot (corrupt or stale records degrade to
    /// recompile) and persists the program-cache keys plus autotune
    /// winners back to it — atomically, via temp + fsync + rename — on the
    /// [`ServeConfig::snapshot_interval`] cadence and at drain/shutdown.
    pub snapshot_path: Option<PathBuf>,
    /// Minimum time between cadence snapshot writes while serving.
    /// Ignored when [`ServeConfig::snapshot_path`] is `None`; the final
    /// drain/shutdown write always happens regardless of cadence.
    pub snapshot_interval: Duration,
    /// Request tracing: when `true` (the default) every request carries
    /// a [`insum_telemetry::Trace`] of timestamped phase transitions
    /// (returned on [`crate::Response::trace`] and kept in the flight
    /// recorder), and the scheduler collects compile/autotune/launch
    /// timings through the profiling hook. Latency histograms are always
    /// maintained regardless — they replace the engine's core wait
    /// accounting, not an optional extra.
    pub telemetry: bool,
    /// How many recent terminal request traces the flight recorder
    /// retains (failures get an additional dedicated ring of the same
    /// capacity). `0` disables the recorder.
    pub flight_recorder_capacity: usize,
    /// When set, the scheduler atomically dumps the metrics snapshot to
    /// this path in Prometheus text format — and, alongside it, a
    /// `.json` sibling — on the [`ServeConfig::telemetry_dump_interval`]
    /// cadence and at drain/shutdown (same temp + fsync + rename write
    /// path as artifact snapshots).
    pub telemetry_dump_path: Option<PathBuf>,
    /// Minimum time between cadence telemetry dumps. Ignored when
    /// [`ServeConfig::telemetry_dump_path`] is `None`.
    pub telemetry_dump_interval: Duration,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            queue_capacity: 64,
            max_batch: 8,
            admission: AdmissionPolicy::default(),
            sim_threads: None,
            options: InsumOptions::default(),
            registry_capacity: 256,
            retry_backoff: Duration::from_millis(20),
            retry_backoff_max: Duration::from_secs(1),
            budgets: BTreeMap::new(),
            default_budget: None,
            breaker_threshold: 0,
            breaker_cooldown: Duration::from_secs(5),
            snapshot_path: None,
            snapshot_interval: Duration::from_secs(60),
            telemetry: true,
            flight_recorder_capacity: 64,
            telemetry_dump_path: None,
            telemetry_dump_interval: Duration::from_secs(60),
        }
    }
}

impl ServeConfig {
    /// Set the admission-queue capacity.
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> ServeConfig {
        self.queue_capacity = capacity;
        self
    }

    /// Set the maximum batched-launch size.
    #[must_use]
    pub fn with_max_batch(mut self, max_batch: usize) -> ServeConfig {
        self.max_batch = max_batch;
        self
    }

    /// Set the at-capacity behavior.
    #[must_use]
    pub fn with_admission(mut self, admission: AdmissionPolicy) -> ServeConfig {
        self.admission = admission;
        self
    }

    /// Set the shared simulator thread budget.
    #[must_use]
    pub fn with_sim_threads(mut self, threads: Option<usize>) -> ServeConfig {
        self.sim_threads = threads;
        self
    }

    /// Set the default compilation options.
    #[must_use]
    pub fn with_options(mut self, options: InsumOptions) -> ServeConfig {
        self.options = options;
        self
    }

    /// Set the artifact-registry capacity.
    #[must_use]
    pub fn with_registry_capacity(mut self, capacity: usize) -> ServeConfig {
        self.registry_capacity = capacity;
        self
    }

    /// Set the retry backoff base and cap.
    #[must_use]
    pub fn with_retry_backoff(mut self, base: Duration, max: Duration) -> ServeConfig {
        self.retry_backoff = base;
        self.retry_backoff_max = max;
        self
    }

    /// Give `tenant` an explicit cost budget.
    #[must_use]
    pub fn with_budget(mut self, tenant: &str, budget: CostBudget) -> ServeConfig {
        self.budgets.insert(tenant.to_string(), budget);
        self
    }

    /// Set the budget for tenants without an explicit entry.
    #[must_use]
    pub fn with_default_budget(mut self, budget: Option<CostBudget>) -> ServeConfig {
        self.default_budget = budget;
        self
    }

    /// Enable the per-tenant circuit breaker: `threshold` consecutive
    /// failures quarantine a tenant for `cooldown`.
    #[must_use]
    pub fn with_breaker(mut self, threshold: u32, cooldown: Duration) -> ServeConfig {
        self.breaker_threshold = threshold;
        self.breaker_cooldown = cooldown;
        self
    }

    /// Persist compiled artifacts to (and warm-start from) `path`.
    #[must_use]
    pub fn with_snapshot(mut self, path: impl Into<PathBuf>) -> ServeConfig {
        self.snapshot_path = Some(path.into());
        self
    }

    /// Set the minimum time between cadence snapshot writes.
    #[must_use]
    pub fn with_snapshot_interval(mut self, interval: Duration) -> ServeConfig {
        self.snapshot_interval = interval;
        self
    }

    /// Enable or disable request tracing and the profiling hook (the
    /// flight recorder follows: a disabled engine records no traces).
    #[must_use]
    pub fn with_telemetry(mut self, enabled: bool) -> ServeConfig {
        self.telemetry = enabled;
        self
    }

    /// Set the flight-recorder ring capacity (`0` disables it).
    #[must_use]
    pub fn with_flight_recorder_capacity(mut self, capacity: usize) -> ServeConfig {
        self.flight_recorder_capacity = capacity;
        self
    }

    /// Periodically dump the metrics snapshot (Prometheus text at
    /// `path`, JSON at `path` with a `.json` extension) on the
    /// [`ServeConfig::telemetry_dump_interval`] cadence.
    #[must_use]
    pub fn with_telemetry_dump(mut self, path: impl Into<PathBuf>) -> ServeConfig {
        self.telemetry_dump_path = Some(path.into());
        self
    }

    /// Set the minimum time between cadence telemetry dumps.
    #[must_use]
    pub fn with_telemetry_dump_interval(mut self, interval: Duration) -> ServeConfig {
        self.telemetry_dump_interval = interval;
        self
    }

    pub(crate) fn validate(&self) -> Result<(), ServeError> {
        if self.queue_capacity == 0 {
            return Err(ServeError::Config(
                "queue_capacity must be at least 1".to_string(),
            ));
        }
        if self.max_batch == 0 {
            return Err(ServeError::Config(
                "max_batch must be at least 1".to_string(),
            ));
        }
        if self.registry_capacity == 0 {
            return Err(ServeError::Config(
                "registry_capacity must be at least 1".to_string(),
            ));
        }
        if self.sim_threads == Some(0) {
            return Err(ServeError::Config(
                "sim_threads = Some(0): the shared simulator pool needs at \
                 least one host thread; use None for automatic resolution"
                    .to_string(),
            ));
        }
        if self.retry_backoff_max < self.retry_backoff {
            return Err(ServeError::Config(
                "retry_backoff_max must be at least retry_backoff".to_string(),
            ));
        }
        if self.snapshot_path.is_some() && self.snapshot_interval.is_zero() {
            return Err(ServeError::Config(
                "snapshot_interval must be nonzero when snapshot_path is set".to_string(),
            ));
        }
        if self.telemetry_dump_path.is_some() && self.telemetry_dump_interval.is_zero() {
            return Err(ServeError::Config(
                "telemetry_dump_interval must be nonzero when telemetry_dump_path is set"
                    .to_string(),
            ));
        }
        for (tenant, budget) in self
            .budgets
            .iter()
            .map(|(t, b)| (t.as_str(), b))
            .chain(self.default_budget.iter().map(|b| ("<default>", b)))
        {
            if budget.capacity == 0 {
                return Err(ServeError::Config(format!(
                    "budget for tenant {tenant:?}: capacity must be at least 1"
                )));
            }
        }
        self.options.validate()?;
        Ok(())
    }
}

/// Per-submit overrides. Construct with [`SubmitOptions::default`]
/// (engine-default options, [`Mode::Execute`]) and refine with the
/// builder-style setters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SubmitOptions {
    /// Compilation options for this request; `None` uses the engine's
    /// [`ServeConfig::options`].
    pub options: Option<InsumOptions>,
    /// Interpreter mode; `None` means [`Mode::Execute`]. Analytic
    /// requests return counters and simulated timing without computing
    /// values (the output binding comes back unmodified).
    pub mode: Option<Mode>,
    /// Relative deadline measured from admission; once it elapses the
    /// scheduler expires the request with
    /// [`ServeError::DeadlineExceeded`] instead of executing it (expiry
    /// is enforced even while the engine is paused). `None` means no
    /// deadline.
    pub deadline: Option<Duration>,
    /// Transient-failure retries allowed after the first attempt
    /// (contained panics and injected faults retry with bounded
    /// exponential backoff; deterministic errors never retry). `0`
    /// keeps the pre-retry behavior: the first failure is final.
    pub max_retries: u32,
    /// Scheduling priority inside a drained window: higher runs earlier
    /// among requests of equal budget standing. Ties (the default `0`)
    /// preserve arrival order.
    pub priority: i32,
}

impl SubmitOptions {
    /// Override the compilation options.
    #[must_use]
    pub fn with_options(mut self, options: InsumOptions) -> SubmitOptions {
        self.options = Some(options);
        self
    }

    /// Override the interpreter mode.
    #[must_use]
    pub fn with_mode(mut self, mode: Mode) -> SubmitOptions {
        self.mode = Some(mode);
        self
    }

    /// Set a relative deadline (measured from admission).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> SubmitOptions {
        self.deadline = Some(deadline);
        self
    }

    /// Allow up to `retries` transient-failure re-attempts.
    #[must_use]
    pub fn with_max_retries(mut self, retries: u32) -> SubmitOptions {
        self.max_retries = retries;
        self
    }

    /// Set the scheduling priority (higher runs earlier).
    #[must_use]
    pub fn with_priority(mut self, priority: i32) -> SubmitOptions {
        self.priority = priority;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_and_defaults() {
        let c = ServeConfig::default();
        assert_eq!(c.admission, AdmissionPolicy::Block);
        assert!(c.validate().is_ok());
        let c = c
            .with_queue_capacity(3)
            .with_max_batch(5)
            .with_admission(AdmissionPolicy::Reject)
            .with_sim_threads(Some(2));
        assert_eq!(
            (c.queue_capacity, c.max_batch, c.sim_threads),
            (3, 5, Some(2))
        );
        assert_eq!(c.admission, AdmissionPolicy::Reject);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(matches!(
            ServeConfig::default().with_queue_capacity(0).validate(),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            ServeConfig::default().with_max_batch(0).validate(),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            ServeConfig::default().with_sim_threads(Some(0)).validate(),
            Err(ServeError::Config(_))
        ));
        assert!(matches!(
            ServeConfig::default()
                .with_snapshot("/tmp/x.snap")
                .with_snapshot_interval(Duration::ZERO)
                .validate(),
            Err(ServeError::Config(_))
        ));
        // A zero interval without a snapshot path is inert, not an error.
        assert!(ServeConfig::default()
            .with_snapshot_interval(Duration::ZERO)
            .validate()
            .is_ok());
        assert!(matches!(
            ServeConfig::default()
                .with_telemetry_dump("/tmp/metrics.prom")
                .with_telemetry_dump_interval(Duration::ZERO)
                .validate(),
            Err(ServeError::Config(_))
        ));
    }

    #[test]
    fn telemetry_defaults_and_builders() {
        let c = ServeConfig::default();
        assert!(c.telemetry);
        assert_eq!(c.flight_recorder_capacity, 64);
        assert!(c.telemetry_dump_path.is_none());
        let c = c
            .with_telemetry(false)
            .with_flight_recorder_capacity(8)
            .with_telemetry_dump("/tmp/metrics.prom")
            .with_telemetry_dump_interval(Duration::from_secs(5));
        assert!(!c.telemetry);
        assert_eq!(c.flight_recorder_capacity, 8);
        assert_eq!(
            c.telemetry_dump_path.as_deref(),
            Some(std::path::Path::new("/tmp/metrics.prom"))
        );
        assert!(c.validate().is_ok());
    }
}
