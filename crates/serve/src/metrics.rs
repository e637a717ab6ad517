//! Engine observability: per-tenant and per-kernel counters, latency
//! histograms, and the Prometheus/JSON exposition layer.
//!
//! Latency is tracked in [`insum_telemetry::Histogram`]s — fixed
//! log-bucketed bins recorded in nanoseconds on the engine clock, so
//! percentiles are exact to ≤12.5% and two engines fed the same requests
//! in any order hold bit-identical histograms. Three latency families
//! exist per tenant and per kernel:
//!
//! * **queue wait** — admission to the terminal decision. Every
//!   admitted request lands here exactly once, whatever its fate
//!   (completed, failed, cancelled, expired, budget-rejected, or
//!   quarantined), so at quiescence
//!   `queue_wait.count() == completed + failed + cancelled +
//!   deadline_expired + budget_rejected + quarantined`.
//! * **compile** — artifact-registry resolve time on misses.
//! * **end-to-end** — admission to response delivery (completed
//!   requests only).
//!
//! plus a per-tenant histogram over deterministic simulated **cost
//! units**.

use insum_inductor::ProgramCacheStats;
use insum_telemetry::expo;
use insum_telemetry::json::Value;
use insum_telemetry::Histogram;
use std::collections::BTreeMap;
use std::fmt;

/// Counters for one tenant (session namespace).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantMetrics {
    /// Requests admitted to the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub failed: u64,
    /// Submissions rejected at admission (saturated or closed).
    pub rejected: u64,
    /// Transient-failure re-attempts scheduled (a request retried twice
    /// counts twice).
    pub retries: u64,
    /// Requests expired by the scheduler past their deadline.
    pub deadline_expired: u64,
    /// Requests cancelled through [`crate::ResponseHandle::cancel`].
    pub cancelled: u64,
    /// Requests rejected because the tenant's cost budget was exhausted.
    pub budget_rejected: u64,
    /// Requests rejected while the tenant's circuit breaker was open.
    pub quarantined: u64,
    /// Times this tenant's circuit breaker transitioned to open.
    pub breaker_open_transitions: u64,
    /// Deterministic simulated cost units charged to this tenant (see
    /// [`insum::Profile::total_cost_units`]).
    pub cost_units: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// Queue wait (admission to terminal decision) of every terminal
    /// request, nanoseconds on the engine clock.
    pub queue_wait: Histogram,
    /// End-to-end latency (admission to response delivery) of completed
    /// requests, nanoseconds.
    pub e2e: Histogram,
    /// Artifact resolve time of registry misses this tenant triggered,
    /// nanoseconds.
    pub compile: Histogram,
    /// Simulated cost units per completed request (raw units, not time).
    pub cost: Histogram,
    /// Artifact-registry hits attributed to this tenant's requests.
    pub registry_hits: u64,
    /// Artifact-registry misses (compilations) this tenant triggered.
    pub registry_misses: u64,
    /// Simulated grid instances executed for this tenant.
    pub instances_simulated: u64,
}

impl TenantMetrics {
    /// Total queue wait in seconds (exact sum, not bucket-quantized).
    /// Successor of the removed `wait_seconds_total` field.
    pub fn wait_seconds_total(&self) -> f64 {
        self.queue_wait.sum_seconds()
    }

    /// Worst single-request queue wait in seconds (exact max).
    /// Successor of the removed `wait_seconds_max` field.
    pub fn wait_seconds_max(&self) -> f64 {
        self.queue_wait.max_seconds()
    }

    /// Terminal requests recorded so far (the queue-wait histogram's
    /// count; see the module docs for the reconciliation identity).
    pub fn terminal(&self) -> u64 {
        self.completed
            + self.failed
            + self.cancelled
            + self.deadline_expired
            + self.budget_rejected
            + self.quarantined
    }
}

/// Counters for one kernel identity (fingerprint + grid).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelMetrics {
    /// Requests served by this kernel.
    pub requests: u64,
    /// Batched launches issued.
    pub batches: u64,
    /// Largest batch executed.
    pub largest_batch: usize,
    /// Simulated grid instances executed.
    pub instances_simulated: u64,
    /// Total simulated device time, seconds.
    pub simulated_seconds_total: f64,
    /// Queue wait of the requests served, nanoseconds.
    pub queue_wait: Histogram,
    /// End-to-end latency of the requests served, nanoseconds.
    pub e2e: Histogram,
    /// Artifact resolve time of the registry misses that compiled this
    /// kernel, nanoseconds.
    pub compile: Histogram,
}

impl KernelMetrics {
    /// Total queue wait in seconds (exact sum). Successor of the removed
    /// `wait_seconds_total` field.
    pub fn wait_seconds_total(&self) -> f64 {
        self.queue_wait.sum_seconds()
    }
}

/// Artifact-registry effectiveness (compiled [`insum::Compiled`]
/// handles shared across tenants).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups that reused (or waited on) an existing artifact.
    pub hits: u64,
    /// Lookups that compiled a new artifact.
    pub misses: u64,
    /// The subset of `misses` whose compile lowered zero new simulator
    /// programs because every program was already resident in the
    /// process-wide [`insum_inductor::ProgramCache`] — e.g. seeded from
    /// a snapshot. Distinguishes miss-then-compile from
    /// miss-then-snapshot-hit, so a warm restart can assert exactly
    /// `misses == warm_misses`.
    pub warm_misses: u64,
    /// Artifacts dropped to respect the capacity bound (LRU order).
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: usize,
}

/// A point-in-time view of the engine's counters.
///
/// Every admitted request ends in exactly one terminal counter, so at
/// quiescence (empty queue, no in-flight work) the books reconcile:
/// `submitted == completed + failed + cancelled + deadline_expired +
/// budget_rejected + quarantined + queue_depth`. (`rejected` counts
/// submissions that were never admitted and `retries` counts extra
/// attempts of admitted requests; neither appears in the identity.)
/// The same identity holds against the per-tenant queue-wait
/// histograms: each terminal request is recorded in exactly one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests admitted across all tenants.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests completed with an error.
    pub failed: u64,
    /// Submissions rejected at admission.
    pub rejected: u64,
    /// Transient-failure re-attempts scheduled across all tenants.
    pub retries: u64,
    /// Requests expired past their deadline.
    pub deadline_expired: u64,
    /// Requests cancelled by their clients.
    pub cancelled: u64,
    /// Requests rejected on exhausted cost budgets.
    pub budget_rejected: u64,
    /// Requests rejected by open circuit breakers.
    pub quarantined: u64,
    /// Requests currently waiting in the admission queue.
    pub queue_depth: usize,
    /// High-water mark of the admission queue.
    pub queue_depth_max: usize,
    /// Batched launches issued.
    pub batches: u64,
    /// Requests executed through batched launches.
    pub batched_requests: u64,
    /// Largest batch executed.
    pub largest_batch: usize,
    /// Artifact-registry counters.
    pub registry: RegistryStats,
    /// Process-wide program-cache counters (lowered simulator programs).
    pub program_cache: ProgramCacheStats,
    /// Snapshot files durably written (temp + fsync + rename) by this
    /// engine, on cadence or at drain/shutdown.
    pub snapshot_writes: u64,
    /// Telemetry dumps (Prometheus + JSON files) atomically written by
    /// this engine, on cadence or at drain/shutdown.
    pub telemetry_dumps: u64,
    /// Program-cache hits whose entry was seeded by the snapshot load
    /// rather than compiled by a request's lookup (mirror of
    /// [`ProgramCacheStats::warm_hits`], surfaced for servebench's
    /// warm-restart assertion).
    pub warm_start_hits: u64,
    /// Snapshot records rejected at load: CRC failures, truncations,
    /// stale fingerprints, version skew — each degraded to recompile
    /// (mirror of [`ProgramCacheStats::snapshot_rejected`]).
    pub snapshot_rejected: u64,
    /// Per-tenant breakdown.
    pub tenants: BTreeMap<String, TenantMetrics>,
    /// Per-kernel breakdown, keyed `"<fingerprint>@<grid>"` for one fused
    /// kernel, `"unfused:<statement>"` for an unfused pipeline,
    /// `"chain[<n> steps]:<expression>"` for a planned chain and
    /// `"fastpath:<pattern>"` for a stride view.
    pub kernels: BTreeMap<String, KernelMetrics>,
}

impl MetricsSnapshot {
    /// Engine-wide queue-wait histogram (all tenants merged; merging is
    /// exact, see [`Histogram::merge`]).
    pub fn queue_wait(&self) -> Histogram {
        self.merged(|t| &t.queue_wait)
    }

    /// Engine-wide end-to-end latency histogram (all tenants merged).
    pub fn e2e(&self) -> Histogram {
        self.merged(|t| &t.e2e)
    }

    /// Engine-wide compile-time histogram (all tenants merged).
    pub fn compile(&self) -> Histogram {
        self.merged(|t| &t.compile)
    }

    fn merged(&self, f: impl Fn(&TenantMetrics) -> &Histogram) -> Histogram {
        let mut h = Histogram::new();
        for t in self.tenants.values() {
            h.merge(f(t));
        }
        h
    }

    /// Render the snapshot in the Prometheus text exposition format
    /// (version 0.0.4). Histograms are exposed in seconds with
    /// cumulative `le` buckets; cost units stay raw. Deterministic: the
    /// same snapshot always renders the same bytes.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(4096);
        let engine_counters: [(&str, f64); 12] = [
            ("serve_submitted_total", self.submitted as f64),
            ("serve_completed_total", self.completed as f64),
            ("serve_failed_total", self.failed as f64),
            ("serve_rejected_total", self.rejected as f64),
            ("serve_retries_total", self.retries as f64),
            ("serve_deadline_expired_total", self.deadline_expired as f64),
            ("serve_cancelled_total", self.cancelled as f64),
            ("serve_budget_rejected_total", self.budget_rejected as f64),
            ("serve_quarantined_total", self.quarantined as f64),
            ("serve_batches_total", self.batches as f64),
            ("serve_snapshot_writes_total", self.snapshot_writes as f64),
            ("serve_telemetry_dumps_total", self.telemetry_dumps as f64),
        ];
        for (name, v) in engine_counters {
            expo::write_type(&mut out, name, "counter");
            expo::write_sample(&mut out, name, &[], v);
        }
        expo::write_type(&mut out, "serve_queue_depth", "gauge");
        expo::write_sample(&mut out, "serve_queue_depth", &[], self.queue_depth as f64);
        expo::write_type(&mut out, "serve_queue_depth_max", "gauge");
        expo::write_sample(
            &mut out,
            "serve_queue_depth_max",
            &[],
            self.queue_depth_max as f64,
        );
        expo::write_type(&mut out, "serve_registry_hits_total", "counter");
        expo::write_sample(
            &mut out,
            "serve_registry_hits_total",
            &[],
            self.registry.hits as f64,
        );
        expo::write_type(&mut out, "serve_registry_misses_total", "counter");
        expo::write_sample(
            &mut out,
            "serve_registry_misses_total",
            &[],
            self.registry.misses as f64,
        );

        expo::write_type(&mut out, "serve_tenant_requests_total", "counter");
        for (tenant, t) in &self.tenants {
            for (outcome, v) in [
                ("submitted", t.submitted),
                ("completed", t.completed),
                ("failed", t.failed),
                ("cancelled", t.cancelled),
                ("deadline_expired", t.deadline_expired),
                ("budget_rejected", t.budget_rejected),
                ("quarantined", t.quarantined),
            ] {
                expo::write_sample(
                    &mut out,
                    "serve_tenant_requests_total",
                    &[("tenant", tenant), ("outcome", outcome)],
                    v as f64,
                );
            }
        }
        expo::write_type(&mut out, "serve_tenant_cost_units_total", "counter");
        for (tenant, t) in &self.tenants {
            expo::write_sample(
                &mut out,
                "serve_tenant_cost_units_total",
                &[("tenant", tenant)],
                t.cost_units as f64,
            );
        }
        expo::write_type(&mut out, "serve_queue_wait_seconds", "histogram");
        for (tenant, t) in &self.tenants {
            expo::write_histogram(
                &mut out,
                "serve_queue_wait_seconds",
                &[("tenant", tenant)],
                &t.queue_wait,
            );
        }
        expo::write_type(&mut out, "serve_e2e_seconds", "histogram");
        for (tenant, t) in &self.tenants {
            expo::write_histogram(&mut out, "serve_e2e_seconds", &[("tenant", tenant)], &t.e2e);
        }
        expo::write_type(&mut out, "serve_compile_seconds", "histogram");
        for (tenant, t) in &self.tenants {
            expo::write_histogram(
                &mut out,
                "serve_compile_seconds",
                &[("tenant", tenant)],
                &t.compile,
            );
        }
        expo::write_type(&mut out, "serve_cost_units", "histogram");
        for (tenant, t) in &self.tenants {
            expo::write_histogram_scaled(
                &mut out,
                "serve_cost_units",
                &[("tenant", tenant)],
                &t.cost,
                1.0,
            );
        }
        expo::write_type(&mut out, "serve_kernel_queue_wait_seconds", "histogram");
        for (kernel, k) in &self.kernels {
            expo::write_histogram(
                &mut out,
                "serve_kernel_queue_wait_seconds",
                &[("kernel", kernel)],
                &k.queue_wait,
            );
        }
        out
    }

    /// Render the snapshot as a JSON document: engine counters plus
    /// per-tenant counters and histogram summaries (count, sum,
    /// p50/p95/p99/max in seconds). Parses back with
    /// [`insum_telemetry::json::parse`]; deterministic byte output.
    pub fn render_json(&self) -> String {
        fn hist(h: &Histogram) -> Value {
            Value::Obj(vec![
                ("count".into(), Value::Num(h.count() as f64)),
                ("sum_seconds".into(), Value::Num(h.sum_seconds())),
                ("p50".into(), Value::Num(h.quantile_seconds(0.50))),
                ("p95".into(), Value::Num(h.quantile_seconds(0.95))),
                ("p99".into(), Value::Num(h.quantile_seconds(0.99))),
                ("max".into(), Value::Num(h.max_seconds())),
            ])
        }
        let mut tenants = Vec::new();
        for (name, t) in &self.tenants {
            tenants.push((
                name.clone(),
                Value::Obj(vec![
                    ("submitted".into(), Value::Num(t.submitted as f64)),
                    ("completed".into(), Value::Num(t.completed as f64)),
                    ("failed".into(), Value::Num(t.failed as f64)),
                    ("cancelled".into(), Value::Num(t.cancelled as f64)),
                    (
                        "deadline_expired".into(),
                        Value::Num(t.deadline_expired as f64),
                    ),
                    (
                        "budget_rejected".into(),
                        Value::Num(t.budget_rejected as f64),
                    ),
                    ("quarantined".into(), Value::Num(t.quarantined as f64)),
                    ("retries".into(), Value::Num(t.retries as f64)),
                    ("cost_units".into(), Value::Num(t.cost_units as f64)),
                    ("queue_wait".into(), hist(&t.queue_wait)),
                    ("e2e".into(), hist(&t.e2e)),
                    ("compile".into(), hist(&t.compile)),
                ]),
            ));
        }
        Value::Obj(vec![
            ("submitted".into(), Value::Num(self.submitted as f64)),
            ("completed".into(), Value::Num(self.completed as f64)),
            ("failed".into(), Value::Num(self.failed as f64)),
            ("rejected".into(), Value::Num(self.rejected as f64)),
            ("retries".into(), Value::Num(self.retries as f64)),
            (
                "deadline_expired".into(),
                Value::Num(self.deadline_expired as f64),
            ),
            ("cancelled".into(), Value::Num(self.cancelled as f64)),
            (
                "budget_rejected".into(),
                Value::Num(self.budget_rejected as f64),
            ),
            ("quarantined".into(), Value::Num(self.quarantined as f64)),
            ("queue_depth".into(), Value::Num(self.queue_depth as f64)),
            ("batches".into(), Value::Num(self.batches as f64)),
            (
                "registry_hits".into(),
                Value::Num(self.registry.hits as f64),
            ),
            (
                "registry_misses".into(),
                Value::Num(self.registry.misses as f64),
            ),
            ("queue_wait".into(), hist(&self.queue_wait())),
            ("e2e".into(), hist(&self.e2e())),
            ("compile".into(), hist(&self.compile())),
            ("tenants".into(), Value::Obj(tenants)),
        ])
        .render()
    }
}

/// One-screen human-readable summary (used by `servebench` and the
/// serving example).
impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "serve: {} submitted | {} completed | {} failed | {} cancelled | \
             {} expired | {} budget-rejected | {} quarantined | {} retries",
            self.submitted,
            self.completed,
            self.failed,
            self.cancelled,
            self.deadline_expired,
            self.budget_rejected,
            self.quarantined,
            self.retries
        )?;
        writeln!(
            f,
            "queue: depth {} (max {}) | batches {} (largest {}) | registry {}h/{}m | \
             cache {}h/{}m",
            self.queue_depth,
            self.queue_depth_max,
            self.batches,
            self.largest_batch,
            self.registry.hits,
            self.registry.misses,
            self.program_cache.hits,
            self.program_cache.misses
        )?;
        let e2e = self.e2e();
        let wait = self.queue_wait();
        writeln!(
            f,
            "latency: e2e p50 {:.3}ms p95 {:.3}ms p99 {:.3}ms max {:.3}ms | \
             wait p99 {:.3}ms",
            e2e.quantile_seconds(0.50) * 1e3,
            e2e.quantile_seconds(0.95) * 1e3,
            e2e.quantile_seconds(0.99) * 1e3,
            e2e.max_seconds() * 1e3,
            wait.quantile_seconds(0.99) * 1e3,
        )?;
        for (tenant, t) in &self.tenants {
            writeln!(
                f,
                "  tenant {tenant}: {}ok/{}err | wait p99 {:.3}ms max {:.3}ms | \
                 {} cost units",
                t.completed,
                t.failed + t.cancelled + t.deadline_expired + t.budget_rejected + t.quarantined,
                t.queue_wait.quantile_seconds(0.99) * 1e3,
                t.wait_seconds_max() * 1e3,
                t.cost_units
            )?;
        }
        Ok(())
    }
}

/// The scheduler core keeps its counters in a `MetricsSnapshot`; a
/// snapshot is a clone with the live fields (queue depths, registry and
/// program-cache counters) filled in.
impl MetricsSnapshot {
    pub(crate) fn tenant(&mut self, tenant: &str) -> &mut TenantMetrics {
        if !self.tenants.contains_key(tenant) {
            self.tenants
                .insert(tenant.to_string(), TenantMetrics::default());
        }
        self.tenants.get_mut(tenant).expect("just inserted")
    }

    pub(crate) fn kernel(&mut self, key: &str) -> &mut KernelMetrics {
        if !self.kernels.contains_key(key) {
            self.kernels
                .insert(key.to_string(), KernelMetrics::default());
        }
        self.kernels.get_mut(key).expect("just inserted")
    }
}
