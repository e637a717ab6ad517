//! Serving-engine throughput benchmark: request throughput of the
//! `insum_serve` engine versus today's entry point — a synchronous
//! one-shot `insum_with(...)` + `run(...)` per request — over the fig7
//! SpMM, COO scatter, and point-cloud workloads at client concurrency
//! 1/4/8/16.
//!
//! Every request carries its own activation tensor against shared static
//! operands (the sparse structure / weights), the serving reality the
//! engine exists for. Three measurements per workload:
//!
//! * **serial one-shot** — for each request, compile (with the
//!   workload's serving options, autotuned where the paper's deployment
//!   config says so) and run. This is what an application does today
//!   without the engine; PR 3's `ProgramCache` only dedups the simulator
//!   lowering, not the per-request parse/plan/codegen/autotune.
//! * **serial precompiled** — compile once, run every request
//!   back-to-back on one thread: the engine-free floor for pure
//!   execution.
//! * **engine** — clients submit concurrently; the engine's registry
//!   compiles once per distinct program, the scheduler batches
//!   launch-compatible requests, and the shared simulator pool executes
//!   them. Engines are warmed with one out-of-measurement request (the
//!   cold-start cost is reported separately).
//!
//! Every engine response is verified **bit-identical** — output tensor
//! and profile — to the serial one-shot result for the same request;
//! `bit_identical` lands in `BENCH_serve.json` per row and the process
//! aborts on any divergence. `--smoke` runs a deterministic small-scale
//! check (concurrency 4, preloaded queue so batching is exercised) for
//! CI.

use insum::apps::BoundApp;
use insum::{insum_with, InsumOptions, Mode, Profile, Tensor};
use insum_bench::{print_table, structured_spmm_setup, x};
use insum_serve::{CostBudget, ServeConfig, ServeEngine, ServeError, SubmitOptions};
use insum_tensor::DType;
use rand::rngs::SmallRng;
#[cfg(feature = "fault-injection")]
use rand::Rng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// One serving workload: a fixed expression plus per-request tensor
/// bindings (shared static operands, per-request activations).
struct Workload {
    name: &'static str,
    expr: &'static str,
    options: InsumOptions,
    options_label: &'static str,
    requests: Vec<BTreeMap<String, Tensor>>,
}

fn fig7_requests(n_requests: usize) -> Workload {
    let (_, bgc, _) = structured_spmm_setup(1024, 256, 0.5, 77);
    let mut rng = SmallRng::seed_from_u64(770);
    let mut requests = Vec::with_capacity(n_requests);
    let mut expr = "";
    for _ in 0..n_requests {
        let b = insum_tensor::rand_uniform(vec![1024, 256], -1.0, 1.0, &mut rng).cast(DType::F16);
        let app: BoundApp = insum::apps::spmm_block_group(&bgc, &b);
        expr = app.expr;
        requests.push(app.tensors);
    }
    Workload {
        name: "spmm_block_group_fig7",
        expr,
        // The paper's deployment configuration (Table 3): autotuned
        // tiles. Without the engine every request pays the sweep.
        options: InsumOptions::autotuned(),
        options_label: "autotuned",
        requests,
    }
}

fn coo_requests(n_requests: usize) -> Workload {
    let mut rng = SmallRng::seed_from_u64(7);
    let dense = insum_workloads::blocksparse::block_sparse_dense(512, 512, 16, 16, 0.7, &mut rng);
    let coo = insum_formats::Coo::from_dense(&dense).expect("matrix");
    let mut requests = Vec::with_capacity(n_requests);
    let mut expr = "";
    for _ in 0..n_requests {
        let b = insum_tensor::rand_uniform(vec![512, 64], -1.0, 1.0, &mut rng);
        let app = insum::apps::spmm_coo(&coo, &b);
        expr = app.expr;
        requests.push(app.tensors);
    }
    Workload {
        name: "spmm_coo_scatter",
        expr,
        options: InsumOptions::default(),
        options_label: "default",
        requests,
    }
}

fn pointcloud_requests(n_requests: usize) -> Workload {
    let mut rng = SmallRng::seed_from_u64(11);
    let pts = insum_workloads::pointcloud::generate_points(
        &insum_workloads::pointcloud::rooms()[0],
        0.12,
        &mut rng,
    );
    let scene = insum_workloads::pointcloud::voxelize(&pts, 0.06);
    let km = insum_workloads::pointcloud::kernel_map(&scene, 3);
    let weight = insum_tensor::rand_normal(vec![27, 16, 16], &mut rng);
    let mut requests = Vec::with_capacity(n_requests);
    let mut expr = "";
    for _ in 0..n_requests {
        let input = insum_tensor::rand_normal(vec![scene.len(), 16], &mut rng);
        let app = insum::apps::sparse_conv(&km, &input, &weight);
        expr = app.expr;
        requests.push(app.tensors);
    }
    Workload {
        name: "pointcloud_conv",
        expr,
        options: InsumOptions::default(),
        options_label: "default",
        requests,
    }
}

fn smoke_requests(n_requests: usize) -> Workload {
    let (_, bgc, _) = structured_spmm_setup(128, 64, 0.8, 5);
    let mut rng = SmallRng::seed_from_u64(50);
    let mut requests = Vec::with_capacity(n_requests);
    let mut expr = "";
    for _ in 0..n_requests {
        let b = insum_tensor::rand_uniform(vec![128, 64], -1.0, 1.0, &mut rng).cast(DType::F16);
        let app = insum::apps::spmm_block_group(&bgc, &b);
        expr = app.expr;
        requests.push(app.tensors);
    }
    Workload {
        name: "spmm_smoke_128",
        expr,
        options: InsumOptions::default(),
        options_label: "default",
        requests,
    }
}

const FAIR_TENANTS: usize = 3;

struct FairnessResult {
    requests_per_fair_tenant: usize,
    greedy_requests: usize,
    probe_cost_units: u64,
    wall_solo: f64,
    wall_mixed_fair: f64,
    fair_completed_min: u64,
    fair_completed_max: u64,
    greedy_completed: u64,
    greedy_budget_rejected: u64,
}

/// Weighted-fair serving under a greedy flood: three fair tenants run
/// their workload alone (solo baseline), then again while one greedy
/// tenant floods 3x the work against a [`CostBudget`] sized at two
/// requests' deterministic cost. The budget must contain the flood —
/// in-budget wall time within 2x of solo, every fair tenant fully
/// served — or the phase aborts.
fn fairness_phase() -> FairnessResult {
    let per_fair = 12usize;
    let greedy_n = FAIR_TENANTS * per_fair;
    let w = smoke_requests(per_fair);

    // Probe the deterministic per-request cost to size the budget.
    let probe = ServeEngine::new(ServeConfig::default().with_options(w.options.clone()))
        .expect("engine starts");
    probe
        .session("probe")
        .submit(w.expr, &w.requests[0])
        .expect("admission succeeds")
        .wait()
        .expect("probe succeeds");
    let unit = probe.metrics().tenants["probe"].cost_units;
    assert!(unit > 0, "simulated launches must report nonzero cost");
    drop(probe);

    let engine_with = |budget: Option<CostBudget>| {
        let mut config = ServeConfig::default()
            .with_queue_capacity(256)
            .with_max_batch(8)
            .with_options(w.options.clone());
        if let Some(b) = budget {
            config = config.with_budget("greedy", b);
        }
        let engine = ServeEngine::new(config).expect("engine starts");
        engine
            .session("warmup")
            .submit(w.expr, &w.requests[0])
            .expect("admission succeeds")
            .wait()
            .expect("warmup succeeds");
        engine
    };
    let run_fair = |engine: &ServeEngine| -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            let fair: Vec<_> = (0..FAIR_TENANTS)
                .map(|t| {
                    let session = engine.session(&format!("fair-{t}"));
                    let w = &w;
                    scope.spawn(move || {
                        let handles: Vec<_> = w
                            .requests
                            .iter()
                            .map(|r| session.submit(w.expr, r).expect("admission succeeds"))
                            .collect();
                        for h in handles {
                            h.wait().expect("fair request succeeds");
                        }
                    })
                })
                .collect();
            for f in fair {
                f.join().expect("fair client panicked");
            }
        });
        start.elapsed().as_secs_f64()
    };

    let solo = engine_with(None);
    let wall_solo = run_fair(&solo);
    drop(solo);

    let mixed = engine_with(Some(CostBudget {
        capacity: 2 * unit,
        refill_per_second: unit,
    }));
    let (wall_mixed_fair, (greedy_completed, greedy_budget_rejected)) =
        std::thread::scope(|scope| {
            let engine = &mixed;
            let w = &w;
            let greedy = scope.spawn(move || {
                let session = engine.session("greedy");
                let handles: Vec<_> = (0..greedy_n)
                    .map(|i| {
                        session
                            .submit(w.expr, &w.requests[i % w.requests.len()])
                            .expect("admission succeeds")
                    })
                    .collect();
                let mut ok = 0u64;
                let mut rejected = 0u64;
                for h in handles {
                    match h.wait() {
                        Ok(_) => ok += 1,
                        Err(ServeError::BudgetExhausted { .. }) => rejected += 1,
                        Err(e) => panic!("unexpected greedy outcome: {e:?}"),
                    }
                }
                (ok, rejected)
            });
            let wall = run_fair(&mixed);
            (wall, greedy.join().expect("greedy client panicked"))
        });

    let m = mixed.metrics();
    let completed: Vec<u64> = (0..FAIR_TENANTS)
        .map(|t| m.tenants[&format!("fair-{t}")].completed)
        .collect();
    let fair_completed_min = *completed.iter().min().expect("fair tenants present");
    let fair_completed_max = *completed.iter().max().expect("fair tenants present");
    assert_eq!(
        fair_completed_min, per_fair as u64,
        "every fair tenant must be fully served under the greedy flood"
    );
    assert!(
        fair_completed_max <= 2 * fair_completed_min,
        "per-tenant completion ratio must stay within 2x"
    );
    assert!(
        greedy_budget_rejected >= 1,
        "the flood must actually hit the budget"
    );
    assert!(greedy_completed >= 1, "in-budget greedy work still serves");
    assert!(
        wall_mixed_fair <= 2.0 * wall_solo,
        "fair tenants slowed {:.2}x by the greedy flood; budget must hold it under 2x",
        wall_mixed_fair / wall_solo
    );

    FairnessResult {
        requests_per_fair_tenant: per_fair,
        greedy_requests: greedy_n,
        probe_cost_units: unit,
        wall_solo,
        wall_mixed_fair,
        fair_completed_min,
        fair_completed_max,
        greedy_completed,
        greedy_budget_rejected,
    }
}

/// Chaos smoke: a seeded fault plan (compile/execute panics, latency,
/// budget spikes) over a randomized request mix with deadlines, cancels,
/// and retries. Asserts zero wedged handles, bit-identical survivors,
/// an allowed failure set, and reconciled books.
#[cfg(feature = "fault-injection")]
fn chaos_phase() {
    use insum_serve::faults::FaultPlan;
    use std::time::Duration;

    let n = 48usize;
    let w = smoke_requests(n);
    let expected: Vec<Tensor> = w
        .requests
        .iter()
        .map(|tensors| {
            insum_with(w.expr, tensors, &w.options)
                .expect("compilation succeeds")
                .run(tensors)
                .expect("execution succeeds")
                .0
        })
        .collect();

    insum_serve::faults::set_plan(Some(FaultPlan {
        seed: 0xc4a05,
        exec_panic_per_mille: 150,
        compile_panic_per_mille: 100,
        latency_per_mille: 100,
        latency: Duration::from_millis(1),
        budget_spike_per_mille: 50,
        budget_spike_units: 1_000,
    }));
    let engine = ServeEngine::new(
        ServeConfig::default()
            .with_queue_capacity(n)
            .with_max_batch(8)
            .with_options(w.options.clone())
            .with_retry_backoff(Duration::from_millis(1), Duration::from_millis(20))
            .with_breaker(5, Duration::from_millis(50)),
    )
    .expect("engine starts");
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    let mut handles = Vec::with_capacity(n);
    for (i, tensors) in w.requests.iter().enumerate() {
        let deadline = match rng.gen_range(0..4) {
            0 => Some(Duration::ZERO),
            1 => Some(Duration::from_secs(60)),
            _ => None,
        };
        let mut opts = SubmitOptions::default()
            .with_max_retries(rng.gen_range(0..=3u32))
            .with_priority(rng.gen_range(-1..=1));
        if let Some(d) = deadline {
            opts = opts.with_deadline(d);
        }
        let handle = engine
            .session(&format!("tenant-{}", i % 4))
            .submit_with(w.expr, tensors, &opts)
            .expect("admission succeeds");
        let cancelled = rng.gen_range(0..8) == 0 && handle.cancel();
        handles.push((i, handle, deadline, cancelled));
    }

    // Wedge detection: every handle must resolve within the bound.
    let bound = Instant::now() + Duration::from_secs(60);
    let mut outcomes: Vec<Option<Result<insum_serve::Response, ServeError>>> =
        (0..n).map(|_| None).collect();
    while outcomes.iter().any(Option::is_none) {
        for (i, handle, _, _) in &handles {
            if outcomes[*i].is_none() {
                outcomes[*i] = handle.try_take();
            }
        }
        assert!(
            Instant::now() < bound,
            "wedged handles under chaos: {} of {n} never resolved",
            outcomes.iter().filter(|o| o.is_none()).count()
        );
        std::thread::sleep(Duration::from_millis(1));
    }

    let (mut ok, mut failed, mut cancelled, mut expired, mut quarantined) = (0, 0, 0, 0, 0);
    for (i, _, deadline, cancelled_by_us) in &handles {
        match outcomes[*i].take().expect("resolved above") {
            Ok(response) => {
                assert!(!cancelled_by_us, "a won cancel cannot also deliver");
                assert_eq!(
                    response.output.data(),
                    expected[*i].data(),
                    "chaos survivor diverged from its serial oracle"
                );
                ok += 1;
            }
            Err(ServeError::Cancelled) => {
                assert!(cancelled_by_us, "only explicit cancels may cancel");
                cancelled += 1;
            }
            Err(ServeError::DeadlineExceeded { .. }) => {
                assert!(deadline.is_some(), "expiry needs a deadline");
                expired += 1;
            }
            Err(ServeError::Engine(_)) => failed += 1,
            Err(ServeError::Quarantined { .. }) => quarantined += 1,
            Err(other) => panic!("forbidden failure under chaos: {other:?}"),
        }
    }
    assert!(ok > 0, "chaos must not starve every request");

    let m = engine.metrics();
    assert_eq!(m.queue_depth, 0);
    assert_eq!(
        m.submitted,
        m.completed
            + m.failed
            + m.cancelled
            + m.deadline_expired
            + m.budget_rejected
            + m.quarantined,
        "chaos books must reconcile: {m:?}"
    );
    insum_serve::faults::set_plan(None);
    println!(
        "chaos ok: {n} requests — {ok} completed ({} retries), {failed} failed, \
         {cancelled} cancelled, {expired} expired, {quarantined} quarantined; \
         zero wedged handles, survivors bit-identical, books reconcile",
        m.retries
    );
}

#[cfg(not(feature = "fault-injection"))]
fn chaos_phase() {
    eprintln!(
        "servebench --chaos needs the fault-injection feature: \
         cargo run -p insum_bench --features fault-injection --bin servebench -- --chaos"
    );
    std::process::exit(2);
}

struct RestartResult {
    requests: usize,
    snapshot_bytes: u64,
    snapshot_writes: u64,
    cold_first_response_seconds: f64,
    cold_wall_seconds: f64,
    cold_programs_compiled: u64,
    warm_first_response_seconds: f64,
    warm_wall_seconds: f64,
    warm_programs_compiled: u64,
    warm_start_hits: u64,
    snapshot_rejected: u64,
}

/// Boot an engine on `config` and serve the whole workload serially,
/// returning (time-to-first-response, total wall, per-request output
/// bits, engine). The clock starts before the engine boots, so the first
/// figure includes snapshot loading and the first request's compile.
fn restart_boot(w: &Workload, config: &ServeConfig) -> (f64, f64, Vec<Vec<u32>>, ServeEngine) {
    let start = Instant::now();
    let engine = ServeEngine::new(config.clone()).expect("engine starts");
    let session = engine.session("restart");
    let mut first = None;
    let outputs = w
        .requests
        .iter()
        .map(|tensors| {
            let response = session
                .submit(w.expr, tensors)
                .expect("admission succeeds")
                .wait()
                .expect("request succeeds");
            first.get_or_insert_with(|| start.elapsed().as_secs_f64());
            response.output.data().iter().map(|v| v.to_bits()).collect()
        })
        .collect();
    (
        first.expect("workload is nonempty"),
        start.elapsed().as_secs_f64(),
        outputs,
        engine,
    )
}

/// Crash-safe persistence: a cold fig7 engine compiles, serves, and
/// persists through [`ServeConfig::with_snapshot`]; a rebooted engine
/// (process-wide caches cleared, as a fresh process would see) must
/// warm-start from the file — zero programs lowered, bit-identical
/// responses, `warm_start_hits` counting the seeded serves — or the
/// phase aborts.
fn restart_phase() -> RestartResult {
    let w = fig7_requests(8);
    let dir = std::env::temp_dir().join(format!("insum_servebench_restart_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("serve.snap");
    let _ = std::fs::remove_file(&path);
    let config = ServeConfig::default()
        .with_queue_capacity(w.requests.len().max(16))
        .with_options(w.options.clone())
        .with_snapshot(&path);
    let cache = insum::ProgramCache::global();

    cache.clear();
    insum_inductor::AutotuneCache::global().clear();
    let (cold_first, cold_wall, cold_outputs, mut cold_engine) = restart_boot(&w, &config);
    let cold_programs_compiled = cache.stats().compiles;
    assert!(cold_programs_compiled > 0, "cold boot must lower programs");
    cold_engine.shutdown();
    let snapshot_writes = cold_engine.metrics().snapshot_writes;
    assert!(snapshot_writes >= 1, "shutdown must persist a snapshot");
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot written").len();
    drop(cold_engine);

    cache.clear();
    insum_inductor::AutotuneCache::global().clear();
    let (warm_first, warm_wall, warm_outputs, mut warm_engine) = restart_boot(&w, &config);
    let warm_programs_compiled = cache.stats().compiles;
    let m = warm_engine.metrics();
    assert_eq!(
        warm_programs_compiled, 0,
        "warm restart must serve with zero programs lowered"
    );
    assert_eq!(
        warm_outputs, cold_outputs,
        "warm restart must serve bit-identical responses"
    );
    assert!(
        m.warm_start_hits > 0,
        "seeded programs must serve the replay"
    );
    assert_eq!(m.snapshot_rejected, 0, "pristine snapshot, no rejections");
    warm_engine.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    RestartResult {
        requests: w.requests.len(),
        snapshot_bytes,
        snapshot_writes,
        cold_first_response_seconds: cold_first,
        cold_wall_seconds: cold_wall,
        cold_programs_compiled,
        warm_first_response_seconds: warm_first,
        warm_wall_seconds: warm_wall,
        warm_programs_compiled,
        warm_start_hits: m.warm_start_hits,
        snapshot_rejected: m.snapshot_rejected,
    }
}

/// Serial one-shot baseline: compile + run per request, returning the
/// expected response bits for the bit-identity checks.
fn serial_oneshot(w: &Workload) -> (f64, Vec<(Tensor, Profile)>) {
    let start = Instant::now();
    let results: Vec<(Tensor, Profile)> = w
        .requests
        .iter()
        .map(|tensors| {
            insum_with(w.expr, tensors, &w.options)
                .expect("compilation succeeds")
                .run(tensors)
                .expect("execution succeeds")
        })
        .collect();
    (start.elapsed().as_secs_f64(), results)
}

/// Mean wall-clock of `Session::submit` itself — admission plus
/// argument capture — measured against a warm, paused engine,
/// nanoseconds per request. With Arc-backed copy-on-write tensors the
/// submit-time `tensors.clone()` is O(params) pointer bumps; this row
/// records the elimination of the former per-submit deep copies.
fn submit_overhead_ns(w: &Workload) -> f64 {
    let engine = ServeEngine::new(
        ServeConfig::default()
            .with_queue_capacity(w.requests.len().max(16))
            .with_options(w.options.clone()),
    )
    .expect("engine starts");
    engine
        .session("warmup")
        .submit(w.expr, &w.requests[0])
        .expect("admission succeeds")
        .wait()
        .expect("warmup succeeds");
    engine.pause();
    let session = engine.session("overhead");
    let start = Instant::now();
    let handles: Vec<_> = w
        .requests
        .iter()
        .map(|tensors| session.submit(w.expr, tensors).expect("admission succeeds"))
        .collect();
    let per_submit = start.elapsed().as_nanos() as f64 / w.requests.len() as f64;
    engine.resume();
    for handle in handles {
        handle.wait().expect("request succeeds");
    }
    per_submit
}

/// Serial precompiled baseline: compile once, run back-to-back.
fn serial_precompiled(w: &Workload) -> f64 {
    let op = insum_with(w.expr, &w.requests[0], &w.options).expect("compilation succeeds");
    let start = Instant::now();
    for tensors in &w.requests {
        op.run(tensors).expect("execution succeeds");
    }
    start.elapsed().as_secs_f64()
}

/// p50/p95/p99/max of one latency histogram, in seconds.
#[derive(Clone, Copy)]
struct Quantiles {
    p50: f64,
    p95: f64,
    p99: f64,
    max: f64,
}

impl Quantiles {
    fn of(h: &insum_serve::Histogram) -> Quantiles {
        Quantiles {
            p50: h.quantile_seconds(0.50),
            p95: h.quantile_seconds(0.95),
            p99: h.quantile_seconds(0.99),
            max: h.max_seconds(),
        }
    }

    fn json(&self) -> String {
        format!(
            "{{\"p50\": {:.6}, \"p95\": {:.6}, \"p99\": {:.6}, \"max\": {:.6}}}",
            self.p50, self.p95, self.p99, self.max
        )
    }
}

struct EngineRow {
    concurrency: usize,
    wall_seconds: f64,
    cold_start_seconds: f64,
    batches: u64,
    largest_batch: usize,
    registry_hits: u64,
    registry_misses: u64,
    wait_mean_seconds: f64,
    wait_max_seconds: f64,
    queue_wait: Quantiles,
    e2e: Quantiles,
    compile: Quantiles,
    bit_identical: bool,
}

/// Drive one engine at the given client concurrency and verify every
/// response against the serial one-shot bits.
fn engine_run(
    w: &Workload,
    concurrency: usize,
    expected: &[(Tensor, Profile)],
    preload: bool,
) -> EngineRow {
    let engine = ServeEngine::new(
        ServeConfig::default()
            .with_queue_capacity(16.max(if preload { w.requests.len() } else { 16 }))
            .with_max_batch(8)
            .with_options(w.options.clone()),
    )
    .expect("engine starts");

    // Warm the registry (and the process-wide ProgramCache) with one
    // request outside the measurement: steady-state serving is the
    // regime of interest, the cold start is reported on its own.
    let cold = Instant::now();
    engine
        .session("warmup")
        .submit(w.expr, &w.requests[0])
        .expect("admission succeeds")
        .wait()
        .expect("warmup succeeds");
    let cold_start_seconds = cold.elapsed().as_secs_f64();

    if preload {
        engine.pause();
    }
    // Preload mode: a barrier guarantees every submission is queued
    // before the scheduler resumes, so batch formation is deterministic
    // (the live mode intentionally races clients against the scheduler).
    let submitted = preload.then(|| std::sync::Barrier::new(concurrency + 1));
    let start = Instant::now();
    let responses: Vec<(usize, insum_serve::Response)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..concurrency)
            .map(|c| {
                let session = engine.session(&format!("tenant-{c}"));
                let w = &w;
                let submitted = &submitted;
                scope.spawn(move || {
                    let handles: Vec<_> = (0..w.requests.len())
                        .skip(c)
                        .step_by(concurrency)
                        .map(|i| {
                            (
                                i,
                                session
                                    .submit(w.expr, &w.requests[i])
                                    .expect("admission succeeds"),
                            )
                        })
                        .collect();
                    if let Some(barrier) = submitted {
                        barrier.wait();
                    }
                    handles
                        .into_iter()
                        .map(|(i, h)| (i, h.wait().expect("request succeeds")))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        if let Some(barrier) = &submitted {
            barrier.wait();
            engine.resume();
        }
        workers
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let mut bit_identical = true;
    let mut wait_sum = 0.0;
    let mut wait_max = 0.0f64;
    for (i, response) in &responses {
        let (want_out, want_profile) = &expected[*i];
        if response.output.data() != want_out.data() || &response.profile != want_profile {
            bit_identical = false;
        }
        wait_sum += response.queue_seconds;
        wait_max = wait_max.max(response.queue_seconds);
    }
    assert!(
        bit_identical,
        "{} @{}: engine responses diverge from serial one-shot execution",
        w.name, concurrency
    );
    assert_eq!(responses.len(), w.requests.len());

    let m = engine.metrics();
    EngineRow {
        concurrency,
        wall_seconds,
        cold_start_seconds,
        batches: m.batches,
        largest_batch: m.largest_batch,
        registry_hits: m.registry.hits,
        registry_misses: m.registry.misses,
        wait_mean_seconds: wait_sum / responses.len() as f64,
        wait_max_seconds: wait_max,
        queue_wait: Quantiles::of(&m.queue_wait()),
        e2e: Quantiles::of(&m.e2e()),
        compile: Quantiles::of(&m.compile()),
        bit_identical,
    }
}

struct WorkloadResult {
    name: &'static str,
    options_label: &'static str,
    requests: usize,
    wall_serial_oneshot: f64,
    wall_serial_precompiled: f64,
    submit_overhead_ns_mean: f64,
    rows: Vec<EngineRow>,
}

fn run_workload(w: &Workload, concurrencies: &[usize], preload: bool) -> WorkloadResult {
    let (wall_serial_oneshot, expected) = serial_oneshot(w);
    let wall_serial_precompiled = serial_precompiled(w);
    let submit_overhead_ns_mean = submit_overhead_ns(w);
    let rows = concurrencies
        .iter()
        .map(|&c| engine_run(w, c, &expected, preload))
        .collect();
    WorkloadResult {
        name: w.name,
        options_label: w.options_label,
        requests: w.requests.len(),
        wall_serial_oneshot,
        wall_serial_precompiled,
        submit_overhead_ns_mean,
        rows,
    }
}

struct TelemetryResult {
    disabled_wall_seconds: f64,
    enabled_wall_seconds: f64,
    overhead: f64,
}

/// Telemetry smoke: serving with tracing + histograms enabled must
/// change no bits, stay within a 5% overhead envelope of the disabled
/// configuration (min-of-3 walls plus an absolute slack so a sub-ms
/// workload can't fail on scheduler jitter), and the cadence dump must
/// parse back and reconcile with the in-memory counters.
fn telemetry_phase(w: &Workload, expected: &[(Tensor, Profile)]) -> TelemetryResult {
    let serve_all = |telemetry: bool| -> (f64, Vec<Vec<u32>>) {
        let engine = ServeEngine::new(
            ServeConfig::default()
                .with_queue_capacity(w.requests.len().max(16))
                .with_max_batch(8)
                .with_options(w.options.clone())
                .with_telemetry(telemetry),
        )
        .expect("engine starts");
        engine
            .session("warmup")
            .submit(w.expr, &w.requests[0])
            .expect("admission succeeds")
            .wait()
            .expect("warmup succeeds");
        engine.pause();
        let session = engine.session("telemetry");
        let handles: Vec<_> = w
            .requests
            .iter()
            .map(|t| session.submit(w.expr, t).expect("admission succeeds"))
            .collect();
        let start = Instant::now();
        engine.resume();
        let outputs: Vec<Vec<u32>> = handles
            .into_iter()
            .map(|h| {
                let r = h.wait().expect("request succeeds");
                assert_eq!(
                    r.trace.is_some(),
                    telemetry,
                    "spans ride responses exactly when telemetry is on"
                );
                r.output.data().iter().map(|v| v.to_bits()).collect()
            })
            .collect();
        (start.elapsed().as_secs_f64(), outputs)
    };

    // Min-of-3 per mode: the minimum is the least noisy wall estimator
    // on a shared CI host.
    let mut disabled = f64::INFINITY;
    let mut enabled = f64::INFINITY;
    let mut disabled_bits = None;
    let mut enabled_bits = None;
    for _ in 0..3 {
        let (woff, boff) = serve_all(false);
        disabled = disabled.min(woff);
        disabled_bits.get_or_insert(boff);
        let (won, bon) = serve_all(true);
        enabled = enabled.min(won);
        enabled_bits.get_or_insert(bon);
    }
    let expected_bits: Vec<Vec<u32>> = expected
        .iter()
        .map(|(t, _)| t.data().iter().map(|v| v.to_bits()).collect())
        .collect();
    assert_eq!(
        enabled_bits.as_ref().unwrap(),
        &expected_bits,
        "telemetry-enabled serving must change no bits"
    );
    assert_eq!(disabled_bits.as_ref().unwrap(), &expected_bits);
    let overhead = (enabled - disabled) / disabled;
    assert!(
        enabled <= disabled * 1.05 + 0.05,
        "telemetry overhead gate: enabled {enabled:.4}s vs disabled {disabled:.4}s \
         ({:.1}% > 5% + slack)",
        overhead * 100.0
    );

    // Dump parse-back: the final dump the scheduler writes at shutdown
    // must reconcile with the in-memory snapshot.
    let dir =
        std::env::temp_dir().join(format!("insum_servebench_telemetry_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.prom");
    let mut engine = ServeEngine::new(
        ServeConfig::default()
            .with_queue_capacity(w.requests.len().max(16))
            .with_options(w.options.clone())
            .with_telemetry_dump(&path),
    )
    .expect("engine starts");
    let session = engine.session("dumper");
    for tensors in &w.requests {
        session
            .submit(w.expr, tensors)
            .expect("admission succeeds")
            .wait()
            .expect("request succeeds");
    }
    let m = engine.metrics();
    println!("{m}"); // the snapshot's own Display: the operator view
    engine.shutdown();

    let prom = std::fs::read_to_string(&path).expect("Prometheus dump written");
    let samples = insum_telemetry::expo::parse_prometheus(&prom);
    assert_eq!(samples["serve_completed_total"], m.completed as f64);
    assert_eq!(samples["serve_submitted_total"], m.submitted as f64);
    assert_eq!(
        samples["serve_queue_wait_seconds_count{tenant=\"dumper\"}"],
        m.tenants["dumper"].queue_wait.count() as f64,
        "dumped queue-wait histogram reconciles with the in-memory one"
    );
    let json_text =
        std::fs::read_to_string(path.with_extension("json")).expect("JSON dump written");
    let json = insum_telemetry::json::parse(&json_text).expect("dump is valid JSON");
    assert_eq!(
        json.get("completed").and_then(|v| v.as_f64()),
        Some(m.completed as f64)
    );
    assert_eq!(
        json.get("tenants")
            .and_then(|t| t.get("dumper"))
            .and_then(|t| t.get("queue_wait"))
            .and_then(|h| h.get("count"))
            .and_then(|v| v.as_f64()),
        Some(m.tenants["dumper"].queue_wait.count() as f64)
    );
    std::fs::remove_dir_all(&dir).ok();

    TelemetryResult {
        disabled_wall_seconds: disabled,
        enabled_wall_seconds: enabled,
        overhead,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let chaos = std::env::args().any(|a| a == "--chaos");
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    if chaos {
        // CI lifecycle smoke: the chaos harness plus the fairness gate.
        chaos_phase();
        let f = fairness_phase();
        println!(
            "fairness ok: {} fair tenants x {} requests vs greedy flood of {} — \
             solo {:.3}s, mixed {:.3}s ({:.2}x), greedy {} served / {} budget-rejected",
            FAIR_TENANTS,
            f.requests_per_fair_tenant,
            f.greedy_requests,
            f.wall_solo,
            f.wall_mixed_fair,
            f.wall_mixed_fair / f.wall_solo,
            f.greedy_completed,
            f.greedy_budget_rejected,
        );
        return;
    }

    if smoke {
        // Deterministic small-scale check for CI: preload the queue so
        // the batching path is exercised regardless of host speed.
        let w = smoke_requests(8);
        let result = run_workload(&w, &[4], true);
        let row = &result.rows[0];
        assert!(row.bit_identical);
        assert_eq!(row.registry_misses, 1, "only the warmup compiles");
        assert_eq!(row.registry_hits as usize, w.requests.len());
        assert!(
            row.largest_batch > 1,
            "preloaded queue must form multi-request batches"
        );
        // Clone accounting: shared-argument requests on a warm engine
        // must perform no deep tensor copies beyond the outputs the
        // kernel actually writes. `Tensor::deep_copy_count` counts only
        // real buffer materializations, so these asserts pin the
        // submit-time and bind-time clone elimination.
        let engine = ServeEngine::new(
            ServeConfig::default()
                .with_queue_capacity(32)
                .with_max_batch(8)
                .with_options(w.options.clone()),
        )
        .expect("engine starts");
        let shared_req = &w.requests[0];
        let warm = engine
            .session("warm")
            .submit(w.expr, shared_req)
            .expect("admission succeeds")
            .wait()
            .expect("warmup succeeds");
        let fanout = 6usize;

        // Analytic fan-out: nothing is written, so the whole path —
        // submit, scheduling, bind, launch, response — is zero-copy.
        engine.pause();
        let before = Tensor::deep_copy_count();
        let handles: Vec<_> = (0..fanout)
            .map(|i| {
                engine
                    .session(&format!("analytic-{i}"))
                    .submit_with(
                        w.expr,
                        shared_req,
                        &SubmitOptions::default().with_mode(Mode::Analytic),
                    )
                    .expect("admission succeeds")
            })
            .collect();
        engine.resume();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("request succeeds"))
            .collect();
        let analytic_copies = Tensor::deep_copy_count() - before;
        assert!(
            responses.iter().all(|r| r.batch_size == fanout),
            "shared-argument fan-out must form one batch"
        );
        assert_eq!(
            analytic_copies, 0,
            "warm batched analytic launch of shared-argument requests \
             must perform zero deep tensor copies"
        );

        // Execute fan-out: exactly one materialization per request — the
        // written output — and nothing else.
        engine.pause();
        let before = Tensor::deep_copy_count();
        let handles: Vec<_> = (0..fanout)
            .map(|i| {
                engine
                    .session(&format!("execute-{i}"))
                    .submit(w.expr, shared_req)
                    .expect("admission succeeds")
            })
            .collect();
        engine.resume();
        let responses: Vec<_> = handles
            .into_iter()
            .map(|h| h.wait().expect("request succeeds"))
            .collect();
        let execute_copies = Tensor::deep_copy_count() - before;
        assert_eq!(
            execute_copies, fanout as u64,
            "warm batched execute launch must materialize exactly each \
             request's written output"
        );
        for r in &responses {
            assert_eq!(
                r.output.data(),
                warm.output.data(),
                "shared-argument responses stay bit-identical"
            );
        }

        // Equal-content fan-out in fresh storage: every request binds its
        // own copy of the same tensors. They resolve to the one artifact,
        // so they form one batch, and every response carries the serial
        // bits.
        let serial = insum_with(w.expr, shared_req, &w.options)
            .and_then(|op| op.run(shared_req))
            .expect("serial run succeeds");
        let fresh_requests: Vec<BTreeMap<String, Tensor>> = (0..fanout)
            .map(|_| {
                shared_req
                    .iter()
                    .map(|(name, t)| {
                        let data = t.data().to_vec();
                        let copy = Tensor::from_vec_with(t.shape().to_vec(), data, t.dtype());
                        (name.clone(), copy.expect("a copy keeps its shape"))
                    })
                    .collect()
            })
            .collect();
        engine.pause();
        let handles: Vec<_> = fresh_requests
            .iter()
            .enumerate()
            .map(|(i, tensors)| {
                engine
                    .session(&format!("fresh-{i}"))
                    .submit(w.expr, tensors)
                    .expect("admission succeeds")
            })
            .collect();
        engine.resume();
        for h in handles {
            let r = h.wait().expect("request succeeds");
            assert_eq!(
                r.batch_size, fanout,
                "equal-content requests in fresh storage must form one batch"
            );
            assert!(
                r.output.bit_eq(&serial.0) && r.profile == serial.1,
                "fresh-storage responses carry the serial bits"
            );
        }

        // Chain compile-once smoke: a 4-operand contraction chain
        // submitted twice must compile (and lower) each pairwise step
        // exactly once — the second submission is a registry hit and
        // every step's launch hits the process-wide ProgramCache.
        // servebench runs serially, so exact global-cache deltas are
        // race-free here.
        let chain_expr = "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";
        let mut rng = SmallRng::seed_from_u64(99);
        let mut int = |shape: Vec<usize>| {
            insum_tensor::rand_uniform(shape, -2.49, 2.49, &mut rng).map(f32::round)
        };
        let chain_tensors: BTreeMap<String, Tensor> = [
            ("A".to_string(), int(vec![64, 64])),
            ("B".to_string(), int(vec![64, 4])),
            ("C".to_string(), int(vec![4, 64])),
            ("D".to_string(), int(vec![64, 64])),
        ]
        .into_iter()
        .collect();
        // Default options: the pairwise steps are dense contractions,
        // whose one lowering is the general kernel, so every device step
        // owns a program.
        let local_plan =
            insum::plan(chain_expr, &chain_tensors, &InsumOptions::default()).expect("chain plans");
        let device_steps = local_plan.device_step_count() as u64;
        assert_eq!(
            local_plan.program_step_count() as u64,
            device_steps,
            "every device step of the chain lowers through the ProgramCache"
        );
        let reference = insum::chain_reference(chain_expr, &chain_tensors).expect("reference");

        let cache = insum::ProgramCache::global();
        let chain_engine = ServeEngine::new(ServeConfig::default()).expect("engine starts");
        let session = chain_engine.session("chain");
        let before = cache.stats();
        let first = session
            .submit(chain_expr, &chain_tensors)
            .expect("admission succeeds")
            .wait()
            .expect("first chain request succeeds");
        let mid = cache.stats();
        assert_eq!(
            mid.misses - before.misses,
            device_steps,
            "first chain run must lower exactly one program per device step"
        );
        let second = session
            .submit(chain_expr, &chain_tensors)
            .expect("admission succeeds")
            .wait()
            .expect("second chain request succeeds");
        let after = cache.stats();
        assert_eq!(
            after.misses, mid.misses,
            "second identical chain request must re-lower nothing"
        );
        assert!(
            after.hits >= mid.hits + device_steps,
            "every device step of the second chain request must hit the ProgramCache"
        );
        assert!(!first.registry_hit, "first chain request compiles the plan");
        assert!(
            second.registry_hit,
            "second chain request must reuse the registry's plan artifact"
        );
        for r in [&first, &second] {
            assert_eq!(
                r.output.data(),
                reference.data(),
                "served chain output must match the naive reference bit-for-bit"
            );
        }
        let cm = chain_engine.metrics();
        assert_eq!((cm.registry.misses, cm.registry.hits), (1, 1));
        drop(chain_engine);

        // Snapshot/restore smoke: a cold engine persists its programs,
        // a corrupted snapshot degrades to recompile (counted, bits
        // unchanged), and the restored pristine file warm-starts with
        // zero lowerings. servebench is serial, so clearing the
        // process-wide caches between boots is race-free.
        let snap_dir =
            std::env::temp_dir().join(format!("insum_servebench_smoke_{}", std::process::id()));
        std::fs::create_dir_all(&snap_dir).expect("temp dir");
        let snap_path = snap_dir.join("smoke.snap");
        let _ = std::fs::remove_file(&snap_path);
        let snap_config = ServeConfig::default()
            .with_options(w.options.clone())
            .with_snapshot(&snap_path);

        cache.clear();
        insum_inductor::AutotuneCache::global().clear();
        let (_, _, cold_outputs, mut snap_engine) = restart_boot(&w, &snap_config);
        snap_engine.shutdown();
        assert!(snap_engine.metrics().snapshot_writes >= 1);
        drop(snap_engine);
        let pristine = std::fs::read(&snap_path).expect("snapshot written");

        let mut damaged = pristine.clone();
        damaged[pristine.len() / 2] ^= 0xff;
        std::fs::write(&snap_path, &damaged).expect("write damaged snapshot");
        cache.clear();
        insum_inductor::AutotuneCache::global().clear();
        let (_, _, corrupt_outputs, mut snap_engine) = restart_boot(&w, &snap_config);
        let snapshot_rejected = snap_engine.metrics().snapshot_rejected;
        assert!(
            snapshot_rejected >= 1,
            "corruption must be detected and counted"
        );
        assert_eq!(
            corrupt_outputs, cold_outputs,
            "a corrupted snapshot must degrade to recompile, never wrong bits"
        );
        snap_engine.shutdown();
        drop(snap_engine);

        std::fs::write(&snap_path, &pristine).expect("restore pristine snapshot");
        cache.clear();
        insum_inductor::AutotuneCache::global().clear();
        let (_, _, warm_outputs, mut snap_engine) = restart_boot(&w, &snap_config);
        assert_eq!(
            cache.stats().compiles,
            0,
            "restored snapshot must warm-start with zero programs lowered"
        );
        assert_eq!(warm_outputs, cold_outputs);
        let warm_start_hits = snap_engine.metrics().warm_start_hits;
        assert!(warm_start_hits > 0);
        snap_engine.shutdown();
        drop(snap_engine);
        std::fs::remove_dir_all(&snap_dir).ok();

        // Telemetry smoke: no bit changes, bounded overhead, dump
        // parse-back reconciliation.
        let (_, expected) = serial_oneshot(&w);
        let telem = telemetry_phase(&w, &expected);

        println!(
            "servebench smoke ok: {} requests, concurrency 4, largest batch {}, \
             {:.1} req/s (serial one-shot {:.1} req/s), bit_identical; \
             clone accounting: analytic fan-out {analytic_copies} deep copies, \
             execute fan-out {execute_copies} (outputs only); \
             fresh-storage fan-out of {fanout} formed one batch, bit-identical; \
             chain smoke: {device_steps} device steps compiled once across two submissions; \
             snapshot smoke: corrupt rejected ({snapshot_rejected}), restored file \
             warm-started ({warm_start_hits} warm hits, 0 lowered); \
             telemetry smoke: enabled {:.4}s vs disabled {:.4}s ({:+.1}% overhead, \
             gate 5%), bits unchanged, dump parsed back and reconciled",
            w.requests.len(),
            row.largest_batch,
            w.requests.len() as f64 / row.wall_seconds,
            w.requests.len() as f64 / result.wall_serial_oneshot,
            telem.enabled_wall_seconds,
            telem.disabled_wall_seconds,
            telem.overhead * 100.0,
        );
        return;
    }

    let concurrencies = [1usize, 4, 8, 16];
    let workloads = [fig7_requests(24), coo_requests(24), pointcloud_requests(8)];
    let results: Vec<WorkloadResult> = workloads
        .iter()
        .map(|w| run_workload(w, &concurrencies, false))
        .collect();
    let fairness = fairness_phase();
    let restart = restart_phase();

    let table: Vec<Vec<String>> = results
        .iter()
        .flat_map(|r| {
            r.rows.iter().map(move |row| {
                vec![
                    r.name.to_string(),
                    row.concurrency.to_string(),
                    r.requests.to_string(),
                    format!("{:.1}", r.requests as f64 / r.wall_serial_oneshot),
                    format!("{:.1}", r.requests as f64 / row.wall_seconds),
                    x(r.wall_serial_oneshot / row.wall_seconds),
                    x(r.wall_serial_precompiled / row.wall_seconds),
                    format!("{}/{}", row.batches, row.largest_batch),
                    format!("{:.1}", row.wait_mean_seconds * 1e3),
                    format!("{:.1}", row.e2e.p99 * 1e3),
                    row.bit_identical.to_string(),
                ]
            })
        })
        .collect();
    print_table(
        &format!("serving throughput (host threads: {max_threads})"),
        &[
            "workload",
            "conc",
            "reqs",
            "serial r/s",
            "engine r/s",
            "vs oneshot",
            "vs precomp",
            "batches/max",
            "wait ms",
            "e2e p99 ms",
            "bit_id",
        ],
        &table,
    );

    // Acceptance gate: every row bit-identical, and fig7 SpMM at
    // concurrency 8 no slower than 0.9x the compile-once serial floor —
    // the engine's scheduling must not cost what batching saves. The
    // ratio against one-shot requests is printed, not gated: it measures
    // how much per-request autotuning the registry amortises, so it
    // shrinks whenever the sweep itself gets cheaper.
    assert!(
        results
            .iter()
            .all(|r| r.rows.iter().all(|row| row.bit_identical)),
        "every engine response must be bit-identical to its one-shot run"
    );
    let fig7 = &results[0];
    let row8 = fig7
        .rows
        .iter()
        .find(|r| r.concurrency == 8)
        .expect("concurrency-8 row present");
    let vs_oneshot = fig7.wall_serial_oneshot / row8.wall_seconds;
    let vs_precompiled = fig7.wall_serial_precompiled / row8.wall_seconds;
    assert!(
        vs_precompiled >= 0.9,
        "fig7 SpMM at concurrency 8: need >= 0.9x the precompiled serial \
         throughput, got {vs_precompiled:.2}x"
    );
    println!(
        "\nheadline: fig7 SpMM at concurrency 8 serves {vs_precompiled:.2}x the precompiled \
         serial throughput and {vs_oneshot:.2}x the one-shot request throughput (bit-identical)"
    );
    println!(
        "fairness: greedy flood held to {:.2}x fair-tenant slowdown \
         ({} greedy served, {} budget-rejected)",
        fairness.wall_mixed_fair / fairness.wall_solo,
        fairness.greedy_completed,
        fairness.greedy_budget_rejected,
    );
    println!(
        "restart: warm boot served first response in {:.3}s vs {:.3}s cold \
         ({} programs lowered warm vs {} cold, {} warm-start hits, \
         snapshot {} bytes)",
        restart.warm_first_response_seconds,
        restart.cold_first_response_seconds,
        restart.warm_programs_compiled,
        restart.cold_programs_compiled,
        restart.warm_start_hits,
        restart.snapshot_bytes,
    );

    // Machine-readable trajectory record.
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"servebench\",\n");
    json.push_str("  \"device_model\": \"rtx3090-sim\",\n");
    json.push_str(&format!("  \"host_threads_max\": {max_threads},\n"));
    json.push_str(&format!(
        "  \"fairness\": {{\"fair_tenants\": {}, \"requests_per_fair_tenant\": {}, \
         \"greedy_requests\": {}, \"probe_cost_units\": {}, \
         \"wall_seconds_fair_solo\": {:.6}, \"wall_seconds_fair_mixed\": {:.6}, \
         \"fair_slowdown_under_flood\": {:.3}, \"fair_completed_min\": {}, \
         \"fair_completed_max\": {}, \"greedy_completed\": {}, \
         \"greedy_budget_rejected\": {}}},\n",
        FAIR_TENANTS,
        fairness.requests_per_fair_tenant,
        fairness.greedy_requests,
        fairness.probe_cost_units,
        fairness.wall_solo,
        fairness.wall_mixed_fair,
        fairness.wall_mixed_fair / fairness.wall_solo,
        fairness.fair_completed_min,
        fairness.fair_completed_max,
        fairness.greedy_completed,
        fairness.greedy_budget_rejected,
    ));
    json.push_str(&format!(
        "  \"restart\": {{\"workload\": \"spmm_block_group_fig7\", \"requests\": {}, \
         \"snapshot_bytes\": {}, \"snapshot_writes\": {}, \
         \"cold_first_response_seconds\": {:.6}, \"cold_wall_seconds\": {:.6}, \
         \"cold_programs_compiled\": {}, \
         \"warm_first_response_seconds\": {:.6}, \"warm_wall_seconds\": {:.6}, \
         \"warm_programs_compiled\": {}, \"warm_start_hits\": {}, \
         \"snapshot_rejected\": {}}},\n",
        restart.requests,
        restart.snapshot_bytes,
        restart.snapshot_writes,
        restart.cold_first_response_seconds,
        restart.cold_wall_seconds,
        restart.cold_programs_compiled,
        restart.warm_first_response_seconds,
        restart.warm_wall_seconds,
        restart.warm_programs_compiled,
        restart.warm_start_hits,
        restart.snapshot_rejected,
    ));
    json.push_str("  \"workloads\": [\n");
    for (wi, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"requests\": {}, \"options\": \"{}\",\n",
            r.name, r.requests, r.options_label
        ));
        json.push_str(&format!(
            "     \"wall_seconds_serial_oneshot\": {:.6}, \
             \"wall_seconds_serial_precompiled\": {:.6}, \
             \"submit_overhead_ns_mean\": {:.1},\n",
            r.wall_serial_oneshot, r.wall_serial_precompiled, r.submit_overhead_ns_mean
        ));
        json.push_str("     \"rows\": [\n");
        for (i, row) in r.rows.iter().enumerate() {
            json.push_str(&format!(
                "      {{\"concurrency\": {}, \"wall_seconds_engine\": {:.6}, \
                 \"requests_per_sec_engine\": {:.2}, \"requests_per_sec_serial\": {:.2}, \
                 \"throughput_vs_serial\": {:.3}, \"throughput_vs_precompiled\": {:.3}, \
                 \"cold_start_seconds\": {:.6}, \"batches\": {}, \"largest_batch\": {}, \
                 \"registry_hits\": {}, \"registry_misses\": {}, \
                 \"queue_wait_mean_seconds\": {:.6}, \"queue_wait_max_seconds\": {:.6}, \
                 \"queue_wait_seconds\": {}, \"e2e_seconds\": {}, \
                 \"compile_seconds\": {}, \
                 \"bit_identical\": {}}}{}\n",
                row.concurrency,
                row.wall_seconds,
                r.requests as f64 / row.wall_seconds,
                r.requests as f64 / r.wall_serial_oneshot,
                r.wall_serial_oneshot / row.wall_seconds,
                r.wall_serial_precompiled / row.wall_seconds,
                row.cold_start_seconds,
                row.batches,
                row.largest_batch,
                row.registry_hits,
                row.registry_misses,
                row.wait_mean_seconds,
                row.wait_max_seconds,
                row.queue_wait.json(),
                row.e2e.json(),
                row.compile.json(),
                row.bit_identical,
                if i + 1 < r.rows.len() { "," } else { "" },
            ));
        }
        json.push_str("     ]\n");
        json.push_str(&format!(
            "    }}{}\n",
            if wi + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_serve.json", &json).expect("write BENCH_serve.json");
    println!("wrote BENCH_serve.json");
}
