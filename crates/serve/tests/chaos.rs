//! Chaos harness: a seeded [`insum_serve::faults::FaultPlan`] injects
//! compile panics, execute panics, latency, and budget spikes across a
//! randomized request mix while the properties that define the engine
//! hold: every handle resolves, every survivor is bit-identical to its
//! serial oracle, every failure is from the allowed set, and the books
//! reconcile.

use insum::{insum_with, InsumOptions, Tensor};
use insum_serve::faults::FaultPlan;
use insum_serve::{ServeConfig, ServeEngine, ServeError, SubmitOptions, TestClock};
use insum_tensor::{rand_uniform, randint};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The fault plan is process-global (`set_plan` governs every engine in
/// the process), so chaos tests in this binary must not overlap.
static PLAN_LOCK: Mutex<()> = Mutex::new(());

fn plan_guard() -> MutexGuard<'static, ()> {
    PLAN_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const SPMM: &str = "C[AM[p],n] += AV[p] * B[AK[p],n]";
const MATMUL: &str = "C[y,x] = A[y,r] * B[r,x]";

fn spmm_request(seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nnz = 29;
    [
        ("C".to_string(), Tensor::zeros(vec![16, 32])),
        ("AM".to_string(), randint(vec![nnz], 16, &mut rng)),
        ("AK".to_string(), randint(vec![nnz], 24, &mut rng)),
        (
            "AV".to_string(),
            rand_uniform(vec![nnz], -1.0, 1.0, &mut rng),
        ),
        (
            "B".to_string(),
            rand_uniform(vec![24, 32], -1.0, 1.0, &mut rng),
        ),
    ]
    .into_iter()
    .collect()
}

fn matmul_request(seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    [
        ("C".to_string(), Tensor::zeros(vec![24, 20])),
        (
            "A".to_string(),
            rand_uniform(vec![24, 12], -1.0, 1.0, &mut rng),
        ),
        (
            "B".to_string(),
            rand_uniform(vec![12, 20], -1.0, 1.0, &mut rng),
        ),
    ]
    .into_iter()
    .collect()
}

struct Expected {
    expr: &'static str,
    tensors: BTreeMap<String, Tensor>,
    output: Tensor,
    deadline: Option<Duration>,
    cancelled_by_us: bool,
}

/// Poll every handle to resolution with a generous real-time bound: a
/// handle that never resolves is a wedged engine, the worst chaos
/// outcome, and must fail loudly rather than hang the suite.
fn drain(
    handles: Vec<(insum_serve::ResponseHandle, Expected)>,
) -> Vec<(Result<insum_serve::Response, ServeError>, Expected)> {
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut pending: Vec<_> = handles.into_iter().map(|(h, e)| (h, e, None)).collect();
    loop {
        for (handle, _, slot) in &mut pending {
            if slot.is_none() {
                *slot = handle.try_take();
            }
        }
        if pending.iter().all(|(_, _, slot)| slot.is_some()) {
            return pending
                .into_iter()
                .map(|(_, e, slot)| (slot.unwrap(), e))
                .collect();
        }
        assert!(
            Instant::now() < deadline,
            "wedged handles: {} of {} never resolved",
            pending.iter().filter(|(_, _, s)| s.is_none()).count(),
            pending.len()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn seeded_chaos_preserves_bit_identity_and_resolves_every_handle() {
    let _guard = plan_guard();
    for seed in [7, 1234] {
        insum_serve::faults::set_plan(Some(FaultPlan {
            seed,
            exec_panic_per_mille: 150,
            compile_panic_per_mille: 100,
            latency_per_mille: 100,
            latency: Duration::from_millis(1),
            budget_spike_per_mille: 50,
            budget_spike_units: 1_000,
        }));
        let config = ServeConfig::default()
            .with_retry_backoff(Duration::from_millis(1), Duration::from_millis(20))
            .with_breaker(5, Duration::from_millis(50));
        let engine = ServeEngine::new(config).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xc0ffee);

        let mut handles = Vec::new();
        for i in 0..32u64 {
            let (expr, tensors) = if rng.gen_bool(0.5) {
                (SPMM, spmm_request(seed * 100 + i))
            } else {
                (MATMUL, matmul_request(seed * 100 + i))
            };
            // The oracle is the whole point of chaos: whatever faults,
            // retries, and reordering happen, a delivered response must
            // be bit-identical to this serial run.
            let (output, _) = insum_with(expr, &tensors, &InsumOptions::default())
                .unwrap()
                .run(&tensors)
                .unwrap();
            let deadline = match rng.gen_range(0..4) {
                0 => Some(Duration::ZERO),
                1 => Some(Duration::from_secs(60)),
                _ => None,
            };
            let mut opts = SubmitOptions::default()
                .with_max_retries(rng.gen_range(0..=3))
                .with_priority(rng.gen_range(-1..=1));
            if let Some(d) = deadline {
                opts = opts.with_deadline(d);
            }
            let tenant = format!("tenant-{}", i % 4);
            let handle = engine
                .session(&tenant)
                .submit_with(expr, &tensors, &opts)
                .unwrap();
            let cancelled_by_us = rng.gen_range(0..8) == 0 && handle.cancel();
            handles.push((
                handle,
                Expected {
                    expr,
                    tensors,
                    output,
                    deadline,
                    cancelled_by_us,
                },
            ));
        }

        let mut completed = 0usize;
        for (result, expected) in drain(handles) {
            match result {
                Ok(response) => {
                    assert!(
                        !expected.cancelled_by_us,
                        "a won cancel cannot also deliver"
                    );
                    assert_eq!(
                        response.output.data(),
                        expected.output.data(),
                        "survivor of {} diverged from its serial oracle",
                        expected.expr
                    );
                    let (_, want_profile) =
                        insum_with(expected.expr, &expected.tensors, &InsumOptions::default())
                            .unwrap()
                            .run(&expected.tensors)
                            .unwrap();
                    assert_eq!(response.profile, want_profile);
                    completed += 1;
                }
                Err(ServeError::Cancelled) => {
                    assert!(expected.cancelled_by_us, "only our cancels may cancel");
                }
                Err(ServeError::DeadlineExceeded { .. }) => {
                    assert!(expected.deadline.is_some(), "expiry needs a deadline");
                }
                Err(ServeError::Engine(_)) | Err(ServeError::Quarantined { .. }) => {
                    // Injected panics past their retry budget, or a
                    // tenant the breaker quarantined after repeated
                    // injected failures. Both are allowed under chaos.
                }
                Err(other) => panic!("forbidden failure under chaos: {other:?}"),
            }
        }
        assert!(completed > 0, "chaos must not starve every request");

        // Quiescent books reconcile even under injected faults.
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
            "chaos books reconcile: {m:?}"
        );
        drop(engine);
    }
    insum_serve::faults::set_plan(None);
}

/// A deadline that passes while an earlier batch of the window runs is
/// checked again at launch: the request expires instead of occupying a
/// batch slot, and charges no budget. The plan's latency advances the
/// test clock by 10 s inside every launch.
#[test]
fn a_deadline_passed_during_an_earlier_launch_expires_at_its_own() {
    let _guard = plan_guard();
    insum_serve::faults::set_plan(Some(FaultPlan {
        seed: 5,
        latency_per_mille: 1000,
        latency: Duration::from_secs(10),
        ..FaultPlan::default()
    }));
    let clock = TestClock::new();
    let engine = ServeEngine::with_clock(ServeConfig::default(), Arc::clone(&clock) as _).unwrap();
    engine.pause();
    let session = engine.session("late-t");
    let first = session.submit(SPMM, &spmm_request(1)).unwrap();
    let late = session
        .submit_with(
            MATMUL,
            &matmul_request(2),
            &SubmitOptions::default().with_deadline(Duration::from_secs(5)),
        )
        .unwrap();
    engine.resume();
    let done = first.wait().expect("no deadline: latency only delays it");
    let late = late.wait();
    insum_serve::faults::set_plan(None);
    match late {
        Err(ServeError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::from_secs(5));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let m = engine.metrics();
    assert_eq!((m.completed, m.deadline_expired), (1, 1));
    assert_eq!(
        m.tenants["late-t"].cost_units,
        done.profile.total_cost_units(),
        "the expired request charged nothing"
    );
}

#[test]
fn zero_rate_plan_is_a_no_op() {
    let _guard = plan_guard();
    insum_serve::faults::set_plan(Some(FaultPlan {
        seed: 99,
        ..FaultPlan::default()
    }));
    let engine = ServeEngine::with_defaults().unwrap();
    let mut handles = Vec::new();
    for i in 0..8u64 {
        let tensors = spmm_request(9000 + i);
        let (want, _) = insum_with(SPMM, &tensors, &InsumOptions::default())
            .unwrap()
            .run(&tensors)
            .unwrap();
        let handle = engine.session("calm").submit(SPMM, &tensors).unwrap();
        handles.push((handle, want));
    }
    for (handle, want) in handles {
        let response = handle.wait().expect("zero-rate plan injects nothing");
        assert_eq!(response.output.data(), want.data());
        assert_eq!(response.attempts, 1);
    }
    insum_serve::faults::set_plan(None);
}
