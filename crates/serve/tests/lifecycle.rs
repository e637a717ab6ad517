//! Deterministic lifecycle behavior on the injectable [`TestClock`]:
//! deadlines, cancellation, retries with backoff, cost budgets, the
//! circuit breaker, and metrics reconciliation. Virtual time only moves
//! when a test advances it, so every timed path runs instantly and
//! without flakiness.

use insum::{insum_with, InsumOptions, Tensor};
use insum_serve::{
    AdmissionPolicy, CostBudget, ServeConfig, ServeEngine, ServeError, SubmitOptions, TestClock,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes tests that arm the process-global targeted faults
/// (`set_panic_tenant` is a single slot; concurrent arming would
/// clobber).
static FAULT_LOCK: Mutex<()> = Mutex::new(());

fn fault_guard() -> MutexGuard<'static, ()> {
    FAULT_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

const EXPR: &str = "C[i] = A[i] * A[i]";

fn request(fill: f32) -> BTreeMap<String, Tensor> {
    [
        ("C".to_string(), Tensor::zeros(vec![16])),
        (
            "A".to_string(),
            Tensor::from_vec(vec![16], vec![fill; 16]).unwrap(),
        ),
    ]
    .into_iter()
    .collect()
}

fn oracle(expr: &str, tensors: &BTreeMap<String, Tensor>) -> Tensor {
    insum_with(expr, tensors, &InsumOptions::default())
        .unwrap()
        .run(tensors)
        .unwrap()
        .0
}

/// Poll `f` every millisecond until it returns `Some`, with a real-time
/// bound so a wedged engine fails the test instead of hanging it.
fn poll_until<T>(what: &str, mut f: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Some(v) = f() {
            return v;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn deadlines_expire_on_the_test_clock_even_while_paused() {
    let clock = TestClock::new();
    let engine = ServeEngine::with_clock(ServeConfig::default(), Arc::clone(&clock) as _).unwrap();
    engine.pause();
    let tensors = request(2.0);
    let session = engine.session("deadline-t");
    let dl = session
        .submit_with(
            EXPR,
            &tensors,
            &SubmitOptions::default().with_deadline(Duration::from_secs(5)),
        )
        .unwrap();
    let ok = session.submit(EXPR, &tensors).unwrap();

    // Virtual time reaches the deadline while the engine is paused: the
    // scheduler must expire the request anyway — expiry never waits for
    // resume — while the deadline-less request stays queued.
    clock.advance(Duration::from_secs(5));
    match dl.wait() {
        Err(ServeError::DeadlineExceeded { deadline }) => {
            assert_eq!(deadline, Duration::from_secs(5));
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    let m = poll_until("expiry metrics", || {
        let m = engine.metrics();
        (m.deadline_expired == 1).then_some(m)
    });
    assert_eq!(m.tenants["deadline-t"].deadline_expired, 1);
    assert_eq!(m.completed, 0);
    assert_eq!(
        m.failed, 0,
        "expiry is its own terminal state, not a failure"
    );

    engine.resume();
    let r = ok.wait().expect("deadline-less request survives the pause");
    assert_eq!(r.output.data(), oracle(EXPR, &tensors).data());
}

#[test]
fn cancel_frees_queue_capacity_and_always_resolves() {
    let clock = TestClock::new();
    let config = ServeConfig::default()
        .with_queue_capacity(2)
        .with_admission(AdmissionPolicy::Reject);
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    engine.pause();
    let tensors = request(3.0);
    let session = engine.session("cancel-t");
    let h1 = session.submit(EXPR, &tensors).unwrap();
    let h2 = session.submit(EXPR, &tensors).unwrap();
    match session.submit(EXPR, &tensors) {
        Err(ServeError::Saturated { capacity: 2 }) => {}
        other => panic!("expected Saturated, got {other:?}"),
    }

    // Cancelling a queued request frees its admission slot immediately
    // (no scheduler involvement — the engine is paused throughout).
    assert!(h1.cancel(), "first cancel wins");
    assert!(!h1.cancel(), "second cancel is a no-op");
    let h3 = session
        .submit(EXPR, &tensors)
        .expect("cancellation freed the slot");
    match h1.wait() {
        Err(ServeError::Cancelled) => {}
        other => panic!("expected Cancelled, got {other:?}"),
    }

    engine.resume();
    let r2 = h2.wait().expect("uncancelled request completes");
    assert_eq!(r2.output.data(), oracle(EXPR, &tensors).data());

    // Cancel after completion: the delivered result stands.
    let _ = poll_until("h3 completion", || h3.try_take());
    assert!(!h3.cancel(), "completed request cannot be cancelled");

    let m = engine.metrics();
    assert_eq!(m.cancelled, 1);
    assert_eq!(m.tenants["cancel-t"].cancelled, 1);
    assert_eq!(m.completed, 2);
    assert_eq!(m.submitted, 3, "the rejected submit was never admitted");
    assert_eq!(m.rejected, 1);
}

#[test]
fn transient_panics_retry_with_backoff_and_never_change_bits() {
    let _guard = fault_guard();
    let clock = TestClock::new();
    let config =
        ServeConfig::default().with_retry_backoff(Duration::from_secs(1), Duration::from_secs(8));
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    let tensors = request(1.5);
    let want = oracle(EXPR, &tensors);

    insum_serve::faults::set_panic_tenant(Some("retry-t"));
    let handle = engine
        .session("retry-t")
        .submit_with(
            EXPR,
            &tensors,
            &SubmitOptions::default().with_max_retries(3),
        )
        .unwrap();

    // Attempt #1 panics and requeues with a 1s (virtual) backoff. The
    // retry cannot run until the clock advances, so disarming here is
    // race-free: attempt #2 deterministically succeeds.
    poll_until("first retry to be scheduled", || {
        (engine.metrics().retries == 1).then_some(())
    });
    insum_serve::faults::set_panic_tenant(None);
    assert!(handle.try_take().is_none(), "handle pends through backoff");
    clock.advance(Duration::from_secs(1));

    let r = handle
        .wait()
        .expect("retry succeeds after the fault clears");
    assert_eq!(r.attempts, 2, "second attempt delivered");
    assert_eq!(r.output.data(), want.data(), "retries never change bits");
    let m = engine.metrics();
    assert_eq!(m.retries, 1);
    assert_eq!(m.tenants["retry-t"].retries, 1);
    assert_eq!((m.completed, m.failed), (1, 0));
}

#[test]
fn exhausted_retries_fail_terminally() {
    let _guard = fault_guard();
    let clock = TestClock::new();
    let config = ServeConfig::default()
        .with_retry_backoff(Duration::from_millis(10), Duration::from_millis(40));
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    let tensors = request(1.0);

    insum_serve::faults::set_panic_tenant(Some("doomed-t"));
    let handle = engine
        .session("doomed-t")
        .submit_with(
            EXPR,
            &tensors,
            &SubmitOptions::default().with_max_retries(2),
        )
        .unwrap();
    // Drive all three attempts (initial + 2 retries) through their
    // backoff gates; 40ms strides cover the capped exponential backoff.
    let result = poll_until("terminal failure", || {
        clock.advance(Duration::from_millis(40));
        handle.try_take()
    });
    insum_serve::faults::set_panic_tenant(None);
    match result {
        Err(ServeError::Engine(msg)) => assert!(msg.contains("injected fault")),
        other => panic!("expected Engine error, got {other:?}"),
    }
    let m = engine.metrics();
    assert_eq!(m.retries, 2, "both allowed retries were spent");
    assert_eq!((m.completed, m.failed), (0, 1));
}

#[test]
fn budgets_reject_when_exhausted_and_recover_on_refill() {
    let clock = TestClock::new();
    let config = ServeConfig::default().with_budget(
        "greedy",
        CostBudget {
            capacity: 1,
            refill_per_second: 1,
        },
    );
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    let tensors = request(2.5);
    let session = engine.session("greedy");

    // The first request is in budget (full bucket) and executes; its
    // deterministic cost overdraws the 1-unit bucket far past a full
    // capacity, so the next request is rejected outright.
    let r1 = session.submit(EXPR, &tensors).unwrap().wait().unwrap();
    assert_eq!(r1.output.data(), oracle(EXPR, &tensors).data());
    let units = engine.metrics().tenants["greedy"].cost_units;
    assert!(units > 1, "a real launch costs more than the bucket holds");

    match session.submit(EXPR, &tensors).unwrap().wait() {
        Err(ServeError::BudgetExhausted { tenant }) => assert_eq!(tenant, "greedy"),
        other => panic!("expected BudgetExhausted, got {other:?}"),
    }

    // An unbudgeted tenant is untouched by the greedy tenant's debt.
    let r = engine
        .session("free")
        .submit(EXPR, &tensors)
        .unwrap()
        .wait();
    assert!(r.is_ok());

    // Refill at 1 unit/s: after `units` virtual seconds the balance is
    // back at zero and the tenant serves again.
    clock.advance(Duration::from_secs(units + 1));
    let r3 = session.submit(EXPR, &tensors).unwrap().wait();
    assert!(r3.is_ok(), "budget refilled: {r3:?}");

    let m = engine.metrics();
    assert_eq!(m.budget_rejected, 1);
    assert_eq!(m.tenants["greedy"].budget_rejected, 1);
    assert_eq!(m.tenants["greedy"].completed, 2);
    assert_eq!(m.tenants["greedy"].cost_units, 2 * units);
}

#[test]
fn circuit_breaker_quarantines_and_recovers_through_a_probe() {
    let _guard = fault_guard();
    let clock = TestClock::new();
    let config = ServeConfig::default().with_breaker(2, Duration::from_secs(10));
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    let tensors = request(4.0);
    let session = engine.session("flaky");

    insum_serve::faults::set_panic_tenant(Some("flaky"));
    for _ in 0..2 {
        match session.submit(EXPR, &tensors).unwrap().wait() {
            Err(ServeError::Engine(_)) => {}
            other => panic!("expected Engine failure, got {other:?}"),
        }
    }
    // Two consecutive failures tripped the breaker: quarantined.
    match session.submit(EXPR, &tensors).unwrap().wait() {
        Err(ServeError::Quarantined { tenant }) => assert_eq!(tenant, "flaky"),
        other => panic!("expected Quarantined, got {other:?}"),
    }
    // Healthy tenants are unaffected by the quarantine.
    assert!(engine
        .session("healthy")
        .submit(EXPR, &tensors)
        .unwrap()
        .wait()
        .is_ok());

    // Cooldown elapses; the fault is fixed; the half-open probe succeeds
    // and closes the breaker.
    insum_serve::faults::set_panic_tenant(None);
    clock.advance(Duration::from_secs(10));
    let probe = session.submit(EXPR, &tensors).unwrap().wait();
    assert!(probe.is_ok(), "half-open probe recovers: {probe:?}");
    assert!(session.submit(EXPR, &tensors).unwrap().wait().is_ok());

    let m = engine.metrics();
    assert_eq!(m.quarantined, 1);
    assert_eq!(m.tenants["flaky"].quarantined, 1);
    assert_eq!(m.tenants["flaky"].breaker_open_transitions, 1);
    assert_eq!(m.tenants["flaky"].failed, 2);
    assert_eq!(m.tenants["flaky"].completed, 2);
}

#[test]
fn clock_advance_is_never_a_lost_wakeup() {
    // The scheduler reads the clock and then parks; an `advance` landing
    // between the two used to notify nobody, and a virtual-clock engine
    // then slept forever. Each iteration aims at that window: the submit
    // wakes the scheduler, which finds nothing eligible (paused, deadline
    // ahead) and goes back to park while the test advances. Two things
    // make the aim good enough to fail 3 runs of 3 without the fix:
    // ballast requests (paused, no deadline) stretch the scheduler's
    // queue scan between the read and the park, and the gap before the
    // advance sweeps across the scheduler's wake-up latency.
    let clock = TestClock::new();
    let config = ServeConfig::default().with_queue_capacity(4096);
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    engine.pause();
    let session = engine.session("wakeup-t");
    let tensors = request(1.0);
    let _ballast: Vec<_> = (0..2000)
        .map(|_| session.submit(EXPR, &tensors).unwrap())
        .collect();
    let options = SubmitOptions::default().with_deadline(Duration::from_secs(1));
    let watchdog = Instant::now() + Duration::from_secs(60);
    for iteration in 0..4000 {
        let handle = session.submit_with(EXPR, &tensors, &options).unwrap();
        for _ in 0..(iteration % 200) * 20 {
            std::hint::spin_loop();
        }
        clock.advance(Duration::from_secs(1));
        let outcome = loop {
            if let Some(outcome) = handle.try_take() {
                break outcome;
            }
            assert!(
                Instant::now() < watchdog,
                "iteration {iteration}: the scheduler slept through a clock advance"
            );
            std::thread::yield_now();
        };
        assert!(matches!(outcome, Err(ServeError::DeadlineExceeded { .. })));
    }
}

#[test]
fn chain_step_fault_does_not_poison_batch_mates() {
    // A mid-plan fault: the `fault-injection` hook inside the batched
    // runner panics any launch binding the marked tensor, so the *chain
    // step* shared by two batched requests faults — not serve's outer
    // execute boundary. Isolation must still hold: the clean tenant's
    // chain completes bit-identical, only the marked tenant fails.
    const CHAIN: &str = "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";
    let mk = |seed: u64| -> BTreeMap<String, Tensor> {
        use rand::{rngs::SmallRng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut int = |shape: Vec<usize>| {
            insum_tensor::rand_uniform(shape, -2.49, 2.49, &mut rng).map(f32::round)
        };
        [
            ("A".to_string(), int(vec![24, 16])),
            ("B".to_string(), int(vec![16, 3])),
            ("C".to_string(), int(vec![3, 16])),
            ("D".to_string(), int(vec![16, 20])),
        ]
        .into_iter()
        .collect()
    };
    let good = mk(81);
    let evil = mk(82);
    let opts = InsumOptions::default();
    let (want_good, want_good_profile) = insum::plan(CHAIN, &good, &opts)
        .unwrap()
        .run(&good)
        .unwrap();

    // Mark the evil tenant's step-1 operand: the batched step launch
    // that binds it panics mid-plan.
    insum_inductor::faults::set_panic_binding(Some(&evil["A"]));
    let engine = ServeEngine::with_defaults().unwrap();
    engine.pause();
    let hg = engine.session("clean").submit(CHAIN, &good).unwrap();
    let he = engine.session("marked").submit(CHAIN, &evil).unwrap();
    engine.resume();

    let rg = hg.wait().expect("clean tenant survives the step fault");
    assert_eq!(rg.output.data(), want_good.data());
    assert_eq!(rg.profile, want_good_profile);
    assert_eq!(rg.batch_size, 1, "isolation re-ran the clean chain alone");
    match he.wait() {
        Err(ServeError::Engine(msg)) => assert!(msg.contains("injected batch fault")),
        other => panic!("expected Engine error, got {other:?}"),
    }

    // Disarm: the marked tenant's chain now completes normally.
    insum_inductor::faults::set_panic_binding(None);
    let (want_evil, _) = insum::plan(CHAIN, &evil, &opts)
        .unwrap()
        .run(&evil)
        .unwrap();
    let re = engine
        .session("marked")
        .submit(CHAIN, &evil)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(re.output.data(), want_evil.data());
}

#[test]
fn metrics_reconcile_at_quiescence() {
    let clock = TestClock::new();
    let config = ServeConfig::default().with_budget(
        "greedy",
        CostBudget {
            capacity: 1,
            refill_per_second: 1,
        },
    );
    let engine = ServeEngine::with_clock(config, Arc::clone(&clock) as _).unwrap();
    let tensors = request(1.0);

    // A mix of terminal outcomes: completions, a cancellation, a
    // deadline expiry, a budget rejection, and a deterministic failure.
    for _ in 0..3 {
        engine
            .session("steady")
            .submit(EXPR, &tensors)
            .unwrap()
            .wait()
            .unwrap();
    }
    engine.pause();
    let cancelled = engine.session("steady").submit(EXPR, &tensors).unwrap();
    assert!(cancelled.cancel());
    let expired = engine
        .session("late")
        .submit_with(
            EXPR,
            &tensors,
            &SubmitOptions::default().with_deadline(Duration::from_secs(1)),
        )
        .unwrap();
    clock.advance(Duration::from_secs(1));
    assert!(matches!(
        expired.wait(),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    engine.resume();
    engine
        .session("greedy")
        .submit(EXPR, &tensors)
        .unwrap()
        .wait()
        .unwrap();
    assert!(matches!(
        engine
            .session("greedy")
            .submit(EXPR, &tensors)
            .unwrap()
            .wait(),
        Err(ServeError::BudgetExhausted { .. })
    ));
    assert!(engine
        .session("steady")
        .submit("C[i] ?= A[i]", &tensors)
        .unwrap()
        .wait()
        .is_err());

    // Every admitted request landed in exactly one terminal counter.
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
        "global books reconcile: {m:?}"
    );
    for (tenant, t) in &m.tenants {
        assert_eq!(
            t.submitted,
            t.completed
                + t.failed
                + t.cancelled
                + t.deadline_expired
                + t.budget_rejected
                + t.quarantined,
            "tenant {tenant} books reconcile: {t:?}"
        );
    }
    // And the tenant breakdown sums to the global counters.
    let sum =
        |f: fn(&insum_serve::TenantMetrics) -> u64| -> u64 { m.tenants.values().map(f).sum() };
    assert_eq!(m.submitted, sum(|t| t.submitted));
    assert_eq!(m.completed, sum(|t| t.completed));
    assert_eq!(m.failed, sum(|t| t.failed));
    assert_eq!(m.cancelled, sum(|t| t.cancelled));
    assert_eq!(m.deadline_expired, sum(|t| t.deadline_expired));
    assert_eq!(m.budget_rejected, sum(|t| t.budget_rejected));
}
