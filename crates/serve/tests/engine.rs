//! End-to-end engine behavior: the determinism guarantee under shuffled
//! arrival orders and varying batch compositions, the backpressure
//! model, metrics accounting, and the async handle surface.

use insum::{insum_with, InsumError, InsumOptions, Mode, Profile, Tensor};
use insum_serve::{block_on, AdmissionPolicy, ServeConfig, ServeEngine, ServeError, SubmitOptions};
use insum_tensor::{rand_uniform, randint};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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
            rand_uniform(vec![24, 16], -1.0, 1.0, &mut rng),
        ),
        (
            "B".to_string(),
            rand_uniform(vec![16, 20], -1.0, 1.0, &mut rng),
        ),
    ]
    .into_iter()
    .collect()
}

/// One request plus its serially computed expected response bits.
struct Case {
    expr: &'static str,
    tensors: BTreeMap<String, Tensor>,
    mode: Mode,
    want_output: Tensor,
    want_profile: Profile,
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    let opts = InsumOptions::default();
    for seed in 0..5u64 {
        let tensors = spmm_request(seed);
        let op = insum_with(SPMM, &tensors, &opts).unwrap();
        let (out, profile) = op.run(&tensors).unwrap();
        cases.push(Case {
            expr: SPMM,
            tensors,
            mode: Mode::Execute,
            want_output: out,
            want_profile: profile,
        });
    }
    for seed in 0..3u64 {
        let tensors = matmul_request(seed);
        let op = insum_with(MATMUL, &tensors, &opts).unwrap();
        let (out, profile) = op.run(&tensors).unwrap();
        cases.push(Case {
            expr: MATMUL,
            tensors,
            mode: Mode::Execute,
            want_output: out,
            want_profile: profile,
        });
    }
    // Analytic requests: counters identical to execute, output binding
    // returned unmodified.
    for seed in [1u64, 3] {
        let tensors = spmm_request(seed);
        let op = insum_with(SPMM, &tensors, &opts).unwrap();
        let profile = op.time(&tensors).unwrap();
        cases.push(Case {
            expr: SPMM,
            tensors: tensors.clone(),
            mode: Mode::Analytic,
            want_output: tensors["C"].clone(),
            want_profile: profile,
        });
    }
    cases
}

/// The acceptance property: outputs and per-request profiles are
/// independent of arrival order, batch composition, thread budget, and
/// client concurrency.
#[test]
fn shuffled_arrival_order_never_changes_bits() {
    let cases = cases();
    let mut batched_somewhere = 0usize;
    for scenario in 0..6u64 {
        let mut rng = SmallRng::seed_from_u64(scenario * 101 + 7);
        let preload = rng.gen_bool(0.5);
        // A paused (preloading) engine never drains, so its queue must
        // hold every request or blocking admission would deadlock.
        let capacity = if preload {
            64
        } else {
            [4, 64][rng.gen_range(0..2usize)]
        };
        let config = ServeConfig::default()
            .with_max_batch([1, 2, 4, 8][rng.gen_range(0..4usize)])
            .with_queue_capacity(capacity)
            .with_sim_threads([None, Some(1), Some(3)][rng.gen_range(0..3usize)]);
        let clients = rng.gen_range(1..=3usize);
        let engine = ServeEngine::new(config).unwrap();

        let mut order: Vec<usize> = (0..cases.len()).collect();
        order.shuffle(&mut rng);

        if preload {
            // Queue everything before the scheduler may run: batches
            // form from the full shuffled window.
            engine.pause();
        }
        let handles: Vec<(usize, insum_serve::ResponseHandle)> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..clients)
                .map(|c| {
                    let session = engine.session(&format!("tenant-{c}"));
                    let mine: Vec<usize> = order.iter().copied().skip(c).step_by(clients).collect();
                    let cases = &cases;
                    scope.spawn(move || {
                        mine.into_iter()
                            .map(|i| {
                                let case = &cases[i];
                                let opts = SubmitOptions::default().with_mode(case.mode);
                                let h = session
                                    .submit_with(case.expr, &case.tensors, &opts)
                                    .expect("admission succeeds");
                                (i, h)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        if preload {
            engine.resume();
        }

        for (i, handle) in handles {
            let response = handle.wait().expect("request succeeds");
            let case = &cases[i];
            assert_eq!(
                response.output.data(),
                case.want_output.data(),
                "scenario {scenario}: request {i} output bits changed"
            );
            assert_eq!(
                response.profile, case.want_profile,
                "scenario {scenario}: request {i} profile changed"
            );
        }
        let metrics = engine.metrics();
        assert_eq!(metrics.completed, cases.len() as u64);
        assert_eq!(metrics.failed, 0);
        batched_somewhere = batched_somewhere.max(metrics.largest_batch);
    }
    assert!(
        batched_somewhere > 1,
        "at least one scenario must actually form multi-request batches"
    );
}

/// One expression, three kinds of request interleaved: the *same*
/// handles again and again (the simulator records an address script for
/// their metadata and then replays it), equal content rebuilt in fresh
/// storage (a different key: full launches), and the shared sparse
/// structure with a new dense operand (a replay with new values). Every
/// response is bit-equal to its one-shot result, whatever the
/// simulator served it from, batched or one at a time.
#[test]
fn shared_and_fresh_storage_requests_interleave_bit_exactly() {
    let shared = spmm_request(21);
    let fresh = |tensors: &BTreeMap<String, Tensor>| -> BTreeMap<String, Tensor> {
        tensors
            .iter()
            .map(|(name, t)| {
                let copy = Tensor::from_vec_with(t.shape().to_vec(), t.data().to_vec(), t.dtype())
                    .expect("length matches shape");
                (name.clone(), copy)
            })
            .collect()
    };
    let mut new_b = shared.clone();
    new_b.insert(
        "B".to_string(),
        rand_uniform(vec![24, 32], -1.0, 1.0, &mut SmallRng::seed_from_u64(5)),
    );
    let one_shot = |tensors: &BTreeMap<String, Tensor>| {
        insum_with(SPMM, tensors, &InsumOptions::default())
            .and_then(|op| op.run(tensors))
            .expect("one-shot runs")
    };
    let (want, want_new_b) = (one_shot(&shared), one_shot(&new_b));
    assert!(!want.0.bit_eq(&want_new_b.0), "a new B changes the output");

    for max_batch in [1, 4] {
        let engine = ServeEngine::new(ServeConfig::default().with_max_batch(max_batch)).unwrap();
        let session = engine.session("mixed");
        let mut pending = Vec::new();
        for round in 0..4 {
            // shared, shared, fresh, shared + new B, fresh + new B.
            for (tensors, want) in [
                (shared.clone(), &want),
                (shared.clone(), &want),
                (fresh(&shared), &want),
                (new_b.clone(), &want_new_b),
                (fresh(&new_b), &want_new_b),
            ] {
                let handle = session.submit(SPMM, &tensors).expect("admission succeeds");
                pending.push((round, handle, want));
            }
        }
        for (i, (round, handle, want)) in pending.into_iter().enumerate() {
            let response = handle.wait().expect("request succeeds");
            assert!(
                response.output.bit_eq(&want.0),
                "max_batch {max_batch}, round {round}, request {i}: output bits"
            );
            assert_eq!(
                response.profile, want.1,
                "max_batch {max_batch}, round {round}, request {i}: profile"
            );
        }
        assert_eq!(engine.metrics().failed, 0);
    }
}

#[test]
fn reject_policy_saturates_and_block_policy_waits() {
    let tensors = spmm_request(11);
    // Reject: pause the scheduler so the queue genuinely fills.
    let engine = ServeEngine::new(
        ServeConfig::default()
            .with_queue_capacity(2)
            .with_admission(AdmissionPolicy::Reject),
    )
    .unwrap();
    engine.pause();
    let session = engine.session("t");
    let h1 = session.submit(SPMM, &tensors).unwrap();
    let h2 = session.submit(SPMM, &tensors).unwrap();
    let err = session.submit(SPMM, &tensors).unwrap_err();
    assert_eq!(err, ServeError::Saturated { capacity: 2 });
    let metrics = engine.metrics();
    assert_eq!(metrics.rejected, 1);
    assert_eq!(metrics.queue_depth, 2);
    assert_eq!(metrics.tenants["t"].queue_depth, 2);
    engine.resume();
    assert!(h1.wait().is_ok());
    assert!(h2.wait().is_ok());

    // Block: a third submission parks until the scheduler drains.
    let engine = ServeEngine::new(ServeConfig::default().with_queue_capacity(2)).unwrap();
    engine.pause();
    let session = engine.session("t");
    let mut handles = vec![
        session.submit(SPMM, &tensors).unwrap(),
        session.submit(SPMM, &tensors).unwrap(),
    ];
    std::thread::scope(|scope| {
        let blocked = scope.spawn(|| session.submit(SPMM, &tensors).unwrap());
        // The blocked submitter can only complete once the engine
        // resumes and drains; resume from here.
        std::thread::sleep(std::time::Duration::from_millis(20));
        engine.resume();
        handles.push(blocked.join().unwrap());
    });
    for h in handles {
        assert!(h.wait().is_ok());
    }
    assert_eq!(engine.metrics().rejected, 0);
}

#[test]
fn responses_are_awaitable_futures() {
    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("async");
    let tensors = spmm_request(13);
    let want = insum_with(SPMM, &tensors, &InsumOptions::default())
        .unwrap()
        .run(&tensors)
        .unwrap();
    let h1 = session.submit(SPMM, &tensors).unwrap();
    let h2 = session.submit(SPMM, &tensors).unwrap();
    let (r1, r2) = block_on(async move {
        let r1 = h1.await.expect("first request succeeds");
        let r2 = h2.await.expect("second request succeeds");
        (r1, r2)
    });
    assert_eq!(r1.output.data(), want.0.data());
    assert_eq!(r2.output.data(), want.0.data());
    assert_eq!(r1.profile, want.1);
    assert!(r1.id < r2.id);
}

#[test]
fn shutdown_closes_admission_but_serves_admitted_requests() {
    let tensors = spmm_request(17);
    let mut engine = ServeEngine::with_defaults().unwrap();
    engine.pause();
    let session = engine.session("t");
    let admitted = session.submit(SPMM, &tensors).unwrap();
    engine.shutdown(); // drains the queue even while paused
    assert!(admitted.wait().is_ok());
    assert_eq!(
        session.submit(SPMM, &tensors).unwrap_err(),
        ServeError::Closed
    );
}

#[test]
fn compile_errors_complete_the_ticket_and_count_as_failed() {
    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("t");
    let tensors = spmm_request(19);
    let h = session.submit("C[i] ?= A[i]", &tensors).unwrap();
    assert!(matches!(h.wait(), Err(ServeError::Insum(_))));
    // The same broken request again: served from the registry's cached
    // error, still a clean failure.
    let h = session.submit("C[i] ?= A[i]", &tensors).unwrap();
    assert!(matches!(h.wait(), Err(ServeError::Insum(_))));
    let metrics = engine.metrics();
    assert_eq!(metrics.failed, 2);
    assert_eq!(metrics.tenants["t"].failed, 2);
    assert_eq!(metrics.registry.misses, 1, "error compiled once");
}

/// An expression nested 20,000 accesses deep is parsed on the scheduler
/// thread (2 MiB of stack). It fails that request with a typed parse
/// error instead of overflowing the stack and aborting every tenant's
/// process, and the next request is served as usual.
#[test]
fn deeply_nested_expression_fails_alone() {
    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("t");
    let tensors = spmm_request(29);
    let deep = format!("C[i] = {}i{}", "A[".repeat(20_000), "]".repeat(20_000));
    match session.submit(&deep, &tensors).unwrap().wait() {
        Err(ServeError::Insum(e @ InsumError::Lang(_))) => {
            assert!(e.to_string().contains("nest"), "{e}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    let want = insum_with(SPMM, &tensors, &InsumOptions::default())
        .and_then(|op| op.run(&tensors))
        .expect("one-shot runs");
    let response = session.submit(SPMM, &tensors).unwrap().wait().unwrap();
    assert!(response.output.bit_eq(&want.0));
    assert_eq!(engine.metrics().failed, 1);
}

#[test]
fn metrics_attribute_tenants_kernels_and_registry_sharing() {
    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let tensors = spmm_request(23);
    let a = engine.session("alice");
    let b = engine.session("bob");
    let mut handles = Vec::new();
    for _ in 0..3 {
        handles.push(a.submit(SPMM, &tensors).unwrap());
    }
    for _ in 0..2 {
        handles.push(b.submit(SPMM, &tensors).unwrap());
    }
    engine.resume();
    let mut batch_sizes = Vec::new();
    for h in handles {
        let r = h.wait().unwrap();
        assert!(r.queue_seconds >= 0.0);
        batch_sizes.push(r.batch_size);
    }
    assert!(
        batch_sizes.iter().any(|&s| s > 1),
        "identical preloaded requests must batch (sizes: {batch_sizes:?})"
    );
    let m = engine.metrics();
    assert_eq!(m.submitted, 5);
    assert_eq!(m.completed, 5);
    assert_eq!(m.queue_depth, 0);
    assert!(m.queue_depth_max >= 5);
    assert_eq!(m.batched_requests, 5);
    assert!(m.largest_batch >= 2);
    assert_eq!(m.tenants["alice"].submitted, 3);
    assert_eq!(m.tenants["bob"].submitted, 2);
    assert_eq!(m.tenants["alice"].completed, 3);
    assert!(m.tenants["alice"].instances_simulated > 0);
    // One artifact compilation total; everyone else shared it.
    assert_eq!(m.registry.misses, 1);
    assert_eq!(m.registry.hits, 4);
    assert_eq!(m.registry.entries, 1);
    // Exactly one kernel identity served every request.
    assert_eq!(m.kernels.len(), 1);
    let km = m.kernels.values().next().unwrap();
    assert_eq!(km.requests, 5);
    assert!(km.largest_batch >= 2);
    assert!(km.instances_simulated > 0);
    assert!(km.simulated_seconds_total > 0.0);
}

#[test]
fn fast_path_artifacts_batch_and_key_by_pattern() {
    // Program-less fast-path artifacts are first-class in the grouping:
    // they share one batch (artifact identity plus interpreter mode
    // proves compatibility) and their kernel metrics key on the
    // recognized pattern. Each request builds its tensors from scratch,
    // so the batch also holds arguments that share no storage.
    let fresh = || -> BTreeMap<String, Tensor> {
        [
            ("C".to_string(), Tensor::zeros(vec![4, 3])),
            (
                "A".to_string(),
                Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 - 5.5).collect()).unwrap(),
            ),
        ]
        .into_iter()
        .collect()
    };
    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let session = engine.session("fast");
    let handles: Vec<_> = (0..3)
        .map(|_| session.submit("C[j,i] = A[i,j]", &fresh()).unwrap())
        .collect();
    engine.resume();
    for h in handles {
        let r = h.wait().unwrap();
        assert_eq!(r.batch_size, 3, "fast-path requests share one batch");
    }
    let m = engine.metrics();
    assert_eq!(m.registry.misses, 1, "one fast-path artifact, shared");
    assert_eq!(m.registry.hits, 2);
    assert!(
        m.kernels.contains_key("fastpath:transpose"),
        "kernel metrics key on the pattern (keys: {:?})",
        m.kernels.keys().collect::<Vec<_>>()
    );
}

#[test]
fn failing_request_does_not_poison_its_batch_mates() {
    // Three launch-compatible requests land in one batch; the middle one
    // scatters out of bounds at execution time. Its batch-mates must
    // still succeed with bit-identical results, and only it may fail.
    let good_a = spmm_request(31);
    let good_b = spmm_request(37);
    let mut poisoned = spmm_request(41);
    // Same shapes (same kernel + grid), but row indices far outside C.
    poisoned.insert(
        "AM".to_string(),
        Tensor::from_indices(vec![29], (0..29).map(|_| 1000).collect()).unwrap(),
    );
    let opts = InsumOptions::default();
    let want_a = insum_with(SPMM, &good_a, &opts)
        .unwrap()
        .run(&good_a)
        .unwrap();
    let want_b = insum_with(SPMM, &good_b, &opts)
        .unwrap()
        .run(&good_b)
        .unwrap();
    assert!(insum_with(SPMM, &poisoned, &opts)
        .unwrap()
        .run(&poisoned)
        .is_err());

    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let session = engine.session("t");
    let ha = session.submit(SPMM, &good_a).unwrap();
    let hp = session.submit(SPMM, &poisoned).unwrap();
    let hb = session.submit(SPMM, &good_b).unwrap();
    engine.resume();

    let ra = ha.wait().expect("good request A succeeds");
    assert_eq!(ra.output.data(), want_a.0.data());
    assert_eq!(ra.profile, want_a.1);
    assert!(matches!(hp.wait(), Err(ServeError::Insum(_))));
    let rb = hb.wait().expect("good request B succeeds");
    assert_eq!(rb.output.data(), want_b.0.data());
    assert_eq!(rb.profile, want_b.1);

    let m = engine.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.failed, 1);
}

#[test]
fn per_request_options_and_unfused_pipeline_are_served() {
    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("t");
    let tensors = spmm_request(29);
    let unfused = InsumOptions::unfused();
    let want = insum_with(SPMM, &tensors, &unfused)
        .unwrap()
        .run(&tensors)
        .unwrap();
    let h = session
        .submit_with(
            SPMM,
            &tensors,
            &SubmitOptions::default().with_options(unfused),
        )
        .unwrap();
    let r = h.wait().unwrap();
    assert_eq!(r.output.data(), want.0.data());
    assert_eq!(r.profile, want.1);
    assert!(
        r.profile.launches() >= 3,
        "unfused pipeline launches per node"
    );

    // Invalid per-request options are rejected at admission.
    let bad = InsumOptions {
        sim_threads: Some(0),
        ..Default::default()
    };
    assert!(matches!(
        session.submit_with(SPMM, &tensors, &SubmitOptions::default().with_options(bad)),
        Err(ServeError::Config(_))
    ));
}

#[test]
fn unfused_requests_of_one_artifact_share_a_batch() {
    // An unfused step runs each request's node kernels back to back
    // inside one batched launch, so unfused requests batch like every
    // other artifact and stay bit-identical to serial runs.
    let unfused = InsumOptions::unfused();
    let structure = spmm_request(43);
    let mut rng = SmallRng::seed_from_u64(44);
    let requests: Vec<BTreeMap<String, Tensor>> = (0..4)
        .map(|_| {
            let mut tensors = structure.clone();
            let b = rand_uniform(vec![24, 32], -1.0, 1.0, &mut rng);
            tensors.insert("B".to_string(), b);
            tensors
        })
        .collect();
    let want: Vec<_> = requests
        .iter()
        .map(|t| insum_with(SPMM, t, &unfused).unwrap().run(t).unwrap())
        .collect();
    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let session = engine.session("t");
    let opts = SubmitOptions::default().with_options(unfused);
    let handles: Vec<_> = requests
        .iter()
        .map(|t| session.submit_with(SPMM, t, &opts).unwrap())
        .collect();
    engine.resume();
    for (h, (output, profile)) in handles.into_iter().zip(&want) {
        let r = h.wait().unwrap();
        assert!(r.output.bit_eq(output), "request {:?}", r.id);
        assert_eq!(&r.profile, profile, "request {:?}", r.id);
    }
    let m = engine.metrics();
    let (_, km) = m
        .kernels
        .iter()
        .find(|(key, _)| key.starts_with("unfused:"))
        .expect("an unfused kernel key");
    assert!(
        km.largest_batch > 1,
        "unfused requests of one artifact share a batch (largest {})",
        km.largest_batch
    );
}

#[test]
fn panicking_batch_member_fails_alone_and_engine_survives() {
    // Inject a panic for one tenant at the execution boundary (the
    // simulator-bug stand-in). The panic must be contained: batch-mates
    // still succeed bit-identically, the panicking request fails with
    // ServeError::Engine, and the engine keeps serving afterwards.
    insum_serve::faults::set_panic_tenant(Some("evil"));
    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let tensors = spmm_request(41);
    let good: Vec<_> = (0..3)
        .map(|i| {
            engine
                .session(&format!("good-{i}"))
                .submit(SPMM, &tensors)
                .unwrap()
        })
        .collect();
    let evil = engine.session("evil").submit(SPMM, &tensors).unwrap();
    engine.resume();

    let want = insum_with(SPMM, &tensors, &InsumOptions::default())
        .unwrap()
        .run(&tensors)
        .unwrap();
    for handle in good {
        let response = handle
            .wait()
            .expect("batch-mates of a panicking request succeed");
        assert_eq!(response.output.data(), want.0.data());
        assert_eq!(response.profile, want.1);
    }
    match evil.wait() {
        Err(ServeError::Engine(msg)) => assert!(msg.contains("injected fault")),
        other => panic!("expected ServeError::Engine, got {other:?}"),
    }
    insum_serve::faults::set_panic_tenant(None);

    // Unrelated tenants (and the formerly panicking one) are still served.
    let after = engine
        .session("evil")
        .submit(SPMM, &tensors)
        .unwrap()
        .wait()
        .expect("engine survives a contained panic");
    assert_eq!(after.output.data(), want.0.data());
    let m = engine.metrics();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 4);
}

#[test]
fn ptr_identical_requests_group_without_metadata_extraction() {
    // Fan-out: many tenants submit the *same* tensor map (shared
    // copy-on-write handles). The ptr_eq first pass must put them in one
    // batch, and results stay bit-identical to serial runs.
    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(16)).unwrap();
    let tensors = spmm_request(57);
    let want = insum_with(SPMM, &tensors, &InsumOptions::default())
        .unwrap()
        .run(&tensors)
        .unwrap();
    engine.pause();
    let handles: Vec<_> = (0..6)
        .map(|i| {
            engine
                .session(&format!("fan-{i}"))
                .submit(SPMM, &tensors)
                .unwrap()
        })
        .collect();
    engine.resume();
    for handle in handles {
        let response = handle.wait().unwrap();
        assert_eq!(response.output.data(), want.0.data());
        assert_eq!(response.profile, want.1);
        assert!(response.batch_size > 1, "fan-out must batch");
    }
    let m = engine.metrics();
    assert_eq!(m.completed, 6);
}

#[test]
fn panicking_compilation_is_contained_and_transient() {
    // A compiler panic must fill the registry slot (so no waiter or
    // future same-key request can block forever), complete the ticket
    // with ServeError::Engine, and leave the engine serving.
    let expr = "C[i] = A[i] * A[i]";
    insum_serve::faults::set_panic_compile_expr(Some(expr));
    let engine = ServeEngine::with_defaults().unwrap();
    let tensors: BTreeMap<String, Tensor> = [
        ("C".to_string(), Tensor::zeros(vec![8])),
        ("A".to_string(), Tensor::ones(vec![8])),
    ]
    .into_iter()
    .collect();
    let session = engine.session("compile-panic");
    match session.submit(expr, &tensors).unwrap().wait() {
        Err(ServeError::Engine(msg)) => assert!(msg.contains("compilation panicked")),
        other => panic!("expected ServeError::Engine, got {other:?}"),
    }
    // Unlike deterministic compile errors, a panic is *transient*: its
    // registry entry is evicted, so once the fault clears a resubmit
    // recompiles and succeeds instead of replaying a cached panic.
    insum_serve::faults::set_panic_compile_expr(None);
    let recovered = session
        .submit(expr, &tensors)
        .unwrap()
        .wait()
        .expect("recompilation succeeds after the fault clears");
    assert!(recovered.output.data().iter().all(|&v| v == 1.0));
    // Unrelated keys still compile and serve.
    let ok = session
        .submit("C[i] = A[i]", &tensors)
        .unwrap()
        .wait()
        .expect("engine survives a contained compile panic");
    assert!(ok.output.data().iter().all(|&v| v == 1.0));
    let m = engine.metrics();
    assert_eq!(m.failed, 1);
    assert_eq!(m.completed, 2);
}

const CHAIN4: &str = "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]";

/// Integer-valued chain operands (values in {-2..2}) so every
/// contraction order is bit-exact; see the planner crate docs.
fn chain_request(seed: u64) -> BTreeMap<String, Tensor> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut int = |shape: Vec<usize>| rand_uniform(shape, -2.49, 2.49, &mut rng).map(f32::round);
    [
        ("A".to_string(), int(vec![24, 16])),
        ("B".to_string(), int(vec![16, 3])),
        ("C".to_string(), int(vec![3, 16])),
        ("D".to_string(), int(vec![16, 20])),
    ]
    .into_iter()
    .collect()
}

#[test]
fn chain_requests_share_one_planned_artifact_and_batch_per_step() {
    // Two tenants submit the same 4-operand chain: the registry compiles
    // the plan (every pairwise step) exactly once, the scheduler batches
    // the requests through each step, and both responses are
    // bit-identical to a serial `Compiled::run` and the naive
    // left-to-right reference.
    let tensors = chain_request(61);
    let opts = InsumOptions::default();
    let chain = insum::plan(CHAIN4, &tensors, &opts).unwrap();
    let (want_out, want_profile) = chain.run(&tensors).unwrap();
    let reference = insum::chain_reference(CHAIN4, &tensors).unwrap();
    assert_eq!(want_out.data(), reference.data(), "planned == naive bits");

    let engine = ServeEngine::new(ServeConfig::default().with_max_batch(8)).unwrap();
    engine.pause();
    let ha = engine.session("alice").submit(CHAIN4, &tensors).unwrap();
    let hb = engine.session("bob").submit(CHAIN4, &tensors).unwrap();
    engine.resume();
    let ra = ha.wait().unwrap();
    let rb = hb.wait().unwrap();
    for r in [&ra, &rb] {
        assert_eq!(r.output.data(), want_out.data());
        assert_eq!(r.profile, want_profile);
        assert_eq!(r.batch_size, 2, "chain requests batch per step");
    }
    assert!(!ra.registry_hit || !rb.registry_hit);
    assert!(ra.registry_hit || rb.registry_hit);

    let m = engine.metrics();
    assert_eq!(m.completed, 2);
    assert_eq!(m.registry.misses, 1, "the plan compiled once");
    assert_eq!(m.registry.hits, 1);
    // The chain is one kernel identity in the metrics.
    assert_eq!(m.kernels.len(), 1);
    let (key, km) = m.kernels.iter().next().unwrap();
    assert!(key.starts_with("chain["), "chain kernel key: {key}");
    assert_eq!(km.requests, 2);
}

#[test]
fn chain_analytic_mode_skips_values_but_keeps_the_profile() {
    let tensors = chain_request(67);
    let opts = InsumOptions::default();
    let chain = insum::plan(CHAIN4, &tensors, &opts).unwrap();
    let (_, want_profile) = chain.run(&tensors).unwrap();

    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("t");
    let r = session
        .submit_with(
            CHAIN4,
            &tensors,
            &SubmitOptions::default().with_mode(Mode::Analytic),
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r.profile, want_profile, "analytic profile matches execute");
}

#[test]
fn chain_spec_form_and_statement_form_are_distinct_artifacts() {
    // Spec form binds positional names; statement form binds user names.
    // Different expressions → different registry keys, both served.
    let tensors = chain_request(71);
    let spec_tensors: BTreeMap<String, Tensor> = [
        ("op0".to_string(), tensors["A"].clone()),
        ("op1".to_string(), tensors["B"].clone()),
        ("op2".to_string(), tensors["C"].clone()),
        ("op3".to_string(), tensors["D"].clone()),
    ]
    .into_iter()
    .collect();
    let engine = ServeEngine::with_defaults().unwrap();
    let session = engine.session("t");
    let r1 = session.submit(CHAIN4, &tensors).unwrap().wait().unwrap();
    let r2 = session
        .submit("ij,jk,kl,lm->im", &spec_tensors)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(r1.output.data(), r2.output.data());
    assert_eq!(engine.metrics().registry.misses, 2);
}
