//! Property tests over the full compile pipeline: for randomized sparse
//! workloads, every compiler configuration agrees with the eager
//! reference, and the compiled kernels never read or write out of bounds
//! (the simulator would error).

use insum::apps;
use insum::{eager, Compiled, InsumOptions, Mode, Tensor};
use insum_formats::{Coo, GroupCoo};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a random sparse matrix as triplets plus a dense B.
fn spmm_case() -> impl Strategy<Value = (Coo, Tensor)> {
    (2usize..24, 2usize..24, 1usize..40).prop_flat_map(|(rows, cols, nnz)| {
        (
            proptest::collection::vec((0usize..rows, 0usize..cols, 0.1f32..2.0), nnz),
            proptest::collection::vec(-2.0f32..2.0, cols * 8),
        )
            .prop_map(move |(entries, bdata)| {
                let coo = Coo::from_triplets(rows, cols, &entries).expect("in bounds");
                let b = Tensor::from_vec(vec![cols, 8], bdata).expect("length matches");
                (coo, b)
            })
    })
}

fn configs() -> Vec<InsumOptions> {
    vec![
        InsumOptions::default(),
        InsumOptions {
            lazy_broadcast: false,
            ..Default::default()
        },
        InsumOptions {
            tensor_cores: false,
            ..Default::default()
        },
        InsumOptions::unfused(),
    ]
}

/// A request is a batch of one: `run` / `time` return exactly what each
/// member of a two-request batch returns — output bits and profile.
fn assert_single_equals_batched(compiled: &Compiled, tensors: &BTreeMap<String, Tensor>) {
    let launch = compiled.options().launch_options();
    for mode in [Mode::Execute, Mode::Analytic] {
        let (want, want_profile) = match mode {
            Mode::Execute => compiled.run(tensors).expect("runs"),
            Mode::Analytic => (
                tensors[&compiled.statement().expect("a statement").output.tensor].clone(),
                compiled.time(tensors).expect("times"),
            ),
        };
        let batched = compiled
            .run_batch_mode(&[tensors, tensors], mode, &launch)
            .expect("batch runs");
        assert_eq!(batched.len(), 2);
        for (got, got_profile) in &batched {
            assert!(got.bit_eq(&want), "{mode:?} output bits");
            assert_eq!(got_profile, &want_profile, "{mode:?} profile");
        }
    }
}

/// Relaunching is invisible: three `run`s in a row of one artifact — the
/// simulator runs the second in full while recording an address script
/// and serves the third from it — return, in bits and `Profile`, what
/// three one-shot compile-and-run calls return.
fn assert_relaunches_equal_one_shots(
    expr: &str,
    tensors: &BTreeMap<String, Tensor>,
    opts: &InsumOptions,
) {
    let compiled = insum::insum_with(expr, tensors, opts).expect("compiles");
    for launch in 1..=3 {
        let (got, got_profile) = compiled.run(tensors).expect("runs");
        let (want, want_profile) = insum::insum_with(expr, tensors, opts)
            .and_then(|one_shot| one_shot.run(tensors))
            .expect("one-shot runs");
        assert!(
            got.bit_eq(&want),
            "{expr} under {opts:?}: launch {launch} bits"
        );
        assert_eq!(
            got_profile, want_profile,
            "{expr} under {opts:?}: launch {launch}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn coo_spmm_all_configs_match_eager((coo, b) in spmm_case()) {
        let app = apps::spmm_coo(&coo, &b);
        let want = eager(app.expr, &app.tensors).expect("eager evaluates");
        for opts in configs() {
            let compiled = app.compile(&opts).expect("compiles");
            let (got, profile) = compiled.run(&app.tensors).expect("runs");
            prop_assert!(
                got.allclose(&want, 1e-3, 1e-3),
                "options {:?} diverge: {:?}",
                opts.fuse,
                got.max_abs_diff(&want)
            );
            prop_assert!(profile.total_time() > 0.0);
            assert_single_equals_batched(&compiled, &app.tensors);
            assert_relaunches_equal_one_shots(app.expr, &app.tensors, &opts);
        }
    }

    #[test]
    fn group_coo_spmm_matches_for_every_group_size(
        (coo, b) in spmm_case(),
        g in 1usize..9,
    ) {
        let gc = GroupCoo::from_coo(&coo, g).expect("valid g");
        let app = apps::spmm_group(&gc, &b);
        let want = eager(apps::SPMM_COO_EXPR, &apps::spmm_coo(&coo, &b).tensors)
            .expect("eager evaluates");
        let compiled = app.compile(&InsumOptions::default()).expect("compiles");
        let (got, _) = compiled.run(&app.tensors).expect("runs");
        prop_assert!(
            got.allclose(&want, 1e-3, 1e-3),
            "g={g} diverges: {:?}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn analytic_timing_equals_execute_timing((coo, b) in spmm_case()) {
        let app = apps::spmm_coo(&coo, &b);
        let compiled = app.compile(&InsumOptions::default()).expect("compiles");
        let t1 = compiled.time(&app.tensors).expect("times").total_time();
        let (_, p2) = compiled.run(&app.tensors).expect("runs");
        prop_assert_eq!(t1, p2.total_time());
    }

    #[test]
    fn compiled_source_mentions_every_parameter((coo, b) in spmm_case()) {
        let app = apps::spmm_coo(&coo, &b);
        let compiled = app.compile(&InsumOptions::default()).expect("compiles");
        let src = compiled.triton_source();
        for name in ["AM", "AK", "AV", "B", "C"] {
            prop_assert!(src.contains(name), "{name} missing from kernel:\n{src}");
        }
    }
}

#[test]
fn random_dense_contractions_match_eager() {
    // A grab-bag of dense einsum shapes through the fused compiler.
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(99);
    type Case = (&'static str, Vec<(&'static str, Vec<usize>)>);
    let cases: Vec<Case> = vec![
        (
            "C[i,j] = A[i,k] * B[k,j]",
            vec![("C", vec![9, 7]), ("A", vec![9, 5]), ("B", vec![5, 7])],
        ),
        (
            "C[b,i,j] = A[b,i,k] * B[b,k,j]",
            vec![
                ("C", vec![3, 6, 4]),
                ("A", vec![3, 6, 5]),
                ("B", vec![3, 5, 4]),
            ],
        ),
        (
            "C[i] += A[i,k] * B[k]",
            vec![("C", vec![11]), ("A", vec![11, 6]), ("B", vec![6])],
        ),
        (
            "C[i,j] = A[i] * B[j]",
            vec![("C", vec![5, 8]), ("A", vec![5]), ("B", vec![8])],
        ),
    ];
    let mut fast_path_cases = 0;
    for (expr, shapes) in cases {
        let tensors: BTreeMap<String, Tensor> = shapes
            .into_iter()
            .map(|(n, s)| {
                let t = if n == "C" {
                    Tensor::zeros(s)
                } else {
                    insum_tensor::rand_uniform(s, -1.0, 1.0, &mut rng)
                };
                (n.to_string(), t)
            })
            .collect();
        let want = eager(expr, &tensors).expect("eager evaluates");
        for opts in configs() {
            let compiled = insum::insum_with(expr, &tensors, &opts).expect("compiles");
            let (got, _) = compiled.run(&tensors).expect("runs");
            assert!(
                got.allclose(&want, 1e-3, 1e-3),
                "{expr} with {opts:?} diverges: {:?}",
                got.max_abs_diff(&want)
            );
            assert_single_equals_batched(&compiled, &tensors);
            assert_relaunches_equal_one_shots(expr, &tensors, &opts);
            fast_path_cases += usize::from(compiled.fast_path_pattern().is_some());
        }
    }
    assert!(fast_path_cases > 0, "the batch check saw a fast-path step");
}
