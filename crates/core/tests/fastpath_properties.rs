//! Fast-path dispatch properties: soundness (the two stride views,
//! transpose and diagonal, are bit-identical to the general lowering,
//! NaN signs and payloads, ±0.0 and ±Inf included), one lowering for
//! every statement that computes (reductions, elementwise and outer
//! products, matmul and batched matmul compile to the same general
//! kernel whatever `fast_path` says), and completeness (curated
//! near-miss specs fall back to `General` and still agree with the eager
//! reference).
//!
//! Rank-0 outputs (`C[] = …`) are unparseable in the statement
//! language, so `dot` and `trace` shapes are unreachable from
//! `insum_with` (a planned chain runs rank-0 steps on the host); the
//! gate's unit tests decline both. Likewise `ii->` vs `ii->i` (diagonal)
//! near-misses live in `insum_pattern`'s tests.

use insum::{eager, insum_with, DType, InsumOptions, Tensor};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Sprinkle the values the bit-identity contract cares about: exact
/// zeros (the `tl.dot` zero-skip), negative zeros, NaNs of both signs,
/// and infinities of both signs (`+Inf + -Inf` in a sum makes a NaN of
/// its own sign, so NaN sign selection is exercised too).
fn specialize(mut data: Vec<f32>, specials: bool) -> Vec<f32> {
    if specials {
        for (i, v) in data.iter_mut().enumerate() {
            match i % 13 {
                0 => *v = 0.0,
                2 => *v = f32::NEG_INFINITY,
                4 => *v = -0.0,
                7 => *v = f32::NAN,
                9 => *v = NEG_NAN,
                10 => *v = f32::INFINITY,
                _ => {}
            }
        }
    }
    data
}

/// The quiet NaN with the sign bit set (`f32::NAN` has it clear).
const NEG_NAN: f32 = f32::from_bits(0xffc0_0000);

fn tensor(shape: Vec<usize>, data: Vec<f32>, specials: bool) -> Tensor {
    Tensor::from_vec(shape, specialize(data, specials)).expect("length matches")
}

/// Compile + run `expr` twice — fast path on and off — on identical
/// bindings and assert the results are bit-identical. Returns the
/// fast-path pattern name (panics if the spec was not recognized).
fn assert_fast_matches_general(
    expr: &str,
    tensors: &BTreeMap<String, Tensor>,
    options: &InsumOptions,
) -> String {
    let fast = insum_with(expr, tensors, options).expect("fast compile");
    let pattern = fast
        .fast_path_pattern()
        .unwrap_or_else(|| panic!("{expr} should take the fast path"))
        .name()
        .to_string();
    assert!(fast.launch_signature().is_none());
    assert_eq!(fast.kernel_count(), 1);
    let general_opts = InsumOptions {
        fast_path: false,
        ..options.clone()
    };
    let general = insum_with(expr, tensors, &general_opts).expect("general compile");
    assert!(general.fast_path_pattern().is_none());
    let (got, fast_profile) = fast.run(tensors).expect("fast run");
    let (want, _) = general.run(tensors).expect("general run");
    assert!(
        got.bit_eq(&want),
        "{expr} [{pattern}] fast-path result is not bit-identical \
         (max |Δ| = {:?})",
        got.max_abs_diff(&want)
    );
    // The analytic profile must agree with the execute profile.
    let analytic = fast.time(tensors).expect("fast time");
    assert_eq!(analytic.total_time(), fast_profile.total_time());
    pattern
}

/// Compile + run a statement that computes with `options` and with
/// `fast_path: false` added: both must be the same general kernel — no
/// fast-path pattern, equal output bits, and equal profiles (every
/// `KernelReport` field) in Execute and Analytic mode.
fn assert_one_lowering(expr: &str, tensors: &BTreeMap<String, Tensor>, options: &InsumOptions) {
    let default = insum_with(expr, tensors, options).expect("compiles");
    let forced = InsumOptions {
        fast_path: false,
        ..options.clone()
    };
    let general = insum_with(expr, tensors, &forced).expect("general compile");
    assert_eq!(default.fast_path_pattern(), None, "{expr}");
    assert_eq!(general.fast_path_pattern(), None, "{expr}");
    assert!(
        default.launch_signature().is_some(),
        "{expr}: one fused kernel"
    );
    let (got, profile) = default.run(tensors).expect("default run");
    let (want, want_profile) = general.run(tensors).expect("general run");
    assert!(
        got.bit_eq(&want),
        "{expr}: results differ (max |Δ| = {:?})",
        got.max_abs_diff(&want)
    );
    assert_eq!(profile, want_profile, "{expr}: Execute profiles differ");
    let analytic = default.time(tensors).expect("default time");
    assert_eq!(analytic, general.time(tensors).expect("general time"));
    assert_eq!(analytic, profile, "{expr}: Analytic and Execute differ");
}

/// Build a (batched, when `batch > 1`) matmul's operands from the raw
/// draws and check it has one lowering: `batch == 1` is a plain matmul
/// (`ik,kj->ij`); above it, a batched matmul (`gik,gkj->gij`).
fn check_matmul(
    batch: usize,
    (m, k, n): (usize, usize, usize),
    (specials, accumulate, half): (bool, bool, bool),
    a: &[f32],
    b: &[f32],
) {
    let dtype = if half { DType::F16 } else { DType::F32 };
    let operand = |shape: Vec<usize>, src: &[f32]| {
        let len = shape.iter().product::<usize>();
        tensor(shape, src[..len].to_vec(), specials).cast(dtype)
    };
    let lead = |dims: [usize; 2]| -> Vec<usize> {
        (batch > 1)
            .then_some(batch)
            .into_iter()
            .chain(dims)
            .collect()
    };
    let tensors: BTreeMap<String, Tensor> = [
        ("A".to_string(), operand(lead([m, k]), a)),
        ("B".to_string(), operand(lead([k, n]), b)),
        ("C".to_string(), operand(lead([m, n]), b)),
    ]
    .into_iter()
    .collect();
    let g = if batch > 1 { "g," } else { "" };
    let op = if accumulate { "+=" } else { "=" };
    let expr = format!("C[{g}i,j] {op} A[{g}i,k] * B[{g}k,j]");
    assert_one_lowering(&expr, &tensors, &InsumOptions::default());
}

fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
    (2usize..10, 2usize..10, 2usize..10)
}

fn data(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

fn flags() -> impl Strategy<Value = (bool, bool, bool)> {
    (
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_family_is_bit_identical(
        shape in dims(),
        flags in flags(),
        a in data(1024),
        b in data(1024),
    ) {
        check_matmul(1, shape, flags, &a, &b);
    }

    #[test]
    fn batched_matmul_is_bit_identical(
        batch in 2usize..5,
        shape in dims(),
        flags in flags(),
        a in data(1024),
        b in data(1024),
    ) {
        check_matmul(batch, shape, flags, &a, &b);
    }

    #[test]
    fn copy_and_reduction_shapes_are_bit_identical(
        (d0, d1, d2) in dims(),
        specials in proptest::bool::ANY,
        a in data(1024),
    ) {
        let cube = tensor(vec![d0, d1, d2], a[..d0 * d1 * d2].to_vec(), specials);
        let mat = tensor(vec![d0, d1], a[..d0 * d1].to_vec(), specials);
        let opts = InsumOptions::default();

        // Transpose / identity / 3-D permutation: zero-copy views.
        for (expr, out_shape, pattern) in [
            ("C[j,i] = A2[i,j]", vec![d1, d0], "transpose"),
            ("C[i,j] = A2[i,j]", vec![d0, d1], "transpose"),
            ("C[k,i,j] = A3[i,j,k]", vec![d2, d0, d1], "transpose"),
        ] {
            let tensors: BTreeMap<String, Tensor> = [
                ("A2".to_string(), mat.clone()),
                ("A3".to_string(), cube.clone()),
                ("C".to_string(), Tensor::zeros(out_shape)),
            ]
            .into_iter()
            .collect();
            prop_assert_eq!(assert_fast_matches_general(expr, &tensors, &opts), pattern);
            let compiled = insum_with(expr, &tensors, &opts).expect("compiles");
            let (out, _) = compiled.run(&tensors).expect("runs");
            let src = if expr.contains("A3") { &cube } else { &mat };
            prop_assert!(out.shares_storage(src), "{expr} must not copy");
        }

        // Reductions (assign and accumulate): one lowering.
        for (expr, out_shape, base_specials) in [
            ("C[i] = A2[i,j]", vec![d0], false),
            ("C[i] += A2[i,j]", vec![d0], specials),
            ("C[i,k] = A3[i,j,k]", vec![d0, d2], false),
        ] {
            let tensors: BTreeMap<String, Tensor> = [
                ("A2".to_string(), mat.clone()),
                ("A3".to_string(), cube.clone()),
                (
                    "C".to_string(),
                    tensor(out_shape.clone(), a[..out_shape.iter().product::<usize>()].to_vec(), base_specials),
                ),
            ]
            .into_iter()
            .collect();
            assert_one_lowering(expr, &tensors, &opts);
        }

        // Diagonal view of a square matrix.
        let sq = tensor(vec![d0, d0], a[..d0 * d0].to_vec(), specials);
        let tensors: BTreeMap<String, Tensor> = [
            ("A".to_string(), sq.clone()),
            ("C".to_string(), Tensor::zeros(vec![d0])),
        ]
        .into_iter()
        .collect();
        prop_assert_eq!(
            assert_fast_matches_general("C[i] = A[i,i]", &tensors, &opts),
            "diagonal"
        );
        let compiled = insum_with("C[i] = A[i,i]", &tensors, &opts).expect("compiles");
        let (out, _) = compiled.run(&tensors).expect("runs");
        prop_assert!(out.shares_storage(&sq), "diagonal must not copy");
    }

    #[test]
    fn hadamard_and_outer_are_bit_identical(
        (m, n) in (2usize..12, 2usize..12),
        specials in proptest::bool::ANY,
        accumulate in proptest::bool::ANY,
        a in data(256),
        b in data(256),
    ) {
        let op = if accumulate { "+=" } else { "=" };
        let had: BTreeMap<String, Tensor> = [
            ("A".to_string(), tensor(vec![m, n], a[..m * n].to_vec(), specials)),
            ("B".to_string(), tensor(vec![m, n], b[..m * n].to_vec(), specials)),
            ("C".to_string(), tensor(vec![m, n], b[..m * n].to_vec(), false)),
        ]
        .into_iter()
        .collect();
        assert_one_lowering(&format!("C[i,j] {op} A[i,j] * B[i,j]"), &had, &InsumOptions::default());
        let outer: BTreeMap<String, Tensor> = [
            ("A".to_string(), tensor(vec![m], a[..m].to_vec(), specials)),
            ("B".to_string(), tensor(vec![n], b[..n].to_vec(), specials)),
            ("C".to_string(), tensor(vec![m, n], a[..m * n].to_vec(), false)),
        ]
        .into_iter()
        .collect();
        assert_one_lowering(&format!("C[i,j] {op} A[i] * B[j]"), &outer, &InsumOptions::default());
    }

    #[test]
    fn soundness_holds_across_option_ablations(
        (m, n) in (2usize..8, 2usize..8),
        specials in proptest::bool::ANY,
        a in data(256),
        b in data(256),
    ) {
        let tensors: BTreeMap<String, Tensor> = [
            ("A".to_string(), tensor(vec![m, n], a[..m * n].to_vec(), specials)),
            ("B".to_string(), tensor(vec![m, n], b[..m * n].to_vec(), specials)),
            ("C".to_string(), Tensor::zeros(vec![m, n])),
            ("S".to_string(), Tensor::zeros(vec![m])),
            ("T".to_string(), Tensor::zeros(vec![n, m])),
        ]
        .into_iter()
        .collect();
        let hadamard = "C[i,j] = A[i,j] * B[i,j]";
        let reduction = "S[i] = A[i,j]";
        let transpose = "T[j,i] = A[i,j]";
        for opts in [
            InsumOptions::default(),
            InsumOptions { lazy_broadcast: false, ..Default::default() },
            InsumOptions { tensor_cores: false, ..Default::default() },
            InsumOptions { autotune: true, ..Default::default() },
            InsumOptions { rblock: Some(16), ..Default::default() },
        ] {
            prop_assert_eq!(assert_fast_matches_general(transpose, &tensors, &opts), "transpose");
            assert_one_lowering(hadamard, &tensors, &opts);
            assert_one_lowering(reduction, &tensors, &opts);
        }
    }
}

/// Large extents that cross every default tile width (the general
/// pipeline tiles Y/X/R): the transpose view still matches bit-for-bit,
/// and the statements that compute still have one lowering.
#[test]
fn large_extents_cross_tile_boundaries() {
    let gen = |len: usize, seed: f32| -> Vec<f32> {
        (0..len)
            .map(|i| (i as f32 * 0.618 + seed).sin() * 2.0)
            .collect()
    };
    let (m, n) = (70, 257);
    let tensors: BTreeMap<String, Tensor> = [
        ("A".to_string(), tensor(vec![m, n], gen(m * n, 0.3), true)),
        ("B".to_string(), tensor(vec![m, n], gen(m * n, 0.7), true)),
        ("U".to_string(), tensor(vec![m], gen(m, 0.1), true)),
        ("V".to_string(), tensor(vec![n], gen(n, 0.9), true)),
        ("C".to_string(), Tensor::zeros(vec![m, n])),
        ("T".to_string(), Tensor::zeros(vec![n, m])),
    ]
    .into_iter()
    .collect();
    let opts = InsumOptions::default();
    assert_eq!(
        assert_fast_matches_general("T[j,i] = A[i,j]", &tensors, &opts),
        "transpose"
    );
    assert_one_lowering("C[i,j] = A[i,j] * B[i,j]", &tensors, &opts);
    assert_one_lowering("C[i,j] = U[i] * V[j]", &tensors, &opts);
    let red: BTreeMap<String, Tensor> = [
        (
            "A".to_string(),
            tensor(vec![m, 1733], gen(m * 1733, 0.1), true),
        ),
        ("C".to_string(), Tensor::zeros(vec![m])),
    ]
    .into_iter()
    .collect();
    assert_one_lowering("C[i] = A[i,j]", &red, &opts);
}

/// A row holding NaNs of both signs sums to one NaN whose sign the
/// general lowering's accumulation order picks; a second lowering of the
/// same reduction must pick the same one, in both orders of the row.
#[test]
fn mixed_sign_nan_rows_reduce_to_the_general_bits() {
    for row in [[NEG_NAN, 1.0, f32::NAN], [f32::NAN, 1.0, NEG_NAN]] {
        let tensors: BTreeMap<String, Tensor> = [
            (
                "X".to_string(),
                Tensor::from_vec(vec![1, 3], row.to_vec()).unwrap(),
            ),
            ("R".to_string(), Tensor::zeros(vec![1])),
        ]
        .into_iter()
        .collect();
        let bits = |fast_path| {
            let opts = InsumOptions {
                fast_path,
                ..Default::default()
            };
            let compiled = insum_with("R[i] = X[i,j]", &tensors, &opts).expect("compiles");
            let (out, _) = compiled.run(&tensors).expect("runs");
            out.contiguous_data()[0].to_bits()
        };
        assert_eq!(bits(true), bits(false), "{row:?}");
        assert_one_lowering("R[i] = X[i,j]", &tensors, &InsumOptions::default());
    }
}

/// Near-miss specs that must classify `General`: the compiled operation
/// reports no fast-path pattern and still matches the eager reference.
#[test]
fn near_misses_fall_back_to_general() {
    let gen = |len: usize| -> Vec<f32> { (0..len).map(|i| (i as f32) * 0.21 - 3.0).collect() };
    let opts = InsumOptions::default();
    type Case = (&'static str, Vec<(&'static str, Vec<usize>)>);
    let cases: Vec<Case> = vec![
        // Matvec: output drops an index of one factor.
        (
            "C[i] = A[i,j] * B[j]",
            vec![("C", vec![4]), ("A", vec![4, 5]), ("B", vec![5])],
        ),
        // Broadcast: B has no `i`, output keeps both.
        (
            "C[i,j] = A[i,j] * B[j]",
            vec![("C", vec![4, 5]), ("A", vec![4, 5]), ("B", vec![5])],
        ),
        // Transposed Hadamard.
        (
            "C[i,j] = A[i,j] * B[j,i]",
            vec![("C", vec![4, 5]), ("A", vec![4, 5]), ("B", vec![5, 4])],
        ),
        // Transposed-operand matmul.
        (
            "C[i,j] = A[i,k] * B[j,k]",
            vec![("C", vec![4, 5]), ("A", vec![4, 3]), ("B", vec![5, 3])],
        ),
        // Reduce + permute: kept indices out of order.
        (
            "C[j,i] = A[i,j,k]",
            vec![("C", vec![5, 4]), ("A", vec![4, 5, 3])],
        ),
    ];
    for (expr, shapes) in cases {
        let tensors: BTreeMap<String, Tensor> = shapes
            .into_iter()
            .map(|(name, shape)| {
                let t = if name == "C" {
                    Tensor::zeros(shape)
                } else {
                    let len = shape.iter().product();
                    Tensor::from_vec(shape, gen(len)).unwrap()
                };
                (name.to_string(), t)
            })
            .collect();
        let compiled = insum_with(expr, &tensors, &opts).expect("compiles");
        assert!(
            compiled.fast_path_pattern().is_none(),
            "{expr} must fall back to the general lowering"
        );
        let (got, _) = compiled.run(&tensors).expect("runs");
        let want = eager(expr, &tensors).expect("eager evaluates");
        assert!(
            got.allclose(&want, 1e-4, 1e-4),
            "{expr} diverges from eager"
        );
    }
}

/// Gate near-misses that classify fast but are dtype- or op-ineligible:
/// accumulate copies and narrowing transposes run the general path.
#[test]
fn copy_gates_route_to_general() {
    let a32 = Tensor::from_vec(vec![3, 4], (0..12).map(|i| i as f32 - 5.5).collect()).unwrap();
    let opts = InsumOptions::default();

    // `+=` transpose: recognized shape, but copies only fast-path `=`.
    let t: BTreeMap<String, Tensor> = [
        ("A".to_string(), a32.clone()),
        ("C".to_string(), Tensor::ones(vec![4, 3])),
    ]
    .into_iter()
    .collect();
    let acc = insum_with("C[j,i] += A[i,j]", &t, &opts).expect("compiles");
    assert!(acc.fast_path_pattern().is_none());

    // F32 -> F16 narrowing transpose: needs a real rounding kernel.
    let t16: BTreeMap<String, Tensor> = [
        ("A".to_string(), a32.clone()),
        ("C".to_string(), Tensor::zeros_with(vec![4, 3], DType::F16)),
    ]
    .into_iter()
    .collect();
    let narrow = insum_with("C[j,i] = A[i,j]", &t16, &opts).expect("compiles");
    assert!(narrow.fast_path_pattern().is_none());

    // F16 -> F32 widening transpose IS view-eligible (raw bits survive).
    let a16 = a32.cast(DType::F16);
    let widen: BTreeMap<String, Tensor> = [
        ("A".to_string(), a16.clone()),
        ("C".to_string(), Tensor::zeros(vec![4, 3])),
    ]
    .into_iter()
    .collect();
    assert_eq!(
        assert_fast_matches_general("C[j,i] = A[i,j]", &widen, &opts),
        "transpose"
    );

    // Opt-out: fast_path = false compiles the general pipeline even for
    // a view-eligible transpose.
    let off = insum_with(
        "C[j,i] = A[i,j]",
        &widen,
        &InsumOptions {
            fast_path: false,
            ..Default::default()
        },
    )
    .expect("compiles");
    assert!(off.fast_path_pattern().is_none());
    assert!(off.launch_signature().is_some(), "general fused kernel");
}

/// F16 end-to-end: rounding epilogues must match the general pipeline.
#[test]
fn f16_compute_patterns_are_bit_identical() {
    let gen = |shape: Vec<usize>, s: f32| -> Tensor {
        let len = shape.iter().product::<usize>();
        let data = (0..len).map(|i| ((i as f32) * 0.377 + s).cos() * 3.0);
        Tensor::from_vec(shape, data.collect())
            .unwrap()
            .cast(DType::F16)
    };
    let (m, n) = (6, 9);
    let tensors: BTreeMap<String, Tensor> = [
        ("A".to_string(), gen(vec![m, n], 0.2)),
        ("B".to_string(), gen(vec![m, n], 1.4)),
        ("U".to_string(), gen(vec![m], 0.5)),
        ("V".to_string(), gen(vec![n], 0.8)),
        ("C".to_string(), gen(vec![m, n], 2.6)),
        ("S".to_string(), gen(vec![m], 3.1)),
    ]
    .into_iter()
    .collect();
    for expr in [
        "C[i,j] = A[i,j] * B[i,j]",
        "C[i,j] += A[i,j] * B[i,j]",
        "C[i,j] = U[i] * V[j]",
        "C[i,j] += U[i] * V[j]",
        "S[i] = A[i,j]",
        "S[i] += A[i,j]",
    ] {
        assert_one_lowering(expr, &tensors, &InsumOptions::default());
    }
}
