//! Separable access sites: a `load`/`store`/`atomic_add` whose offsets are
//! `expand_dims(rows, 1) + expand_dims(cols, 0)` runs as row runs — no
//! offset block, no per-lane walk — and must be indistinguishable from
//! the seed interpreter: output bits, every `KernelStats` field and the
//! three simulated times, in both modes, sequential and sharded, with
//! and without analytic instance classes. Kernels here have the code
//! generator's shape (row bases gathered from an `I32` parameter per
//! `program_id(1)`, a contiguous column run per `program_id(0)`) with
//! everything the recognition rule and its run-time conditions branch on
//! varied: terms per side, association, masks, dtypes, misalignment,
//! duplicates, partial warps, loops, non-consecutive columns,
//! non-integral and huge terms, and out-of-bounds lanes. Beside them sits
//! a 1-D access pair in each form the per-lane path stages its lanes as
//! (scalar, prefix-masked row, non-prefix mask, broadcast offset and mask,
//! duplicate-address atomics).

use insum_gpu::reference::launch_reference;
use insum_gpu::{
    site_dispatch_counts, DeviceModel, GpuError, KernelReport, LaunchOptions, Mode, Program,
};
use insum_kernel::{BinOp, Kernel, KernelBuilder};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;

mod common;
use common::{
    build_args, build_kernel, case_strategy, conv_shaped_args, conv_shaped_kernel, plain, Case,
    Columns, MaskKind, Poison, Side,
};

/// A sharded launch shares one `Program` between its shard threads and
/// the program cache hands one out to many; blocks, which are `!Send`,
/// must stay out of it. Checked where it is cheapest: at compile time.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Program>();
};

type Outcome = (Result<KernelReport, GpuError>, [Tensor; 4]);

fn run_reference(kernel: &Kernel, grid: &[usize], args: &[Tensor; 4], mode: Mode) -> Outcome {
    let [mut a, mut b, mut c, mut d] = args.clone();
    let report = launch_reference(
        kernel,
        grid,
        &mut [&mut a, &mut b, &mut c, &mut d],
        &DeviceModel::rtx3090(),
        mode,
    );
    (report, [a, b, c, d])
}

fn run_program(program: &Program, args: &[Tensor; 4], mode: Mode, opts: &LaunchOptions) -> Outcome {
    let [mut a, mut b, mut c, mut d] = args.clone();
    let report = program.launch_with(
        &mut [&mut a, &mut b, &mut c, &mut d],
        &DeviceModel::rtx3090(),
        mode,
        opts,
    );
    (report, [a, b, c, d])
}

/// Every scheduling configuration a launch can take.
fn configurations() -> Vec<(&'static str, LaunchOptions)> {
    let mut out = Vec::new();
    for (threads, tname) in [(1usize, "sequential"), (2, "2-shard")] {
        for dedup in [true, false] {
            let mut opts = LaunchOptions::with_threads(threads);
            opts.min_parallel_instances = 2;
            opts.analytic_dedup = dedup;
            out.push((if dedup { tname } else { "no-dedup" }, opts));
        }
    }
    out
}

/// Launch `kernel` in both modes and every configuration, compare each
/// against the seed interpreter, and return the program's
/// `(recognised, total)` sites and the `(row_run, generic)` executions.
fn check_against_seed(
    kernel: &Kernel,
    grid: &[usize],
    args: &[Tensor; 4],
    label: &str,
) -> ((usize, usize), (u64, u64)) {
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    let program = Program::compile(kernel, grid, &lens, &dtypes).expect("kernel compiles");
    let before = site_dispatch_counts();
    for mode in [Mode::Execute, Mode::Analytic] {
        let (want, want_args) = run_reference(kernel, grid, args, mode);
        for (name, opts) in configurations() {
            let (got, got_args) = run_program(&program, args, mode, &opts);
            assert_eq!(got, want, "{label}: {mode:?} {name} report");
            if want.is_ok() {
                for (p, (g, w)) in got_args.iter().zip(&want_args).enumerate() {
                    assert!(g.bit_eq(w), "{label}: {mode:?} {name} parameter {p} bits");
                }
            }
        }
    }
    let after = site_dispatch_counts();
    (
        program.separable_sites(),
        (after.0 - before.0, after.1 - before.1),
    )
}

fn check_case(c: &Case) {
    let kernel = build_kernel(c);
    let args = build_args(c);
    let label = format!("{c:?}");
    let ((recognised, total), (row_run, generic)) =
        check_against_seed(&kernel, &[c.gx, c.gy], &args, &label);
    // One 1-D metadata gather, three 2-D accesses, the 1-D side pair.
    assert_eq!(total, c.sites(), "{label}");
    // With a single row of lanes the `And` of the two masks is `[1, m]`:
    // a column mask.
    if c.mask == MaskKind::Both && c.n > 1 {
        assert_eq!(recognised, 0, "a full 2-D mask declines: {label}");
        assert_eq!(row_run, 0, "{label}");
        assert!(generic > 0, "{label}");
        return;
    }
    assert_eq!(
        recognised, 3,
        "every 2-D access is separable in form: {label}"
    );
    if c.columns == Columns::Strided || c.poison != Poison::None {
        assert_eq!(row_run, 0, "must decline on its data: {label}");
        assert!(generic > 0, "{label}");
    } else {
        assert!(row_run > 0, "{label}");
        assert_eq!(generic, 0, "every 2-D access runs as row runs: {label}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn separable_sites_match_the_seed_interpreter(c in case_strategy()) {
        check_case(&c);
    }
}

/// The corners the generator only meets by chance, pinned.
#[test]
fn pinned_corners() {
    // Liveness: one grid column, so the column term is per-instance, its
    // only IR reader is the add, and the filler recycles pool buffers
    // between the add and the access.
    check_case(&Case {
        filler: true,
        ..plain(16, 32, 1, 3)
    });
    check_case(&Case {
        filler: true,
        in_loop: true,
        mask: MaskKind::Rows,
        ..plain(32, 16, 1, 2)
    });
    // f16 rows at a sector-misaligned base: a 16-lane row straddles two
    // sectors, and two rows of one warp share one.
    check_case(&Case {
        f16: true,
        row_terms: 2,
        misalign: 5,
        ..plain(32, 16, 2, 2)
    });
    // One partial warp.
    check_case(&plain(2, 8, 1, 1));
    // Three terms a side, both associations.
    for left_assoc in [false, true] {
        check_case(&Case {
            row_terms: 3,
            col_terms: 3,
            misalign: 3,
            left_assoc,
            mask: MaskKind::Cols,
            ..plain(4, 64, 2, 2)
        });
    }
    // Declines: data (fraction, huge, strided columns) and form (2-D
    // mask).
    for poison in [Poison::Fraction, Poison::Huge] {
        check_case(&Case {
            poison,
            ..plain(16, 16, 2, 2)
        });
    }
    check_case(&Case {
        columns: Columns::Strided,
        ..plain(16, 16, 2, 2)
    });
    check_case(&Case {
        mask: MaskKind::Both,
        ..plain(16, 16, 2, 2)
    });
    // Every staged per-lane form beside row runs, f32 and f16, with
    // instance classes (a multi-instance grid axis 0) and without.
    for side in Side::ALL {
        for (f16, gx) in [(false, 3), (true, 1)] {
            let c = Case {
                side,
                f16,
                ..plain(4, 16, gx, 2)
            };
            check_case(&c);
            let args = build_args(&c);
            let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
            let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
            let program = Program::compile(&build_kernel(&c), &[gx, 2], &lens, &dtypes)
                .expect("kernel compiles");
            assert!(program.analytic_dedup_available(), "{c:?}");
        }
    }
}

/// Sharded against sequential (and both against the seed interpreter)
/// on the conv shape: the launch whose shards each build, use and drop
/// their own register file, whose narrow dots run the tile ladder, and
/// whose single-member rows record no level-1 stream.
#[test]
fn conv_shaped_launch_shards_like_it_runs_sequentially() {
    let (groups, voxels, offsets) = (9usize, 11usize, 4usize);
    let args = conv_shaped_args(groups, voxels, offsets);
    let kernel = conv_shaped_kernel(groups);
    let ((recognised, total), (row_run, generic)) =
        check_against_seed(&kernel, &[1, groups], &args, "conv shape");
    // Four 1-D metadata accesses; the input gather, the weight tile and
    // the output scatter are 2-D.
    assert_eq!((recognised, total), (3, 7));
    assert!(row_run > 0);
    assert_eq!(generic, 0, "every 2-D access runs as row runs");
}

/// Out-of-bounds lanes: the error (parameter, offending offset, length)
/// is the seed interpreter's, whichever lane is first to leave the
/// tensor — and a garbage base in a masked-off row is no error.
#[test]
fn out_of_bounds_offsets_match_the_seed_interpreter() {
    let base = Case {
        row_terms: 2,
        ..plain(4, 8, 1, 2)
    };
    let stride = base.row_stride() as i64;
    let len = base.data_len() as i64;
    // The largest row id whose row still fits, and the constant term
    // that puts that row's last lane on the tensor's last element.
    let last_fit = (len - 8) / stride;
    let to_edge = (len - 8 - last_fit * stride) as usize;
    // Launch with the given row ids (`None`: what `build_args` plants)
    // everywhere, and return the seed interpreter's offending offset.
    let run = |ids: Option<[i64; 8]>, misalign: usize, mask: MaskKind| -> Option<i64> {
        let c = Case {
            misalign,
            mask,
            ..base
        };
        let kernel = build_kernel(&c);
        let mut args = build_args(&c);
        if let Some(ids) = ids {
            args[0] = Tensor::from_indices(vec![8], ids.to_vec()).expect("8 row ids");
        }
        let label = format!("ids {ids:?} misalign {misalign} {mask:?}");
        check_against_seed(&kernel, &[1, 2], &args, &label);
        match run_reference(&kernel, &[1, 2], &args, Mode::Execute).0 {
            Err(GpuError::OffsetOutOfBounds { offset, .. }) => Some(offset),
            Err(e) => panic!("unexpected error {e}"),
            Ok(_) => None,
        }
    };
    // First lane of the launch: a negative base.
    assert_eq!(
        run(Some([-1, 0, 0, 0, 0, 0, 0, 0]), 0, MaskKind::None),
        Some(-stride)
    );
    // First lane of a later row: far beyond the end.
    assert_eq!(
        run(Some([0, 1, 9999, 0, 0, 0, 0, 0]), 0, MaskKind::None),
        Some(9999 * stride)
    );
    // Mid-row, in the second instance: the row starts inside and leaves
    // after five lanes; the offending offset is the first one past the
    // end.
    assert_eq!(
        run(
            Some([0, 0, 0, 0, 0, last_fit, 0, 0]),
            to_edge + 3,
            MaskKind::None
        ),
        Some(len)
    );
    // Last lane of the launch only.
    assert_eq!(
        run(
            Some([0, 0, 0, 0, 0, 0, 0, last_fit]),
            to_edge + 1,
            MaskKind::None
        ),
        Some(len)
    );
    // Exactly fitting: no error.
    assert_eq!(
        run(
            Some([0, 0, 0, 0, 0, 0, 0, last_fit]),
            to_edge,
            MaskKind::None
        ),
        None
    );
    // Garbage bases only where the row mask is off (`build_args` plants
    // them in rows 5..8): no error.
    assert_eq!(run(None, 0, MaskKind::Rows), None);
}

/// The ablation lowerings are not separable in form and stay on the
/// per-lane path: eager broadcasting (a `broadcast_to` between the
/// `expand_dims` and the add) and the rank-3 scalar lowering.
#[test]
fn eager_broadcast_and_rank3_kernels_stay_generic() {
    let (n, m, k) = (8usize, 16usize, 4usize);
    let device = DeviceModel::rtx3090();
    let check = |kernel: &Kernel, len: usize, what: &str| {
        let src = Tensor::from_fn(vec![len], |i| (i[0] % 97) as f32 * 0.5 - 20.0);
        let program =
            Program::compile(kernel, &[1], &[len, n * m], &[DType::F32, DType::F32]).unwrap();
        let (recognised, _) = program.separable_sites();
        assert_eq!(recognised, 0, "{what}");
        let before = site_dispatch_counts();
        let (mut s1, mut o1) = (src.clone(), Tensor::zeros(vec![n * m]));
        let got = program
            .launch(&mut [&mut s1, &mut o1], &device, Mode::Execute)
            .expect("launches");
        let after = site_dispatch_counts();
        assert_eq!(after.0 - before.0, 0, "{what}: no row runs");
        assert!(after.1 - before.1 > 0, "{what}: generic executions");
        let (mut s2, mut o2) = (src.clone(), Tensor::zeros(vec![n * m]));
        let want = launch_reference(
            kernel,
            &[1],
            &mut [&mut s2, &mut o2],
            &device,
            Mode::Execute,
        )
        .expect("seed launches");
        assert_eq!(got, want, "{what}");
        assert!(o1.bit_eq(&o2), "{what}: output bits");
    };

    // Eager: both operands of the add are materialised `[n, m]` blocks.
    let mut b = KernelBuilder::new("eager");
    let src = b.input("SRC");
    let out = b.output("OUT");
    let rows = b.arange(n);
    let w = b.constant(m as f64);
    let rbase = b.binary(BinOp::Mul, rows, w);
    let cols = b.arange(m);
    let r2 = b.expand_dims(rbase, 1);
    let r2 = b.broadcast(r2, vec![n, m]);
    let c2 = b.expand_dims(cols, 0);
    let c2 = b.broadcast(c2, vec![n, m]);
    let off = b.binary(BinOp::Add, r2, c2);
    let v = b.load(src, off, None, 0.0);
    let r2 = b.expand_dims(rbase, 1);
    let r2 = b.broadcast(r2, vec![n, m]);
    let c2 = b.expand_dims(cols, 0);
    let c2 = b.broadcast(c2, vec![n, m]);
    let off = b.binary(BinOp::Add, r2, c2);
    b.store(out, off, v, None);
    check(&b.build(), n * m, "eager broadcast");

    // Rank 3: `SRC[i, l, j]` loaded as one `[n, k, m]` block, summed over
    // `l`, stored flat.
    let mut b = KernelBuilder::new("rank3");
    let src = b.input("SRC");
    let out = b.output("OUT");
    let rows = b.arange(n);
    let w = b.constant((k * m) as f64);
    let rbase = b.binary(BinOp::Mul, rows, w);
    let mids = b.arange(k);
    let mw = b.constant(m as f64);
    let mbase = b.binary(BinOp::Mul, mids, mw);
    let cols = b.arange(m);
    let r3 = b.expand_dims(rbase, 1);
    let r3 = b.expand_dims(r3, 2);
    let m3 = b.expand_dims(mbase, 0);
    let m3 = b.expand_dims(m3, 2);
    let c3 = b.expand_dims(cols, 0);
    let c3 = b.expand_dims(c3, 0);
    let rm = b.binary(BinOp::Add, r3, m3);
    let off = b.binary(BinOp::Add, rm, c3);
    let v = b.load(src, off, None, 0.0);
    let s = b.sum(v, 1);
    let flat = b.view(s, vec![n * m]);
    let lanes = b.arange(n * m);
    b.store(out, lanes, flat, None);
    check(&b.build(), n * k * m, "rank-3 lowering");
}
