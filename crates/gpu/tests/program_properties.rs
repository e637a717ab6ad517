//! Property tests for the ahead-of-time compile pipeline: compiled
//! programs must be bit-identical to the seed reference interpreter
//! (outputs, stats, simulated time), and analytic instance-class dedup
//! must equal brute-force per-instance costing, over randomized kernels,
//! grids, and scheduling options.

use insum_gpu::reference::launch_reference;
use insum_gpu::{DeviceModel, LaunchOptions, Mode, Program};
use insum_kernel::{BinOp, Kernel, KernelBuilder};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;

mod common;
use common::{spec_strategy, TiledSpec};

fn launch_program(
    spec: &TiledSpec,
    kernel: &Kernel,
    mode: Mode,
    opts: &LaunchOptions,
    seed: u64,
) -> (insum_gpu::KernelReport, Vec<Tensor>) {
    let mut owned = spec.tensors(seed);
    let lens: Vec<usize> = owned.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = owned.iter().map(|t| t.dtype()).collect();
    let program = Program::compile(kernel, &[spec.gx, spec.gy], &lens, &dtypes).expect("compiles");
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = program
        .launch_with(&mut refs, &DeviceModel::rtx3090(), mode, opts)
        .expect("launches");
    (report, owned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Compiled programs (all caching tiers active) match the seed
    /// reference interpreter bit for bit.
    #[test]
    fn compiled_program_matches_reference(spec in spec_strategy(), seed in 0u64..1000) {
        let kernel = spec.build();
        let device = DeviceModel::rtx3090();
        for mode in [Mode::Execute, Mode::Analytic] {
            let (new, out_new) =
                launch_program(&spec, &kernel, mode, &LaunchOptions::sequential(), seed);
            let mut owned = spec.tensors(seed);
            let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
            let old = launch_reference(&kernel, &[spec.gx, spec.gy], &mut refs, &device, mode)
                .expect("reference runs");
            prop_assert_eq!(new.stats, old.stats, "{:?} stats diverge from seed", mode);
            prop_assert_eq!(new.time, old.time, "{:?} time diverges from seed", mode);
            for (a, b) in out_new.iter().zip(&owned) {
                prop_assert_eq!(a.data(), b.data(), "{:?} outputs diverge from seed", mode);
            }
        }
    }

    /// Analytic instance-class dedup equals brute-force per-instance
    /// costing: stats, DRAM sets, collision counts, and per-instance
    /// times are identical with replay enabled and disabled.
    #[test]
    fn analytic_dedup_matches_brute_force(spec in spec_strategy(), seed in 0u64..1000) {
        let kernel = spec.build();
        let dedup = LaunchOptions::sequential();
        let brute = LaunchOptions {
            analytic_dedup: false,
            ..LaunchOptions::sequential()
        };
        let (fast, _) = launch_program(&spec, &kernel, Mode::Analytic, &dedup, seed);
        let (slow, _) = launch_program(&spec, &kernel, Mode::Analytic, &brute, seed);
        prop_assert_eq!(fast.stats, slow.stats, "dedup changes counters");
        prop_assert_eq!(fast.time, slow.time, "dedup changes simulated time");
        prop_assert_eq!(fast.sm_time, slow.sm_time);
        prop_assert_eq!(fast.dram_time, slow.dram_time);
        prop_assert_eq!(fast.max_instance_time, slow.max_instance_time);
    }

    /// Dedup + sharding composes: parallel analytic launches with replay
    /// stay bit-identical to the sequential brute-force path.
    #[test]
    fn parallel_dedup_matches_sequential(
        spec in spec_strategy(),
        seed in 0u64..1000,
        threads in 2usize..6,
    ) {
        let kernel = spec.build();
        let mut par = LaunchOptions::with_threads(threads);
        par.min_parallel_instances = 2;
        let brute = LaunchOptions {
            analytic_dedup: false,
            ..LaunchOptions::sequential()
        };
        let (fast, _) = launch_program(&spec, &kernel, Mode::Analytic, &par, seed);
        let (slow, _) = launch_program(&spec, &kernel, Mode::Analytic, &brute, seed);
        prop_assert_eq!(fast.stats, slow.stats);
        prop_assert_eq!(fast.time, slow.time);
    }
}

/// The fully affine unmasked configuration must actually qualify for
/// instance-class dedup (guards against the analysis silently regressing
/// to the fallback path, which would leave the properties vacuous).
#[test]
fn affine_specs_enable_dedup() {
    for indirect in [false, true] {
        for atomic in [false, true] {
            for rloop in [false, true] {
                let spec = TiledSpec {
                    xb: 16,
                    yb: 4,
                    gx: 3,
                    gy: 2,
                    masked: false,
                    indirect,
                    atomic,
                    rloop,
                    scale: 1.5,
                };
                let kernel = spec.build();
                let owned = spec.tensors(1);
                let lens: Vec<usize> = owned.iter().map(|t| t.len()).collect();
                let dtypes: Vec<DType> = owned.iter().map(|t| t.dtype()).collect();
                let program =
                    Program::compile(&kernel, &[spec.gx, spec.gy], &lens, &dtypes).unwrap();
                assert!(
                    program.analytic_dedup_available(),
                    "indirect={indirect} atomic={atomic} rloop={rloop} should dedup"
                );
            }
        }
    }
}

/// Regression: a loop-carried rotation chain longer than any fixed
/// fixpoint budget. `pid0` reaches the atomic offset only after 24
/// rotations, so the affine analysis needs ~24 passes to classify the
/// head register; a capped fixpoint once left it "invariant" and
/// instance-class replay stamped every member's atomic on the
/// representative's address (atomic_conflicts 7 instead of 0).
#[test]
fn long_loop_carried_chains_stay_bit_identical() {
    const N: usize = 24;
    let mut b = KernelBuilder::new("rotate");
    let y = b.output("Y");
    let pid = b.program_id(0);
    let zero = b.constant(0.0);
    let one = b.constant(1.0);
    let chain: Vec<_> = (0..N).map(|_| b.binary(BinOp::Add, zero, zero)).collect();
    let r = b.begin_loop(0, N as i64, 1);
    let _ = r;
    for i in 0..N - 1 {
        b.binary_into(chain[i], BinOp::Add, chain[i + 1], zero);
    }
    b.binary_into(chain[N - 1], BinOp::Add, pid, zero);
    b.end_loop();
    b.atomic_add(y, chain[0], one, None);
    let kernel = b.build();

    let grid = [8usize];
    let device = DeviceModel::rtx3090();
    let mk = || Tensor::zeros(vec![8]);
    for mode in [Mode::Execute, Mode::Analytic] {
        let mut y1 = mk();
        let lens = [y1.len()];
        let dtypes = [y1.dtype()];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let new = program
            .launch_with(&mut [&mut y1], &device, mode, &LaunchOptions::sequential())
            .unwrap();
        let mut y2 = mk();
        let old = launch_reference(&kernel, &grid, &mut [&mut y2], &device, mode).unwrap();
        assert_eq!(new.stats, old.stats, "{mode:?} stats diverge from seed");
        assert_eq!(new.time, old.time, "{mode:?} time diverges from seed");
        assert_eq!(y1.data(), y2.data(), "{mode:?} outputs diverge from seed");
        assert_eq!(new.stats.atomic_conflicts, 0, "distinct addresses");
    }
}

/// The grid is part of the launch shape, so `program_id` of an extent-1
/// axis is a constant: on a `[1, n]` grid (COO, conv, tensor product)
/// the column tile `pid0 · XB + arange(XB)` and its `expand_dims` are
/// computed once per launch instead of once per instance, and with
/// single-instance rows nothing is left at the per-row tier.
#[test]
fn extent_one_axes_are_grid_invariant() {
    // One kernel (tiled for two column tiles), three launch grids.
    let spec = TiledSpec {
        xb: 16,
        yb: 4,
        gx: 2,
        gy: 3,
        masked: false,
        indirect: true,
        atomic: true,
        rloop: false,
        scale: 1.5,
    };
    let kernel = spec.build();
    let owned = spec.tensors(1);
    let lens: Vec<usize> = owned.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = owned.iter().map(|t| t.dtype()).collect();
    let classify = |grid: [usize; 2]| {
        Program::compile(&kernel, &grid, &lens, &dtypes)
            .unwrap()
            .classification()
    };
    let (once_wide, row_wide, inst_wide, _) = classify([2, 3]);
    let (once_one, row_one, inst_one, cached_one) = classify([1, 3]);
    // `pid0`, `pid0 · XB`, `… + arange(XB)` and its `expand_dims` move to
    // the prologue (the two binaries were one fused per-instance unit).
    assert_eq!(once_one, once_wide + 4);
    assert!(row_wide > 0, "a two-column grid has a per-row tier");
    assert_eq!(
        (row_one, cached_one),
        (0, 0),
        "single-instance rows have none"
    );
    // The per-row units are per-instance now, two of them fused.
    assert_eq!(inst_one, inst_wide - 3 + row_wide - 1);
    // Both axes of extent 1: only the gather-dependent tail and the
    // write are left to the (single) instance.
    let (_, row, _, _) = classify([1, 1]);
    assert_eq!(row, 0);
}
