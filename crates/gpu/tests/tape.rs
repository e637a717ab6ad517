//! The value tape (`interp/tape.rs`), the one value path of every Execute
//! launch, against the seed interpreter (`insum_gpu::reference`): launch
//! 1 (full, from a scratch script), launch 2 (full, keeping the script)
//! and launch 3 (the tape alone, from the kept script) of one key must
//! each give the seed's output bits and `KernelReport`, and launch 3 the
//! `tl.dot` and access-site dispatch counts of launch 1. An Analytic
//! launch must report what the seed reports. The kernels are
//! `tests/common`'s generators at fixed seeds (row and column masks, f16
//! parameters, duplicate scatter coordinates, value loads executed once
//! per shard and once per row of instances) and the CSR row sum, whose
//! dynamic loop runs no iteration on an empty row; each with clean
//! operands and with NaN payloads of both signs, −0.0 and ±Inf planted
//! in every float argument; launched on one thread, sharded on two, and
//! as requests of a `launch_batch_with`.

use insum_gpu::reference::launch_reference;
use insum_gpu::{
    dot_dispatch_counts, script_dispatch_counts, site_dispatch_counts, DeviceModel, KernelReport,
    LaunchOptions, Mode, Program,
};
use insum_kernel::Kernel;
use insum_tensor::{DType, Tensor};
use proptest::prelude::Strategy;
use proptest::test_runner::TestRng;

mod common;
use common::{
    block_group_args, block_group_kernel, build_args, build_kernel, case_strategy,
    conv_shaped_args, conv_shaped_kernel, csr_rows_args, csr_rows_kernel, spec_strategy,
    tp_shaped_args, tp_shaped_kernel, Rng, Side,
};

/// `(dots, sites, launches)` of this thread's dispatch counters.
type Counts = ((u64, u64), (u64, u64), (u64, u64, u64));

fn counts() -> Counts {
    (
        dot_dispatch_counts(),
        site_dispatch_counts(),
        script_dispatch_counts(),
    )
}

/// What `f` returned and added to this thread's counters.
fn counting<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let (d, s, l) = counts();
    let out = f();
    let (d2, s2, l2) = counts();
    let delta = (
        (d2.0 - d.0, d2.1 - d.1),
        (s2.0 - s.0, s2.1 - s.1),
        (l2.0 - l.0, l2.1 - l.1, l2.2 - l.2),
    );
    (out, delta)
}

fn compile(kernel: &Kernel, grid: &[usize], args: &[Tensor]) -> Program {
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    Program::compile(kernel, grid, &lens, &dtypes).expect("kernel compiles")
}

/// One launch on copies of `args` (sharing their storage, so the I32
/// key is the same every time).
fn launch_in(
    program: &Program,
    args: &[Tensor],
    mode: Mode,
    opts: &LaunchOptions,
) -> (KernelReport, Vec<Tensor>) {
    let mut owned = args.to_vec();
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = program
        .launch_with(&mut refs, &DeviceModel::rtx3090(), mode, opts)
        .expect("launches");
    (report, owned)
}

fn launch(program: &Program, args: &[Tensor], opts: &LaunchOptions) -> (KernelReport, Vec<Tensor>) {
    launch_in(program, args, Mode::Execute, opts)
}

/// The seed interpreter's launch on copies of `args`.
fn seed(
    kernel: &Kernel,
    grid: &[usize],
    args: &[Tensor],
    mode: Mode,
) -> (KernelReport, Vec<Tensor>) {
    let mut owned = args.to_vec();
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = launch_reference(kernel, grid, &mut refs, &DeviceModel::rtx3090(), mode)
        .expect("the seed interpreter launches it");
    (report, owned)
}

fn assert_bits(got: &[Tensor], want: &[Tensor], label: &str) {
    for (p, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(g.bit_eq(w), "{label}: parameter {p} bits");
    }
}

/// The seed's bits, except that where the seed stores a NaN any NaN
/// will do: where NaNs meet in a sum, which one's payload and sign
/// survive depends on the order of the operands, which the optimized
/// bodies do not keep (the conv's planted case differs so).
fn assert_seed_bits(got: &[Tensor], want: &[Tensor], label: &str) {
    for (p, (g, w)) in got.iter().zip(want).enumerate() {
        let same = g
            .data()
            .iter()
            .zip(w.data())
            .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()));
        assert!(same && g.len() == w.len(), "{label}: parameter {p} bits");
    }
}

/// Every float argument with NaNs of both signs and payloads, −0.0 and
/// ±Inf planted at seeded positions.
fn planted(args: &[Tensor], seed: u64) -> Vec<Tensor> {
    const SPECIALS: [u32; 6] = [
        0x7fc0_0001,
        0xffc0_1234,
        0x8000_0000,
        0x7f80_0000,
        0xff80_0000,
        0xff9a_bcde,
    ];
    let mut rng = Rng(seed);
    args.iter()
        .map(|t| {
            let mut t = t.clone();
            if t.dtype() != DType::I32 && !t.is_empty() {
                let data = t.data_mut();
                for &bits in &SPECIALS {
                    let at = rng.below(data.len());
                    data[at] = f32::from_bits(bits);
                }
            }
            t
        })
        .collect()
}

/// Launches 1, 2 and 3 of one key against the seed interpreter, on one
/// thread and sharded on two, and an Analytic launch against the seed's;
/// then a batch of three requests under the ready key.
fn check(kernel: &Kernel, grid: &[usize], args: &[Tensor], label: &str) {
    let seq = LaunchOptions::sequential();
    let mut two = LaunchOptions::with_threads(2);
    two.min_parallel_instances = 2;
    let (want_report, want) = seed(kernel, grid, args, Mode::Execute);
    let (want_analytic, _) = seed(kernel, grid, args, Mode::Analytic);
    for (threads, opts) in [(1, &seq), (2, &two)] {
        let label = format!("{label}, {threads} thread(s)");
        let program = compile(kernel, grid, args);
        assert_eq!(program.replay_decline(), None, "{label}");
        let mut counts = Vec::new();
        let mut outs = Vec::new();
        for n in 1..=3 {
            let ((report, out), c) = counting(|| launch(&program, args, opts));
            assert_eq!(report, want_report, "{label}: launch {n} report");
            assert_seed_bits(&out, &want, &format!("{label}: launch {n}"));
            counts.push(c);
            outs.push(out);
        }
        assert_bits(&outs[2], &outs[0], &format!("{label}: launch 3 against 1"));
        let (full, tape) = (counts[0], counts[2]);
        assert_eq!(full.2, (1, 0, 0), "{label}: launch 1 runs in full");
        assert_eq!(counts[1].2, (0, 1, 0), "{label}: launch 2 records");
        assert_eq!(tape.2, (0, 0, 1), "{label}: launch 3 is served by the tape");
        assert_eq!(tape.0, full.0, "{label}: dot dispatch");
        assert_eq!(tape.1, full.1, "{label}: site dispatch");
        let fresh = compile(kernel, grid, args);
        let (analytic, untouched) = launch_in(&fresh, args, Mode::Analytic, opts);
        assert_eq!(analytic, want_analytic, "{label}: analytic report");
        assert_bits(
            &untouched,
            args,
            &format!("{label}: analytic writes nothing"),
        );
        if threads > 1 {
            continue;
        }

        // Two workers share the three requests, one thread each: every
        // request is a sequential launch. (Where a NaN output slot meets
        // a NaN addend, which payload survives may differ between the
        // in-place and the write-log adds, so a request is held to the
        // sequential launch, not to a sharded one.)
        let mut owned: Vec<Vec<Tensor>> = (0..3).map(|_| args.to_vec()).collect();
        let mut views: Vec<Vec<&mut Tensor>> =
            owned.iter_mut().map(|a| a.iter_mut().collect()).collect();
        let mut batch: Vec<&mut [&mut Tensor]> =
            views.iter_mut().map(|v| v.as_mut_slice()).collect();
        let (reports, batched) = counting(|| {
            program
                .launch_batch_with(&mut batch, &DeviceModel::rtx3090(), Mode::Execute, &two)
                .expect("launches")
        });
        assert_eq!(batched.2, (0, 0, 3), "{label}: batch served by the tape");
        assert_eq!(
            batched.0,
            (3 * full.0 .0, 3 * full.0 .1),
            "{label}: batch dots"
        );
        assert_eq!(
            batched.1,
            (3 * full.1 .0, 3 * full.1 .1),
            "{label}: batch sites"
        );
        for (r, request) in reports.iter().zip(&owned) {
            assert_eq!(r, &want_report, "{label}: batched report");
            assert_bits(request, &outs[0], &format!("{label}: batched"));
        }
    }
}

/// Clean operands and planted ones.
fn check_both(kernel: &Kernel, grid: &[usize], args: &[Tensor], label: &str, seed: u64) {
    check(kernel, grid, args, label);
    check(
        kernel,
        grid,
        &planted(args, seed),
        &format!("{label}, planted"),
    );
}

/// The separable-site generator: row runs and per-lane sites, row and
/// column masks, f16 outputs, loops, and every staged per-lane form —
/// `Side::Duplicates` scatters onto repeated coordinates.
#[test]
fn row_site_kernels_replay_like_full_launches() {
    let mut rng = TestRng::deterministic("value tape");
    let cases = case_strategy();
    let mut sides = Vec::new();
    for i in 0..32 {
        let c = cases.generate(&mut rng);
        let args = build_args(&c).to_vec();
        let kernel = build_kernel(&c);
        let grid = [c.gx, c.gy];
        // Some cases address out of bounds on purpose: nothing to replay.
        let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
        let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).expect("compiles");
        let mut probe = args.clone();
        let mut refs: Vec<&mut Tensor> = probe.iter_mut().collect();
        let ok = program
            .launch_with(
                &mut refs,
                &DeviceModel::rtx3090(),
                Mode::Execute,
                &LaunchOptions::sequential(),
            )
            .is_ok();
        if ok {
            sides.push((c.side, c.f16, c.mask));
            check_both(&kernel, &grid, &args, &format!("case {i}: {c:?}"), i);
        }
    }
    assert!(sides.iter().any(|s| s.0 == Side::Duplicates), "{sides:?}");
    assert!(sides.iter().any(|s| s.1), "an f16 case: {sides:?}");
}

/// Tiled kernels shaped like the code generator's output: indirect rows,
/// column masks, atomics, reduction loops with stream-cached invariants.
#[test]
fn tiled_kernels_replay_like_full_launches() {
    let mut rng = TestRng::deterministic("value tape, tiled");
    let specs = spec_strategy();
    for i in 0..16 {
        let spec = specs.generate(&mut rng);
        let args = spec.tensors(i);
        check_both(
            &spec.build(),
            &[spec.gx, spec.gy],
            &args,
            &format!("tiled {i}"),
            100 + i,
        );
    }
}

/// The paper's shapes: the conv's masked gather and scatter, the tensor
/// product's weight tile loaded once per shard, the BlockGroupCOO A tile
/// loaded once per row of instances (exact-product dots while clean).
#[test]
fn paper_shaped_kernels_replay_like_full_launches() {
    let groups = 9;
    check_both(
        &conv_shaped_kernel(groups),
        &[1, groups],
        &conv_shaped_args(groups, 11, 4),
        "conv",
        7,
    );
    check_both(
        &tp_shaped_kernel(groups),
        &[1, groups],
        &tp_shaped_args(groups, 13),
        "tp",
        8,
    );
    let (groups, g, xtiles) = (7, 3, 3);
    check_both(
        &block_group_kernel(groups, g, xtiles),
        &[xtiles, groups],
        &block_group_args(groups, g, xtiles, 5),
        "block group",
        9,
    );
}

/// The CSR row sum: a dynamic loop over each row's nonzeros, whose trip
/// counts the script records — one row empty, so one trip count is 0.
#[test]
fn a_dynamic_loop_replays_like_the_seed() {
    let (grid, args) = csr_rows_args();
    check_both(&csr_rows_kernel(), &grid, &args, "csr_rows", 10);
}
