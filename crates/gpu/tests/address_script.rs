//! Address scripts (`program.rs`, analysis 7): the second launch in a row
//! against the same I32 arguments records what its value sites resolved,
//! later ones replay only the value slice — and none of it may be
//! observable. Every launch here is held, bit for bit, to the seed
//! interpreter (output tensors, every `KernelStats` field, the simulated
//! times): launches 1–4 of one key sequential, sharded and batched, in
//! both modes; new float operands (non-finite ones included) under a
//! ready key; metadata changed through copy-on-write; alternating keys; a
//! changed device model; the programs that decline; a launch that fails.

use insum_gpu::reference::launch_reference;
use insum_gpu::{
    dot_dispatch_counts, script_dispatch_counts, site_dispatch_counts, DeviceModel, GpuError, Isa,
    KernelReport, LaunchOptions, Mode, Program, ReplayDecline,
};
use insum_kernel::{Kernel, KernelBuilder};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;

mod common;
use common::{
    block_group_args, block_group_kernel, build_args, build_kernel, case_strategy,
    conv_shaped_args, conv_shaped_kernel, csr_rows_args, csr_rows_kernel, plain, spec_strategy,
    tp_shaped_args, tp_shaped_kernel, Case, MaskKind, Side,
};

type Outcome = (Result<KernelReport, GpuError>, Vec<Tensor>);

fn seed(
    kernel: &Kernel,
    grid: &[usize],
    args: &[Tensor],
    device: &DeviceModel,
    mode: Mode,
) -> Outcome {
    let mut owned = args.to_vec();
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = launch_reference(kernel, grid, &mut refs, device, mode);
    (report, owned)
}

fn launch(
    program: &Program,
    args: &[Tensor],
    device: &DeviceModel,
    mode: Mode,
    opts: &LaunchOptions,
) -> Outcome {
    let mut owned = args.to_vec();
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let report = program.launch_with(&mut refs, device, mode, opts);
    (report, owned)
}

fn assert_same(got: &Outcome, want: &Outcome, label: &str) {
    assert_eq!(got.0, want.0, "{label}: report");
    if want.0.is_ok() {
        for (p, (g, w)) in got.1.iter().zip(&want.1).enumerate() {
            assert!(g.bit_eq(w), "{label}: parameter {p} bits");
        }
    }
}

fn compile(kernel: &Kernel, grid: &[usize], args: &[Tensor]) -> Program {
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    Program::compile(kernel, grid, &lens, &dtypes).expect("kernel compiles")
}

fn sequential() -> LaunchOptions {
    LaunchOptions::sequential()
}

fn sharded() -> LaunchOptions {
    let mut opts = LaunchOptions::with_threads(2);
    opts.min_parallel_instances = 2;
    opts
}

/// `(full, recorded, replayed)` launches `f` caused.
fn counting<T>(f: impl FnOnce() -> T) -> (T, (u64, u64, u64)) {
    let (out, (_, _, launches)) = counting_all(f);
    (out, launches)
}

/// Every dispatch counter of this thread: `(dots, sites, launches)`.
type Counts = ((u64, u64), (u64, u64), (u64, u64, u64));

fn all_counts() -> Counts {
    (
        dot_dispatch_counts(),
        site_dispatch_counts(),
        script_dispatch_counts(),
    )
}

/// What `f` added to every dispatch counter of this thread.
fn counting_all<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    let (d, s, l) = all_counts();
    let out = f();
    let (d2, s2, l2) = all_counts();
    let counts = (
        (d2.0 - d.0, d2.1 - d.1),
        (s2.0 - s.0, s2.1 - s.1),
        (l2.0 - l.0, l2.1 - l.1, l2.2 - l.2),
    );
    (out, counts)
}

/// Launches 1–4 of one key under every mix of sequential and sharded
/// scheduling, then Analytic launches and a batch under the ready key,
/// then a batch and an Analytic-only sequence on fresh programs: every
/// result equals the seed interpreter's, and the launches split into
/// full / recorded / replayed exactly as the policy says.
fn check_relaunches(kernel: &Kernel, grid: &[usize], args: &[Tensor], label: &str) {
    let device = DeviceModel::rtx3090();
    let want_x = seed(kernel, grid, args, &device, Mode::Execute);
    let want_a = seed(kernel, grid, args, &device, Mode::Analytic);
    let scripted = want_x.0.is_ok() && compile(kernel, grid, args).replay_decline().is_none();

    let (seq, par) = (sequential(), sharded());
    for (name, schedule) in [
        ("sequential", [&seq, &seq, &seq, &seq]),
        ("sharded", [&par, &par, &par, &par]),
        ("recorded sharded", [&seq, &par, &seq, &par]),
        ("recorded sequential", [&par, &seq, &par, &seq]),
    ] {
        let program = compile(kernel, grid, args);
        let ((), counts) = counting(|| {
            for (i, opts) in schedule.iter().enumerate() {
                let got = launch(&program, args, &device, Mode::Execute, opts);
                assert_same(&got, &want_x, &format!("{label}: {name} launch {}", i + 1));
            }
        });
        if scripted {
            assert_eq!(counts, (1, 1, 2), "{label}: {name}");
            assert!(program.script_bytes().is_some(), "{label}: {name}");
        } else {
            assert_eq!(counts, (4, 0, 0), "{label}: {name}");
            assert_eq!(program.script_bytes(), None, "{label}: {name}");
        }
        let ((), counts) = counting(|| {
            for opts in [&seq, &par] {
                let got = launch(&program, args, &device, Mode::Analytic, opts);
                assert_same(&got, &want_a, &format!("{label}: {name} analytic"));
            }
            check_batch(
                &program,
                args,
                &device,
                &want_x,
                &format!("{label}: {name}"),
            );
        });
        assert_eq!(
            counts,
            if scripted { (0, 0, 5) } else { (5, 0, 0) },
            "{label}: {name} under a ready key"
        );
    }

    // The requests of one batch are consecutive launches of one key.
    let program = compile(kernel, grid, args);
    let ((), counts) = counting(|| check_batch(&program, args, &device, &want_x, label));
    if !scripted {
        assert_eq!(counts, (3, 0, 0), "{label}: fresh batch");
    } else {
        // Two workers share the three requests, so which launch records
        // is a race — but none may replay before one has.
        assert_eq!(counts.0 + counts.1 + counts.2, 3, "{label}: fresh batch");
        assert!(
            counts.0 >= 1 && counts.2 <= 1,
            "{label}: fresh batch {counts:?}"
        );
    }

    // Analytic launches never earn a recording.
    let program = compile(kernel, grid, args);
    let ((), counts) = counting(|| {
        for _ in 0..3 {
            let got = launch(&program, args, &device, Mode::Analytic, &seq);
            assert_same(&got, &want_a, &format!("{label}: analytic only"));
        }
    });
    assert_eq!(counts, (3, 0, 0), "{label}: analytic only");
}

/// Three requests through `launch_batch_with` (two workers).
fn check_batch(
    program: &Program,
    args: &[Tensor],
    device: &DeviceModel,
    want: &Outcome,
    label: &str,
) {
    let (reports, owned) = launch_batch(program, args, device, 3, &sharded());
    match (&reports, &want.0) {
        (Ok(reports), Ok(want_report)) => {
            for (r, request) in reports.iter().zip(&owned) {
                assert_eq!(r, want_report, "{label}: batched report");
                for (p, (g, w)) in request.iter().zip(&want.1).enumerate() {
                    assert!(g.bit_eq(w), "{label}: batched parameter {p} bits");
                }
            }
        }
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}: batched error"),
        _ => panic!("{label}: batched launch and seed disagree on success"),
    }
}

/// `n` copies of `args` launched as one Execute batch, and the copies.
fn launch_batch(
    program: &Program,
    args: &[Tensor],
    device: &DeviceModel,
    n: usize,
    opts: &LaunchOptions,
) -> (Result<Vec<KernelReport>, GpuError>, Vec<Vec<Tensor>>) {
    let mut owned: Vec<Vec<Tensor>> = (0..n).map(|_| args.to_vec()).collect();
    let mut views: Vec<Vec<&mut Tensor>> =
        owned.iter_mut().map(|a| a.iter_mut().collect()).collect();
    let mut batch: Vec<&mut [&mut Tensor]> = views.iter_mut().map(|v| v.as_mut_slice()).collect();
    let reports = program.launch_batch_with(&mut batch, device, Mode::Execute, opts);
    (reports, owned)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The separable-site generator of `row_sites.rs`: row runs, per-lane
    /// declines, masks of both kinds, loops, out-of-range garbage in
    /// masked-off rows, and each staged per-lane form.
    #[test]
    fn row_site_kernels_relaunch_like_they_launch(c in case_strategy()) {
        let args = build_args(&c);
        check_relaunches(&build_kernel(&c), &[c.gx, c.gy], &args, &format!("{c:?}"));
    }

    /// The tiled generator of `program_properties.rs`: affine and
    /// indirect rows, stores and atomics, invariant loads trapped in a
    /// reduction loop.
    #[test]
    fn tiled_kernels_relaunch_like_they_launch(spec in spec_strategy(), seed in 0u64..1000) {
        let args = spec.tensors(seed);
        check_relaunches(&spec.build(), &[spec.gx, spec.gy], &args, "tiled");
    }
}

/// The paper's three shapes: single-instance rows with a masked gather
/// and scatter (conv), a per-lane gathered value load and a weight tile
/// loaded once per shard (tensor product), and an A tile served from the
/// per-row stream cache under a two-axis grid (BlockGroupCOO).
#[test]
fn paper_shaped_kernels_relaunch_like_they_launch() {
    let groups = 9;
    let args = conv_shaped_args(groups, 11, 4);
    check_relaunches(
        &conv_shaped_kernel(groups),
        &[1, groups],
        &args,
        "conv shape",
    );
    let args = tp_shaped_args(groups, 13);
    check_relaunches(&tp_shaped_kernel(groups), &[1, groups], &args, "tp shape");
    let (groups, g, xtiles) = (7, 3, 3);
    let args = block_group_args(groups, g, xtiles, 5);
    let kernel = block_group_kernel(groups, g, xtiles);
    check_relaunches(&kernel, &[xtiles, groups], &args, "block-group shape");
}

/// Each form the per-lane path stages its lanes as — a scalar, a row
/// cut short by a prefix mask, lanes under a non-prefix mask, a broadcast
/// offset and mask, duplicate-address atomics into f16 — is recorded and
/// replayed to the seed's bits.
#[test]
fn staged_lane_forms_relaunch_like_they_launch() {
    for side in Side::ALL {
        for f16 in [false, true] {
            let c = Case {
                side,
                f16,
                ..plain(4, 16, 3, 2)
            };
            let (kernel, args) = (build_kernel(&c), build_args(&c));
            let program = compile(&kernel, &[c.gx, c.gy], &args);
            assert_eq!(program.replay_decline(), None, "{c:?}");
            check_relaunches(&kernel, &[c.gx, c.gy], &args, &format!("{c:?}"));
        }
    }
}

/// Row bases gathered through metadata — a permutation no progression
/// describes — are listed in the script, one word each, exactly sized,
/// and replay to the seed's bits.
#[test]
fn gathered_rows_are_listed_at_their_exact_size() {
    let c = Case {
        row_terms: 2,
        misalign: 5,
        ..plain(32, 16, 1, 8)
    };
    let kernel = build_kernel(&c);
    let args = build_args(&c).to_vec();
    check_relaunches(&kernel, &[c.gx, c.gy], &args, "gathered rows");
    let program = compile(&kernel, &[c.gx, c.gy], &args);
    make_ready(&program, &args, &DeviceModel::rtx3090());
    // Per instance: one segment start and three value sites (load, store,
    // atomic) of a header and thirty-two rows each.
    assert_eq!(program.script_bytes(), Some(4 * c.gy * (1 + 3 * 33)));
}

/// Launch `program` until its script for `args` is ready.
fn make_ready(program: &Program, args: &[Tensor], device: &DeviceModel) {
    let ((), counts) = counting(|| {
        for _ in 0..2 {
            launch(program, args, device, Mode::Execute, &sequential())
                .0
                .expect("launches");
        }
    });
    assert_eq!(counts, (1, 1, 0));
}

/// New float operands under a ready key — fresh values, then a NaN, an
/// infinity of each sign and a negative zero planted where they reach a
/// `tl.dot` — replay to exactly what a first launch of a fresh program
/// computes, and the dot kernel follows the data: exact-product while
/// the operands are finite, canonical once they are not.
#[test]
fn new_float_operands_replay_like_a_fresh_launch() {
    let device = DeviceModel::rtx3090();
    let (groups, g, xtiles) = (6, 2, 2);
    let kernel = block_group_kernel(groups, g, xtiles);
    let grid = [xtiles, groups];
    let args = block_group_args(groups, g, xtiles, 4);
    let program = compile(&kernel, &grid, &args);
    make_ready(&program, &args, &device);

    let with = |param: usize, at: usize, value: f32| {
        let mut changed = args.clone();
        changed[param].data_mut()[at] = value;
        changed
    };
    let mut fresh_values = args.clone();
    for v in fresh_values[2].data_mut() {
        *v = 0.5 - *v;
    }
    let finite = Isa::detect() != Isa::Portable;
    for (what, operands, exact) in [
        ("new values", fresh_values, finite),
        ("-0.0 in AV", with(1, 5, -0.0), finite),
        ("NaN in B", with(2, 40, f32::NAN), false),
        ("+Inf in AV", with(1, 300, f32::INFINITY), false),
        ("-Inf in B", with(2, 7, f32::NEG_INFINITY), false),
    ] {
        for opts in [sequential(), sharded()] {
            let dots = dot_dispatch_counts();
            let (got, counts) =
                counting(|| launch(&program, &operands, &device, Mode::Execute, &opts));
            let dots_after = dot_dispatch_counts();
            assert_eq!(counts, (0, 0, 1), "{what}: served from the script");
            let ran = (dots_after.0 - dots.0, dots_after.1 - dots.1);
            assert!(
                if exact {
                    ran.0 > 0 && ran.1 == 0
                } else {
                    ran.0 == 0 && ran.1 > 0
                },
                "{what}: dots ran (exact, canonical) = {ran:?}"
            );
            let fresh = launch(
                &compile(&kernel, &grid, &operands),
                &operands,
                &device,
                Mode::Execute,
                &opts,
            );
            assert_same(&got, &fresh, what);
            assert_same(
                &got,
                &seed(&kernel, &grid, &operands, &device, Mode::Execute),
                what,
            );
        }
    }
}

/// The counters are the calling thread's: launches made on another
/// thread — sequential, sharded, recording, replaying and batched —
/// count there and leave this thread's counters where they were.
#[test]
fn launches_on_another_thread_leave_this_threads_counts() {
    let device = DeviceModel::rtx3090();
    let (groups, g, xtiles) = (6, 2, 2);
    let kernel = block_group_kernel(groups, g, xtiles);
    let args = block_group_args(groups, g, xtiles, 4);
    let program = compile(&kernel, &[xtiles, groups], &args);
    let mine = all_counts();
    let ((), theirs) = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                counting_all(|| {
                    for opts in [sequential(), sharded(), sequential(), sharded()] {
                        launch(&program, &args, &device, Mode::Execute, &opts)
                            .0
                            .expect("launches");
                    }
                    launch_batch(&program, &args, &device, 3, &sharded())
                        .0
                        .expect("launches");
                })
            })
            .join()
            .expect("the launching thread finishes")
    });
    assert_eq!(all_counts(), mine, "this thread launched nothing");
    let (dots, sites, launches) = theirs;
    assert!(dots.0 + dots.1 > 0 && sites.0 > 0, "{theirs:?}");
    assert_eq!(launches, (1, 1, 5), "the launching thread counted each");
}

/// A batch counts what its requests dispatched, on the thread that
/// launched it. Eight requests at four threads run one sequential
/// request after another on each of four workers; under a ready key they
/// add exactly the dots, sites and launches of eight sequential replays,
/// so a worker whose tally went missing shows. On a fresh program which
/// request records is a race, but every Execute launch — full, recording
/// or replayed — runs every dot.
#[test]
fn a_batch_counts_what_its_requests_dispatch() {
    let device = DeviceModel::rtx3090();
    let (groups, g, xtiles) = (6, 2, 2);
    let kernel = block_group_kernel(groups, g, xtiles);
    let grid = [xtiles, groups];
    let args = block_group_args(groups, g, xtiles, 4);
    let program = compile(&kernel, &grid, &args);
    make_ready(&program, &args, &device);
    let ((), serial) = counting_all(|| {
        for _ in 0..8 {
            launch(&program, &args, &device, Mode::Execute, &sequential())
                .0
                .expect("launches");
        }
    });
    assert_eq!(serial.2, (0, 0, 8));
    assert!(
        serial.0 .0 + serial.0 .1 > 0 && serial.1 .0 > 0,
        "{serial:?}"
    );
    let four = LaunchOptions::with_threads(4);
    let (batch, batched) = counting_all(|| launch_batch(&program, &args, &device, 8, &four));
    assert_eq!(batched, serial, "a ready key");
    assert_eq!(batch.0.expect("launches").len(), 8);

    let fresh = compile(&kernel, &grid, &args);
    let (batch, batched) = counting_all(|| launch_batch(&fresh, &args, &device, 8, &four));
    batch.0.expect("launches");
    let (full, recorded, replayed) = batched.2;
    assert_eq!(full + recorded + replayed, 8, "a fresh program");
    assert_eq!(batched.0, serial.0, "a fresh program: every dot ran");
}

/// One metadata element written through `data_mut`: copy-on-write hands
/// the writer new storage, which is a new key — a miss, a recording on
/// its second launch, and results for the *changed* metadata throughout.
/// The untouched handle still owns the ready key until the new one
/// repeats.
#[test]
fn a_metadata_write_misses_and_records_again() {
    let device = DeviceModel::rtx3090();
    let groups = 9;
    let kernel = conv_shaped_kernel(groups);
    let grid = [1, groups];
    let args = conv_shaped_args(groups, 11, 4).to_vec();
    let program = compile(&kernel, &grid, &args);
    make_ready(&program, &args, &device);

    let mut changed = args.clone();
    {
        let ids = changed[0].data_mut();
        ids[1] = if ids[1] == 3.0 { 4.0 } else { 3.0 };
    }
    assert!(!changed[0].ptr_eq(&args[0]), "the write copied");
    let want_changed = seed(&kernel, &grid, &changed, &device, Mode::Execute);
    let want = seed(&kernel, &grid, &args, &device, Mode::Execute);
    assert!(
        !want_changed.1[3].bit_eq(&want.1[3]),
        "the edit gathers another input row"
    );

    let (got, counts) =
        counting(|| launch(&program, &changed, &device, Mode::Execute, &sequential()));
    assert_eq!(counts, (1, 0, 0), "new storage is a miss");
    assert_same(&got, &want_changed, "changed, launch 1");
    let (got, counts) = counting(|| launch(&program, &args, &device, Mode::Execute, &sequential()));
    assert_eq!(counts, (0, 0, 1), "the old key is still ready");
    assert_same(&got, &want, "original");
    for (i, expect) in [(1, 0, 0), (0, 1, 0), (0, 0, 1)].into_iter().enumerate() {
        let (got, counts) =
            counting(|| launch(&program, &changed, &device, Mode::Execute, &sequential()));
        assert_eq!(counts, expect, "changed, repeat {i}");
        assert_same(&got, &want_changed, "changed, repeated");
    }
    let (got, counts) = counting(|| launch(&program, &args, &device, Mode::Execute, &sequential()));
    assert_eq!(counts, (1, 0, 0), "displaced by a key that repeated");
    assert_same(&got, &want, "original, displaced");
}

/// Keys alternating A, B, A, B never see a second launch in a row: no
/// recording, no script — not even with one ready, which B's visits
/// must not displace.
#[test]
fn alternating_keys_never_record() {
    let device = DeviceModel::rtx3090();
    let c = plain(4, 16, 2, 3);
    let kernel = build_kernel(&c);
    let a = build_args(&c).to_vec();
    let mut b = a.clone();
    b[0] = Tensor::from_indices(
        vec![a[0].len()],
        a[0].data().iter().map(|&v| v as i64).collect(),
    )
    .expect("length matches shape");
    let want = seed(&kernel, &[c.gx, c.gy], &a, &device, Mode::Execute);

    let program = compile(&kernel, &[c.gx, c.gy], &a);
    let ((), counts) = counting(|| {
        for i in 0..8 {
            let args = if i % 2 == 0 { &a } else { &b };
            let got = launch(&program, args, &device, Mode::Execute, &sequential());
            assert_same(&got, &want, "alternating");
        }
    });
    assert_eq!(counts, (8, 0, 0));
    assert_eq!(program.script_bytes(), None);

    make_ready(&program, &a, &device);
    let ((), counts) = counting(|| {
        for i in 0..8 {
            let args = if i % 2 == 0 { &b } else { &a };
            let got = launch(&program, args, &device, Mode::Execute, &sequential());
            assert_same(&got, &want, "alternating around a ready key");
        }
    });
    assert_eq!(counts, (4, 0, 4));
}

/// The slot remembers keys by witnesses, not by clones. Storage freed and
/// handed out again — same size, very likely the same address — is a
/// first sighting, not a second; a tensor is freed with its caller's last
/// handle; and a sole owner still writes in place, even under a ready
/// key, which the write turns into a miss.
#[test]
fn the_slot_pins_no_argument() {
    let device = DeviceModel::rtx3090();
    let c = plain(4, 16, 2, 3);
    let kernel = build_kernel(&c);
    let a = build_args(&c).to_vec();
    let want = seed(&kernel, &[c.gx, c.gy], &a, &device, Mode::Execute);
    let fresh_metadata = || {
        Tensor::from_indices(
            vec![a[0].len()],
            a[0].data().iter().map(|&v| v as i64).collect(),
        )
        .expect("length matches shape")
    };

    let program = compile(&kernel, &[c.gx, c.gy], &a);
    let ((), counts) = counting(|| {
        for _ in 0..6 {
            let mut args = a.clone();
            args[0] = fresh_metadata();
            let got = launch(&program, &args, &device, Mode::Execute, &sequential());
            assert_same(&got, &want, "fresh storage");
        }
    });
    assert_eq!(counts, (6, 0, 0), "reused addresses are not sightings");

    let mut mine = fresh_metadata();
    let run = |mine: &Tensor| {
        let mut args = a.clone();
        args[0] = mine.clone();
        counting(|| launch(&program, &args, &device, Mode::Execute, &sequential()))
    };
    for expect in [(1, 0, 0), (0, 1, 0), (0, 0, 1)] {
        let (got, counts) = run(&mine);
        assert_eq!(counts, expect);
        assert_same(&got, &want, "a handle of mine");
    }
    let copies = Tensor::deep_copy_count();
    mine.data_mut()[0] += 0.0;
    assert_eq!(
        Tensor::deep_copy_count(),
        copies,
        "a ready key shares no storage"
    );
    let (got, counts) = run(&mine);
    assert_eq!(counts, (1, 0, 0), "written storage is new storage");
    assert_same(&got, &want, "after the write");
}

/// The report in a script is the recording device's: another device
/// model is another key.
#[test]
fn a_replaced_device_model_misses() {
    let device = DeviceModel::rtx3090();
    let slow = DeviceModel {
        l2_bw: device.l2_bw / 2.0,
        atomic_rate: device.atomic_rate / 3.0,
        ..device.clone()
    };
    let groups = 9;
    let kernel = tp_shaped_kernel(groups);
    let grid = [1, groups];
    let args = tp_shaped_args(groups, 13);
    let program = compile(&kernel, &grid, &args);
    make_ready(&program, &args, &device);
    for mode in [Mode::Execute, Mode::Analytic] {
        let (got, counts) = counting(|| launch(&program, &args, &slow, mode, &sequential()));
        assert_eq!(counts, (1, 0, 0), "{mode:?}");
        assert_same(
            &got,
            &seed(&kernel, &grid, &args, &slow, mode),
            "slow device",
        );
        let (got, counts) = counting(|| launch(&program, &args, &device, mode, &sequential()));
        assert_eq!(counts, (0, 0, 1), "{mode:?}: the ready key still answers");
        assert_same(
            &got,
            &seed(&kernel, &grid, &args, &device, mode),
            "same device",
        );
    }
}

/// Programs whose addresses are more than a function of their I32
/// arguments say why and never replay: an offset read from a float
/// parameter, a store into the metadata. A CSR-style dynamic loop, whose
/// trip counts the script records, replays.
#[test]
fn declining_programs_report_why_and_never_replay() {
    let device = DeviceModel::rtx3090();
    let (grid, csr_args) = csr_rows_args();
    let (ptr, vals) = (csr_args[0].clone(), csr_args[1].clone());
    let dyn_loop = (csr_rows_kernel(), grid.to_vec(), csr_args, None);

    // y[i] = vals[at[i]] with the positions stored as floats.
    let mut b = KernelBuilder::new("float_gather");
    let at = b.input("AT");
    let v = b.input("VALS");
    let y = b.output("Y");
    let lanes = b.arange(8);
    let pos = b.load(at, lanes, None, 0.0);
    let x = b.load(v, pos, None, 0.0);
    b.store(y, lanes, x, None);
    let float_address = (
        b.build(),
        vec![1],
        vec![
            Tensor::from_fn(vec![8], |i| ((i[0] * 5) % 12) as f32),
            vals.clone(),
            Tensor::zeros(vec![8]),
        ],
        Some(ReplayDecline::FloatAddress),
    );

    // ptr[i] += 1 next to a float copy.
    let mut b = KernelBuilder::new("bump_metadata");
    let p = b.output("PTR");
    let v = b.input("VALS");
    let y = b.output("Y");
    let lanes = b.arange(4);
    let one = b.full(vec![4], 1.0);
    b.atomic_add(p, lanes, one, None);
    let x = b.load(v, lanes, None, 0.0);
    b.store(y, lanes, x, None);
    let writes_metadata = (
        b.build(),
        vec![1],
        vec![ptr, vals, Tensor::zeros(vec![4])],
        Some(ReplayDecline::WritesMetadata),
    );

    for (kernel, grid, args, why) in [dyn_loop, float_address, writes_metadata] {
        let program = compile(&kernel, &grid, &args);
        assert_eq!(program.replay_decline(), why, "{}", kernel.name);
        let want = seed(&kernel, &grid, &args, &device, Mode::Execute);
        want.0.as_ref().expect("the seed interpreter launches it");
        let ((), counts) = counting(|| {
            for opts in [sequential(), sharded(), sequential(), sharded()] {
                let got = launch(&program, &args, &device, Mode::Execute, &opts);
                assert_same(&got, &want, &kernel.name);
            }
        });
        let replays = why.is_none();
        let want_counts = if replays { (1, 1, 2) } else { (4, 0, 0) };
        assert_eq!(counts, want_counts, "{}", kernel.name);
        assert_eq!(program.script_bytes().is_some(), replays, "{}", kernel.name);
    }
}

/// An out-of-bounds metadata entry fails every launch with the seed
/// interpreter's error — launch 2, which would have recorded, included —
/// and leaves no script behind.
#[test]
fn a_failing_launch_leaves_no_script() {
    let device = DeviceModel::rtx3090();
    let c = Case {
        mask: MaskKind::None,
        ..plain(4, 8, 1, 2)
    };
    let kernel = build_kernel(&c);
    let mut args = build_args(&c).to_vec();
    args[0] = Tensor::from_indices(vec![8], vec![0, 1, 0, 1, 0, 9999, 0, 0]).expect("8 row ids");
    let want = seed(&kernel, &[1, 2], &args, &device, Mode::Execute);
    assert!(matches!(want.0, Err(GpuError::OffsetOutOfBounds { .. })));
    let program = compile(&kernel, &[1, 2], &args);
    assert_eq!(program.replay_decline(), None);
    let ((), counts) = counting(|| {
        for opts in [sequential(), sequential(), sharded(), sequential()] {
            let got = launch(&program, &args, &device, Mode::Execute, &opts);
            assert_eq!(got.0, want.0);
        }
    });
    assert_eq!(counts, (2, 2, 0), "every second launch tries to record");
    assert_eq!(program.script_bytes(), None);
}
