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
//! non-integral and huge terms, and out-of-bounds lanes.

use insum_gpu::reference::launch_reference;
use insum_gpu::{
    site_dispatch_counts, DeviceModel, GpuError, KernelReport, LaunchOptions, Mode, Program,
};
use insum_kernel::{BinOp, Kernel, KernelBuilder, Reg};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;
use std::sync::Mutex;

/// The dispatch counters are process-wide and the tests of this binary
/// run on parallel threads: every optimized launch happens under this
/// lock.
static COUNTERS: Mutex<()> = Mutex::new(());

/// A sharded launch shares one `Program` between its shard threads and
/// the program cache hands one out to many; blocks, which are `!Send`,
/// must stay out of it. Checked where it is cheapest: at compile time.
const _: fn() = || {
    fn shared_across_threads<T: Send + Sync>() {}
    shared_across_threads::<Program>();
};

/// SplitMix64: the test's own value stream, driven by one generated seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum MaskKind {
    None,
    /// `expand_dims(row < valid, 1)`; the rows it switches off gather
    /// garbage bases.
    Rows,
    /// `expand_dims(col < m - 3, 0)`.
    Cols,
    /// The `And` of the two: a full 2-D mask, which declines.
    Both,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Columns {
    /// `pid0 · m + arange(m)`.
    Consecutive,
    /// `2 · (pid0 · m + arange(m))`: separable, but not a run.
    Strided,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Poison {
    None,
    /// A scalar term of 0.5: offsets truncate per lane.
    Fraction,
    /// `+ 2^53` early in the tree and `- 2^53` at its root: the f64 adds
    /// round, so folding the terms would change addresses.
    Huge,
}

#[derive(Debug, Clone, Copy)]
struct Case {
    n: usize,
    m: usize,
    gx: usize,
    gy: usize,
    f16: bool,
    row_terms: usize,
    col_terms: usize,
    /// Add each further term on the left (`t + acc`) instead of the
    /// right.
    left_assoc: bool,
    mask: MaskKind,
    columns: Columns,
    poison: Poison,
    /// Constant scalar term: moves every row off its sector boundary.
    misalign: usize,
    /// Load inside a two-trip loop (the offset tree is stream-cached or
    /// re-executed per trip) instead of at top level.
    in_loop: bool,
    /// Per-instance block arithmetic between the offset adds and the
    /// accesses: with `gx == 1` the column term is a per-instance register
    /// whose only IR reader is the add, so its pool buffer is recycled
    /// before the access unless liveness sees the site's read.
    filler: bool,
    sorted_rows: bool,
    seed: u64,
}

impl Case {
    /// Distinct row ids the `IDX` parameter draws from.
    fn row_ids(&self) -> usize {
        (self.gy * self.n).div_ceil(2).max(2)
    }

    /// Elements per addressed row: the widest column offset plus slack
    /// for the constant terms.
    fn row_stride(&self) -> usize {
        let span = self.gx * self.m;
        let span = match self.columns {
            Columns::Consecutive => span,
            Columns::Strided => 2 * span,
        };
        span + 16
    }

    fn data_len(&self) -> usize {
        self.row_ids() * self.row_stride() + 16
    }

    /// Rows below this are active under a row mask.
    fn valid_rows(&self) -> usize {
        (self.gy * self.n).saturating_sub(3).max(1)
    }

    fn row_masked(&self) -> bool {
        matches!(self.mask, MaskKind::Rows | MaskKind::Both)
    }
}

/// `OUT_S[off] = v; OUT_A[off] += v` with `v = SRC[off]` (accumulated over
/// two trips when `in_loop`), each access with its own offset tree.
fn build_kernel(c: &Case) -> Kernel {
    let mut b = KernelBuilder::new("row_sites");
    let idx = b.input("IDX");
    let src = b.input("SRC");
    let out_s = b.output("OUT_S");
    let out_a = b.output("OUT_A");
    let (n, m) = (c.n, c.m);

    let pid0 = b.program_id(0);
    let pid1 = b.program_id(1);
    let n_c = b.constant(n as f64);
    let row0 = b.binary(BinOp::Mul, pid1, n_c);
    let lanes_n = b.arange(n);
    let rows_i = b.binary(BinOp::Add, row0, lanes_n);
    let row_ids = b.load(idx, rows_i, None, 0.0);
    let stride = b.constant(c.row_stride() as f64);
    let row_base = b.binary(BinOp::Mul, row_ids, stride);

    let m_c = b.constant(m as f64);
    let col0 = b.binary(BinOp::Mul, pid0, m_c);
    let lanes_m = b.arange(m);
    let mut cols = b.binary(BinOp::Add, col0, lanes_m);
    if c.columns == Columns::Strided {
        let two = b.constant(2.0);
        cols = b.binary(BinOp::Mul, cols, two);
    }

    let row_mask = c.row_masked().then(|| {
        let valid = b.constant(c.valid_rows() as f64);
        let on = b.binary(BinOp::Lt, rows_i, valid);
        b.expand_dims(on, 1)
    });
    let col_mask = matches!(c.mask, MaskKind::Cols | MaskKind::Both).then(|| {
        let valid = b.constant(m.saturating_sub(3).max(1) as f64);
        let on = b.binary(BinOp::Lt, lanes_m, valid);
        b.expand_dims(on, 0)
    });
    let mask = match (row_mask, col_mask) {
        (Some(r), Some(cm)) => Some(b.binary(BinOp::And, r, cm)),
        (r, cm) => r.or(cm),
    };

    // A fresh offset tree per access: the recognised form needs the
    // offset register to have one reader.
    let offsets = |b: &mut KernelBuilder| -> Reg {
        let mut row_side = vec![b.expand_dims(row_base, 1)];
        if c.row_terms >= 2 {
            row_side.push(b.constant(c.misalign as f64));
        }
        if c.row_terms >= 3 {
            let four = b.full(vec![n], 4.0);
            row_side.push(b.expand_dims(four, 1));
        }
        let mut col_side = vec![b.expand_dims(cols, 0)];
        if c.col_terms >= 2 {
            let one = b.full(vec![m], 1.0);
            col_side.push(b.expand_dims(one, 0));
        }
        if c.col_terms >= 3 {
            let two = b.full(vec![m], 2.0);
            col_side.push(b.expand_dims(two, 0));
        }
        let mut acc = b.binary(BinOp::Add, row_side[0], col_side[0]);
        match c.poison {
            Poison::None => {}
            Poison::Fraction => {
                let half = b.constant(0.5);
                acc = b.binary(BinOp::Add, acc, half);
            }
            Poison::Huge => {
                let huge = b.constant(2f64.powi(53));
                acc = b.binary(BinOp::Add, acc, huge);
            }
        }
        // Alternate the remaining terms so row and column terms mix in
        // the association.
        let mut rest = Vec::new();
        for i in 1..3 {
            rest.extend(row_side.get(i));
            rest.extend(col_side.get(i));
        }
        for t in rest {
            acc = if c.left_assoc {
                b.binary(BinOp::Add, t, acc)
            } else {
                b.binary(BinOp::Add, acc, t)
            };
        }
        if c.poison == Poison::Huge {
            let back = b.constant(-(2f64.powi(53)));
            acc = b.binary(BinOp::Add, acc, back);
        }
        acc
    };
    let filler = |b: &mut KernelBuilder| -> Option<Reg> {
        c.filler.then(|| {
            let r = b.expand_dims(rows_i, 1);
            let l = b.expand_dims(lanes_m, 0);
            let z1 = b.binary(BinOp::Mul, r, l);
            let z2 = b.binary(BinOp::Mul, z1, z1);
            b.binary(BinOp::Add, z2, z1)
        })
    };

    let value = if c.in_loop {
        let acc = b.full(vec![n, m], 0.0);
        b.begin_loop(0, 2, 1);
        let off = offsets(&mut b);
        let extra = filler(&mut b);
        let v = b.load(src, off, mask, 0.25);
        b.binary_into(acc, BinOp::Add, acc, v);
        if let Some(z) = extra {
            b.binary_into(acc, BinOp::Add, acc, z);
        }
        b.end_loop();
        acc
    } else {
        let off = offsets(&mut b);
        let extra = filler(&mut b);
        let v = b.load(src, off, mask, 0.25);
        match extra {
            Some(z) => b.binary(BinOp::Add, v, z),
            None => v,
        }
    };
    let off_s = offsets(&mut b);
    let off_a = offsets(&mut b);
    let extra = filler(&mut b);
    b.store(out_s, off_s, value, mask);
    let value_a = match extra {
        Some(z) => b.binary(BinOp::Add, value, z),
        None => value,
    };
    b.atomic_add(out_a, off_a, value_a, mask);
    b.build()
}

/// `(IDX, SRC, OUT_S, OUT_A)` for a case. Inactive rows gather a base far
/// outside the tensors.
fn build_args(c: &Case) -> [Tensor; 4] {
    let mut rng = Rng(c.seed);
    let rows = c.gy * c.n;
    let mut ids: Vec<i64> = (0..rows).map(|_| rng.below(c.row_ids()) as i64).collect();
    if c.sorted_rows {
        ids.sort_unstable();
    }
    if c.row_masked() {
        for id in &mut ids[c.valid_rows()..] {
            *id = 1 << 20;
        }
    }
    let dtype = if c.f16 { DType::F16 } else { DType::F32 };
    let len = c.data_len();
    let data = |rng: &mut Rng| {
        let values = (0..len)
            .map(|_| (rng.below(4096) as f32 - 2048.0) * 0.0625)
            .collect();
        Tensor::from_vec_with(vec![len], values, dtype).expect("length matches shape")
    };
    [
        Tensor::from_indices(vec![rows], ids).expect("length matches shape"),
        data(&mut rng),
        data(&mut rng),
        data(&mut rng),
    ]
}

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
    let guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
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
    drop(guard);
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
    // One 1-D metadata gather and three 2-D accesses.
    assert_eq!(total, 4, "{label}");
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
    fn separable_sites_match_the_seed_interpreter(
        (ni, mi) in (0usize..5, 0usize..4),
        (gx, gy) in (1usize..4, 1usize..4),
        (row_terms, col_terms) in (1usize..4, 1usize..4),
        (mask, columns, poison) in (0usize..4, 0usize..6, 0usize..8),
        flags in 0u32..64,
        misalign in 0usize..8,
        seed in 0u64..u64::MAX,
    ) {
        // `n · m < 32` (one partial warp) when `(n, m)` is `(1 | 2, 8)`.
        let n = [1, 2, 4, 16, 32][ni];
        let m = [8, 16, 32, 64][mi];
        let c = Case {
            n,
            m,
            gx,
            gy,
            f16: flags & 1 != 0,
            row_terms,
            col_terms,
            left_assoc: flags & 2 != 0,
            mask: [MaskKind::None, MaskKind::Rows, MaskKind::Cols, MaskKind::Both][mask],
            columns: if columns == 0 { Columns::Strided } else { Columns::Consecutive },
            poison: match poison {
                0 => Poison::Fraction,
                1 => Poison::Huge,
                _ => Poison::None,
            },
            misalign: if row_terms >= 2 { misalign } else { 0 },
            in_loop: flags & 4 != 0,
            filler: flags & 8 != 0,
            sorted_rows: flags & 16 != 0,
            seed,
        };
        check_case(&c);
    }
}

fn plain(n: usize, m: usize, gx: usize, gy: usize) -> Case {
    Case {
        n,
        m,
        gx,
        gy,
        f16: false,
        row_terms: 1,
        col_terms: 1,
        left_assoc: false,
        mask: MaskKind::None,
        columns: Columns::Consecutive,
        poison: Poison::None,
        misalign: 0,
        in_loop: false,
        filler: false,
        sorted_rows: false,
        seed: 7,
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
}

/// The grouped sparse convolution's shape (Table 1): one instance per
/// group of `LIVE` kernel-map pairs padded to a 16-row tile, so the
/// gather of input rows and the scatter of output rows carry a row mask
/// with 3 of 16 rows on, the weight tile is an unmasked full-width load,
/// A is an in-kernel product (canonical `tl.dot`, 16 wide), and grid
/// axis 0 has one member — every row of instances is a single instance.
/// `IDX` holds the input row ids, the output row ids and the weight
/// offset ids, one section each.
fn conv_shaped_kernel(groups: usize) -> Kernel {
    const T: usize = 16;
    const LIVE: usize = 3;
    let mut b = KernelBuilder::new("conv_shaped");
    let idx = b.input("IDX");
    let src = b.input("IN");
    let weight = b.input("WEIGHT");
    let out = b.output("OUT");
    let lanes = b.arange(T);
    let tile = b.constant(T as f64);
    let group = b.program_id(1);
    let live = b.constant(LIVE as f64);
    let on = b.binary(BinOp::Lt, lanes, live);
    let on_rows = b.expand_dims(on, 1);
    let slot0 = b.binary(BinOp::Mul, group, tile);
    let slots = b.binary(BinOp::Add, slot0, lanes);
    let cols = b.expand_dims(lanes, 0);
    let acc = b.full(vec![T, T], 0.0);
    // Two R tiles of 16 input channels.
    let r_tile = b.begin_loop(0, 2, 1);
    let scale = b.load(src, slots, Some(on), 0.0);
    let in_ids = b.load(idx, slots, Some(on), 0.0);
    let two_tiles = b.constant(2.0 * T as f64);
    let in_base = b.binary(BinOp::Mul, in_ids, two_tiles);
    let r0 = b.binary(BinOp::Mul, r_tile, tile);
    let in_base = b.binary(BinOp::Add, in_base, r0);
    let in_rows = b.expand_dims(in_base, 1);
    let in_off = b.binary(BinOp::Add, in_rows, cols);
    let x = b.load(src, in_off, Some(on_rows), 0.0);
    let scale_rows = b.expand_dims(scale, 1);
    let a = b.binary(BinOp::Mul, scale_rows, x);
    let z_at = b.constant((2 * groups * T) as f64);
    let z_at = b.binary(BinOp::Add, z_at, group);
    let z = b.load(idx, z_at, None, 0.0);
    let w_size = b.constant((2 * T * T) as f64);
    let w0 = b.binary(BinOp::Mul, z, w_size);
    let r_rows = b.binary(BinOp::Add, r0, lanes);
    let w_rows = b.binary(BinOp::Mul, r_rows, tile);
    let w_rows = b.binary(BinOp::Add, w0, w_rows);
    let w_rows = b.expand_dims(w_rows, 1);
    let w_off = b.binary(BinOp::Add, w_rows, cols);
    let w = b.load(weight, w_off, None, 0.0);
    let d = b.dot(a, w);
    b.binary_into(acc, BinOp::Add, acc, d);
    b.end_loop();
    let section = b.constant((groups * T) as f64);
    let out_slots = b.binary(BinOp::Add, slots, section);
    let out_ids = b.load(idx, out_slots, Some(on), 0.0);
    let out_base = b.binary(BinOp::Mul, out_ids, tile);
    let out_rows = b.expand_dims(out_base, 1);
    let out_off = b.binary(BinOp::Add, out_rows, cols);
    b.atomic_add(out, out_off, acc, Some(on_rows));
    b.build()
}

/// Sharded against sequential (and both against the seed interpreter)
/// on the conv shape: the launch whose shards each build, use and drop
/// their own register file, whose narrow dots run the tile ladder, and
/// whose single-member rows record no level-1 stream.
#[test]
fn conv_shaped_launch_shards_like_it_runs_sequentially() {
    let (groups, voxels, offsets) = (9usize, 11usize, 4usize);
    let mut rng = Rng(0xc017);
    let mut ids = Vec::with_capacity(2 * groups * 16 + groups);
    for _ in 0..2 * groups * 16 {
        ids.push(rng.below(voxels) as i64);
    }
    for _ in 0..groups {
        ids.push(rng.below(offsets) as i64);
    }
    let mut data = |len: usize| {
        let values = (0..len)
            .map(|_| (rng.below(4096) as f32 - 2048.0) * 0.001)
            .collect();
        Tensor::from_vec(vec![len], values).expect("length matches shape")
    };
    let args = [
        Tensor::from_indices(vec![ids.len()], ids).expect("length matches shape"),
        data((voxels.max(groups) * 32).max(groups * 16)),
        data(offsets * 32 * 16),
        Tensor::zeros(vec![voxels * 16]),
    ];
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
        let guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let before = site_dispatch_counts();
        let (mut s1, mut o1) = (src.clone(), Tensor::zeros(vec![n * m]));
        let got = program
            .launch(&mut [&mut s1, &mut o1], &device, Mode::Execute)
            .expect("launches");
        let after = site_dispatch_counts();
        drop(guard);
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
