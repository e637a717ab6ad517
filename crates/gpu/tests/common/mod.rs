//! Kernel and argument generators shared by the differential tests of
//! this crate: the separable-site cases of `row_sites.rs`, the tiled
//! kernels of `program_properties.rs`, and the paper-shaped kernels
//! (conv, tensor product, BlockGroupCOO) that `address_script.rs` also
//! relaunches. Each test binary uses its own subset.
#![allow(dead_code)]

use insum_kernel::{BinOp, Kernel, KernelBuilder, Reg};
use insum_tensor::{DType, Tensor};
use proptest::prelude::*;

/// SplitMix64: the test's own value stream, driven by one generated seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MaskKind {
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
pub enum Columns {
    /// `pid0 · m + arange(m)`.
    Consecutive,
    /// `2 · (pid0 · m + arange(m))`: separable, but not a run.
    Strided,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Poison {
    None,
    /// A scalar term of 0.5: offsets truncate per lane.
    Fraction,
    /// `+ 2^53` early in the tree and `- 2^53` at its root: the f64 adds
    /// round, so folding the terms would change addresses.
    Huge,
}

/// A 1-D load feeding a 1-D store or atomic, beside the 2-D accesses:
/// per-lane sites, whose lanes are staged as one row (a prefix of
/// consecutive elements) or as one row per lane. Every form sits at
/// `p₀ = 16 · pid0 + pid1`, which shifts by whole sectors along grid
/// axis 0 for f32 and f16 alike, so instance classes still form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Side {
    None,
    /// `OUT_S[p₀] = SRC[p₀]`: a scalar load and store.
    Scalar,
    /// `p₀ + arange(m)` under `lane < m - 3`: one row, cut short.
    Prefix,
    /// `p₀ + arange(m)` under `lane >= 2`: active lanes that are not a
    /// prefix, one row each.
    Suffix,
    /// A `[1]` offset broadcast over `m` lanes under `lane < m - 3`, stored
    /// at `p₀ + arange(m)` under a `[1]` mask that only `pid1 == 0` sets.
    Broadcast,
    /// `OUT_A[p₀ + lane % 3] += SRC[p₀ + lane]`: every address hit several
    /// times, into an f16 output when the case is f16.
    Duplicates,
}

impl Side {
    pub const ALL: [Side; 6] = [
        Side::None,
        Side::Scalar,
        Side::Prefix,
        Side::Suffix,
        Side::Broadcast,
        Side::Duplicates,
    ];
}

#[derive(Debug, Clone, Copy)]
pub struct Case {
    pub n: usize,
    pub m: usize,
    pub gx: usize,
    pub gy: usize,
    pub f16: bool,
    pub row_terms: usize,
    pub col_terms: usize,
    /// Add each further term on the left (`t + acc`) instead of the
    /// right.
    pub left_assoc: bool,
    pub mask: MaskKind,
    pub columns: Columns,
    pub poison: Poison,
    /// Constant scalar term: moves every row off its sector boundary.
    pub misalign: usize,
    /// Load inside a two-trip loop (the offset tree is stream-cached or
    /// re-executed per trip) instead of at top level.
    pub in_loop: bool,
    /// Per-instance block arithmetic between the offset adds and the
    /// accesses: with `gx == 1` the column term is a per-instance register
    /// whose only IR reader is the add, so its pool buffer is recycled
    /// before the access unless liveness sees the site's read.
    pub filler: bool,
    pub sorted_rows: bool,
    pub side: Side,
    pub seed: u64,
}

impl Case {
    /// Distinct row ids the `IDX` parameter draws from.
    pub fn row_ids(&self) -> usize {
        (self.gy * self.n).div_ceil(2).max(2)
    }

    /// Elements per addressed row: the widest column offset plus slack
    /// for the constant terms.
    pub fn row_stride(&self) -> usize {
        let span = self.gx * self.m;
        let span = match self.columns {
            Columns::Consecutive => span,
            Columns::Strided => 2 * span,
        };
        span + 16
    }

    pub fn data_len(&self) -> usize {
        self.row_ids() * self.row_stride() + 16
    }

    /// Rows below this are active under a row mask.
    pub fn valid_rows(&self) -> usize {
        (self.gy * self.n).saturating_sub(3).max(1)
    }

    pub fn row_masked(&self) -> bool {
        matches!(self.mask, MaskKind::Rows | MaskKind::Both)
    }

    /// Access sites of the kernel: one 1-D metadata gather, three 2-D
    /// accesses and the pair of the [`Side`] form.
    pub fn sites(&self) -> usize {
        if self.side == Side::None {
            4
        } else {
            6
        }
    }
}

/// `OUT_S[off] = v; OUT_A[off] += v` with `v = SRC[off]` (accumulated over
/// two trips when `in_loop`), each access with its own offset tree; then
/// the [`Side`] pair.
pub fn build_kernel(c: &Case) -> Kernel {
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

    let sixteen = b.constant(16.0);
    let p0 = b.binary(BinOp::Mul, pid0, sixteen);
    let p0 = b.binary(BinOp::Add, p0, pid1);
    let at = b.binary(BinOp::Add, p0, lanes_m);
    let limit = b.constant(m.saturating_sub(3).max(1) as f64);
    let prefix = b.binary(BinOp::Lt, lanes_m, limit);
    match c.side {
        Side::None => {}
        Side::Scalar => {
            let v = b.load(src, p0, None, 0.0);
            b.store(out_s, p0, v, None);
        }
        Side::Prefix => {
            let v = b.load(src, at, Some(prefix), 0.25);
            b.store(out_s, at, v, Some(prefix));
        }
        Side::Suffix => {
            let two = b.constant(2.0);
            let suffix = b.binary(BinOp::Ge, lanes_m, two);
            let v = b.load(src, at, Some(suffix), 0.25);
            b.store(out_s, at, v, Some(suffix));
        }
        Side::Broadcast => {
            let one = b.expand_dims(p0, 0);
            let v = b.load(src, one, Some(prefix), 0.25);
            let zero = b.constant(0.0);
            let first = b.binary(BinOp::Eq, pid1, zero);
            let first = b.expand_dims(first, 0);
            b.store(out_s, at, v, Some(first));
        }
        Side::Duplicates => {
            let v = b.load(src, at, None, 0.0);
            let three = b.constant(3.0);
            let folded = b.binary(BinOp::Mod, lanes_m, three);
            let dup = b.binary(BinOp::Add, p0, folded);
            b.atomic_add(out_a, dup, v, None);
        }
    }
    b.build()
}

/// `(IDX, SRC, OUT_S, OUT_A)` for a case. Inactive rows gather a base far
/// outside the tensors.
pub fn build_args(c: &Case) -> [Tensor; 4] {
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

pub fn plain(n: usize, m: usize, gx: usize, gy: usize) -> Case {
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
        side: Side::None,
        seed: 7,
    }
}

/// Every knob of [`Case`] drawn at random.
pub fn case_strategy() -> impl Strategy<Value = Case> {
    (
        (0usize..5, 0usize..4),
        (1usize..4, 1usize..4),
        (1usize..4, 1usize..4),
        (0usize..4, 0usize..6, 0usize..8, 0usize..Side::ALL.len()),
        0u32..64,
        0usize..8,
        0u64..u64::MAX,
    )
        .prop_map(
            |(
                (ni, mi),
                (gx, gy),
                (row_terms, col_terms),
                (mask, columns, poison, side),
                flags,
                misalign,
                seed,
            )| {
                // `n · m < 32` (one partial warp) when `(n, m)` is `(1 | 2, 8)`.
                Case {
                    n: [1, 2, 4, 16, 32][ni],
                    m: [8, 16, 32, 64][mi],
                    gx,
                    gy,
                    f16: flags & 1 != 0,
                    row_terms,
                    col_terms,
                    left_assoc: flags & 2 != 0,
                    mask: [
                        MaskKind::None,
                        MaskKind::Rows,
                        MaskKind::Cols,
                        MaskKind::Both,
                    ][mask],
                    columns: if columns == 0 {
                        Columns::Strided
                    } else {
                        Columns::Consecutive
                    },
                    poison: match poison {
                        0 => Poison::Fraction,
                        1 => Poison::Huge,
                        _ => Poison::None,
                    },
                    misalign: if row_terms >= 2 { misalign } else { 0 },
                    in_loop: flags & 4 != 0,
                    filler: flags & 8 != 0,
                    sorted_rows: flags & 16 != 0,
                    side: Side::ALL[side],
                    seed,
                }
            },
        )
}

/// The grouped sparse convolution's shape (Table 1): one instance per
/// group of `LIVE` kernel-map pairs padded to a 16-row tile, so the
/// gather of input rows and the scatter of output rows carry a row mask
/// with 3 of 16 rows on, the weight tile is an unmasked full-width load,
/// A is an in-kernel product (canonical `tl.dot`, 16 wide), and grid
/// axis 0 has one member — every row of instances is a single instance.
/// `IDX` holds the input row ids, the output row ids and the weight
/// offset ids, one section each.
pub fn conv_shaped_kernel(groups: usize) -> Kernel {
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

/// `(IDX, IN, WEIGHT, OUT)` for [`conv_shaped_kernel`]: random input and
/// output row ids among `voxels`, random weight offsets among `offsets`.
pub fn conv_shaped_args(groups: usize, voxels: usize, offsets: usize) -> [Tensor; 4] {
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
    [
        Tensor::from_indices(vec![ids.len()], ids).expect("length matches shape"),
        data((voxels.max(groups) * 32).max(groups * 16)),
        data(offsets * 32 * 16),
        Tensor::zeros(vec![voxels * 16]),
    ]
}

/// The equivariant tensor product's shape: one instance per group of 8
/// Clebsch-Gordan slots padded to a 16-row tile. Beside the conv shape's
/// masked row gather and scatter it has a 1-D *gathered* float load
/// (`Y[CGK[slot]]`, per-lane on both paths) and a weight tile no grid
/// axis reaches, which therefore loads once per shard. `IDX` holds the
/// `X` row ids, the `Y` element ids and the `Z` row ids, one section
/// each; parameters are `(IDX, X, Y, W, Z)`.
pub fn tp_shaped_kernel(groups: usize) -> Kernel {
    const T: usize = 16;
    const LIVE: usize = 8;
    let mut b = KernelBuilder::new("tp_shaped");
    let idx = b.input("IDX");
    let x = b.input("X");
    let y = b.input("Y");
    let w = b.input("W");
    let z = b.output("Z");
    let lanes = b.arange(T);
    let tile = b.constant(T as f64);
    let group = b.program_id(1);
    let live = b.constant(LIVE as f64);
    let on = b.binary(BinOp::Lt, lanes, live);
    let on_rows = b.expand_dims(on, 1);
    let slot0 = b.binary(BinOp::Mul, group, tile);
    let slots = b.binary(BinOp::Add, slot0, lanes);
    let cols = b.expand_dims(lanes, 0);
    let section = b.constant((groups * T) as f64);

    let coef = b.load(x, slots, Some(on), 0.0);
    let x_ids = b.load(idx, slots, Some(on), 0.0);
    let x_base = b.binary(BinOp::Mul, x_ids, tile);
    let x_rows = b.expand_dims(x_base, 1);
    let x_off = b.binary(BinOp::Add, x_rows, cols);
    let xv = b.load(x, x_off, Some(on_rows), 0.0);
    let coef_rows = b.expand_dims(coef, 1);
    let a = b.binary(BinOp::Mul, coef_rows, xv);

    let y_slots = b.binary(BinOp::Add, slots, section);
    let y_ids = b.load(idx, y_slots, Some(on), 0.0);
    let yv = b.load(y, y_ids, Some(on), 0.0);
    let y_rows = b.expand_dims(yv, 1);
    let a = b.binary(BinOp::Mul, a, y_rows);

    let w_base = b.binary(BinOp::Mul, lanes, tile);
    let w_rows = b.expand_dims(w_base, 1);
    let w_off = b.binary(BinOp::Add, w_rows, cols);
    let wv = b.load(w, w_off, None, 0.0);
    let d = b.dot(a, wv);

    let z_slots = b.binary(BinOp::Add, y_slots, section);
    let z_ids = b.load(idx, z_slots, Some(on), 0.0);
    let z_base = b.binary(BinOp::Mul, z_ids, tile);
    let z_rows = b.expand_dims(z_base, 1);
    let z_off = b.binary(BinOp::Add, z_rows, cols);
    b.atomic_add(z, z_off, d, Some(on_rows));
    b.build()
}

/// `(IDX, X, Y, W, Z)` for [`tp_shaped_kernel`].
pub fn tp_shaped_args(groups: usize, rows: usize) -> Vec<Tensor> {
    let mut rng = Rng(0x7e50);
    let ids: Vec<i64> = (0..3 * groups * 16)
        .map(|_| rng.below(rows) as i64)
        .collect();
    let mut data = |len: usize| {
        let values = (0..len)
            .map(|_| (rng.below(4096) as f32 - 2048.0) * 0.001)
            .collect();
        Tensor::from_vec(vec![len], values).expect("length matches shape")
    };
    vec![
        Tensor::from_indices(vec![ids.len()], ids).expect("length matches shape"),
        data((rows * 16).max(groups * 16)),
        data(rows),
        data(16 * 16),
        Tensor::zeros(vec![rows * 16]),
    ]
}

/// The BlockGroupCOO SpMM's shape (Fig. 7) at 16 × 16 blocks: instance
/// `(x, p)` accumulates `g` dots `AV[p, q] · B[AK[p, q], x-tile]` and
/// adds them into block row `AM[p]`. The A tile depends on `p` and `q`
/// alone, so it loads once per row of instances and later members take
/// it from the stream cache; both dot operands are direct loads of
/// read-only parameters, so the exact-product kernel serves the dot for
/// as long as `AV` and `B` are finite. `IDX` holds `AK` then `AM`;
/// parameters are `(IDX, AV, B, C)`.
pub fn block_group_kernel(groups: usize, g: usize, xtiles: usize) -> Kernel {
    const T: usize = 16;
    let width = (xtiles * T) as f64;
    let mut b = KernelBuilder::new("block_group");
    let idx = b.input("IDX");
    let av = b.input("AV");
    let bm = b.input("B");
    let c = b.output("C");
    let lanes = b.arange(T);
    let tile = b.constant(T as f64);
    let width_c = b.constant(width);
    let xt = b.program_id(0);
    let p = b.program_id(1);
    let x0 = b.binary(BinOp::Mul, xt, tile);
    let xs = b.binary(BinOp::Add, x0, lanes);
    let x_cols = b.expand_dims(xs, 0);
    let cols = b.expand_dims(lanes, 0);
    let g_c = b.constant(g as f64);
    let slot0 = b.binary(BinOp::Mul, p, g_c);
    let acc = b.full(vec![T, T], 0.0);
    let q = b.begin_loop(0, g as i64, 1);
    let slot = b.binary(BinOp::Add, slot0, q);
    let block = b.constant((T * T) as f64);
    let a0 = b.binary(BinOp::Mul, slot, block);
    let a_rows = b.binary(BinOp::Mul, lanes, tile);
    let a_rows = b.binary(BinOp::Add, a_rows, a0);
    let a_rows = b.expand_dims(a_rows, 1);
    let a_off = b.binary(BinOp::Add, a_rows, cols);
    let a = b.load(av, a_off, None, 0.0);
    let kb = b.load(idx, slot, None, 0.0);
    let k0 = b.binary(BinOp::Mul, kb, tile);
    let b_rows = b.binary(BinOp::Add, lanes, k0);
    let b_rows = b.binary(BinOp::Mul, b_rows, width_c);
    let b_rows = b.expand_dims(b_rows, 1);
    let b_off = b.binary(BinOp::Add, b_rows, x_cols);
    let bv = b.load(bm, b_off, None, 0.0);
    let d = b.dot(a, bv);
    b.binary_into(acc, BinOp::Add, acc, d);
    b.end_loop();
    let am_at = b.constant((groups * g) as f64);
    let am_at = b.binary(BinOp::Add, am_at, p);
    let mb = b.load(idx, am_at, None, 0.0);
    let m0 = b.binary(BinOp::Mul, mb, tile);
    let c_rows = b.binary(BinOp::Add, lanes, m0);
    let c_rows = b.binary(BinOp::Mul, c_rows, width_c);
    let c_rows = b.expand_dims(c_rows, 1);
    let c_off = b.binary(BinOp::Add, c_rows, x_cols);
    b.atomic_add(c, c_off, acc, None);
    b.build()
}

/// `(IDX, AV, B, C)` for [`block_group_kernel`] over `blocks` block rows
/// and block columns; values are multiples of 2⁻⁴, so f32-exact.
pub fn block_group_args(groups: usize, g: usize, xtiles: usize, blocks: usize) -> Vec<Tensor> {
    let mut rng = Rng(0xb10c);
    let ids: Vec<i64> = (0..groups * g + groups)
        .map(|_| rng.below(blocks) as i64)
        .collect();
    let mut data = |len: usize| {
        let values = (0..len)
            .map(|_| (rng.below(256) as f32 - 128.0) * 0.0625)
            .collect();
        Tensor::from_vec(vec![len], values).expect("length matches shape")
    };
    let width = xtiles * 16;
    vec![
        Tensor::from_indices(vec![ids.len()], ids).expect("length matches shape"),
        data(groups * g * 256),
        data(blocks * 16 * width),
        Tensor::zeros(vec![blocks * 16 * width]),
    ]
}

/// A tiled 2-D kernel shaped like the fused codegen's output:
/// `DST[y, x] (+)= SCALE * SRC[IDX[y]-indirected rows, x]`, with grid
/// axis 0 tiling columns (affine offsets) and axis 1 tiling rows.
///
/// Knobs cover the compile pipeline's branches:
/// * `masked` — adds an axis-0-affine column mask, which disqualifies
///   instance-class dedup (fallback path).
/// * `indirect` — routes row addresses through an I32 metadata gather
///   (row-invariant loads, data-dependent bases).
/// * `atomic` — scatter via `atomic_add` instead of `store`.
/// * `rloop` — accumulates over a reduction loop so invariant
///   instructions are trapped inside a per-instance loop (occurrence
///   streams).
pub struct TiledSpec {
    pub xb: usize,
    pub yb: usize,
    pub gx: usize,
    pub gy: usize,
    pub masked: bool,
    pub indirect: bool,
    pub atomic: bool,
    pub rloop: bool,
    pub scale: f64,
}

impl TiledSpec {
    pub fn cols(&self) -> usize {
        self.gx * self.xb
    }

    pub fn rows(&self) -> usize {
        self.gy * self.yb
    }

    pub fn build(&self) -> Kernel {
        let mut b = KernelBuilder::new("prop_tiled");
        let src = b.input("SRC");
        let idx = if self.indirect {
            Some(b.input("IDX"))
        } else {
            None
        };
        let dst = b.output("DST");

        let pid0 = b.program_id(0);
        let pid1 = b.program_id(1);
        let xb_c = b.constant(self.xb as f64);
        let yb_c = b.constant(self.yb as f64);
        let cols_c = b.constant(self.cols() as f64);
        let xlanes = b.arange(self.xb);
        let ylanes = b.arange(self.yb);

        // Column offsets: pid0 * XB + arange(XB) — affine along axis 0.
        let xbase = b.binary(BinOp::Mul, pid0, xb_c);
        let xoffs = b.binary(BinOp::Add, xbase, xlanes);
        // Row ids: pid1 * YB + arange(YB), optionally indirected.
        let ybase = b.binary(BinOp::Mul, pid1, yb_c);
        let yids = b.binary(BinOp::Add, ybase, ylanes);
        let rowids = match idx {
            Some(p) => b.load(p, yids, None, 0.0),
            None => yids,
        };
        let rowoffs = b.binary(BinOp::Mul, rowids, cols_c);
        let row2 = b.expand_dims(rowoffs, 1);
        let col2 = b.expand_dims(xoffs, 0);
        let offs = b.binary(BinOp::Add, row2, col2);

        let mask = if self.masked {
            let lim = b.constant((self.cols() - 1) as f64);
            let colmask = b.binary(BinOp::Lt, xoffs, lim);
            Some(b.expand_dims(colmask, 0))
        } else {
            None
        };

        let scale_c = b.constant(self.scale);
        let value = if self.rloop {
            let acc = b.full(vec![self.yb, self.xb], 0.0);
            let r = b.begin_loop(0, 3, 1);
            let roff = b.binary(BinOp::Mul, r, cols_c);
            // Shift source rows by the (bounded) loop step so iterations
            // read different data; SRC carries 3 extra rows of slack so
            // the shifted offsets stay affine (no wrap-around).
            let shifted = b.binary(BinOp::Add, offs, roff);
            let v = b.load(src, shifted, mask, 0.0);
            let sv = b.binary(BinOp::Mul, v, scale_c);
            b.binary_into(acc, BinOp::Add, acc, sv);
            b.end_loop();
            acc
        } else {
            let v = b.load(src, offs, mask, 0.0);
            b.binary(BinOp::Mul, v, scale_c)
        };

        if self.atomic {
            b.atomic_add(dst, offs, value, mask);
        } else {
            b.store(dst, offs, value, mask);
        }
        b.build()
    }

    pub fn tensors(&self, seed: u64) -> Vec<Tensor> {
        let total = self.rows() * self.cols();
        // 3 extra rows of slack for the reduction loop's shifted reads.
        let src_total = total + 3 * self.cols();
        let src = Tensor::from_fn(vec![src_total], |i| {
            ((i[0] as u64 ^ seed) % 13) as f32 - 6.0
        });
        let dst = Tensor::zeros(vec![total]);
        if self.indirect {
            let rows = self.rows() as i64;
            let idx = Tensor::from_indices(
                vec![self.rows()],
                (0..rows).map(|i| (i * 7 + seed as i64) % rows).collect(),
            )
            .expect("length matches");
            vec![src, idx, dst]
        } else {
            vec![src, dst]
        }
    }
}

pub fn spec_strategy() -> impl Strategy<Value = TiledSpec> {
    (
        1usize..4, // gx
        1usize..5, // gy
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        proptest::bool::ANY,
        -3.0f64..3.0,
    )
        .prop_map(
            |(gx, gy, masked, indirect, atomic, rloop, scale)| TiledSpec {
                xb: 16,
                yb: 4,
                gx,
                gy,
                masked,
                indirect,
                atomic,
                rloop,
                scale,
            },
        )
}

/// `y[row] = sum(vals[ptr[row] .. ptr[row + 1]])`, one instance per row:
/// a CSR row sum whose dynamic loop reads its trip count from the
/// metadata, with a scalar accumulator the loop carries.
pub fn csr_rows_kernel() -> Kernel {
    let mut b = KernelBuilder::new("csr_rows");
    let p = b.input("PTR");
    let v = b.input("VALS");
    let y = b.output("Y");
    let row = b.program_id(0);
    let one = b.constant(1.0);
    let next = b.binary(BinOp::Add, row, one);
    let lo = b.load(p, row, None, 0.0);
    let hi = b.load(p, next, None, 0.0);
    let acc = b.constant(0.0);
    let at = b.begin_loop_dyn(lo, hi);
    let x = b.load(v, at, None, 0.0);
    b.binary_into(acc, BinOp::Add, acc, x);
    b.end_loop();
    b.store(y, row, acc, None);
    b.build()
}

/// The grid and arguments of [`csr_rows_kernel`]: six rows, row 1 empty
/// (its loop runs no iteration).
pub fn csr_rows_args() -> ([usize; 1], Vec<Tensor>) {
    let rows = 6;
    let ptr = Tensor::from_indices(vec![rows + 1], vec![0, 2, 2, 5, 6, 9, 12])
        .expect("length matches shape");
    let vals = Tensor::from_fn(vec![12], |i| i[0] as f32 * 0.25 - 1.0);
    ([rows], vec![ptr, vals, Tensor::zeros(vec![rows])])
}
