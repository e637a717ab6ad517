//! `tl.dot` kernel equivalence: every implementation this host can run —
//! the canonical loop without target features, and the exact-product FMA
//! kernel at each ISA width — must return the bits of the dispatching
//! canonical [`Block::dot_with`] and of the seed [`RefBlock::dot`] on eligible
//! operands; ineligible operands must be declined (canonical loop taken)
//! with the same bits. This is the scalar-vs-SIMD test for the gpu
//! crate's `unsafe` kernels, and the soundness test for the O(1)
//! eligibility decision the interpreter makes per dot.

use insum_gpu::reference::{launch_reference, RefBlock};
use insum_gpu::{dot_dispatch_counts, launch, Block, DeviceModel, Isa, Mode};
use insum_kernel::{BinOp, Kernel, KernelBuilder};
use insum_tensor::{f16_round, Tensor};
use proptest::prelude::*;

/// Extents that straddle every tile edge of both instantiations
/// (4 × 12 and 8 × 16) plus the degenerate ones.
const EXTENTS: [usize; 9] = [0, 1, 3, 12, 13, 16, 31, 32, 33];

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
}

/// One finite f32 of the given class.
fn eligible_value(class: usize, rng: &mut Rng) -> f32 {
    let bits = rng.next();
    match class {
        // The f16 grid (what f16 tensors hold), half of it zeros of
        // either sign so the zero-skip is exercised.
        0 => match bits % 4 {
            0 => 0.0,
            1 => -0.0,
            _ => f16_round(((bits >> 8) % 4096) as f32 * 0.03125 - 64.0),
        },
        // Any finite f32: random sign, exponent (denormals included)
        // and mantissa.
        1 => {
            let b = (bits as u32) & !0x7f80_0000 | (((bits >> 32) as u32 % 255) << 23);
            f32::from_bits(b)
        }
        // Denormals only.
        2 => f32::from_bits((bits as u32) & 0x807f_ffff),
        // The corners.
        _ => [f32::MAX, -f32::MAX, 0.0, -0.0, f32::MIN_POSITIVE, 1.0][(bits % 6) as usize],
    }
}

/// An `[rows, cols]` operand with the requested layout:
/// 0 contiguous · 1 transposed storage (`s1 != 1`) · 2 one row
/// broadcast down (`s0 == 0`) · 3 one column broadcast across
/// (`s1 == 0`) · 4 a reshaped flat load (`view`).
fn operand(rows: usize, cols: usize, layout: usize, mut value: impl FnMut() -> f64) -> Block {
    let mut fill = |n: usize| (0..n).map(|_| value()).collect::<Vec<f64>>();
    match layout {
        0 => Block::from_vec(vec![rows, cols], fill(rows * cols)),
        1 => Block::from_vec(vec![cols, rows], fill(rows * cols)).trans(),
        2 => Block::from_vec(vec![1, cols], fill(cols)).broadcast_to(&[rows, cols]),
        3 => Block::from_vec(vec![rows, 1], fill(rows)).broadcast_to(&[rows, cols]),
        _ => Block::from_vec(vec![rows * cols], fill(rows * cols)).view(vec![rows, cols]),
    }
}

/// The canonical loop, as the interpreter's non-exact path runs it.
fn canonical_dot(a: &Block, b: &Block) -> Block {
    Block::dot_with(a, b, Default::default())
}

fn seed_dot(a: &Block, b: &Block) -> Vec<u64> {
    let r = |x: &Block| RefBlock {
        shape: x.shape().to_vec(),
        data: x.to_vec(),
    };
    bits(&RefBlock::dot(&r(a), &r(b)).data)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    #[test]
    fn every_kernel_returns_the_canonical_bits(
        (mi, ki, ni) in (0usize..9, 0usize..9, 0usize..9),
        (class_a, class_b) in (0usize..4, 0usize..4),
        (layout_a, layout_b) in (0usize..5, 0usize..5),
        seed in 0u64..u64::MAX,
    ) {
        let (m, k, n) = (EXTENTS[mi], EXTENTS[ki], EXTENTS[ni]);
        let mut rng = Rng(seed);
        let a = operand(m, k, layout_a, || eligible_value(class_a, &mut rng) as f64);
        let b = operand(k, n, layout_b, || eligible_value(class_b, &mut rng) as f64);
        prop_assert!(a.is_f32_exact() && b.is_f32_exact());
        let want = bits(&canonical_dot(&a, &b).to_vec());
        prop_assert_eq!(&want, &seed_dot(&a, &b), "canonical vs seed, {m}x{k}x{n}");
        for isa in Isa::ALL.into_iter().filter(|i| i.available()) {
            let got = Block::dot_on(isa, &a, &b);
            prop_assert_eq!(got.shape(), &[m, n][..]);
            prop_assert_eq!(
                bits(&got.to_vec()),
                want.clone(),
                "{isa:?} {m}x{k}x{n} layouts {layout_a}/{layout_b} classes {class_a}/{class_b}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The canonical loop's tile ladder
// ---------------------------------------------------------------------

/// One awkward finite f64 that is *not* an f32 value (so no exact-product
/// kernel may take the dot): tenths, in-kernel products of f32 data,
/// f64 denormals — and zeros of either sign at the requested rate, which
/// are f32 values but only matter through the zero-skip.
fn canonical_value(rng: &mut Rng, zeros_in_4: u64) -> f64 {
    let bits = rng.next();
    if bits % 4 < zeros_in_4 {
        return if bits & 4 == 0 { 0.0 } else { -0.0 };
    }
    let small = ((bits >> 8) % 2001) as f64 - 1000.0;
    match (bits >> 3) % 4 {
        0 => small * 0.1,
        1 => (small as f32 * 0.37) as f64 * 1.000_000_1,
        2 => f64::from_bits((bits >> 12) | 1) * if bits & 4 == 0 { 1.0 } else { -1.0 },
        _ => small / 3.0,
    }
}

/// The canonical loop sweeps each output row in 32-, 16-, 8-, 4- and
/// 1-wide column tiles and keeps its nonzero list on the stack up to
/// `k = 64`: every width that mixes those tiles, every B layout the tile
/// body branches on (unit-stride, transposed, a row broadcast down, a
/// column broadcast across), A rows with no, some and only zero entries,
/// and one NaN / +Inf / -Inf planted in either operand (one per dot, so
/// every chain meets at most one special term and the surviving payload
/// does not depend on operand order) — bit for bit against the seed's
/// three-line loop.
#[test]
fn the_tile_ladder_is_the_seed_loop_at_every_width() {
    const WIDTHS: [usize; 14] = [1, 3, 4, 7, 8, 12, 16, 20, 24, 28, 31, 32, 33, 48];
    let specials = [
        None,
        Some(f64::from_bits(0x7ff8_0000_dead_beef)),
        Some(f64::INFINITY),
        Some(f64::NEG_INFINITY),
    ];
    let mut rng = Rng(0x1add_e125);
    for n in WIDTHS {
        for k in [1usize, 5, 64, 65] {
            for layout_b in 0..4 {
                for (si, special) in specials.iter().enumerate() {
                    // Rows 0/1/2: no zeros, about half zeros, all zeros;
                    // row 3 dense again so a tile follows an empty row.
                    let mut av = Vec::with_capacity(4 * k);
                    for zeros_in_4 in [0, 2, 4, 0] {
                        av.extend((0..k).map(|_| canonical_value(&mut rng, zeros_in_4)));
                    }
                    let layout_a = (n + k + layout_b) % 2;
                    let mut it = av.iter().copied();
                    let mut a = operand(4, k, 0, || it.next().expect("4k values"));
                    let mut b = operand(k, n, layout_b, || canonical_value(&mut rng, 1));
                    if let Some(v) = *special {
                        // Into A's dense row 0 or anywhere in B.
                        let (mut ad, mut bd) = (a.to_vec(), b.to_vec());
                        if (n + k + si) % 2 == 0 {
                            ad[rng.next() as usize % k] = v;
                        } else {
                            let at = rng.next() as usize % bd.len();
                            bd[at] = v;
                        }
                        a = Block::from_vec(vec![4, k], ad);
                        // (A planted B is contiguous: the poison would
                        // otherwise spread along a broadcast axis, which
                        // the un-planted layouts already cover.)
                        b = Block::from_vec(vec![k, n], bd);
                    }
                    if layout_a == 1 {
                        a = Block::from_vec(vec![k, 4], a.trans().to_vec()).trans();
                    }
                    assert!(
                        !(a.is_f32_exact() && b.is_f32_exact()),
                        "not canonical-only"
                    );
                    assert_eq!(
                        bits(&canonical_dot(&a, &b).to_vec()),
                        seed_dot(&a, &b),
                        "4x{k}x{n}, B layout {layout_b}, A layout {layout_a}, special {special:?}"
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Dispatch: what the interpreter decides per `tl.dot`
// ---------------------------------------------------------------------

/// How operand A reaches the dot in [`dot_kernel`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum AVia {
    /// `view(load(A))`.
    Load,
    /// `trans(view(load(A_transposed, mask, other)))`: every lane
    /// active, the mask only there to bring `other` into play.
    MaskedTrans { other: f64 },
    /// `view(load(A)) * factor`.
    Scaled { factor: f64 },
    /// `acc = full(0); acc = acc + view(load(A))` — the in-place
    /// accumulator pattern.
    Accumulated,
    /// `full([m, k], value)`; A is not read.
    Constant { value: f64 },
    /// As `Load`, but the kernel also stores into A afterwards.
    LoadFromWritten,
}

/// `C[m, n] = dot(<A via `via`>, view(load(B)))`, one instance.
fn dot_kernel(m: usize, k: usize, n: usize, via: AVia) -> Kernel {
    dot_kernel_with(m, k, n, via, false)
}

/// [`dot_kernel`], with B optionally read as `trans(view(load(B), [n, k]))`:
/// as eligible as the plain load, but its rows are not unit-stride.
fn dot_kernel_with(m: usize, k: usize, n: usize, via: AVia, b_transposed: bool) -> Kernel {
    let mut kb = KernelBuilder::new("dot_dispatch");
    let pa = if via == AVia::LoadFromWritten {
        kb.output("A")
    } else {
        kb.input("A")
    };
    let pb = kb.input("B");
    let pc = kb.output("C");
    let offs_a = kb.arange(m * k);
    let loaded = |kb: &mut KernelBuilder| {
        let flat = kb.load(pa, offs_a, None, 0.0);
        kb.view(flat, vec![m, k])
    };
    let a = match via {
        AVia::Load | AVia::LoadFromWritten => loaded(&mut kb),
        AVia::MaskedTrans { other } => {
            let limit = kb.constant((m * k) as f64);
            let mask = kb.binary(BinOp::Lt, offs_a, limit);
            let flat = kb.load(pa, offs_a, Some(mask), other);
            let at = kb.view(flat, vec![k, m]);
            kb.trans(at)
        }
        AVia::Scaled { factor } => {
            let v = loaded(&mut kb);
            let f = kb.constant(factor);
            kb.binary(BinOp::Mul, v, f)
        }
        AVia::Accumulated => {
            let acc = kb.full(vec![m, k], 0.0);
            let zero = kb.constant(0.0);
            // Materialize the accumulator (a `full` is one shared slot),
            // then update it in place.
            kb.binary_into(acc, BinOp::Add, acc, zero);
            let v = loaded(&mut kb);
            kb.binary_into(acc, BinOp::Add, acc, v);
            acc
        }
        AVia::Constant { value } => kb.full(vec![m, k], value),
    };
    let offs_b = kb.arange(k * n);
    let b_flat = kb.load(pb, offs_b, None, 0.0);
    let b = if b_transposed {
        let bt = kb.view(b_flat, vec![n, k]);
        kb.trans(bt)
    } else {
        kb.view(b_flat, vec![k, n])
    };
    let d = kb.dot(a, b);
    let offs_c = kb.arange(m * n);
    let d_flat = kb.view(d, vec![m * n]);
    kb.store(pc, offs_c, d_flat, None);
    if via == AVia::LoadFromWritten {
        let head = kb.arange(1);
        let one = kb.full(vec![1], 1.0);
        kb.store(pa, head, one, None);
    }
    kb.build()
}

/// Launch `kernel` on the optimized interpreter and on the seed one,
/// assert equal output bits and reports, and return the optimized
/// run's `(exact, canonical)` dispatch counts.
fn launch_counted(kernel: &Kernel, a: &Tensor, b: &Tensor, c_shape: [usize; 2]) -> (u64, u64) {
    let device = DeviceModel::rtx3090();
    let (mut a1, mut b1, mut c1) = (a.clone(), b.clone(), Tensor::zeros(c_shape.to_vec()));
    let (mut a2, mut b2, mut c2) = (a.clone(), b.clone(), Tensor::zeros(c_shape.to_vec()));
    let before = dot_dispatch_counts();
    let got = launch(
        kernel,
        &[1],
        &mut [&mut a1, &mut b1, &mut c1],
        &device,
        Mode::Execute,
    )
    .expect("optimized launch");
    let after = dot_dispatch_counts();
    let want = launch_reference(
        kernel,
        &[1],
        &mut [&mut a2, &mut b2, &mut c2],
        &device,
        Mode::Execute,
    )
    .expect("seed launch");
    assert!(
        c1.bit_eq(&c2),
        "output bits diverge from the seed interpreter"
    );
    assert!(
        a1.bit_eq(&a2),
        "written input diverges from the seed interpreter"
    );
    assert_eq!(got.stats, want.stats);
    assert_eq!(got.time.to_bits(), want.time.to_bits());
    (after.0 - before.0, after.1 - before.1)
}

fn ramp(shape: [usize; 2]) -> Tensor {
    let n = shape[0] * shape[1];
    let data = (0..n)
        .map(|i| ((i as f32) * 0.37 - 2.1) * if i % 3 == 0 { -1.0 } else { 1.0 })
        .collect();
    Tensor::from_vec(shape.to_vec(), data).expect("length matches")
}

const CANONICAL: (u64, u64) = (0, 1);

/// What an eligible dot with unit-stride B rows counts as: the counter
/// reports the kernel that ran, and a host without FMA has only one.
fn exact() -> (u64, u64) {
    if Isa::detect() == Isa::Portable {
        CANONICAL
    } else {
        (1, 0)
    }
}

#[test]
fn the_operand_tag_is_sound() {
    let (m, k, n) = (13, 16, 33);
    let (a, b) = (ramp([m, k]), ramp([k, n]));
    let run = |via| launch_counted(&dot_kernel(m, k, n, via), &a, &b, [m, n]);

    // Pure rearrangements of loaded data are eligible ...
    assert_eq!(run(AVia::Load), exact());
    assert_eq!(run(AVia::MaskedTrans { other: 0.0 }), exact());
    assert_eq!(run(AVia::Constant { value: 0.5 }), exact());
    // ... anything arithmetic touched is not, including an accumulator
    // rewritten in place ...
    assert_eq!(
        run(AVia::Scaled {
            factor: 1.000_000_1
        }),
        CANONICAL
    );
    assert_eq!(run(AVia::Scaled { factor: 1.0 }), CANONICAL);
    assert_eq!(run(AVia::Accumulated), CANONICAL);
    // ... nor constants that are not f32 values, wherever they enter ...
    assert_eq!(run(AVia::Constant { value: 0.1 }), CANONICAL);
    assert_eq!(run(AVia::MaskedTrans { other: 0.1 }), CANONICAL);
    assert_eq!(
        run(AVia::MaskedTrans {
            other: f64::INFINITY
        }),
        CANONICAL
    );
    // ... nor data under a parameter the kernel writes.
    assert_eq!(run(AVia::LoadFromWritten), CANONICAL);
}

/// The counter reports the kernel that ran, not the eligibility
/// decision: a transposed B is as eligible as a plain one, but the FMA
/// kernel wants unit-stride B rows, so the canonical loop serves it and
/// the dot counts there — except with a single column, which has no row
/// stride to speak of.
#[test]
fn an_eligible_dot_on_strided_b_counts_as_canonical() {
    let (m, k) = (13, 16);
    for (n, want) in [(33, CANONICAL), (16, CANONICAL), (1, exact())] {
        let (a, b) = (ramp([m, k]), ramp([n, k]));
        let kernel = dot_kernel_with(m, k, n, AVia::Load, true);
        assert_eq!(launch_counted(&kernel, &a, &b, [m, n]), want, "n = {n}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// NaN payloads, ±Inf and f64s that are not f32 values: the
    /// predicate rejects them, the dispatcher declines, and the bits are
    /// the seed's.
    #[test]
    fn poisoned_operands_are_declined(
        (mi, ki, ni) in (1usize..9, 1usize..9, 1usize..9),
        poison_kind in 0usize..6,
        in_b in proptest::bool::ANY,
        seed in 0u64..u64::MAX,
    ) {
        let (m, k, n) = (EXTENTS[mi], EXTENTS[ki], EXTENTS[ni]);
        let mut rng = Rng(seed);
        let mut av: Vec<f32> = (0..m * k).map(|_| eligible_value(0, &mut rng)).collect();
        let mut bv: Vec<f32> = (0..k * n).map(|_| eligible_value(0, &mut rng)).collect();
        // Make the left factors nonzero so the poison is not skipped.
        for v in &mut av {
            if *v == 0.0 {
                *v = 1.5;
            }
        }

        // Tensor-borne poison (what a launch can actually load).
        let f32_poison = [
            f32::NAN,
            f32::from_bits(0xffc0_1234), // negative NaN with a payload
            f32::INFINITY,
            f32::NEG_INFINITY,
        ];
        if poison_kind < 4 {
            let target = if in_b { &mut bv } else { &mut av };
            let at = (rng.next() % target.len() as u64) as usize;
            target[at] = f32_poison[poison_kind];
            let a_t = Tensor::from_vec(vec![m, k], av.clone()).expect("length matches");
            let b_t = Tensor::from_vec(vec![k, n], bv.clone()).expect("length matches");
            let counts = launch_counted(&dot_kernel(m, k, n, AVia::Load), &a_t, &b_t, [m, n]);
            prop_assert_eq!(counts, CANONICAL, "a non-finite parameter must decline");
        }

        // Block-level: the same poison, plus values no tensor can hold.
        let mut a64: Vec<f64> = av.iter().map(|&v| v as f64).collect();
        let mut b64: Vec<f64> = bv.iter().map(|&v| v as f64).collect();
        if poison_kind >= 4 {
            let target = if in_b { &mut b64 } else { &mut a64 };
            let at = (rng.next() % target.len() as u64) as usize;
            target[at] = [0.1, 1.0 + 2f64.powi(-40)][poison_kind - 4];
        }
        let a = Block::from_vec(vec![m, k], a64);
        let b = Block::from_vec(vec![k, n], b64);
        prop_assert!(!(a.is_f32_exact() && b.is_f32_exact()), "the predicate must reject");
        prop_assert_eq!(bits(&canonical_dot(&a, &b).to_vec()), seed_dot(&a, &b));
    }
}
