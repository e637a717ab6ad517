//! The exact-product `tl.dot` kernel: a dense, register-blocked FMA
//! matrix multiply that is bit-identical to the canonical loop
//! ([`Block::dot_with`](crate::Block::dot_with)) **by construction**, for operands
//! whose every element is finite and f32-representable
//! (`v == (v as f32) as f64`).
//!
//! The canonical loop is the single definition of `tl.dot` semantics:
//! per output element, `acc = RN(acc + RN(a·b))` over ascending `l`,
//! starting from `+0.0`, skipping terms whose left factor is zero. It
//! never fuses the multiply with the add, because fusing changes rounding
//! in general. On eligible operands it does not:
//!
//! 1. **The product is exact.** Two f32-representable values carry ≤ 24
//!    significant bits each, so `a·b` has ≤ 48 (< 53) and an exponent in
//!    [−298, 256) — far inside f64's normal range. Hence `RN(a·b) = a·b`
//!    and the canonical step `RN(acc + RN(a·b))` **is** `fma(a, b, acc)`,
//!    bit for bit.
//! 2. **The zero-skip is unobservable.** `acc` starts at `+0.0` and can
//!    never become `−0.0` (a round-to-nearest sum is `−0` only if both
//!    addends are), so an executed zero term, `fma(0, b, acc) = acc + ±0
//!    = acc`, agrees with a skipped one. The per-row nonzero list can be
//!    dropped and the kernel run dense.
//! 3. **No Inf, hence no NaN, is ever produced.** `|a·b| < 2²⁵⁶`, so
//!    `|acc| ≤ k·2²⁵⁶` — nowhere near overflow for any representable
//!    `k`. The "which NaN payload survives" corner, which only the
//!    canonical loop's own machine code settles, cannot arise here.
//! 4. **No chain is reordered.** Every output element keeps its own
//!    accumulator and visits `l` in ascending order; blocking over rows
//!    and columns only changes *which elements advance together*. There
//!    is no split-k and no reassociation.
//!
//! Anything else — a NaN, an Inf, an f64 produced by in-kernel
//! arithmetic (e.g. a `Binary` product feeding the dot) — is not eligible
//! and takes the canonical loop, unchanged. Eligibility is decided in
//! O(1) per dot by the callers: statically per operand register in
//! `Program::compile` (the value derives from loads and f32-exact
//! constants through shape transforms only) plus one `is_finite` scan per
//! read parameter per launch. Debug builds re-check every operand element
//! on entry.
//!
//! The kernel body is generic over a vector type and instantiated per
//! rung of the crate's ISA ladder ([`Isa`]) behind runtime detection:
//! AVX2+FMA (4 rows × 12 columns = 12 `ymm` accumulators) and AVX-512F
//! (8 × 16 = 16 `zmm` accumulators). Per `l` it loads the B row segment
//! once and broadcasts one A element per row. Hosts without FMA keep the
//! canonical loop.

#[cfg(target_arch = "x86_64")]
use crate::isa::Isa;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide dispatch counts (see [`dot_dispatch_counts`]). Pure
/// statistics — they publish no other data — so relaxed ordering
/// suffices, and launches add their tallies once, not per dot.
static EXACT_DOTS: AtomicU64 = AtomicU64::new(0);
static CANONICAL_DOTS: AtomicU64 = AtomicU64::new(0);

/// Process-wide `(exact, canonical)` counts of Execute-mode `tl.dot`
/// dispatches: how many ran the exact-product FMA kernel and how many
/// the canonical loop, over every interpreter launch so far. Read it before and after a run and subtract; a
/// workload of plain loads that reports canonical dots has lost its
/// eligibility (non-finite input, or arithmetic between load and dot).
/// Replayed (stream-cached) dots and Analytic launches execute no dot
/// and count nothing; an Execute launch served from an address script
/// (`crate::script_dispatch_counts`) executes every dot of its value
/// slice and counts each. The counter reports the kernel that ran, not the
/// eligibility decision: an eligible dot whose B rows are not
/// unit-stride (a transposed B), and every dot on a host without FMA,
/// runs the canonical loop and counts there.
pub fn dot_dispatch_counts() -> (u64, u64) {
    (
        EXACT_DOTS.load(Ordering::Relaxed),
        CANONICAL_DOTS.load(Ordering::Relaxed),
    )
}

/// One launch's dispatch tally, flushed to the process-wide counters
/// when the launch completes.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DotTally {
    exact: u64,
    canonical: u64,
}

impl DotTally {
    #[inline]
    pub(crate) fn count(&mut self, exact: bool) {
        if exact {
            self.exact += 1;
        } else {
            self.canonical += 1;
        }
    }

    pub(crate) fn merge(&mut self, other: DotTally) {
        self.exact += other.exact;
        self.canonical += other.canonical;
    }

    pub(crate) fn flush(self) {
        if self.exact != 0 {
            EXACT_DOTS.fetch_add(self.exact, Ordering::Relaxed);
        }
        if self.canonical != 0 {
            CANONICAL_DOTS.fetch_add(self.canonical, Ordering::Relaxed);
        }
    }
}

/// True when every element is finite. Branch-free within a chunk so the
/// scan vectorizes; chunking keeps the early exit.
pub(crate) fn all_finite(data: &[f32]) -> bool {
    data.chunks(256)
        .all(|c| c.iter().fold(true, |ok, v| ok & v.is_finite()))
}

/// True when `v` is finite and survives a round trip through `f32` —
/// the per-element eligibility predicate.
#[inline]
pub(crate) fn f32_exact(v: f64) -> bool {
    v.is_finite() && (v as f32) as f64 == v
}

/// A rank-2 strided operand: element `(i, j)` is
/// `data[offset + i * s0 + j * s1]`.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Mat<'a> {
    pub(crate) data: &'a [f64],
    pub(crate) offset: usize,
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) s0: usize,
    pub(crate) s1: usize,
}

#[cfg(target_arch = "x86_64")]
impl Mat<'_> {
    /// Storage index of the last element, `None` on overflow. Strides
    /// are non-negative, so every element's index is ≤ this one.
    fn last_index(&self) -> Option<usize> {
        let r = (self.rows - 1).checked_mul(self.s0)?;
        let c = (self.cols - 1).checked_mul(self.s1)?;
        self.offset.checked_add(r)?.checked_add(c)
    }
}

/// `out[i * n + j] = Σ_l a[i, l] · b[l, j]` with one FMA chain per
/// output element in ascending `l` — equal to the canonical loop bit for
/// bit when every operand element is finite and f32-representable (the
/// caller's obligation; see the module docs). `b` rows must be
/// contiguous (`s1 == 1`) unless it has a single column.
///
/// # Panics
///
/// Panics if the shapes disagree, `out` is not `m · n` long, `b` has
/// strided rows, an operand reaches outside its storage, or `isa` is
/// `Portable` or unavailable on this host.
#[cfg(target_arch = "x86_64")]
pub(crate) fn matmul(isa: Isa, a: Mat<'_>, b: Mat<'_>, out: &mut [f64]) {
    let (m, k, n) = (a.rows, a.cols, b.cols);
    assert_eq!(k, b.rows, "dot inner dimensions disagree");
    assert_eq!(out.len(), m * n, "dot output volume mismatch");
    assert!(n <= 1 || b.s1 == 1, "exact dot needs contiguous B rows");
    assert!(isa.available(), "{isa:?} is not available on this host");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        out.fill(0.0);
        return;
    }
    // The one bounds check the pointer loops below rely on: the largest
    // index either operand is read at lies inside its storage.
    assert!(
        a.last_index().is_some_and(|i| i < a.data.len())
            && b.last_index().is_some_and(|i| i < b.data.len()),
        "dot operand reaches outside its storage"
    );
    // SAFETY: both offsets are in bounds — they are no larger than the
    // last indices asserted in bounds just above.
    let (ap, bp) = unsafe { (a.data.as_ptr().add(a.offset), b.data.as_ptr().add(b.offset)) };
    let ops = kernel::Operands {
        a: ap,
        sa0: a.s0,
        sa1: a.s1,
        b: bp,
        sb0: b.s0,
        k,
    };
    let c = out.as_mut_ptr();
    // SAFETY: `isa.available()` was asserted, so the target features
    // each entry enables are present. The pointer contract of
    // `matmul_body` holds: `a[i, l]` for i < m, l < k and `b[l, j]` for
    // l < k, j < n index at most `last_index()`, asserted in bounds
    // above (B rows are unit-stride or one element wide), and `out`
    // holds exactly `m * n` elements and cannot alias the shared
    // operand borrows.
    unsafe {
        match isa {
            Isa::Avx512 => matmul_avx512f(ops, m, n, c),
            Isa::Avx2 => matmul_avx2_fma(ops, m, n, c),
            Isa::Portable => unreachable!("the portable path is the canonical loop"),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod kernel {
    use std::arch::x86_64::*;

    /// The handful of vector operations the kernel body needs, so one
    /// body serves `zmm`, `ymm` and (for column remainders) scalar
    /// lanes.
    ///
    /// # Safety
    ///
    /// Every method requires the ISA of the implementing type to be
    /// available (they inline into a `#[target_feature]` entry point);
    /// `load`/`store` additionally require `N` readable/writable `f64`s
    /// at `p`.
    pub(super) trait Lanes: Copy {
        const N: usize;
        unsafe fn zero() -> Self;
        unsafe fn splat(x: f64) -> Self;
        unsafe fn load(p: *const f64) -> Self;
        unsafe fn store(self, p: *mut f64);
        /// `a * b + c`, rounded once.
        unsafe fn fma(a: Self, b: Self, c: Self) -> Self;
    }

    impl Lanes for f64 {
        const N: usize = 1;
        #[inline(always)]
        unsafe fn zero() -> f64 {
            0.0
        }
        #[inline(always)]
        unsafe fn splat(x: f64) -> f64 {
            x
        }
        #[inline(always)]
        unsafe fn load(p: *const f64) -> f64 {
            // SAFETY: the caller guarantees one readable f64 at `p`.
            unsafe { *p }
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f64) {
            // SAFETY: the caller guarantees one writable f64 at `p`.
            unsafe { *p = self }
        }
        #[inline(always)]
        unsafe fn fma(a: f64, b: f64, c: f64) -> f64 {
            a.mul_add(b, c)
        }
    }

    /// `Lanes` for one x86 vector type: the same five intrinsics at each
    /// width.
    macro_rules! x86_lanes {
        ($ty:ty, $n:literal, $zero:ident, $splat:ident, $load:ident, $store:ident, $fma:ident) => {
            impl Lanes for $ty {
                const N: usize = $n;
                #[inline(always)]
                unsafe fn zero() -> Self {
                    // SAFETY: the trait contract guarantees the ISA.
                    unsafe { $zero() }
                }
                #[inline(always)]
                unsafe fn splat(x: f64) -> Self {
                    // SAFETY: the trait contract guarantees the ISA.
                    unsafe { $splat(x) }
                }
                #[inline(always)]
                unsafe fn load(p: *const f64) -> Self {
                    // SAFETY: the ISA and `N` readable f64s at `p` are
                    // the trait contract; the load is unaligned.
                    unsafe { $load(p) }
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f64) {
                    // SAFETY: the ISA and `N` writable f64s at `p` are
                    // the trait contract; the store is unaligned.
                    unsafe { $store(p, self) }
                }
                #[inline(always)]
                unsafe fn fma(a: Self, b: Self, c: Self) -> Self {
                    // SAFETY: the trait contract guarantees the ISA.
                    unsafe { $fma(a, b, c) }
                }
            }
        };
    }

    x86_lanes!(
        __m256d,
        4,
        _mm256_setzero_pd,
        _mm256_set1_pd,
        _mm256_loadu_pd,
        _mm256_storeu_pd,
        _mm256_fmadd_pd
    );
    x86_lanes!(
        __m512d,
        8,
        _mm512_setzero_pd,
        _mm512_set1_pd,
        _mm512_loadu_pd,
        _mm512_storeu_pd,
        _mm512_fmadd_pd
    );

    /// What the kernel reads: `a[i, l]` is `*a.add(i * sa0 + l * sa1)`,
    /// `b[l, j]` is `*b.add(l * sb0 + j)`, and `l` runs over `0..k`.
    #[derive(Clone, Copy)]
    pub(super) struct Operands {
        pub(super) a: *const f64,
        pub(super) sa0: usize,
        pub(super) sa1: usize,
        pub(super) b: *const f64,
        pub(super) sb0: usize,
        pub(super) k: usize,
    }

    impl Operands {
        /// The same operands seen from output row `i`, column `j`.
        ///
        /// # Safety
        ///
        /// `a[i, 0]` and `b[0, j]` are inside their allocations.
        #[inline(always)]
        unsafe fn at(self, i: usize, j: usize) -> Operands {
            Operands {
                // SAFETY: the caller keeps both in bounds.
                a: unsafe { self.a.add(i * self.sa0) },
                b: unsafe { self.b.add(j) },
                ..self
            }
        }
    }

    /// One `MR × (NV · V::N)` output tile: all accumulators live in
    /// registers across the whole `l` loop.
    ///
    /// # Safety
    ///
    /// `V`'s ISA is available; `a[r, l]` is readable for `r < MR`,
    /// `l < k`; `b[l, t]` for `l < k`, `t < NV · V::N`; `c[r * ldc + t]`
    /// is writable for the same `r`, `t`.
    #[inline(always)]
    unsafe fn tile<V: Lanes, const MR: usize, const NV: usize>(
        ops: Operands,
        c: *mut f64,
        ldc: usize,
    ) {
        // SAFETY: every pointer formed below is one the contract above
        // names, and the ISA requirement is forwarded to `V`'s methods.
        unsafe {
            let mut acc = [[V::zero(); NV]; MR];
            for l in 0..ops.k {
                let brow = ops.b.add(l * ops.sb0);
                let mut bv = [V::zero(); NV];
                for (t, slot) in bv.iter_mut().enumerate() {
                    *slot = V::load(brow.add(t * V::N));
                }
                for (r, row) in acc.iter_mut().enumerate() {
                    let av = V::splat(*ops.a.add(r * ops.sa0 + l * ops.sa1));
                    for (slot, &bt) in row.iter_mut().zip(&bv) {
                        *slot = V::fma(av, bt, *slot);
                    }
                }
            }
            for (r, row) in acc.iter().enumerate() {
                for (t, v) in row.iter().enumerate() {
                    v.store(c.add(r * ldc + t * V::N));
                }
            }
        }
    }

    /// `MR` full output rows: full-width tiles, then single-vector
    /// tiles, then scalar columns.
    ///
    /// # Safety
    ///
    /// As [`tile`], for `MR` rows of `a`/`c` and all `n` columns of
    /// `b`/`c` (`c` rows are `n` apart).
    #[inline(always)]
    unsafe fn row_band<V: Lanes, const MR: usize, const NV: usize>(
        ops: Operands,
        n: usize,
        c: *mut f64,
    ) {
        let mut j = 0;
        // SAFETY: each call covers columns `j .. j + width` with
        // `j + width <= n`, inside what the caller vouched for.
        unsafe {
            while j + NV * V::N <= n {
                tile::<V, MR, NV>(ops.at(0, j), c.add(j), n);
                j += NV * V::N;
            }
            while j + V::N <= n {
                tile::<V, MR, 1>(ops.at(0, j), c.add(j), n);
                j += V::N;
            }
            while j < n {
                tile::<f64, MR, 1>(ops.at(0, j), c.add(j), n);
                j += 1;
            }
        }
    }

    /// The whole product: bands of `MR` rows, then single rows.
    ///
    /// # Safety
    ///
    /// `V`'s ISA is available; `a[i, l]` is readable for `i < m`,
    /// `l < k`; `b[l, j]` for `l < k`, `j < n`; `c[..m * n]` is writable
    /// and disjoint from both; `m`, `n` and `k` are nonzero.
    #[inline(always)]
    pub(super) unsafe fn matmul_body<V: Lanes, const MR: usize, const NV: usize>(
        ops: Operands,
        m: usize,
        n: usize,
        c: *mut f64,
    ) {
        let mut i = 0;
        // SAFETY: each call covers rows `i .. i + height` with
        // `i + height <= m`, inside what the caller vouched for.
        unsafe {
            while i + MR <= m {
                row_band::<V, MR, NV>(ops.at(i, 0), n, c.add(i * n));
                i += MR;
            }
            while i < m {
                row_band::<V, 1, NV>(ops.at(i, 0), n, c.add(i * n));
                i += 1;
            }
        }
    }
}

/// AVX2+FMA instantiation: 4 rows × 3 `ymm` (12 columns).
///
/// # Safety
///
/// AVX2 and FMA are available, plus the pointer contract of
/// `kernel::matmul_body`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn matmul_avx2_fma(ops: kernel::Operands, m: usize, n: usize, c: *mut f64) {
    // SAFETY: forwarded verbatim from this function's own contract.
    unsafe { kernel::matmul_body::<std::arch::x86_64::__m256d, 4, 3>(ops, m, n, c) }
}

/// AVX-512F instantiation: 8 rows × 2 `zmm` (16 columns).
///
/// # Safety
///
/// AVX-512F and FMA are available, plus the pointer contract of
/// `kernel::matmul_body`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn matmul_avx512f(ops: kernel::Operands, m: usize, n: usize, c: *mut f64) {
    // SAFETY: forwarded verbatim from this function's own contract.
    unsafe { kernel::matmul_body::<std::arch::x86_64::__m512d, 8, 2>(ops, m, n, c) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_scan_finds_every_poison() {
        let mut v = vec![1.5f32; 1000];
        assert!(all_finite(&v));
        assert!(all_finite(&[]));
        for (at, poison) in [
            (0, f32::NAN),
            (511, f32::INFINITY),
            (999, f32::NEG_INFINITY),
        ] {
            v[at] = poison;
            assert!(!all_finite(&v), "missed {poison} at {at}");
            v[at] = f32::MAX;
        }
        assert!(all_finite(&v));
    }

    #[test]
    fn f32_exact_is_the_round_trip_predicate() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f32::MAX as f64,
            f32::MIN_POSITIVE as f64,
            1e-45f32 as f64,
        ] {
            assert!(f32_exact(v), "{v:e}");
        }
        for v in [0.1, 1.0 + 2f64.powi(-40), 1e300, f64::NAN, f64::INFINITY] {
            assert!(!f32_exact(v), "{v:e}");
        }
    }
}
