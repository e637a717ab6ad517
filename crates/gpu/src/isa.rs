//! One instruction-set ladder for every host-vector body of the
//! simulator: the exact-product `tl.dot` kernel, the canonical dot loop,
//! the elementwise block ops, and the value bodies of an access (the
//! widening row copies of a load, the stores and atomic adds of a write
//! with their f16 rounding, the staging of a broadcast value).
//!
//! A body is safe Rust in an `#[inline(always)]` [`Body::run`];
//! [`Isa::run`] enters it through one `#[target_feature]` function per
//! rung, so the same source is compiled once for baseline x86-64 and once
//! per wider rung, and [`Isa::detect`] picks the widest rung the host
//! has. The workspace itself builds for baseline x86-64 — nothing is set
//! through `RUSTFLAGS` or a cargo config — so any host can run the
//! `Portable` rung, and only a detected rung is ever entered.
//!
//! **Why the bits cannot differ between rungs.** A wider rung changes how
//! many lanes advance per instruction, never what one lane computes: each
//! lane keeps its own widening, narrowing, add, multiply, compare or
//! rounding step; no reduction is reassociated (LLVM vectorizes a
//! floating-point reduction only under fast-math flags, which Rust never
//! sets); and Rust never contracts a multiply and an add into an FMA —
//! enabling `fma` lets intrinsics use the instruction (the exact-product
//! kernel, where fusing is proven exact), not the compiler on its own.
//! Every body has a forced-rung differential test against `Portable`.

use std::sync::OnceLock;

/// The rungs of the ladder, narrowest first.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Isa {
    /// No target features: baseline x86-64 (SSE2), or any other target.
    Portable,
    /// AVX2 and FMA: 256-bit vectors.
    Avx2,
    /// AVX-512F on top of AVX2 and FMA: 512-bit vectors.
    Avx512,
}

impl Isa {
    /// Every rung, narrowest first.
    pub const ALL: [Isa; 3] = [Isa::Portable, Isa::Avx2, Isa::Avx512];

    /// Whether this host can run the rung: every rung includes the
    /// features of the narrower ones, so exactly the rungs up to the
    /// widest the host has.
    pub fn available(self) -> bool {
        self <= Isa::detect()
    }

    /// The widest rung this host can run, probed once per process (every
    /// value body asks, so the answer is one load).
    pub fn detect() -> Isa {
        static WIDEST: OnceLock<Isa> = OnceLock::new();
        *WIDEST.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") && has!("fma") {
                    return if has!("avx512f") {
                        Isa::Avx512
                    } else {
                        Isa::Avx2
                    };
                }
            }
            Isa::Portable
        })
    }

    /// Run `body` compiled for this rung.
    ///
    /// # Panics
    ///
    /// Panics if the host cannot run the rung.
    pub(crate) fn run<B: Body>(self, body: B) -> B::Out {
        assert!(self.available(), "{self:?} is not available on this host");
        match self {
            Isa::Portable => body.run(),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the rung's target features were detected just
            // above, and they are the entry's only requirement: the body
            // it runs is safe code.
            Isa::Avx2 => unsafe { run_avx2(body) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as for `Avx2`.
            Isa::Avx512 => unsafe { run_avx512(body) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable rung is available off x86-64"),
        }
    }
}

/// A loop nest [`Isa::run`] compiles once per rung. Every implementation
/// marks `run` `#[inline(always)]` (and so must everything it calls that
/// holds a hot loop): that is what puts its code inside each rung's
/// `#[target_feature]` entry rather than behind a call to one baseline
/// copy.
pub(crate) trait Body {
    type Out;
    fn run(self) -> Self::Out;
}

/// The AVX2 rung's entry.
///
/// # Safety
///
/// The host supports AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn run_avx2<B: Body>(body: B) -> B::Out {
    body.run()
}

/// The AVX-512 rung's entry.
///
/// # Safety
///
/// The host supports AVX-512F, AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx2,fma")]
unsafe fn run_avx512<B: Body>(body: B) -> B::Out {
    body.run()
}
