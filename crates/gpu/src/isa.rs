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

    /// Whether this host can run the rung (the standard library caches
    /// the CPUID probe).
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => std::arch::is_x86_feature_detected!("avx512f") && Isa::Avx2.available(),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest rung this host can run.
    pub fn detect() -> Isa {
        if Isa::Avx512.available() {
            Isa::Avx512
        } else if Isa::Avx2.available() {
            Isa::Avx2
        } else {
            Isa::Portable
        }
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
            // SAFETY: the rung's target features were detected just
            // above, and they are the entry's only requirement: the body
            // it runs is safe code.
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => unsafe { run_avx2(body) },
            // SAFETY: as for `Avx2`.
            #[cfg(target_arch = "x86_64")]
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
