//! The TorchInductor analogue: lowering indirect Einsums to fused,
//! Tensor-Core-enabled kernels (§5.2 of the paper).
//!
//! Stock TorchInductor fuses pointwise chains but routes matrix multiplies
//! through a hand-written template, so an indirect Einsum becomes **three**
//! kernels — gather, template matmul, scatter — with large intermediates
//! materialized in DRAM. The paper extends Inductor with an `ops.dot` IR
//! node (pattern-matched from broadcast-multiply + sum), explicit 2-D
//! tiling over the output, and *lazy broadcasting* so `tl.dot` operands
//! are produced in their natural `(Y, R)` / `(R, X)` layouts without
//! `tl.view`/`tl.trans` round trips.
//!
//! This crate reproduces both paths:
//!
//! * [`compile_unfused`] walks the FX graph from `insum-graph` and emits
//!   one kernel per node (gather kernels, a matmul kernel, a scatter
//!   kernel), materializing intermediates — the stock-Inductor baseline
//!   of the paper's ablation (Fig. 13, rows 1–4).
//! * [`compile_fused`] builds a [`FusionPlan`] that classifies every index
//!   variable into grid / Y / X / flattened-R roles (the tiling decision
//!   of §5.2.2) and emits a **single** kernel that gathers, multiplies,
//!   reduces (with `tl.dot` when a `(Y,R)×(R,X)` partition exists), and
//!   scatters. [`CodegenOptions::lazy_broadcast`] switches between the
//!   lazy layout tracking of §5.2.3 and the eager mode that pays
//!   `tl.view`/`tl.trans` shared-memory traffic before every dot.
//! * [`autotune`] searches the power-of-two tile configurations
//!   ([`tile_candidates`]) with analytic simulator launches — the
//!   "compile + autotune" cost that Table 3 charges against Insum —
//!   ranking them by one-instance probes and fully launching only the
//!   ones that can still win.

mod autotune;
mod cache;
mod codegen;
mod error;
#[cfg(feature = "fault-injection")]
#[doc(hidden)]
pub mod faults;
mod plan;
mod runner;
mod snapshot;
mod unfused;
mod winners;

pub use autotune::{autotune, autotune_with, tile_candidates, AutotuneResult};
pub use cache::{ProgramCache, ProgramCacheStats};
pub use codegen::{compile_fused, CodegenOptions, FusedOp};
pub use error::InductorError;
pub use plan::{build_plan, DimDesc, FactorDesc, FusionPlan, Role};
pub use runner::{run_fused_batch_with_cache, run_fused_with_cache};
pub use snapshot::{load_snapshot_with, save_snapshot_with, SnapshotLoadReport};
pub use unfused::{compile_unfused, run_unfused_with_cache, UnfusedOp};
pub use winners::{AutotuneCache, TileConfig};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InductorError>;

/// Mid-plan fault check for batched launches that bypass the fused
/// runner (the fast-path microkernels and stride views execute without
/// a compiled program, so [`run_fused_batch_with_cache`]'s hook never
/// sees them). Panics if a marked tensor is bound anywhere in the
/// argument lists `args` builds; without the `fault-injection` feature
/// it compiles to a no-op and `args` is never called.
pub fn batch_fault_check(args: impl FnOnce() -> Vec<Vec<insum_tensor::Tensor>>) {
    #[cfg(feature = "fault-injection")]
    faults::maybe_panic_batch(&args());
    #[cfg(not(feature = "fault-injection"))]
    let _ = args;
}
