//! A Triton-like block-program kernel IR (§5.2 of the paper).
//!
//! On the real system, Insum's extended TorchInductor emits Triton source:
//! block programs that compute on small tiles with `tl.load`/`tl.store`,
//! reduce with `tl.dot`/`tl.sum`, and scatter with `tl.atomic_add`. This
//! crate defines the equivalent IR for the reproduction. Programs written
//! in it — whether generated by `insum-inductor` or hand-written in
//! `insum-baselines` — execute on the `insum-gpu` simulator, which charges
//! every instruction to the device cost model.
//!
//! A [`Kernel`] is a list of [`Instr`]s over virtual registers holding
//! *blocks* (small n-d arrays). The grid is supplied at launch; each
//! program instance reads its coordinates with [`Instr::ProgramId`].
//!
//! **Register edges.** This crate alone states which registers an
//! instruction touches: [`Instr::dst`] (the register it writes, a loop's
//! variable included), [`Instr::operands`] (the registers it reads, each
//! [`Use::Value`] or [`Use::Index`] — an access's offset or mask, a
//! dynamic loop's bounds, where a value slice is cut) and [`Instr::body`],
//! with [`visit_instrs`] the one pre-order walk. [`Kernel::validate`],
//! [`param_usage`], [`Kernel::instruction_count`] and the simulator's
//! analyses use them, so a new variant is taught to those three methods
//! and nowhere else that deals in registers.
//!
//! The [`print_kernel`] pretty-printer renders a kernel as Triton-flavoured
//! pseudo-Python, used for golden codegen tests (paper Fig. 8) and
//! lines-of-code accounting (paper Table 1).

mod analysis;
mod builder;
mod ir;
mod printer;

pub use analysis::{fingerprint, param_usage, Fnv, ParamUsage};
pub use builder::KernelBuilder;
pub use ir::{visit_instrs, BinOp, Instr, Kernel, KernelError, Operands, ParamDecl, Reg, Use};
pub use printer::print_kernel;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, KernelError>;
