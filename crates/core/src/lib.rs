//! # Insum — sparse GPU kernels from indirect Einsums
//!
//! Rust reproduction of *"Insum: Sparse GPU Kernels Simplified and
//! Optimized with Indirect Einsums"* (ASPLOS 2026). One indirect-Einsum
//! string compiles to a single fused, Tensor-Core-enabled kernel that
//! runs on the bundled RTX-3090-class simulator:
//!
//! ```
//! use insum::{insum, InsumOptions};
//! use insum_tensor::Tensor;
//! use std::collections::BTreeMap;
//!
//! # fn main() -> Result<(), insum::InsumError> {
//! // SpMM with A in COO format: C[AM[p], n] += AV[p] * B[AK[p], n]
//! let mut tensors = BTreeMap::new();
//! tensors.insert("C".into(), Tensor::zeros(vec![4, 32]));
//! tensors.insert("AM".into(), Tensor::from_indices(vec![3], vec![0, 2, 3])?);
//! tensors.insert("AK".into(), Tensor::from_indices(vec![3], vec![1, 0, 7])?);
//! tensors.insert("AV".into(), Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0])?);
//! tensors.insert("B".into(), Tensor::ones(vec![8, 32]));
//!
//! let op = insum("C[AM[p],n] += AV[p] * B[AK[p],n]", &tensors)?;
//! let (c, profile) = op.run(&tensors)?;
//! assert_eq!(c.at(&[2, 0]), 2.0);
//! assert_eq!(profile.launches(), 1); // fully fused
//! # Ok(())
//! # }
//! ```
//!
//! The pipeline is the paper's: parse ([`insum_lang`]) → FX-style graph
//! ([`insum_graph`]) → extended-Inductor codegen ([`insum_inductor`]) →
//! simulated GPU execution ([`insum_gpu`]).
//!
//! ## A compiled artifact is a plan of steps
//!
//! Both front doors — [`insum_with`] for one statement, [`plan`] for a
//! multi-operand contraction chain (`ij,jk,kl->il`, or a dense statement
//! with three or more factors) — return the same type, [`Compiled`]: an
//! ordered list of steps, each a **fast-path** stride view, a
//! **fused** generated kernel, the **unfused** one-kernel-per-node
//! ablation, or a **host**-evaluated rank-0 corner of a chain. A
//! statement is a chain of one step that binds the caller's tensors
//! directly; a planned chain threads zero-initialized temporaries from
//! step to step through its workspace and drops each after its last
//! consumer. One loop launches every artifact
//! ([`Compiled::run_batch_mode`]); [`Compiled::run`], [`Compiled::time`]
//! and [`Compiled::run_batch`] call it with a batch of one, the analytic
//! mode, and the caller's batch. The `compile` and `chain` module docs
//! carry the details.
//!
//! [`InsumOptions`] exposes the ablation axes (fusion, Tensor Cores, lazy
//! broadcasting, autotuning), and [`apps`] wraps the paper's four case
//! studies as one-expression calls.

pub mod apps;
mod chain;
mod compile;
mod error;
mod fastpath;
mod options;
mod tune;

pub use chain::{chain_reference, is_chain_expression, plan, plan_with_strategy, run_chain};
pub use compile::{eager, insum, insum_with, Compiled, LaunchSignature};
pub use error::InsumError;
pub use options::InsumOptions;
pub use tune::{pow2_candidates, tune_block_group_size, tune_group_size};

/// The pre-merge name of a planned chain's artifact. Kept for
/// `benchmark/src/workloads.rs` alone, which a simplification PR may not
/// edit; the next `[benchmark]` PR switches it to [`Compiled`] and
/// removes this alias.
#[doc(hidden)]
pub type CompiledChain = Compiled;

// Re-exports so downstream users need only this crate.
pub use insum_gpu::{DeviceModel, KernelReport, LaunchOptions, Mode, Profile};
pub use insum_inductor::{ProgramCache, ProgramCacheStats, TileConfig};
pub use insum_pattern::{classify_terms, Pattern};
pub use insum_planner::{ChainSpec, ContractionPlan, OrderStrategy, PlanStep, PlannerError};
pub use insum_tensor::{DType, Tensor};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, InsumError>;
