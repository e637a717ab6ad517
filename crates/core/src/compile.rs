//! The `insum(...)` entry point and compiled-operation handle.

use crate::fastpath::{try_fast_plan, FastOp};
use crate::options::InsumOptions;
use crate::Result;
use insum_gpu::{LaunchOptions, Mode, Profile};
use insum_graph::TensorMeta;
use insum_inductor::{autotune, compile_fused, compile_unfused, FusedOp, TileConfig, UnfusedOp};
use insum_lang::Statement;
use insum_pattern::Pattern;
use insum_tensor::Tensor;
use std::collections::BTreeMap;

enum Pipeline {
    /// Recognized canonical pattern: Program-less artifact executing
    /// through [`insum_gpu::run_micro`] (microkernels / stride views).
    FastPath(Box<FastOp>),
    Fused(Box<FusedOp>),
    Unfused(Box<UnfusedOp>),
}

/// A compiled indirect Einsum, ready to run on the simulated device.
///
/// [`Compiled::run`] and [`Compiled::time`] launch through the
/// process-wide [`insum_inductor::ProgramCache`]: the simulator's
/// ahead-of-time lowering happens once per distinct (kernel, grid,
/// argument metadata) — at compile/autotune time for the chosen
/// configuration — so repeated executions never re-lower.
pub struct Compiled {
    statement: Statement,
    pipeline: Pipeline,
    options: InsumOptions,
    /// Host wall-clock spent compiling (including autotuning), seconds.
    pub compile_seconds: f64,
    /// Autotuning sweep wall-clock, seconds (0 when disabled).
    pub autotune_seconds: f64,
    /// Configurations the autotuner fully measured.
    pub autotune_configs: usize,
    /// The autotuner's table — `(tile, estimated seconds, measured
    /// seconds)` per configuration, the default first; see
    /// [`insum_inductor::AutotuneResult::trials`]. Empty when autotuning
    /// was disabled or warm-started from a snapshot.
    pub autotune_trials: Vec<(TileConfig, f64, Option<f64>)>,
    /// Program-cache hits observed during the autotuning sweep (repeat
    /// compilations of an already-tuned workload hit on every trial).
    pub autotune_cache_hits: u64,
}

/// The identity of a compiled operation's simulator launch: the kernel's
/// structural fingerprint plus the launch grid (and the parameter order
/// the launch binds). Two [`Compiled`] handles with equal signatures and
/// equal argument metadata execute the same [`insum_gpu::Program`], so a
/// serving scheduler can batch their launches together.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LaunchSignature {
    /// Structural fingerprint of the fused kernel
    /// ([`insum_kernel::fingerprint`]).
    pub kernel_fingerprint: u64,
    /// The launch grid.
    pub grid: Vec<usize>,
    /// Tensor names in launch-argument order.
    pub params: Vec<String>,
}

impl Compiled {
    /// The parsed statement.
    pub fn statement(&self) -> &Statement {
        &self.statement
    }

    /// The options this operation was compiled with.
    pub fn options(&self) -> &InsumOptions {
        &self.options
    }

    /// The launch identity of the fused kernel, or `None` for the
    /// unfused pipeline (one launch per graph node — nothing a batching
    /// scheduler can group).
    pub fn launch_signature(&self) -> Option<LaunchSignature> {
        match &self.pipeline {
            Pipeline::Fused(op) => Some(LaunchSignature {
                kernel_fingerprint: insum_kernel::fingerprint(&op.kernel),
                grid: op.grid.clone(),
                params: op.plan.param_order.clone(),
            }),
            Pipeline::FastPath(_) | Pipeline::Unfused(_) => None,
        }
    }

    /// The recognized pattern this operation dispatches to, or `None`
    /// when it runs the general (fused or unfused) lowering.
    pub fn fast_path_pattern(&self) -> Option<&Pattern> {
        match &self.pipeline {
            Pipeline::FastPath(op) => Some(&op.pattern),
            _ => None,
        }
    }

    /// Number of kernels launched per run (1 when fused; fast-path
    /// artifacts report 1 even when a stride view launches nothing —
    /// the profile still carries one report per run).
    pub fn kernel_count(&self) -> usize {
        match &self.pipeline {
            Pipeline::FastPath(_) | Pipeline::Fused(_) => 1,
            Pipeline::Unfused(op) => op.kernel_count,
        }
    }

    /// The generated Triton-like source listing (all kernels).
    pub fn triton_source(&self) -> String {
        match &self.pipeline {
            Pipeline::FastPath(op) => format!(
                "# fast path: {} microkernel / stride view — no kernel generated",
                op.pattern.name()
            ),
            Pipeline::Fused(op) => insum_kernel::print_kernel(&op.kernel),
            Pipeline::Unfused(_) => {
                "# unfused pipeline: one stock-Inductor kernel per FX node".to_string()
            }
        }
    }

    /// True if the compiled kernel reduces through `tl.dot`.
    pub fn uses_tensor_cores(&self) -> bool {
        match &self.pipeline {
            Pipeline::FastPath(_) => false,
            Pipeline::Fused(op) => op.uses_dot,
            Pipeline::Unfused(_) => self.options.tensor_cores,
        }
    }

    /// Execute functionally: returns the output tensor and the profile.
    ///
    /// Argument capture is zero-copy (`Tensor` clones share storage);
    /// `tensors` is never mutated — the returned output tensor
    /// materializes its own buffer on the kernel's first write.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors.
    pub fn run(&self, tensors: &BTreeMap<String, Tensor>) -> Result<(Tensor, Profile)> {
        self.dispatch(tensors, Mode::Execute)
    }

    /// Measure without computing values (analytic mode): counters and
    /// simulated time are identical to [`Compiled::run`], but value math
    /// is skipped and no tensor is written.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors.
    pub fn time(&self, tensors: &BTreeMap<String, Tensor>) -> Result<Profile> {
        Ok(self.dispatch(tensors, Mode::Analytic)?.1)
    }

    /// Execute one launch per request of a batch, sharing a single pool
    /// of simulator threads across the whole batch (the serving engine's
    /// entry point; see [`insum_inductor::run_fused_batch_with`]).
    ///
    /// Every request must bind tensors with the same shapes and dtypes
    /// this operation was compiled for. Each request's result is
    /// bit-identical — output tensor and [`Profile`] — to a serial
    /// per-request [`Compiled::run`], regardless of batch composition or
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors (first failing request
    /// wins).
    pub fn run_batch(&self, batch: &[&BTreeMap<String, Tensor>]) -> Result<Vec<(Tensor, Profile)>> {
        self.run_batch_mode(batch, Mode::Execute, &self.options.launch())
    }

    /// [`Compiled::run_batch`] with an explicit interpreter mode and
    /// simulator scheduling options (the thread budget in `launch` is
    /// shared across the batch). [`Mode::Analytic`] skips value math and
    /// returns each request's unmodified output binding, exactly like
    /// [`Compiled::time`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Compiled::run_batch`].
    pub fn run_batch_mode(
        &self,
        batch: &[&BTreeMap<String, Tensor>],
        mode: Mode,
        launch: &LaunchOptions,
    ) -> Result<Vec<(Tensor, Profile)>> {
        match &self.pipeline {
            // Fast-path artifacts have no shared simulator launch to
            // batch; requests run back-to-back (each is already cheap).
            Pipeline::FastPath(op) => {
                // Fault-injection parity with the fused batched runner:
                // a marked tensor bound by any request must fault this
                // launch too (without the feature the argument lists
                // are never built).
                insum_inductor::batch_fault_check(|| {
                    batch.iter().map(|tensors| op.bound_args(tensors)).collect()
                });
                batch
                    .iter()
                    .map(|tensors| {
                        let (out, report) = op.run(tensors, mode, &self.options)?;
                        let mut profile = Profile::new();
                        profile.push(report);
                        Ok((out, profile))
                    })
                    .collect()
            }
            Pipeline::Fused(op) => {
                let results = insum_inductor::run_fused_batch_with(
                    op,
                    batch,
                    &self.options.device,
                    mode,
                    launch,
                )?;
                Ok(results
                    .into_iter()
                    .map(|(out, report)| {
                        let mut profile = Profile::new();
                        profile.push(report);
                        (out, profile)
                    })
                    .collect())
            }
            // The unfused pipeline launches one kernel per graph node
            // with materialized intermediates; requests run back-to-back
            // (trivially identical to serial execution).
            Pipeline::Unfused(op) => batch
                .iter()
                .map(|tensors| {
                    Ok(insum_inductor::run_unfused_with(
                        op,
                        tensors,
                        &self.options.device,
                        mode,
                        launch,
                    )?)
                })
                .collect(),
        }
    }

    fn dispatch(
        &self,
        tensors: &BTreeMap<String, Tensor>,
        mode: Mode,
    ) -> Result<(Tensor, Profile)> {
        match &self.pipeline {
            Pipeline::FastPath(op) => {
                let (out, report) = op.run(tensors, mode, &self.options)?;
                let mut profile = Profile::new();
                profile.push(report);
                Ok((out, profile))
            }
            Pipeline::Fused(op) => {
                let (out, report) = insum_inductor::run_fused_with(
                    op,
                    tensors,
                    &self.options.device,
                    mode,
                    &self.options.launch(),
                )?;
                let mut profile = Profile::new();
                profile.push(report);
                Ok((out, profile))
            }
            Pipeline::Unfused(op) => {
                let (out, profile) = insum_inductor::run_unfused_with(
                    op,
                    tensors,
                    &self.options.device,
                    mode,
                    &self.options.launch(),
                )?;
                Ok((out, profile))
            }
        }
    }
}

fn metas_of(tensors: &BTreeMap<String, Tensor>) -> BTreeMap<String, TensorMeta> {
    tensors
        .iter()
        .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
        .collect()
}

/// Compile an indirect Einsum with the default (full-paper) options.
///
/// # Errors
///
/// Propagates parsing, analysis, and codegen errors.
pub fn insum(expression: &str, tensors: &BTreeMap<String, Tensor>) -> Result<Compiled> {
    insum_with(expression, tensors, &InsumOptions::default())
}

/// Compile an indirect Einsum with explicit options.
///
/// `tensors` supplies the shapes/dtypes (and, when autotuning, the actual
/// data the tuner measures against).
///
/// # Errors
///
/// Propagates parsing, analysis, and codegen errors.
pub fn insum_with(
    expression: &str,
    tensors: &BTreeMap<String, Tensor>,
    options: &InsumOptions,
) -> Result<Compiled> {
    options.validate()?;
    let start = std::time::Instant::now();
    let statement = insum_lang::parse(expression)?;
    let metas = metas_of(tensors);
    let mut autotune_seconds = 0.0;
    let mut autotune_configs = 0;
    let mut autotune_trials = Vec::new();
    let mut autotune_cache_hits = 0;
    let pipeline = if let Some(op) = try_fast_plan(&statement, &metas, options) {
        Pipeline::FastPath(Box::new(op))
    } else if options.fuse {
        let plan = insum_inductor::build_plan(&statement, &metas)?;
        let op = if options.autotune {
            let result = autotune(
                &plan,
                &options.codegen(),
                tensors,
                &options.device,
                &options.launch(),
            )?;
            autotune_seconds = result.tuning_wall_seconds;
            autotune_configs = result.configs_tried;
            autotune_trials = result.trials;
            autotune_cache_hits = result.cache_hits;
            result.op
        } else {
            compile_fused(&plan, &options.codegen())?
        };
        Pipeline::Fused(Box::new(op))
    } else {
        let lowered = insum_graph::lower(&statement, &metas)?;
        Pipeline::Unfused(Box::new(compile_unfused(&lowered, &options.codegen())?))
    };
    Ok(Compiled {
        statement,
        pipeline,
        options: options.clone(),
        compile_seconds: start.elapsed().as_secs_f64(),
        autotune_seconds,
        autotune_configs,
        autotune_trials,
        autotune_cache_hits,
    })
}

/// Evaluate an indirect Einsum eagerly (the PyTorch-eager reference
/// semantics); used for verification, not performance.
///
/// # Errors
///
/// Propagates parsing, lowering, and execution errors.
pub fn eager(expression: &str, tensors: &BTreeMap<String, Tensor>) -> Result<Tensor> {
    let statement = insum_lang::parse(expression)?;
    let lowered = insum_graph::lower(&statement, &metas_of(tensors))?;
    Ok(insum_graph::execute(&lowered.graph, tensors)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InsumError;
    use insum_tensor::{rand_uniform, randint};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn spmm_tensors() -> BTreeMap<String, Tensor> {
        let mut rng = SmallRng::seed_from_u64(1);
        let nnz = 29;
        [
            ("C".to_string(), Tensor::zeros(vec![16, 32])),
            ("AM".to_string(), randint(vec![nnz], 16, &mut rng)),
            ("AK".to_string(), randint(vec![nnz], 24, &mut rng)),
            (
                "AV".to_string(),
                rand_uniform(vec![nnz], -1.0, 1.0, &mut rng),
            ),
            (
                "B".to_string(),
                rand_uniform(vec![24, 32], -1.0, 1.0, &mut rng),
            ),
        ]
        .into_iter()
        .collect()
    }

    const SPMM: &str = "C[AM[p],n] += AV[p] * B[AK[p],n]";

    #[test]
    fn fused_run_matches_eager() {
        let tensors = spmm_tensors();
        let op = insum(SPMM, &tensors).unwrap();
        let (got, profile) = op.run(&tensors).unwrap();
        let want = eager(SPMM, &tensors).unwrap();
        assert!(got.allclose(&want, 1e-4, 1e-4));
        assert_eq!(profile.launches(), 1);
        assert_eq!(op.kernel_count(), 1);
    }

    #[test]
    fn unfused_run_matches_eager() {
        let tensors = spmm_tensors();
        let op = insum_with(SPMM, &tensors, &InsumOptions::unfused()).unwrap();
        let (got, profile) = op.run(&tensors).unwrap();
        let want = eager(SPMM, &tensors).unwrap();
        assert!(got.allclose(&want, 1e-4, 1e-4));
        assert!(profile.launches() >= 3, "gather + matmul + scatter");
        assert!(op.kernel_count() >= 3);
    }

    #[test]
    fn fused_beats_unfused() {
        let tensors = spmm_tensors();
        let fused = insum(SPMM, &tensors).unwrap();
        let unfused = insum_with(SPMM, &tensors, &InsumOptions::unfused()).unwrap();
        let t_f = fused.time(&tensors).unwrap().total_time();
        let t_u = unfused.time(&tensors).unwrap().total_time();
        assert!(t_f < t_u, "fused {t_f:.3e} vs unfused {t_u:.3e}");
    }

    #[test]
    fn time_is_side_effect_free() {
        let tensors = spmm_tensors();
        let op = insum(SPMM, &tensors).unwrap();
        let p1 = op.time(&tensors).unwrap();
        let (out, p2) = op.run(&tensors).unwrap();
        assert_eq!(
            p1.total_time(),
            p2.total_time(),
            "analytic and execute agree on cost"
        );
        assert!(out.sum().abs() > 0.0);
    }

    #[test]
    fn autotune_records_metadata() {
        let tensors = spmm_tensors();
        let op = insum_with(SPMM, &tensors, &InsumOptions::autotuned()).unwrap();
        assert!(op.autotune_configs > 1);
        // The table lists every candidate; the measured ones come first.
        let measured = op.autotune_trials.iter().filter(|t| t.2.is_some());
        assert_eq!(measured.count(), op.autotune_configs);
        assert!(op.autotune_trials.len() >= op.autotune_configs);
        assert!(op.autotune_seconds > 0.0);
        assert!(op.compile_seconds >= op.autotune_seconds);
        let (got, _) = op.run(&tensors).unwrap();
        let want = eager(SPMM, &tensors).unwrap();
        assert!(got.allclose(&want, 1e-4, 1e-4));
    }

    #[test]
    fn run_batch_matches_serial_runs_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(9);
        let base = spmm_tensors();
        let requests: Vec<BTreeMap<String, Tensor>> = (0..4)
            .map(|_| {
                let mut t = base.clone();
                t.insert(
                    "B".to_string(),
                    rand_uniform(vec![24, 32], -1.0, 1.0, &mut rng),
                );
                t
            })
            .collect();
        let op = insum(SPMM, &requests[0]).unwrap();
        let serial: Vec<(Tensor, Profile)> = requests.iter().map(|r| op.run(r).unwrap()).collect();
        let refs: Vec<&BTreeMap<String, Tensor>> = requests.iter().collect();
        let batched = op.run_batch(&refs).unwrap();
        assert_eq!(batched.len(), serial.len());
        for ((got_t, got_p), (want_t, want_p)) in batched.iter().zip(&serial) {
            assert_eq!(got_t.data(), want_t.data());
            assert_eq!(got_p, want_p);
        }
        // Unfused pipeline: batch loops per request, identical results.
        let op_u = insum_with(SPMM, &requests[0], &InsumOptions::unfused()).unwrap();
        assert!(op_u.launch_signature().is_none());
        let batched_u = op_u.run_batch(&refs).unwrap();
        for ((got_t, got_p), r) in batched_u.iter().zip(&requests) {
            let (want_t, want_p) = op_u.run(r).unwrap();
            assert_eq!(got_t.data(), want_t.data());
            assert_eq!(*got_p, want_p);
        }
    }

    #[test]
    fn launch_signature_identifies_the_fused_launch() {
        let tensors = spmm_tensors();
        let a = insum(SPMM, &tensors).unwrap();
        let b = insum(SPMM, &tensors).unwrap();
        let sig_a = a.launch_signature().unwrap();
        let sig_b = b.launch_signature().unwrap();
        assert_eq!(sig_a, sig_b, "same expression + shapes, same launch");
        assert!(!sig_a.grid.is_empty());
        assert!(sig_a.params.contains(&"C".to_string()));
        assert!(a.options().fuse);
    }

    #[test]
    fn zero_sim_threads_rejected_at_compile() {
        let tensors = spmm_tensors();
        let opts = InsumOptions {
            sim_threads: Some(0),
            ..Default::default()
        };
        assert!(matches!(
            insum_with(SPMM, &tensors, &opts),
            Err(InsumError::Config(_))
        ));
    }

    #[test]
    fn triton_source_is_printable() {
        let tensors = spmm_tensors();
        let op = insum(SPMM, &tensors).unwrap();
        let src = op.triton_source();
        assert!(src.contains("@triton.jit"));
        assert!(src.contains("tl.atomic_add"));
    }

    #[test]
    fn missing_tensor_reported_at_compile() {
        let mut tensors = spmm_tensors();
        tensors.remove("B");
        assert!(insum(SPMM, &tensors).is_err());
    }

    #[test]
    fn parse_error_surfaces() {
        let tensors = spmm_tensors();
        assert!(matches!(
            insum("C[i] ?= A[i]", &tensors),
            Err(InsumError::Lang(_))
        ));
    }
}
