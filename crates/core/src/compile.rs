//! The compiled artifact: a plan of steps, and the one path that
//! launches it.
//!
//! Everything the front doors produce — [`insum_with`] for one statement,
//! [`crate::plan`] for a multi-operand contraction chain — is a
//! [`Compiled`]: an ordered list of steps plus, for planned chains, the
//! workspace layout that threads temporaries from one step to the next.
//! A statement is a chain of one step; a single request is a batch of
//! one. There are four step kinds:
//!
//! * **fast path** — the statement is a transpose or diagonal in the
//!   [`insum_pattern`] recognition table ([`crate::fastpath`]): no kernel
//!   is generated, the step returns a zero-copy stride view;
//! * **fused** — the paper's pipeline: one generated kernel that gathers,
//!   contracts (with `tl.dot` when legal) and scatters, launched through
//!   the process-wide [`ProgramCache`];
//! * **unfused** — the stock-Inductor ablation (`fuse: false`): one
//!   kernel per FX node with materialized intermediates;
//! * **host** — a rank-0 corner of a planned chain. `T[]` is not a legal
//!   access in the statement language, so a pairwise step whose output is
//!   rank-0 (or that consumes a rank-0 temporary) is evaluated on the
//!   host by the same pairwise evaluator the reference oracle uses; it
//!   contributes no simulated launch.
//!
//! [`Compiled::compile_step`] picks the kind (it is the body both front
//! doors share), [`Compiled::launch_step`] launches any kind for a whole
//! batch, and [`Compiled::run_batch_mode`] is the only loop over steps:
//! [`Compiled::run`], [`Compiled::time`] and [`Compiled::run_batch`] are
//! its one-line callers. A statement's step binds straight from the
//! callers' tensor maps; a planned chain's steps bind from maps the
//! workspace assembles per step (operands, live temporaries, output).

use crate::chain::Workspace;
use crate::fastpath::{try_fast_plan, FastOp};
use crate::options::InsumOptions;
use crate::Result;
use insum_gpu::{LaunchOptions, Mode, Profile};
use insum_graph::TensorMeta;
use insum_inductor::{
    autotune, compile_fused, compile_unfused, run_fused_batch_with_cache, run_unfused_with_cache,
    FusedOp, ProgramCache, TileConfig, UnfusedOp,
};
use insum_lang::Statement;
use insum_pattern::Pattern;
use insum_planner::ContractionPlan;
use insum_tensor::Tensor;
use std::collections::BTreeMap;

/// One step of a compiled artifact; see the module docs for the kinds.
pub(crate) enum Step {
    FastPath(Box<FastOp>),
    Fused(Box<FusedOp>),
    Unfused(Box<UnfusedOp>),
    Host,
}

/// A compiled indirect Einsum or contraction chain, ready to run on the
/// simulated device: a plan of steps (one for a statement compiled by
/// [`insum_with`], one per pairwise contraction for a chain planned by
/// [`crate::plan`]).
///
/// Every launch goes through the process-wide
/// [`insum_inductor::ProgramCache`]: the simulator's ahead-of-time
/// lowering happens once per distinct (kernel, grid, argument metadata)
/// — at compile/autotune time for the chosen configuration — so repeated
/// executions never re-lower.
pub struct Compiled {
    expression: String,
    pub(crate) statement: Option<Statement>,
    pub(crate) steps: Vec<Step>,
    /// How a planned chain threads temporaries between its steps; `None`
    /// for a statement, whose one step binds the caller's tensors as is.
    pub(crate) workspace: Option<Workspace>,
    options: InsumOptions,
    /// Host wall-clock spent planning and compiling every step
    /// (including autotuning), seconds.
    pub compile_seconds: f64,
    /// Autotuning sweep wall-clock over all steps, seconds (0 when
    /// disabled).
    pub autotune_seconds: f64,
    /// Configurations the autotuner fully measured, over all steps.
    pub autotune_configs: usize,
    /// The autotuner's table — `(tile, estimated seconds, measured
    /// seconds)` per configuration, the default first, one table per
    /// tuned step in step order; see
    /// [`insum_inductor::AutotuneResult::trials`]. Empty when autotuning
    /// was disabled or warm-started from a snapshot.
    pub autotune_trials: Vec<(TileConfig, f64, Option<f64>)>,
    /// Program-cache hits observed during the autotuning sweeps (repeat
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
    /// An artifact with no steps yet; the front doors fill it in.
    pub(crate) fn new(expression: &str, options: &InsumOptions) -> Compiled {
        Compiled {
            expression: expression.to_string(),
            statement: None,
            steps: Vec::new(),
            workspace: None,
            options: options.clone(),
            compile_seconds: 0.0,
            autotune_seconds: 0.0,
            autotune_configs: 0,
            autotune_trials: Vec::new(),
            autotune_cache_hits: 0,
        }
    }

    /// The originating expression (statement or chain-spec form), as
    /// passed to [`insum_with`] / [`crate::plan`].
    pub fn expression(&self) -> &str {
        &self.expression
    }

    /// The parsed statement of an artifact compiled by [`insum_with`];
    /// `None` for a planned chain (its steps are planner-generated
    /// pairwise statements).
    pub fn statement(&self) -> Option<&Statement> {
        self.statement.as_ref()
    }

    /// The options every step was compiled with.
    pub fn options(&self) -> &InsumOptions {
        &self.options
    }

    /// The contraction plan (order, steps, workspace accounting) of an
    /// artifact built by [`crate::plan`]; `None` for a statement.
    pub fn plan(&self) -> Option<&ContractionPlan> {
        self.workspace.as_ref().map(|ws| &ws.plan)
    }

    /// Number of steps (1 for a statement, one per pairwise contraction
    /// for a planned chain).
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Steps lowered to the device (the rest are host-evaluated rank-0
    /// corners of a planned chain).
    pub fn device_step_count(&self) -> usize {
        self.plan().map_or(1, ContractionPlan::device_step_count)
    }

    /// Device steps lowered through the general (fused or unfused)
    /// pipeline, i.e. the ones whose programs live in the cross-launch
    /// `ProgramCache`. Steps that classified onto the pattern fast path
    /// return stride views and lower no programs at all,
    /// so they are excluded here (the compile-once benchmarks count
    /// cache hits per program-backed step).
    pub fn program_step_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, Step::Fused(_) | Step::Unfused(_)))
            .count()
    }

    /// The launch identity of an artifact that is exactly one fused
    /// kernel, or `None` otherwise (fast-path and unfused steps, and
    /// multi-step chains, have no single launch a batching scheduler
    /// could compare).
    pub fn launch_signature(&self) -> Option<LaunchSignature> {
        let [Step::Fused(op)] = self.steps.as_slice() else {
            return None;
        };
        Some(LaunchSignature {
            kernel_fingerprint: insum_kernel::fingerprint(&op.kernel),
            grid: op.grid.clone(),
            params: op.plan.param_order.clone(),
        })
    }

    /// The recognized pattern an artifact that is exactly one fast-path
    /// step dispatches to, or `None` when it runs the general (fused or
    /// unfused) lowering or has several steps.
    pub fn fast_path_pattern(&self) -> Option<&Pattern> {
        let [Step::FastPath(op)] = self.steps.as_slice() else {
            return None;
        };
        Some(&op.pattern)
    }

    /// Number of kernels launched per run: 1 per fused step, the node
    /// count of an unfused step, none for a host step. A fast-path step
    /// reports 1 although its stride view launches nothing — the profile
    /// still carries one report per run.
    pub fn kernel_count(&self) -> usize {
        self.steps
            .iter()
            .map(|step| match step {
                Step::FastPath(_) | Step::Fused(_) => 1,
                Step::Unfused(op) => op.kernel_count,
                Step::Host => 0,
            })
            .sum()
    }

    /// The generated Triton-like source listing (all kernels, in step
    /// order).
    pub fn triton_source(&self) -> String {
        let listings: Vec<String> = self
            .steps
            .iter()
            .map(|step| match step {
                Step::FastPath(op) => format!(
                    "# fast path: {} stride view — no kernel generated",
                    op.pattern.name()
                ),
                Step::Fused(op) => insum_kernel::print_kernel(&op.kernel),
                Step::Unfused(_) => {
                    "# unfused pipeline: one stock-Inductor kernel per FX node".to_string()
                }
                Step::Host => "# host step: rank-0 contraction evaluated on the host".to_string(),
            })
            .collect();
        listings.join("\n")
    }

    /// True if any compiled kernel reduces through `tl.dot`.
    pub fn uses_tensor_cores(&self) -> bool {
        self.steps.iter().any(|step| match step {
            Step::Fused(op) => op.uses_dot,
            Step::Unfused(_) => self.options.tensor_cores,
            Step::FastPath(_) | Step::Host => false,
        })
    }

    /// Execute functionally: returns the output tensor and the launch
    /// profile (every step's reports, in step order).
    ///
    /// `tensors` binds every operand by name. Argument capture is
    /// zero-copy (`Tensor` clones share storage) and `tensors` is never
    /// mutated — the returned output tensor materializes its own buffer
    /// on the kernel's first write. A planned chain requires (and adds
    /// into) the output binding only for `+=`; for `=` chains the result
    /// is the pure chain value whatever the binding holds.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors.
    pub fn run(&self, tensors: &BTreeMap<String, Tensor>) -> Result<(Tensor, Profile)> {
        Ok(self
            .run_batch_mode(&[tensors], Mode::Execute, &self.options.launch_options())?
            .remove(0))
    }

    /// Measure without computing values (analytic mode): counters and
    /// simulated time are identical to [`Compiled::run`], but value math
    /// is skipped, no tensor is written and host steps are skipped.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors.
    pub fn time(&self, tensors: &BTreeMap<String, Tensor>) -> Result<Profile> {
        Ok(self
            .run_batch_mode(&[tensors], Mode::Analytic, &self.options.launch_options())?
            .remove(0)
            .1)
    }

    /// Execute one run per request of a batch, sharing a single pool of
    /// simulator threads across the whole batch (the serving engine's
    /// entry point; see [`insum_inductor::run_fused_batch_with_cache`]).
    ///
    /// Every request must bind tensors with the same shapes and dtypes
    /// this artifact was compiled for. Each request's result is
    /// bit-identical — output tensor and [`Profile`] — to a serial
    /// per-request [`Compiled::run`], regardless of batch composition or
    /// thread count.
    ///
    /// # Errors
    ///
    /// Propagates binding and simulator errors (first failing request
    /// wins, failing the whole batch — the serving engine then isolates
    /// by re-running requests alone).
    pub fn run_batch(&self, batch: &[&BTreeMap<String, Tensor>]) -> Result<Vec<(Tensor, Profile)>> {
        self.run_batch_mode(batch, Mode::Execute, &self.options.launch_options())
    }

    /// [`Compiled::run_batch`] with an explicit interpreter mode and
    /// simulator scheduling options (the thread budget in `launch` is
    /// shared across the batch). Batching applies *per step*: all
    /// requests' instances of step `k` run as one batched launch before
    /// any request proceeds to step `k + 1`. [`Mode::Analytic`] skips
    /// value math and returns each request's unmodified output binding,
    /// exactly like [`Compiled::time`].
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
        let mut profiles = vec![Profile::new(); batch.len()];
        let outputs = match &self.workspace {
            // A statement: its one step binds the callers' maps as is.
            None => self.launch_step(0, batch, mode, launch, &mut profiles)?,
            Some(workspace) => {
                let mut temps = vec![vec![None; workspace.plan.temp_count]; batch.len()];
                let mut outputs = Vec::new();
                for (index, step) in workspace.plan.steps.iter().enumerate() {
                    let maps: Vec<BTreeMap<String, Tensor>> = batch
                        .iter()
                        .zip(&temps)
                        .map(|(user, live)| workspace.step_bindings(step, user, live))
                        .collect::<Result<_>>()?;
                    let refs: Vec<&BTreeMap<String, Tensor>> = maps.iter().collect();
                    let produced = self.launch_step(index, &refs, mode, launch, &mut profiles)?;
                    match step.out_temp {
                        Some(k) => {
                            for (live, out) in temps.iter_mut().zip(produced) {
                                live[k] = Some(out);
                            }
                        }
                        None => outputs = produced,
                    }
                    for live in &mut temps {
                        for &k in &step.frees {
                            live[k] = None;
                        }
                    }
                }
                assert_eq!(outputs.len(), batch.len(), "plans end with the output step");
                outputs
            }
        };
        Ok(outputs.into_iter().zip(profiles).collect())
    }

    /// Launch step `index` once per request of `batch` (each map binds
    /// that step's tensors by name), appending every launch report to
    /// the request's profile and returning the step's outputs. The one
    /// place that knows how each step kind executes.
    fn launch_step(
        &self,
        index: usize,
        batch: &[&BTreeMap<String, Tensor>],
        mode: Mode,
        launch: &LaunchOptions,
        profiles: &mut [Profile],
    ) -> Result<Vec<Tensor>> {
        let device = &self.options.device;
        let cache = ProgramCache::global();
        let mut outputs = Vec::with_capacity(batch.len());
        match &self.steps[index] {
            // No shared simulator launch to batch; requests run
            // back-to-back (each is already cheap).
            Step::FastPath(op) => {
                // Fault-injection parity with the fused batched runner:
                // a marked tensor bound by any request must fault this
                // launch too (without the feature the argument lists
                // are never built).
                insum_inductor::batch_fault_check(|| {
                    batch.iter().map(|tensors| op.bound_args(tensors)).collect()
                });
                for (tensors, profile) in batch.iter().zip(profiles) {
                    let (out, report) = op.run(tensors, mode, device)?;
                    profile.push(report);
                    outputs.push(out);
                }
            }
            Step::Fused(op) => {
                let results = run_fused_batch_with_cache(op, batch, device, mode, launch, cache)?;
                for ((out, report), profile) in results.into_iter().zip(profiles) {
                    profile.push(report);
                    outputs.push(out);
                }
            }
            // One kernel per graph node with materialized intermediates;
            // requests run back-to-back (trivially identical to serial
            // execution).
            Step::Unfused(op) => {
                for (tensors, profile) in batch.iter().zip(profiles) {
                    let (out, launched) =
                        run_unfused_with_cache(op, tensors, device, mode, launch, cache)?;
                    profile.reports.extend(launched.reports);
                    outputs.push(out);
                }
            }
            Step::Host => {
                let workspace = self.workspace.as_ref().expect("only plans hold host steps");
                for tensors in batch {
                    outputs.push(workspace.host_step(index, tensors, mode)?);
                }
            }
        }
        Ok(outputs)
    }

    /// Compile one statement into the next step: the fast path when the
    /// gate takes it, else the fused pipeline (autotuned when asked), or
    /// the unfused one under `fuse: false`. `tensors` supplies the
    /// shapes/dtypes (and, when autotuning, the data the tuner measures
    /// against).
    pub(crate) fn compile_step(
        &mut self,
        statement: &Statement,
        tensors: &BTreeMap<String, Tensor>,
    ) -> Result<()> {
        let options = &self.options;
        let metas = metas_of(tensors);
        let step = if let Some(op) = try_fast_plan(statement, &metas, options) {
            Step::FastPath(Box::new(op))
        } else if options.fuse {
            let plan = insum_inductor::build_plan(statement, &metas)?;
            let op = if options.autotune {
                let result = autotune(
                    &plan,
                    &options.codegen(),
                    tensors,
                    &options.device,
                    &options.launch_options(),
                )?;
                self.autotune_seconds += result.tuning_wall_seconds;
                self.autotune_configs += result.configs_tried;
                self.autotune_trials.extend(result.trials);
                self.autotune_cache_hits += result.cache_hits;
                result.op
            } else {
                compile_fused(&plan, &options.codegen())?
            };
            Step::Fused(Box::new(op))
        } else {
            let lowered = insum_graph::lower(statement, &metas)?;
            Step::Unfused(Box::new(compile_unfused(&lowered, &options.codegen())?))
        };
        self.steps.push(step);
        Ok(())
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

/// Compile an indirect Einsum with explicit options: a [`Compiled`] of
/// one step.
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
    let mut compiled = Compiled::new(expression, options);
    compiled.compile_step(&statement, tensors)?;
    compiled.statement = Some(statement);
    compiled.compile_seconds = start.elapsed().as_secs_f64();
    Ok(compiled)
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
