//! The traced layer pass: replay the pipeline step by step through each
//! layer's public functions, one span per call, next to the single
//! public call (`insum_with`, `Compiled::run`, `insum::plan`, …) that
//! does the same work in one go. Counts are read from public results
//! (`KernelReport::stats`, `ProgramCache::stats`, `Response` fields,
//! `Tensor::deep_copy_count`).
//!
//! Span names are layer metric names without the `_s` suffix, so the
//! trace file and the metric table read the same way. `replay.compile`
//! and `replay.run` are the roots whose children must account for the
//! public call (the coverage shares).

use crate::inputs::{Bindings, Case};
use crate::trace::Tracer;
use crate::workloads::{clear_caches, options, options_with};
use insum::{
    insum_with, ChainSpec, Compiled, ContractionPlan, OrderStrategy, Profile, ProgramCache, Tensor,
};
use insum_gpu::{LaunchOptions, Mode, Program};
use insum_graph::TensorMeta;
use insum_inductor::{autotune_with, build_plan, compile_fused, CodegenOptions, FusedOp};
use insum_lang::{AssignOp, IndexExpr, Statement};
use insum_pattern::Pattern;
use insum_tensor::DType;
use std::collections::BTreeMap;

/// Exact counts of one pass over the workload's distinct operations.
/// They are the same at every replay; the pass keeps the last.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub statements: u64,
    pub fast_statements: u64,
    pub graph_nodes: u64,
    pub triton_lines: u64,
    pub autotune_configs: u64,
    /// Every launch report of the pass's public runs, in order.
    pub profile: Profile,
    pub planner_steps: u64,
    pub planner_workspace_bytes: u64,
}

/// Values derived from pairs of timings of the same arguments: one
/// entry per replayed operation, summed over its cases.
#[derive(Debug, Default)]
pub struct Derived {
    /// `run_fused_with_cache` − `Program::launch_with`.
    pub run_overhead: Vec<f64>,
    /// Public run (`Compiled::run`, `CompiledChain::run`) − launches.
    pub dispatch_overhead: Vec<f64>,
    /// Replayed outputs that were not bit-equal to the public call's.
    pub replay_mismatches: u64,
}

pub struct Replay<'a> {
    pub tracer: &'a mut Tracer,
    pub shard_threads: usize,
    pub counts: Counts,
    pub derived: Derived,
}

pub fn metas_of(tensors: &Bindings) -> BTreeMap<String, TensorMeta> {
    tensors
        .iter()
        .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
        .collect()
}

/// What `insum_with` decides before lowering: any indirection sends the
/// statement to the general pipeline; otherwise the index terms are
/// classified against the recognition table.
fn classify(stmt: &Statement) -> Pattern {
    let term = |indices: &[IndexExpr]| -> Option<Vec<String>> {
        indices
            .iter()
            .map(|ix| match ix {
                IndexExpr::Var(v) => Some(v.clone()),
                IndexExpr::Indirect(_) => None,
            })
            .collect()
    };
    let terms: Option<Vec<Vec<String>>> = stmt.factors.iter().map(|f| term(&f.indices)).collect();
    match (terms, term(&stmt.output.indices)) {
        (Some(terms), Some(out)) => insum_pattern::classify_terms(&terms, &out),
        _ => Pattern::General,
    }
}

/// A statement compiled step by step: what `insum_with` holds when it
/// returns.
enum Staged {
    General(Box<FusedOp>),
    Fast { pattern: Pattern, stmt: Statement },
}

/// A staged statement ready to execute: `insum_with` stops at
/// [`Staged`], and the first run lowers the program (fast-path
/// statements have none).
struct Lowered {
    staged: Staged,
    program: Option<Program>,
}

fn lens_dtypes(op: &FusedOp, tensors: &Bindings) -> (Vec<usize>, Vec<DType>) {
    let lens = op.plan.param_order.iter().map(|n| tensors[n].len());
    let dtypes = op.plan.param_order.iter().map(|n| tensors[n].dtype());
    (lens.collect(), dtypes.collect())
}

pub fn bind_args(op: &FusedOp, tensors: &Bindings) -> Vec<Tensor> {
    op.plan
        .param_order
        .iter()
        .map(|n| tensors[n].contiguous())
        .collect()
}

pub fn out_pos(op: &FusedOp) -> usize {
    op.plan
        .param_order
        .iter()
        .position(|n| n == &op.plan.output.tensor)
        .expect("the output is always a parameter")
}

impl<'a> Replay<'a> {
    pub fn new(tracer: &'a mut Tracer, shard_threads: usize) -> Replay<'a> {
        Replay {
            tracer,
            shard_threads,
            counts: Counts::default(),
            derived: Derived::default(),
        }
    }

    /// The steps `insum_with` takes, one span each, under the caller's
    /// root. `compiled` (the public call's artifact) says which pipeline
    /// the gate chose; the gate itself is crate-private.
    fn compile_steps(
        &mut self,
        expr: &str,
        tensors: &Bindings,
        tuned: bool,
        compiled: &Compiled,
    ) -> Staged {
        let t = &mut *self.tracer;
        let stmt = t.span("lang.parse", |_| insum_lang::parse(expr).expect("parses"));
        t.span("pattern.classify", |_| {
            std::hint::black_box(classify(&stmt));
        });
        self.counts.statements += 1;
        if let Some(pattern) = compiled.fast_path_pattern().cloned() {
            self.counts.fast_statements += 1;
            return Staged::Fast { pattern, stmt };
        }
        let metas = metas_of(tensors);
        let plan = t.span("inductor.build_plan", |_| {
            build_plan(&stmt, &metas).expect("plan builds")
        });
        let codegen = CodegenOptions::default();
        let device = options().device;
        let op = if tuned {
            // A private cache: every replay sweeps cold, like the public
            // call after the caches were cleared.
            let result = t.span("inductor.autotune", |_| {
                autotune_with(&plan, &codegen, tensors, &device, &ProgramCache::new())
                    .expect("autotune succeeds")
            });
            self.counts.autotune_configs += result.configs_tried as u64;
            result.op
        } else {
            t.span("inductor.codegen", |_| {
                compile_fused(&plan, &codegen).expect("kernel compiles")
            })
        };
        self.counts.triton_lines += insum_kernel::print_kernel(&op.kernel).lines().count() as u64;
        Staged::General(Box::new(op))
    }

    /// What the first run adds to a staged statement: the cache key
    /// (kernel fingerprint) and the ahead-of-time lowering.
    fn lower_program(&mut self, staged: Staged, tensors: &Bindings) -> Lowered {
        let program = match &staged {
            Staged::Fast { .. } => None,
            Staged::General(op) => {
                let (lens, dtypes) = lens_dtypes(op, tensors);
                self.tracer.span("kernel.fingerprint", |_| {
                    std::hint::black_box(insum_kernel::fingerprint(&op.kernel));
                });
                Some(self.tracer.span("gpu.program_compile", |_| {
                    Program::compile(&op.kernel, &op.grid, &lens, &dtypes)
                        .expect("program compiles")
                }))
            }
        };
        Lowered { staged, program }
    }

    /// Execute a lowered statement through the layer below `core`:
    /// `Program::launch_with` or `run_micro`. Returns the output and the
    /// seconds spent in the launch.
    fn run_steps(&mut self, lowered: &Lowered, tensors: &Bindings, mode: Mode) -> (Tensor, f64) {
        let device = options().device;
        let name = match (&lowered.staged, mode) {
            (Staged::Fast { .. }, _) => "gpu.micro",
            (_, Mode::Execute) => "gpu.launch_execute",
            (_, Mode::Analytic) => "gpu.launch_analytic",
        };
        match &lowered.staged {
            Staged::General(op) => {
                let program = lowered.program.as_ref().expect("general statements lower");
                let mut owned = bind_args(op, tensors);
                let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
                let (report, dt) = self.tracer.timed(name, |_| {
                    program
                        .launch_with(&mut refs, &device, mode, &LaunchOptions::sequential())
                        .expect("launch succeeds")
                });
                std::hint::black_box(report);
                (owned.swap_remove(out_pos(op)), dt)
            }
            Staged::Fast { pattern, stmt } => {
                let factors: Vec<Tensor> = stmt
                    .factors
                    .iter()
                    .map(|f| tensors[&f.tensor].clone())
                    .collect();
                let out = &tensors[&stmt.output.tensor];
                let accumulate = stmt.op == AssignOp::Accumulate;
                let ((out, report), dt) = self.tracer.timed(name, |_| {
                    insum_gpu::run_micro(pattern, &factors, out, accumulate, mode, &device)
                        .expect("microkernel runs")
                });
                std::hint::black_box(report);
                (out, dt)
            }
        }
    }

    /// Steps that exist in the stack but are not on `insum_with`'s own
    /// path (`build_plan` analyzes internally; graph lowering feeds the
    /// eager and unfused pipelines). Kept under their own root so they
    /// do not inflate the coverage share.
    fn side_steps(&mut self, expr: &str, tensors: &Bindings) {
        let stmt = insum_lang::parse(expr).expect("parses");
        let metas = metas_of(tensors);
        let shapes: BTreeMap<String, Vec<usize>> = metas
            .iter()
            .map(|(n, m)| (n.clone(), m.shape.clone()))
            .collect();
        let counts = &mut self.counts;
        self.tracer.span("replay.side", |t| {
            t.span("lang.analyze", |_| {
                std::hint::black_box(insum_lang::analyze(&stmt, &shapes).expect("analyzes"));
            });
            let graph = t.span("graph.lower", |_| {
                insum_graph::lower(&stmt, &metas).expect("lowers").graph
            });
            counts.graph_nodes += graph.len() as u64;
        });
    }

    /// The public compile of one statement (from cold caches when
    /// tuned), then the same steps replayed under `replay.compile`.
    fn compile_case(&mut self, expr: &str, tensors: &Bindings, tuned: bool) -> (Compiled, Staged) {
        let opts = options_with(tuned);
        let span = if tuned {
            clear_caches();
            "core.compile_tuned"
        } else {
            "core.compile_default"
        };
        let compiled = self.tracer.span(span, |_| {
            insum_with(expr, tensors, &opts).expect("compiles")
        });
        let root = self.tracer.push("replay.compile");
        let staged = self.compile_steps(expr, tensors, tuned, &compiled);
        self.tracer.pop(root);
        (compiled, staged)
    }

    /// One statement case: the public calls, then the same work replayed.
    pub fn statement(&mut self, case: &Case) {
        let (compiled, staged) = self.compile_case(case.expr, &case.tensors, case.tuned);
        let lowered = self.lower_program(staged, &case.tensors);
        self.side_steps(case.expr, &case.tensors);

        // Warm the process-wide program cache so the public run below is
        // a warm run.
        compiled.run(&case.tensors).expect("runs");
        let ((out, profile), run_dt) = self
            .tracer
            .timed("core.run", |_| compiled.run(&case.tensors).expect("runs"));
        self.counts.profile.reports.extend(profile.reports);
        let root = self.tracer.push("replay.run");
        let (replayed, launch_dt) = self.run_steps(&lowered, &case.tensors, Mode::Execute);
        self.tracer.pop(root);
        if !replayed.bit_eq(&out) {
            self.derived.replay_mismatches += 1;
        }
        *last(&mut self.derived.dispatch_overhead) += run_dt - launch_dt;

        self.tracer.span("core.time", |_| {
            std::hint::black_box(compiled.time(&case.tensors).expect("times"));
        });
        self.run_steps(&lowered, &case.tensors, Mode::Analytic);
        let batch: Vec<&Bindings> = vec![&case.tensors; 8];
        self.tracer.span("core.run_batch8", |_| {
            std::hint::black_box(compiled.run_batch(&batch).expect("batch runs"));
        });

        if let (Staged::General(op), Some(program)) = (&lowered.staged, &lowered.program) {
            let device = options().device;
            let ((_, report), fused_dt) = self.tracer.timed("inductor.run", |_| {
                insum_inductor::run_fused_with_cache(
                    op,
                    &case.tensors,
                    &device,
                    Mode::Execute,
                    &LaunchOptions::sequential(),
                    ProgramCache::global(),
                )
                .expect("fused run succeeds")
            });
            std::hint::black_box(report);
            *last(&mut self.derived.run_overhead) += fused_dt - launch_dt;

            let mut owned = bind_args(op, &case.tensors);
            let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
            let sharded = LaunchOptions::with_threads(self.shard_threads);
            self.tracer.span("gpu.launch_sharded", |_| {
                program
                    .launch_with(&mut refs, &device, Mode::Execute, &sharded)
                    .expect("sharded launch succeeds");
            });
            if !owned[out_pos(op)].bit_eq(&out) {
                self.derived.replay_mismatches += 1;
            }
        }
    }

    /// One chain case: `insum::plan` + `CompiledChain::run`, then the
    /// planner and every pairwise step replayed.
    pub fn chain(&mut self, case: &Case) {
        let opts = options();
        let chain = self.tracer.span("core.plan_chain", |_| {
            insum::plan(case.expr, &case.tensors, &opts).expect("chain plans")
        });

        let root = self.tracer.push("replay.compile");
        let spec = self.tracer.span("planner.parse", |_| {
            let stmt = insum_lang::parse(case.expr).expect("parses");
            ChainSpec::from_statement(&stmt).expect("is a chain")
        });
        let shapes: Vec<Vec<usize>> = spec
            .operands
            .iter()
            .map(|op| case.tensors[&op.name].shape().to_vec())
            .collect();
        let plan = self.tracer.span("planner.order", |_| {
            ContractionPlan::new(spec, &shapes, OrderStrategy::Auto).expect("order found")
        });
        assert_eq!(plan.spec.op, AssignOp::Assign, "benchmark chains are `=`");
        assert!(
            plan.steps.iter().all(|s| !s.host),
            "benchmark chains have no rank-0 corners"
        );
        // Shapes drive lowering: zeros stand in for the temporaries.
        let mut env = case.tensors.clone();
        let mut staged = Vec::with_capacity(plan.steps.len());
        for step in &plan.steps {
            env.insert(step.out_name.clone(), Tensor::zeros(step.out_shape.clone()));
            let bindings = step_bindings(&step.expression, &env);
            // Which pipeline the gate picks for this step. Outside any
            // child span, so it counts toward neither side of the
            // coverage share.
            let compiled = insum_with(&step.expression, &bindings, &opts).expect("step compiles");
            let steps = self.compile_steps(&step.expression, &bindings, false, &compiled);
            staged.push((steps, bindings));
        }
        self.tracer.pop(root);
        let lowered: Vec<Lowered> = staged
            .into_iter()
            .map(|(steps, bindings)| self.lower_program(steps, &bindings))
            .collect();
        self.counts.planner_steps += plan.steps.len() as u64;
        self.counts.planner_workspace_bytes += plan.workspace_bytes() as u64;

        chain.run(&case.tensors).expect("chain runs");
        let ((out, profile), run_dt) = self.tracer.timed("core.run_chain", |_| {
            chain.run(&case.tensors).expect("chain runs")
        });
        self.counts.profile.reports.extend(profile.reports);

        let root = self.tracer.push("replay.run");
        let mut env = case.tensors.clone();
        let mut launches = 0.0;
        for (step, lowered) in plan.steps.iter().zip(&lowered) {
            env.insert(step.out_name.clone(), Tensor::zeros(step.out_shape.clone()));
            let bindings = step_bindings(&step.expression, &env);
            let (value, dt) = self.run_steps(lowered, &bindings, Mode::Execute);
            launches += dt;
            env.insert(step.out_name.clone(), value);
        }
        self.tracer.pop(root);
        if !env[&plan.spec.output_name].bit_eq(&out) {
            self.derived.replay_mismatches += 1;
        }
        *last(&mut self.derived.dispatch_overhead) += run_dt - launches;

        self.tracer.span("core.time", |_| {
            std::hint::black_box(chain.time(&case.tensors).expect("chain times"));
        });
        let batch: Vec<&Bindings> = vec![&case.tensors; 8];
        self.tracer.span("core.run_batch8", |_| {
            std::hint::black_box(chain.run_batch(&batch).expect("chain batch runs"));
        });
    }

    /// One replayed operation: every distinct case of the workload once.
    pub fn pass(&mut self, cases: &[Case]) {
        self.tracer.next_op();
        self.counts = Counts::default();
        self.derived.run_overhead.push(0.0);
        self.derived.dispatch_overhead.push(0.0);
        for case in cases {
            self.tracer.set_case(case.name);
            if insum::is_chain_expression(case.expr) {
                self.chain(case);
            } else {
                self.statement(case);
            }
        }
        if !cases.iter().any(|c| c.tuned) {
            // On a workload that compiles with default options, what
            // tuning its first kernel would cost.
            self.tracer.set_case(cases[0].name);
            self.compile_case(cases[0].expr, &cases[0].tensors, true);
        }
        self.tracer.set_case("");
    }
}

/// This pass's entry of a per-pass series.
fn last(series: &mut [f64]) -> &mut f64 {
    series.last_mut().expect("a pass is in progress")
}

/// The tensors a pairwise step statement names, out of `env`.
fn step_bindings(expression: &str, env: &Bindings) -> Bindings {
    let stmt = insum_lang::parse(expression).expect("step parses");
    stmt.tensor_names()
        .into_iter()
        .map(|n| (n.to_string(), env[n].clone()))
        .collect()
}
