//! The four workloads. Each is a closed loop: a caller waits for its
//! reply before it sends the next operation (`serve_small_mix` keeps a
//! window of eight outstanding and waits oldest-first).
//!
//! Why each exists is recorded in `BENCHMARK.json` and `README.md`.

use crate::inputs::{self, Bindings, Case, Irregular, StructuredSpmm};
use crate::serve::ServeSmallMix;
use crate::trace::Tracer;
use crate::verify::{self, Check};
use insum::{insum_with, Compiled, CompiledChain, InsumOptions, Profile, ProgramCache, Tensor};
use insum_formats::heuristic::{heuristic_group_size, indirect_access_cost};
use insum_formats::Coo;
use insum_inductor::AutotuneCache;
use std::time::Instant;

pub const NAMES: [&str; 4] = [
    "spmm_tc_exec",
    "irregular_exec",
    "coldstart_tune",
    "serve_small_mix",
];

/// End-to-end runs pin the simulator to one host thread, so at most two
/// threads are ever busy (client + engine scheduler).
pub fn options() -> InsumOptions {
    InsumOptions {
        sim_threads: Some(1),
        ..InsumOptions::default()
    }
}

/// [`options`], autotuned or not.
pub fn options_with(autotune: bool) -> InsumOptions {
    InsumOptions {
        autotune,
        ..options()
    }
}

/// The raw result of one timed window.
#[derive(Default)]
pub struct Window {
    /// Per-operation latency, seconds, in completion order.
    pub latencies: Vec<f64>,
    /// When each operation completed, seconds since the window opened.
    pub completed_at: Vec<f64>,
    pub wall_s: f64,
    /// Operations that errored, were refused, or returned wrong bits.
    pub failed: u64,
}

impl Window {
    /// Continue this window with `next`, as if it had run right after.
    pub fn append(&mut self, next: Window) {
        let offset = self.wall_s;
        self.latencies.extend(next.latencies);
        self.completed_at
            .extend(next.completed_at.iter().map(|t| t + offset));
        self.wall_s += next.wall_s;
        self.failed += next.failed;
    }
}

/// Sparse-format construction counts for the `formats` layer.
pub struct FormatCounts {
    /// The paper's F(g) = (g+1)·Σ⌈occᵢ/g⌉ over the workload's formats.
    pub indirect_accesses: u64,
    pub padded_slots: u64,
    pub slots: u64,
}

pub trait Workload {
    fn name(&self) -> &'static str;

    /// The highest percentile that keeps ten samples beyond it in a run
    /// of `run_seconds` on the reference box. Fixed per workload, so a
    /// faster or slower commit is compared at the same percentile.
    fn tail(&self) -> f64 {
        0.90
    }

    /// Work that must precede the window but is not set-up a user pays
    /// (precomputing expected outputs).
    fn prepare(&mut self) {}

    /// Run operations back to back for `seconds`.
    fn window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window;

    /// Check the outputs of the operations the window ran.
    fn verify(&mut self) -> Vec<Check>;

    /// A fixed amount of work (the same at every run length), around
    /// which the harness reads exact counters.
    fn count_pass(&mut self);

    /// The workload's distinct expressions, for the layer replay.
    fn cases(&self) -> &[Case];

    /// Rebuild the workload's sparse formats inside `formats.*` spans.
    fn formats(&self, tracer: &mut Tracer) -> FormatCounts;

    /// The serve-layer pass; `None` runs the generic probe that submits
    /// [`Workload::cases`] through a fresh engine.
    fn serve_pass(
        &mut self,
        _seconds: f64,
        _tracer: &mut Tracer,
    ) -> Option<crate::serve::ServeObs> {
        None
    }
}

/// Everything a user pays before the first warm operation: input
/// generation, format conversion, engine start, cold compile and three
/// warm-up operations. The caller clears the process-wide caches first.
pub fn setup(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "spmm_tc_exec" => Box::new(SpmmTcExec::setup(seed)),
        "irregular_exec" => Box::new(IrregularExec::setup(seed)),
        "coldstart_tune" => Box::new(ColdstartTune::setup(seed)),
        "serve_small_mix" => Box::new(ServeSmallMix::setup(seed)),
        _ => return None,
    })
}

pub fn clear_caches() {
    ProgramCache::global().clear();
    AutotuneCache::global().clear();
}

const WARMUP_OPS: usize = 3;

/// Closed loop of one caller: `op` runs, returns, runs again.
fn serial_window(
    seconds: f64,
    tracer: &mut Tracer,
    mut op: impl FnMut(&mut Tracer) -> Result<(), String>,
) -> Window {
    let mut latencies = Vec::new();
    let mut completed_at = Vec::new();
    let mut failed = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        tracer.next_op();
        let t0 = Instant::now();
        let result = tracer.span("op", &mut op);
        latencies.push(t0.elapsed().as_secs_f64());
        completed_at.push(start.elapsed().as_secs_f64());
        if let Err(e) = result {
            if failed == 0 {
                eprintln!("operation failed: {e}");
            }
            failed += 1;
        }
    }
    Window {
        latencies,
        completed_at,
        wall_s: start.elapsed().as_secs_f64(),
        failed,
    }
}

fn run_case(
    compiled: &Compiled,
    case: &Case,
    tracer: &mut Tracer,
) -> Result<(Tensor, Profile), String> {
    tracer
        .span("core.run", |_| compiled.run(&case.tensors))
        .map_err(|e| format!("{}: {e}", case.name))
}

fn block_group_counts(s: &StructuredSpmm, tracer: &mut Tracer) -> FormatCounts {
    let (bcoo, format) = tracer.span("formats.build", |_| inputs::block_group_format(&s.dense));
    let occ = bcoo.block_occupancy();
    tracer.span("formats.heuristic", |_| {
        std::hint::black_box(heuristic_group_size(&occ));
    });
    let slots = (format.num_groups() * format.group_size) as u64;
    FormatCounts {
        indirect_accesses: format.indirect_accesses() as u64,
        padded_slots: slots - bcoo.nblocks() as u64,
        slots,
    }
}

// ---------------------------------------------------------------------
// spmm_tc_exec
// ---------------------------------------------------------------------

/// Warm `Compiled::run` of the Fig. 7-scale BlockGroupCOO SpMM.
pub struct SpmmTcExec {
    spmm: StructuredSpmm,
    cases: Vec<Case>,
    compiled: Compiled,
    last: Option<(Tensor, Profile)>,
}

impl SpmmTcExec {
    fn setup(seed: u64) -> SpmmTcExec {
        let spmm = inputs::structured_spmm(seed, 1024, 256);
        let case = inputs::spmm_case(&spmm);
        let compiled = insum_with(case.expr, &case.tensors, &options()).expect("compiles");
        let mut w = SpmmTcExec {
            spmm,
            cases: vec![case],
            compiled,
            last: None,
        };
        let mut off = Tracer::new(false);
        for _ in 0..WARMUP_OPS {
            w.op(&mut off).expect("warm-up runs");
        }
        w
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.last = Some(run_case(&self.compiled, &self.cases[0], tracer)?);
        Ok(())
    }
}

impl Workload for SpmmTcExec {
    fn name(&self) -> &'static str {
        "spmm_tc_exec"
    }

    fn window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        serial_window(seconds, tracer, |t| self.op(t))
    }

    fn verify(&mut self) -> Vec<Check> {
        let mut checks = Vec::new();
        match &self.last {
            Some((out, profile)) => verify::statement(
                &self.cases[0],
                &self.compiled,
                out,
                profile,
                &options(),
                &mut checks,
            ),
            None => verify::check(&mut checks, "spmm: an operation completed", false),
        }
        checks
    }

    fn count_pass(&mut self) {
        self.op(&mut Tracer::new(false)).expect("runs");
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn formats(&self, tracer: &mut Tracer) -> FormatCounts {
        block_group_counts(&self.spmm, tracer)
    }
}

// ---------------------------------------------------------------------
// irregular_exec
// ---------------------------------------------------------------------

/// One cycle of three warm runs: COO scatter SpMM, point-cloud sparse
/// convolution, equivariant tensor product.
pub struct IrregularExec {
    inputs: Irregular,
    compiled: Vec<Compiled>,
    last: Vec<(Tensor, Profile)>,
}

fn irregular_format_counts(inputs: &Irregular, tracer: &mut Tracer) -> FormatCounts {
    use insum_workloads::{equivariant, pointcloud};
    let (coo, km, cg) = tracer.span("formats.build", |_| {
        (
            Coo::from_dense(&inputs.coo_dense).expect("rank-2 matrix"),
            pointcloud::kernel_map(&inputs.scene, inputs::CONV_GROUP),
            equivariant::cg_tensor(2, inputs::CG_GROUP),
        )
    });
    let occ = coo.occupancy();
    tracer.span("formats.heuristic", |_| {
        std::hint::black_box(heuristic_group_size(&occ));
    });
    let km_slots = (km.groups() * km.group_size) as u64;
    let cg_slots = (cg.groups() * cg.group_size) as u64;
    FormatCounts {
        // COO is GroupCOO at g = 1; the grouped maps pay one scatter
        // target per group plus one gather per slot.
        indirect_accesses: indirect_access_cost(&occ, 1)
            + km.groups() as u64
            + km_slots
            + cg.groups() as u64
            + cg_slots,
        padded_slots: (km_slots - km.pairs as u64) + (cg_slots - cg.nnz as u64),
        slots: coo.nnz() as u64 + km_slots + cg_slots,
    }
}

impl IrregularExec {
    fn setup(seed: u64) -> IrregularExec {
        let inputs = inputs::irregular(seed);
        let compiled = inputs
            .cases
            .iter()
            .map(|c| insum_with(c.expr, &c.tensors, &options()).expect("compiles"))
            .collect();
        let mut w = IrregularExec {
            inputs,
            compiled,
            last: Vec::new(),
        };
        let mut off = Tracer::new(false);
        for _ in 0..WARMUP_OPS {
            w.op(&mut off).expect("warm-up runs");
        }
        w
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        self.last.clear();
        for (compiled, case) in self.compiled.iter().zip(&self.inputs.cases) {
            self.last.push(run_case(compiled, case, tracer)?);
        }
        Ok(())
    }
}

impl Workload for IrregularExec {
    fn name(&self) -> &'static str {
        "irregular_exec"
    }

    fn window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        serial_window(seconds, tracer, |t| self.op(t))
    }

    fn verify(&mut self) -> Vec<Check> {
        let mut checks = Vec::new();
        verify::check(
            &mut checks,
            "irregular: a full cycle completed",
            self.last.len() == self.inputs.cases.len(),
        );
        for ((case, compiled), (out, profile)) in
            self.inputs.cases.iter().zip(&self.compiled).zip(&self.last)
        {
            verify::statement(case, compiled, out, profile, &options(), &mut checks);
        }
        checks
    }

    fn count_pass(&mut self) {
        self.op(&mut Tracer::new(false)).expect("runs");
    }

    fn cases(&self) -> &[Case] {
        &self.inputs.cases
    }

    fn formats(&self, tracer: &mut Tracer) -> FormatCounts {
        irregular_format_counts(&self.inputs, tracer)
    }
}

// ---------------------------------------------------------------------
// coldstart_tune
// ---------------------------------------------------------------------

/// One cold compile cycle: both process-wide caches cleared, then
/// `insum_with` for five paper expressions (the structured SpMM and a
/// dense matmul autotuned, the three irregular ones with defaults),
/// `insum::plan` for two contraction chains, and one analytic
/// `Compiled::time` of the SpMM winner.
pub struct ColdstartTune {
    spmm: StructuredSpmm,
    cases: Vec<Case>,
    statements: Vec<Compiled>,
    chains: Vec<CompiledChain>,
    timed: Option<Profile>,
}

impl ColdstartTune {
    fn setup(seed: u64) -> ColdstartTune {
        // A quarter of the Fig. 7 extent: the 18-configuration sweep
        // costs ~24 ms instead of ~260 ms, so that the quiet part of a
        // run still holds a hundred cycles.
        let spmm = inputs::structured_spmm(seed, 256, 256);
        let mut cases = vec![
            inputs::spmm_case(&spmm).tuned(),
            Case::new("matmul", inputs::MATMUL, inputs::dense_matmul(seed)).tuned(),
        ];
        cases.extend(inputs::irregular(seed).cases);
        cases.push(Case::new(
            "chain4_skew",
            inputs::CHAIN4_SKEW,
            inputs::chain4_skew(seed),
        ));
        cases.push(Case::new(
            "attention_qkv",
            inputs::ATTENTION_QKV,
            inputs::attention_qkv(seed),
        ));
        let mut w = ColdstartTune {
            spmm,
            cases,
            statements: Vec::new(),
            chains: Vec::new(),
            timed: None,
        };
        let mut off = Tracer::new(false);
        // The first cycle is the cold compile; three more warm the host.
        for _ in 0..=WARMUP_OPS {
            w.op(&mut off).expect("cycle runs");
        }
        w
    }

    fn op(&mut self, tracer: &mut Tracer) -> Result<(), String> {
        clear_caches();
        self.statements.clear();
        self.chains.clear();
        for case in &self.cases {
            let opts = options_with(case.tuned);
            let fail = |e: insum::InsumError| format!("{}: {e}", case.name);
            if insum::is_chain_expression(case.expr) {
                let chain = tracer
                    .span("core.plan_chain", |_| {
                        insum::plan(case.expr, &case.tensors, &opts)
                    })
                    .map_err(fail)?;
                self.chains.push(chain);
            } else {
                let span = if case.tuned {
                    "core.compile_tuned"
                } else {
                    "core.compile_default"
                };
                let compiled = tracer
                    .span(span, |_| insum_with(case.expr, &case.tensors, &opts))
                    .map_err(fail)?;
                self.statements.push(compiled);
            }
        }
        let profile = tracer
            .span("core.time", |_| {
                self.statements[0].time(&self.cases[0].tensors)
            })
            .map_err(|e| format!("time: {e}"))?;
        self.timed = Some(profile);
        Ok(())
    }

    fn split_cases(&self) -> (Vec<&Case>, Vec<&Case>) {
        self.cases
            .iter()
            .partition(|c| !insum::is_chain_expression(c.expr))
    }
}

impl Workload for ColdstartTune {
    fn name(&self) -> &'static str {
        "coldstart_tune"
    }

    fn window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        serial_window(seconds, tracer, |t| self.op(t))
    }

    /// The cycle's products are compiled artifacts: run each once and
    /// verify what it computes.
    fn verify(&mut self) -> Vec<Check> {
        let mut checks = Vec::new();
        let (statements, chains) = self.split_cases();
        verify::check(
            &mut checks,
            "coldstart: a full cycle completed",
            self.statements.len() == statements.len() && self.chains.len() == chains.len(),
        );
        for (i, (case, compiled)) in statements.iter().zip(&self.statements).enumerate() {
            match compiled.run(&case.tensors) {
                Ok((out, profile)) => {
                    verify::statement(case, compiled, &out, &profile, &options(), &mut checks);
                    if i == 0 {
                        // Analytic and Execute agree on the paper's clock.
                        let same = self.timed.as_ref() == Some(&profile);
                        verify::check(&mut checks, "spmm: time() profile equals run()'s", same);
                    }
                }
                Err(_) => verify::check(&mut checks, format!("{}: runs", case.name), false),
            }
        }
        for (case, chain) in chains.iter().zip(&self.chains) {
            match chain.run(&case.tensors) {
                Ok((out, _)) => verify::chain(
                    case.name,
                    case.expr,
                    &case.tensors,
                    &out,
                    &options(),
                    &mut checks,
                ),
                Err(_) => verify::check(&mut checks, format!("{}: runs", case.name), false),
            }
        }
        checks
    }

    fn count_pass(&mut self) {
        self.op(&mut Tracer::new(false)).expect("cycle runs");
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn formats(&self, tracer: &mut Tracer) -> FormatCounts {
        block_group_counts(&self.spmm, tracer)
    }
}

/// A compiled statement or chain: what the engine's registry holds for
/// a request, compiled here directly.
pub enum Artifact {
    Statement(Compiled),
    Chain(CompiledChain),
}

impl Artifact {
    pub fn compile(expr: &str, tensors: &Bindings, opts: &InsumOptions) -> insum::Result<Artifact> {
        if insum::is_chain_expression(expr) {
            insum::plan(expr, tensors, opts).map(Artifact::Chain)
        } else {
            insum_with(expr, tensors, opts).map(Artifact::Statement)
        }
    }

    pub fn run(&self, tensors: &Bindings) -> insum::Result<(Tensor, Profile)> {
        match self {
            Artifact::Statement(c) => c.run(tensors),
            Artifact::Chain(c) => c.run(tensors),
        }
    }
}

/// What a request must return: its synchronous one-shot compile + run.
pub fn one_shot(expr: &str, tensors: &Bindings, opts: &InsumOptions) -> insum::Result<Tensor> {
    Ok(Artifact::compile(expr, tensors, opts)?.run(tensors)?.0)
}
