//! Simulator-throughput benchmark: the host-side performance of the GPU
//! interpreter itself (not the simulated device times).
//!
//! Each workload is lowered **once** into an `insum_gpu::Program` through
//! the cross-launch `ProgramCache` (the compile/launch split this
//! benchmark exists to validate), then the launch path is wall-clocked
//! against the seed implementation
//! (`insum_gpu::reference::launch_reference`) in both Execute and
//! Analytic modes and at one and many host threads, verifying that
//! stats, simulated timing, and (in Execute mode) output tensors are
//! bit-identical everywhere. An autotuning section sweeps the dense
//! matmul and fig7 SpMM twice — cold and warm — to demonstrate
//! cross-trial program reuse, and once more exhaustively: the best-first
//! search must return the exhaustive sweep's winner tile with zero
//! regret. The headline row is the fig7-scale
//! block-group SpMM in Execute mode. `tl.dot` dispatch is asserted, not
//! just timed: the fig7 SpMM and dense matmul Execute rows must run
//! every dot on the exact-product kernel, and the same workloads with one
//! NaN in B must run none there — a lost eligibility annotation fails
//! here instead of surfacing as a silent slowdown.
//!
//! Every timed launch of the `workloads[]` rows is a program's *first*
//! (a fresh `Program::compile`, ≈ 50 µs, outside the timer), so those
//! rows measure the full launch path — what a one-shot request, an
//! autotune trial or a paper harness pays. What a *re*launch against the
//! same sparse structure costs is the `relaunch[]` table: launch 1
//! (full), launch 2 (full, recording an address script) and launches 3+
//! (the value slice replayed from the script), with the script's size;
//! it asserts the `(full, recorded, replayed)` split and bit-identity,
//! and reports the recording's cost over launch 1 (target ≤ 10 %: a
//! warning above that, a failure only above 25 % — wall clock on a
//! shared host). The `fast_path[]` gate likewise times its forced-general
//! twin on the full launch path (keys alternated), with the replaying
//! twin as an extra, ungated column.
//!
//! Results print as tables and are written to `BENCH_sim.json` so the
//! perf trajectory is tracked across PRs (see EXPERIMENTS.md).

use insum::apps;
use insum::{chain_reference, insum_with, plan_with_strategy, InsumOptions, OrderStrategy, Tensor};
use insum_bench::{print_table, structured_spmm_setup, x};
use insum_gpu::reference::launch_reference;
use insum_gpu::{
    dot_dispatch_counts, script_dispatch_counts, site_dispatch_counts, DeviceModel, Isa,
    KernelReport, LaunchOptions, Mode, Program,
};
use insum_graph::TensorMeta;
use insum_inductor::{
    autotune_with, build_plan, compile_fused, run_fused_with_cache, tile_candidates,
    CodegenOptions, FusedOp, FusionPlan, ProgramCache, TileConfig,
};
use insum_tensor::DType;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::time::Instant;

/// A compiled workload plus its bound arguments in parameter order.
struct Case {
    name: &'static str,
    op: FusedOp,
    plan_for_tuning: Option<FusionPlan>,
    tensors: BTreeMap<String, Tensor>,
}

fn compile(app_expr: &str, tensors: &BTreeMap<String, Tensor>) -> (FusedOp, FusionPlan) {
    let stmt = insum_lang::parse(app_expr).expect("expression parses");
    let metas: BTreeMap<String, TensorMeta> = tensors
        .iter()
        .map(|(n, t)| (n.clone(), TensorMeta::new(t.shape().to_vec(), t.dtype())))
        .collect();
    let plan = build_plan(&stmt, &metas).expect("plan builds");
    let op = compile_fused(&plan, &CodegenOptions::default()).expect("kernel compiles");
    (op, plan)
}

fn cases() -> Vec<Case> {
    let mut out = Vec::new();

    // Fig. 7 scale: 1024x1024 block-sparse (32x32 blocks, 50% dense), B
    // with 256 columns — the acceptance benchmark for this harness.
    let (_, bgc, b) = structured_spmm_setup(1024, 256, 0.5, 77);
    let app = apps::spmm_block_group(&bgc, &b);
    let (op, plan) = compile(app.expr, &app.tensors);
    out.push(Case {
        name: "spmm_block_group_fig7",
        op,
        plan_for_tuning: Some(plan),
        tensors: app.tensors,
    });

    // Scatter-heavy COO SpMM (no Tensor Cores, atomic-dominated).
    let mut rng = SmallRng::seed_from_u64(7);
    let dense = insum_workloads::blocksparse::block_sparse_dense(512, 512, 16, 16, 0.7, &mut rng);
    let coo = insum_formats::Coo::from_dense(&dense).expect("matrix");
    let bmat = insum_tensor::rand_uniform(vec![512, 64], -1.0, 1.0, &mut rng);
    let app = apps::spmm_coo(&coo, &bmat);
    let (op, _) = compile(app.expr, &app.tensors);
    out.push(Case {
        name: "spmm_coo_scatter",
        op,
        plan_for_tuning: None,
        tensors: app.tensors,
    });

    // Point-cloud sparse convolution (gather + dot + scatter per offset).
    let mut rng = SmallRng::seed_from_u64(11);
    let pts = insum_workloads::pointcloud::generate_points(
        &insum_workloads::pointcloud::rooms()[0],
        0.10,
        &mut rng,
    );
    let scene = insum_workloads::pointcloud::voxelize(&pts, 0.05);
    let km = insum_workloads::pointcloud::kernel_map(&scene, 3);
    let input = insum_tensor::rand_normal(vec![scene.len(), 32], &mut rng);
    let weight = insum_tensor::rand_normal(vec![27, 32, 32], &mut rng);
    let app = apps::sparse_conv(&km, &input, &weight);
    let (op, _) = compile(app.expr, &app.tensors);
    out.push(Case {
        name: "pointcloud_conv",
        op,
        plan_for_tuning: None,
        tensors: app.tensors,
    });

    // Equivariant tensor product (the paper's fourth case study).
    let mut rng = SmallRng::seed_from_u64(13);
    let cg = insum_workloads::equivariant::cg_tensor(2, 8);
    let (batch, u, w) = (128, 16, 16);
    let xt = insum_tensor::rand_uniform(vec![batch, cg.dim, u], -1.0, 1.0, &mut rng);
    let yt = insum_tensor::rand_uniform(vec![batch, cg.dim], -1.0, 1.0, &mut rng);
    let wt = insum_tensor::rand_uniform(vec![batch, cg.paths.len(), u, w], -0.5, 0.5, &mut rng);
    let app = apps::equivariant_tp(&cg, &xt, &yt, &wt);
    let (op, _) = compile(app.expr, &app.tensors);
    out.push(Case {
        name: "equivariant_tp",
        op,
        plan_for_tuning: None,
        tensors: app.tensors,
    });

    // Dense matmul: the fully affine workload where analytic launches
    // collapse every row of instances into one costed class (and the
    // autotuner's inner loop goes O(classes)).
    let mut rng = SmallRng::seed_from_u64(17);
    let (m, k, n) = (512, 256, 512);
    let a = insum_tensor::rand_uniform(vec![m, k], -1.0, 1.0, &mut rng);
    let bmat = insum_tensor::rand_uniform(vec![k, n], -1.0, 1.0, &mut rng);
    let c = Tensor::zeros(vec![m, n]);
    let tensors: BTreeMap<String, Tensor> = [
        ("C".to_string(), c),
        ("A".to_string(), a),
        ("B".to_string(), bmat),
    ]
    .into_iter()
    .collect();
    let (op, plan) = compile("C[y,x] = A[y,r] * B[r,x]", &tensors);
    out.push(Case {
        name: "dense_matmul_512",
        op,
        plan_for_tuning: Some(plan),
        tensors,
    });

    out
}

/// Clone the case's tensors into launch-order argument storage.
fn bind(case: &Case) -> Vec<Tensor> {
    case.op
        .plan
        .param_order
        .iter()
        .map(|n| case.tensors.get(n).expect("parameter bound").clone())
        .collect()
}

/// The case's program, lowered afresh: its next launch is its first.
fn fresh_program(case: &Case) -> Program {
    let args = bind(case);
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    Program::compile(&case.op.kernel, &case.op.grid, &lens, &dtypes).expect("program compiles")
}

/// One launch of `program`, wall-clocked. Every call binds the same
/// storage, so consecutive calls on one program are relaunches under one
/// key; pass a [`fresh_program`] to time the full launch path.
fn run_program(
    case: &Case,
    program: &Program,
    device: &DeviceModel,
    mode: Mode,
    threads: usize,
) -> (f64, KernelReport, Vec<Tensor>) {
    let mut owned = bind(case);
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let opts = LaunchOptions {
        threads: Some(threads),
        ..Default::default()
    };
    let start = Instant::now();
    let report = program
        .launch_with(&mut refs, device, mode, &opts)
        .expect("launch succeeds");
    (start.elapsed().as_secs_f64(), report, owned)
}

fn run_reference(
    case: &Case,
    device: &DeviceModel,
    mode: Mode,
) -> (f64, KernelReport, Vec<Tensor>) {
    let mut owned = bind(case);
    let mut refs: Vec<&mut Tensor> = owned.iter_mut().collect();
    let start = Instant::now();
    let report = launch_reference(&case.op.kernel, &case.op.grid, &mut refs, device, mode)
        .expect("launch succeeds");
    (start.elapsed().as_secs_f64(), report, owned)
}

/// Run `f` and return the `(exact, canonical)` `tl.dot` dispatches and
/// the `(row_run, generic)` 2-D access-site executions it caused. The
/// counters are process-wide; simbench launches from this thread only,
/// so the deltas belong to `f`.
fn count_dispatch<R>(f: impl FnOnce() -> R) -> (R, (u64, u64), (u64, u64)) {
    let (dots, sites) = (dot_dispatch_counts(), site_dispatch_counts());
    let out = f();
    let (dots_after, sites_after) = (dot_dispatch_counts(), site_dispatch_counts());
    (
        out,
        (dots_after.0 - dots.0, dots_after.1 - dots.1),
        (sites_after.0 - sites.0, sites_after.1 - sites.1),
    )
}

/// The workloads whose Execute dots must all run exact-product, and all
/// canonical once a NaN is planted in B.
const DOT_DISPATCH_CASES: [&str; 2] = ["spmm_block_group_fig7", "dense_matmul_512"];

/// Assert that a run dispatched all of its dots one way: to the
/// exact-product kernel (`want_exact`) or to the canonical loop. The
/// counters report the kernel that ran, so on a host without FMA every
/// dot is canonical.
fn assert_dispatch(what: &str, (exact, canonical): (u64, u64), want_exact: bool) {
    let want_exact = want_exact && Isa::detect() != Isa::Portable;
    let (want, other) = if want_exact {
        (exact, canonical)
    } else {
        (canonical, exact)
    };
    assert!(
        want > 0 && other == 0,
        "{what}: every tl.dot must take the {} path (exact {exact}, canonical {canonical})",
        if want_exact {
            "exact-product"
        } else {
            "canonical"
        }
    );
}

/// `t` with one NaN planted mid-buffer (copy-on-write: `t` is untouched).
fn nan_poisoned(t: &Tensor) -> Tensor {
    let mut p = t.clone();
    let mid = p.len() / 2;
    p.data_mut()[mid] = f32::NAN;
    p
}

/// Best-of-N wall-clock (N adapted so slow cases stay bounded).
fn best_wall(mut run: impl FnMut() -> f64) -> f64 {
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    for i in 0..7 {
        let t = run();
        best = best.min(t);
        spent += t;
        if i >= 1 && spent > 10.0 {
            break;
        }
    }
    best
}

struct Row {
    name: String,
    mode: &'static str,
    host_threads: usize,
    instances: u64,
    wall_new: f64,
    wall_ref: f64,
    lane_ops: u64,
    bit_identical: bool,
    analytic_classes: bool,
    /// Share of the launch's executed 2-D access sites that ran as row
    /// runs (`insum_gpu::site_dispatch_counts`).
    row_run_site_share: f64,
    /// Share of the launch's executed `tl.dot`s that ran the
    /// exact-product FMA kernel (`insum_gpu::dot_dispatch_counts`);
    /// `None` when it executed none (every Analytic launch).
    exact_dot_share: Option<f64>,
    /// More worker threads than the host has cores: the row is kept for
    /// its shard-merge bit-identity assert, but its wall time measures
    /// oversubscription, so it is left out of the speedup column.
    oversubscribed: bool,
}

/// One workload relaunched against the same arguments (one host
/// thread, Execute mode): what launches 1, 2 and 3+ of a key cost.
struct RelaunchRow {
    name: String,
    /// Launch 1: the full path, remembering the key (median of 13).
    wall_full: f64,
    /// Launch 2: the full path with the recorder hooked in.
    wall_recording: f64,
    /// Launches 3+: the value slice, addressed from the script.
    wall_replay: f64,
    script_bytes: usize,
    bit_identical: bool,
}

struct TuneRow {
    name: String,
    configs_tried: usize,
    configs_probed: usize,
    /// Wall time of the exhaustive oracle sweep over the same space.
    exhaustive_wall: f64,
    /// Largest `|estimate − measured| / estimate` over the measured trials.
    estimate_max_rel_error: f64,
    /// `best_time / oracle_best − 1`.
    regret: f64,
    /// The search's `(tile, estimate, measured)` table, evaluation order.
    trials: Vec<(TileConfig, f64, Option<f64>)>,
    cold_wall: f64,
    cold_misses: u64,
    warm_wall: f64,
    warm_hits: u64,
    warm_misses: u64,
}

/// The exhaustive sweep the autotuner's search replaced, kept as its
/// oracle: the default first, then every candidate in sweep order, a
/// strictly faster one taking over. Returns the winner, its time and the
/// sweep's wall time.
fn exhaustive_sweep(
    plan: &FusionPlan,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
) -> (TileConfig, f64, f64) {
    let (start, cache, base) = (
        Instant::now(),
        ProgramCache::new(),
        CodegenOptions::default(),
    );
    let time = |options: &CodegenOptions| {
        let op = compile_fused(plan, options).expect("kernel compiles");
        let launch = LaunchOptions::default();
        let run = run_fused_with_cache(&op, inputs, device, Mode::Analytic, &launch, &cache);
        (op, run.expect("launch succeeds").1.time)
    };
    let (default, default_time) = time(&base);
    let mut best = (TileConfig::of(&default), default_time);
    for config in tile_candidates(plan, default.uses_dot) {
        if config != TileConfig::of(&default) {
            let (_, t) = time(&config.apply(&base));
            if t < best.1 {
                best = (config, t);
            }
        }
    }
    (best.0, best.1, start.elapsed().as_secs_f64())
}

/// One multi-operand contraction chain: naive left-to-right vs the
/// planner's searched order, executed end to end.
struct ChainCase {
    name: &'static str,
    expr: &'static str,
    tensors: BTreeMap<String, Tensor>,
}

struct ChainRow {
    name: String,
    operands: usize,
    steps: usize,
    strategy: String,
    flops_naive: u128,
    flops_planned: u128,
    ws_naive_bytes: usize,
    ws_planned_bytes: usize,
    wall_naive: f64,
    wall_planned: f64,
    bit_identical: bool,
}

/// One canonical einsum the pattern classifier routes to a stride view,
/// benchmarked against the general lowering it would otherwise take.
struct FastCase {
    name: &'static str,
    expr: &'static str,
    tensors: BTreeMap<String, Tensor>,
}

struct FastRow {
    name: String,
    pattern: String,
    /// The forced-general twin on the full launch path (what the gate
    /// compares against).
    wall_general: f64,
    /// The same twin relaunched in a row: launches 3+ replay.
    wall_general_replayed: f64,
    wall_fast: f64,
    bit_identical: bool,
    deep_copies_fast: u64,
}

fn fast_cases() -> Vec<FastCase> {
    let mut rng = SmallRng::seed_from_u64(29);
    let mut u = |shape: Vec<usize>| insum_tensor::rand_uniform(shape, -1.0, 1.0, &mut rng);
    let a = u(vec![512, 512]);
    let bind = |pairs: Vec<(&str, Tensor)>| -> BTreeMap<String, Tensor> {
        pairs.into_iter().map(|(n, t)| (n.to_string(), t)).collect()
    };
    vec![
        FastCase {
            name: "transpose_512",
            expr: "T[j,i] = A[i,j]",
            tensors: bind(vec![("T", Tensor::zeros(vec![512, 512])), ("A", a.clone())]),
        },
        FastCase {
            name: "diagonal_512",
            expr: "D[i] = A[i,i]",
            tensors: bind(vec![("D", Tensor::zeros(vec![512])), ("A", a.clone())]),
        },
    ]
}

/// Integer-valued operand in {-2, …, 2}: on this domain every
/// contraction order is bit-exact (see the `insum_planner` crate docs),
/// so the naive/planned comparison can assert equality, not closeness.
fn int_tensor(shape: Vec<usize>, rng: &mut SmallRng) -> Tensor {
    insum_tensor::rand_uniform(shape, -2.49, 2.49, rng).map(f32::round)
}

fn chain_cases() -> Vec<ChainCase> {
    let mut rng = SmallRng::seed_from_u64(23);
    vec![
        // Three-operand skew: the middle extents are tiny, so contracting
        // right-to-left shrinks the problem immediately while left-to-right
        // materializes a 256x256 intermediate.
        ChainCase {
            name: "chain3_skew",
            expr: "O[i,l] = A[i,j] * B[j,k] * C[k,l]",
            tensors: [
                ("A".to_string(), int_tensor(vec![256, 4], &mut rng)),
                ("B".to_string(), int_tensor(vec![4, 256], &mut rng)),
                ("C".to_string(), int_tensor(vec![256, 4], &mut rng)),
            ]
            .into_iter()
            .collect(),
        },
        // Four-operand skew (the acceptance chain): only `k` is tiny, so the
        // optimal tree is (AB)(CD) meeting at the 4-wide waist — ~32x fewer
        // FLOPs than left-to-right, whose last merge is a full dense matmul.
        ChainCase {
            name: "chain4_skew",
            expr: "O[i,m] = A[i,j] * B[j,k] * C[k,l] * D[l,m]",
            tensors: [
                ("A".to_string(), int_tensor(vec![384, 384], &mut rng)),
                ("B".to_string(), int_tensor(vec![384, 4], &mut rng)),
                ("C".to_string(), int_tensor(vec![4, 384], &mut rng)),
                ("D".to_string(), int_tensor(vec![384, 384], &mut rng)),
            ]
            .into_iter()
            .collect(),
        },
        // Attention-shaped QK/AV chain (scores and values in one spec; the
        // softmax between them lives in `examples/attention.rs`).
        ChainCase {
            name: "attention_qkv",
            expr: "O[b,h,q,d] = Q[b,h,q,e] * K[b,h,k,e] * V[b,h,k,d]",
            tensors: [
                ("Q".to_string(), int_tensor(vec![2, 4, 64, 32], &mut rng)),
                ("K".to_string(), int_tensor(vec![2, 4, 64, 32], &mut rng)),
                ("V".to_string(), int_tensor(vec![2, 4, 64, 32], &mut rng)),
            ]
            .into_iter()
            .collect(),
        },
    ]
}

fn main() {
    let device = DeviceModel::rtx3090();
    let max_threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Always include a multi-threaded row, with a core per shard where
    // the host has them (2–4 threads): only on a 1-core host is the row
    // oversubscribed — kept, and marked, for the deterministic
    // shard-merge asserts below.
    let multi = max_threads.clamp(2, 4);
    let thread_configs: Vec<usize> = vec![1, multi];
    let cache = ProgramCache::global();
    let mut rows: Vec<Row> = Vec::new();
    let mut relaunch_rows: Vec<RelaunchRow> = Vec::new();
    let mut compile_notes: Vec<(String, f64, bool, f64)> = Vec::new();
    let all_cases = cases();

    for case in &all_cases {
        // Compile once per launch shape through the cross-launch cache;
        // a second identical lookup must hit (CI smoke for the
        // compile-once/launch-many contract).
        let lens: Vec<usize> = case
            .op
            .plan
            .param_order
            .iter()
            .map(|n| case.tensors[n].len())
            .collect();
        let dtypes: Vec<DType> = case
            .op
            .plan
            .param_order
            .iter()
            .map(|n| case.tensors[n].dtype())
            .collect();
        let before = cache.stats();
        let t0 = Instant::now();
        let program = cache
            .get_or_compile(&case.op.kernel, &case.op.grid, &lens, &dtypes)
            .expect("program compiles");
        let compile_seconds = t0.elapsed().as_secs_f64();
        let again = cache
            .get_or_compile(&case.op.kernel, &case.op.grid, &lens, &dtypes)
            .expect("program compiles");
        let after = cache.stats();
        assert!(
            after.hits == before.hits + 1 && std::sync::Arc::ptr_eq(&program, &again),
            "{}: second identical launch must hit the ProgramCache",
            case.name
        );
        // Bind cost: cloning the case's tensors into launch-order
        // argument storage. With Arc-backed copy-on-write tensors this
        // is O(params) pointer bumps, not a deep copy of every buffer —
        // the `bind_ns` field records the elimination.
        let bind_reps = 200u32;
        let t_bind = Instant::now();
        for _ in 0..bind_reps {
            std::hint::black_box(bind(case));
        }
        let bind_ns = t_bind.elapsed().as_nanos() as f64 / f64::from(bind_reps);
        compile_notes.push((
            case.name.to_string(),
            compile_seconds,
            program.analytic_dedup_available(),
            bind_ns,
        ));

        for mode in [Mode::Execute, Mode::Analytic] {
            // Correctness first: one verified run per mode against the
            // seed interpreter (sequential), plus every thread config.
            let (_, r_ref, out_ref) = run_reference(case, &device, mode);
            for &threads in &thread_configs {
                let ((_, r_new, out_new), dots, (row_run, generic)) = count_dispatch(|| {
                    run_program(case, &fresh_program(case), &device, mode, threads)
                });
                if DOT_DISPATCH_CASES.contains(&case.name) && mode == Mode::Execute {
                    assert_dispatch(&format!("{} at {threads} threads", case.name), dots, true);
                }
                // Every 2-D access of a default-options kernel is
                // separable and none of these workloads gathers a column
                // index: a generic execution is a lost recognition.
                assert!(
                    row_run > 0 && generic == 0,
                    "{}: every 2-D access site must run as row runs in {mode:?} mode at \
                     {threads} threads (row-run {row_run}, generic {generic})",
                    case.name
                );
                let outputs_equal = out_new
                    .iter()
                    .zip(&out_ref)
                    .all(|(a, b)| a.data() == b.data());
                let bit_identical =
                    r_new.stats == r_ref.stats && r_new.time == r_ref.time && outputs_equal;
                assert!(
                    bit_identical,
                    "{}: optimized interpreter diverges from the seed in {mode:?} mode \
                     at {threads} threads",
                    case.name
                );

                let wall_new =
                    best_wall(|| run_program(case, &fresh_program(case), &device, mode, threads).0);
                let wall_ref = best_wall(|| run_reference(case, &device, mode).0);
                // Lane-level work per launch: block-arithmetic lanes,
                // atomic lanes, and memory sector transactions at 8 f32
                // lanes each.
                let lane_ops = r_new.stats.flops_scalar
                    + r_new.stats.atomics
                    + 8 * (r_new.stats.l2_read_sectors + r_new.stats.l2_write_sectors);
                rows.push(Row {
                    name: case.name.to_string(),
                    mode: if mode == Mode::Execute {
                        "execute"
                    } else {
                        "analytic"
                    },
                    host_threads: threads,
                    instances: r_new.stats.instances,
                    wall_new,
                    wall_ref,
                    lane_ops,
                    bit_identical,
                    analytic_classes: mode == Mode::Analytic && program.analytic_dedup_available(),
                    row_run_site_share: row_run as f64 / (row_run + generic) as f64,
                    exact_dot_share: match dots.0 + dots.1 {
                        0 => None,
                        executed => Some(dots.0 as f64 / executed as f64),
                    },
                    oversubscribed: threads > max_threads,
                });
            }
        }

        // Relaunches on one program. Two keys (the device model is part of
        // the key) launched A A B B A A … make every even launch a miss
        // that runs in full and only remembers its key — launch 1 — and
        // every odd one the second sighting in a row, which records —
        // launch 2: thirteen samples of each, interleaved, whose medians
        // resolve a few percent on this VM where minima of five fresh
        // programs do not. The last pair leaves A's script ready.
        let (_, r_ref, out_ref) = run_reference(case, &device, Mode::Execute);
        let same_as_seed = |r: &KernelReport, out: &[Tensor]| {
            r.stats == r_ref.stats
                && r.time == r_ref.time
                && out.iter().zip(&out_ref).all(|(a, b)| a.bit_eq(b))
        };
        let other_device = DeviceModel {
            launch_overhead: 2.0 * device.launch_overhead,
            ..device.clone()
        };
        let relaunched = fresh_program(case);
        let mut bit_identical = true;
        let mut walls = [Vec::new(), Vec::new()];
        let before = script_dispatch_counts();
        for launch in 0..26 {
            let on_a = (launch / 2) % 2 == 0;
            let key = if on_a { &device } else { &other_device };
            let (t, r, out) = run_program(case, &relaunched, key, Mode::Execute, 1);
            walls[launch % 2].push(t);
            bit_identical &= !on_a || same_as_seed(&r, &out);
        }
        let after = script_dispatch_counts();
        assert_eq!(
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
            (13, 13, 0),
            "{}: a new key runs in full, its second launch in a row records",
            case.name
        );
        let [wall_full, wall_recording] = walls.map(|mut w| {
            w.sort_by(f64::total_cmp);
            w[w.len() / 2]
        });
        let before = script_dispatch_counts();
        let wall_replay = best_wall(|| {
            let (t, r, out) = run_program(case, &relaunched, &device, Mode::Execute, 1);
            bit_identical &= same_as_seed(&r, &out);
            t
        });
        let after = script_dispatch_counts();
        assert!(
            after.2 > before.2 && (after.0, after.1) == (before.0, before.1),
            "{}: launches 3+ must be served from the address script ({:?})",
            case.name,
            relaunched.replay_decline()
        );
        assert!(
            bit_identical,
            "{}: a relaunch diverges from the seed",
            case.name
        );
        // Wall-clock on a shared host: the 10 % target is reported, only a
        // recorder that got grossly dearer fails the run.
        let recording_over = wall_recording / wall_full - 1.0;
        if recording_over > 0.10 {
            eprintln!(
                "warning: {}: recording cost {:+.1}% over a plain launch (target <= 10%; \
                 medians of 13: launch 1 {:.3} ms, launch 2 {:.3} ms) — re-run on a quiet host",
                case.name,
                100.0 * recording_over,
                wall_full * 1e3,
                wall_recording * 1e3
            );
        }
        assert!(
            recording_over <= 0.25,
            "{}: recording must stay near the cost of a plain launch \
             (medians of 13: launch 1 {:.3} ms, launch 2 {:.3} ms)",
            case.name,
            wall_full * 1e3,
            wall_recording * 1e3
        );
        relaunch_rows.push(RelaunchRow {
            name: case.name.to_string(),
            wall_full,
            wall_recording,
            wall_replay,
            script_bytes: relaunched.script_bytes().expect("a ready script"),
            bit_identical,
        });

        // The other side of the dispatch gate: one NaN in B and no dot
        // is eligible — the canonical loop serves all of them, with the
        // seed's bits.
        if DOT_DISPATCH_CASES.contains(&case.name) {
            let mut tensors = case.tensors.clone();
            tensors.insert("B".to_string(), nan_poisoned(&case.tensors["B"]));
            let poisoned = Case {
                name: case.name,
                op: case.op.clone(),
                plan_for_tuning: None,
                tensors,
            };
            let ((_, r_new, out_new), dots, _) =
                count_dispatch(|| run_program(&poisoned, &program, &device, Mode::Execute, 1));
            assert_dispatch(&format!("{} with a NaN in B", case.name), dots, false);
            let (_, r_ref, out_ref) = run_reference(&poisoned, &device, Mode::Execute);
            assert!(
                r_new.stats == r_ref.stats
                    && r_new.time == r_ref.time
                    && out_new.iter().zip(&out_ref).all(|(a, b)| a.bit_eq(b)),
                "{} with a NaN in B diverges from the seed interpreter",
                case.name
            );
        }
    }

    // Autotuning: sweep twice per tunable workload — the second sweep
    // must re-lower nothing (cross-trial ProgramCache reuse).
    let mut tune_rows: Vec<TuneRow> = Vec::new();
    for case in &all_cases {
        let Some(plan) = &case.plan_for_tuning else {
            continue;
        };
        let tune_cache = ProgramCache::new();
        let cold = autotune_with(
            plan,
            &CodegenOptions::default(),
            &case.tensors,
            &device,
            &tune_cache,
        )
        .expect("autotune succeeds");
        let warm = autotune_with(
            plan,
            &CodegenOptions::default(),
            &case.tensors,
            &device,
            &tune_cache,
        )
        .expect("autotune succeeds");
        assert_eq!(
            warm.cache_misses, 0,
            "{}: warm re-tune must reuse every trial's program",
            case.name
        );
        assert_eq!(cold.best_time, warm.best_time);
        let (oracle_tile, oracle_best, exhaustive_wall) =
            exhaustive_sweep(plan, &case.tensors, &device);
        let regret = cold.best_time / oracle_best - 1.0;
        assert!(
            regret == 0.0 && TileConfig::of(&cold.op) == oracle_tile,
            "{}: the search must return the exhaustive sweep's winner \
             ({:?} at {oracle_best:e}), got {:?} at {:e}",
            case.name,
            oracle_tile,
            TileConfig::of(&cold.op),
            cold.best_time
        );
        tune_rows.push(TuneRow {
            name: case.name.to_string(),
            configs_tried: cold.configs_tried,
            configs_probed: cold.configs_probed,
            exhaustive_wall,
            estimate_max_rel_error: cold
                .trials
                .iter()
                .filter_map(|&(_, estimate, measured)| {
                    Some((estimate - measured?).abs() / estimate)
                })
                .fold(0.0, f64::max),
            regret,
            trials: cold.trials,
            cold_wall: cold.tuning_wall_seconds,
            cold_misses: cold.cache_misses,
            warm_wall: warm.tuning_wall_seconds,
            warm_hits: warm.cache_hits,
            warm_misses: warm.cache_misses,
        });
    }

    // Contraction chains: naive left-to-right vs the planner's searched
    // order, executed end to end through the same compile/launch path.
    let mut chain_rows: Vec<ChainRow> = Vec::new();
    for case in chain_cases() {
        let opts = InsumOptions::default();
        let naive = plan_with_strategy(case.expr, &case.tensors, &opts, OrderStrategy::LeftToRight)
            .expect("naive plan compiles");
        let planned = plan_with_strategy(case.expr, &case.tensors, &opts, OrderStrategy::Auto)
            .expect("planned chain compiles");
        let reference = chain_reference(case.expr, &case.tensors).expect("reference evaluates");
        let (out_naive, _) = naive.run(&case.tensors).expect("naive chain runs");
        let (out_planned, _) = planned.run(&case.tensors).expect("planned chain runs");
        let bit_identical =
            out_naive.data() == reference.data() && out_planned.data() == reference.data();
        assert!(
            bit_identical,
            "{}: planned and naive orders must match the reference bit-for-bit \
             on integer-valued data",
            case.name
        );
        // Compile-once smoke: re-planning the identical chain must find
        // every device step's program already resident in the
        // cross-launch ProgramCache (simbench runs serially, so exact
        // global-cache deltas are race-free here).
        let before = cache.stats();
        let replanned = plan_with_strategy(case.expr, &case.tensors, &opts, OrderStrategy::Auto)
            .expect("replan compiles");
        replanned.run(&case.tensors).expect("replanned chain runs");
        let after = cache.stats();
        assert_eq!(
            after.misses, before.misses,
            "{}: re-planning an identical chain must re-lower nothing",
            case.name
        );
        assert!(
            after.hits >= before.hits + replanned.program_step_count() as u64,
            "{}: every program-backed device step of the replanned chain must hit \
             the ProgramCache (fast-path steps lower no programs and are exempt)",
            case.name
        );
        let wall_naive = best_wall(|| {
            let t = Instant::now();
            naive.run(&case.tensors).expect("naive chain runs");
            t.elapsed().as_secs_f64()
        });
        let wall_planned = best_wall(|| {
            let t = Instant::now();
            planned.run(&case.tensors).expect("planned chain runs");
            t.elapsed().as_secs_f64()
        });
        let naive_plan = naive.plan().expect("built by the planner");
        let planned_plan = planned.plan().expect("built by the planner");
        chain_rows.push(ChainRow {
            name: case.name.to_string(),
            operands: planned_plan.spec.operands.len(),
            steps: planned.step_count(),
            strategy: format!("{:?}", planned_plan.strategy),
            flops_naive: naive_plan.total_flops,
            flops_planned: planned_plan.total_flops,
            ws_naive_bytes: naive_plan.workspace_bytes(),
            ws_planned_bytes: planned_plan.workspace_bytes(),
            wall_naive,
            wall_planned,
            bit_identical,
        });
    }
    let skew4 = chain_rows
        .iter()
        .find(|r| r.name == "chain4_skew")
        .expect("skew4 chain row present");
    assert!(
        skew4.wall_naive / skew4.wall_planned >= 2.0,
        "skewed 4-operand chain: planned order must run >=2x faster than naive \
         left-to-right (naive {:.2} ms, planned {:.2} ms)",
        skew4.wall_naive * 1e3,
        skew4.wall_planned * 1e3
    );

    // Pattern fast path: canonical einsums served as zero-copy stride
    // views vs the same statements forced through the general lowering
    // (`fast_path: false`), which remains the bit-identity oracle for
    // every row.
    let mut fast_rows: Vec<FastRow> = Vec::new();
    for case in fast_cases() {
        let fast = insum_with(case.expr, &case.tensors, &InsumOptions::default())
            .expect("fast-path artifact compiles");
        let pattern = fast
            .fast_path_pattern()
            .unwrap_or_else(|| panic!("{}: must classify onto the fast path", case.name))
            .name()
            .to_string();
        let general_opts = InsumOptions {
            fast_path: false,
            ..InsumOptions::default()
        };
        let general =
            insum_with(case.expr, &case.tensors, &general_opts).expect("general artifact compiles");
        assert!(
            general.fast_path_pattern().is_none(),
            "{}: fast_path=false must force the general lowering",
            case.name
        );
        let general_other_key = insum_with(
            case.expr,
            &case.tensors,
            &InsumOptions {
                device: DeviceModel {
                    launch_overhead: 2.0 * general_opts.device.launch_overhead,
                    ..general_opts.device.clone()
                },
                ..general_opts.clone()
            },
        )
        .expect("general artifact compiles");

        let copies_before = Tensor::deep_copy_count();
        let (out_fast, _) = fast.run(&case.tensors).expect("fast path runs");
        let deep_copies_fast = Tensor::deep_copy_count() - copies_before;
        let (out_general, _) = general.run(&case.tensors).expect("general path runs");
        let bit_identical = out_fast.bit_eq(&out_general);
        assert!(
            bit_identical,
            "{}: the fast path must be bit-identical to the general lowering",
            case.name
        );
        assert_eq!(
            deep_copies_fast, 0,
            "{}: stride views must perform zero deep copies",
            case.name
        );
        assert!(
            out_fast.shares_storage(&case.tensors["A"]),
            "{}: the fast output must be a view of the input's storage",
            case.name
        );

        let wall_fast = best_wall(|| {
            let t = Instant::now();
            fast.run(&case.tensors).expect("fast path runs");
            t.elapsed().as_secs_f64()
        });
        // The gate compares against the *full* general launch path, so
        // the timed twin must not replay: it runs under a second device
        // model (same cached programs, another key; host work is the
        // same) with an untimed run of `general` before each timed one, so
        // it never sees its key twice in a row and never records.
        let mut off_the_full_path = 0;
        let wall_general = best_wall(|| {
            general.run(&case.tensors).expect("general path runs");
            let before = script_dispatch_counts();
            let t = Instant::now();
            general_other_key
                .run(&case.tensors)
                .expect("general path runs");
            let wall = t.elapsed().as_secs_f64();
            let after = script_dispatch_counts();
            off_the_full_path += (after.1 - before.1) + (after.2 - before.2);
            wall
        });
        assert_eq!(
            off_the_full_path, 0,
            "{}: the general twin must be timed on the full launch path",
            case.name
        );
        // What a server relaunching the twin pays: from its third run in a
        // row its launches replay their address scripts. Not gated.
        let wall_general_replayed = best_wall(|| {
            let t = Instant::now();
            general.run(&case.tensors).expect("general path runs");
            t.elapsed().as_secs_f64()
        });
        fast_rows.push(FastRow {
            name: case.name.to_string(),
            pattern,
            wall_general,
            wall_general_replayed,
            wall_fast,
            bit_identical,
            deep_copies_fast,
        });
    }
    for r in &fast_rows {
        assert!(
            r.wall_general / r.wall_fast >= 5.0,
            "{}: the {} fast path must be >=5x over the general lowering \
             (general {:.3} ms, fast {:.3} ms)",
            r.name,
            r.pattern,
            r.wall_general * 1e3,
            r.wall_fast * 1e3
        );
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.mode.to_string(),
                r.host_threads.to_string(),
                r.instances.to_string(),
                format!("{:.2}", r.wall_ref * 1e3),
                format!("{:.2}", r.wall_new * 1e3),
                if r.oversubscribed {
                    "oversub".to_string()
                } else {
                    x(r.wall_ref / r.wall_new)
                },
                format!("{:.0}", r.instances as f64 / r.wall_new),
                format!("{:.2}", r.lane_ops as f64 / r.wall_new / 1e6),
                format!("{:.0}%", 100.0 * r.row_run_site_share),
                r.exact_dot_share
                    .map_or("-".to_string(), |s| format!("{:.0}%", 100.0 * s)),
            ]
        })
        .collect();
    print_table(
        &format!("simulator throughput (max host threads: {max_threads})"),
        &[
            "workload",
            "mode",
            "thr",
            "insts",
            "seed ms",
            "new ms",
            "speedup",
            "insts/s",
            "Mlanes/s",
            "row-run",
            "exact-dot",
        ],
        &table,
    );

    let relaunch_table: Vec<Vec<String>> = relaunch_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                format!("{:.2}", r.wall_full * 1e3),
                format!("{:.2}", r.wall_recording * 1e3),
                format!("{:.2}", r.wall_replay * 1e3),
                x(r.wall_full / r.wall_replay),
                format!("{:+.1}%", 100.0 * (r.wall_recording / r.wall_full - 1.0)),
                format!("{:.1}", r.script_bytes as f64 / 1024.0),
                r.bit_identical.to_string(),
            ]
        })
        .collect();
    print_table(
        "relaunch under one key (execute, 1 thread): full, recording, replayed from the script",
        &[
            "workload",
            "launch 1 ms",
            "launch 2 ms",
            "launch 3+ ms",
            "replay gain",
            "recording",
            "script KB",
            "bits ok",
        ],
        &relaunch_table,
    );

    let tune_table: Vec<Vec<String>> = tune_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.configs_tried.to_string(),
                r.configs_probed.to_string(),
                format!("{:.2}", r.exhaustive_wall * 1e3),
                format!("{:.2}", r.cold_wall * 1e3),
                r.cold_misses.to_string(),
                format!("{:.2}", r.warm_wall * 1e3),
                r.warm_hits.to_string(),
                format!("{:.1e}", r.estimate_max_rel_error),
                format!("{:.1e}", r.regret),
            ]
        })
        .collect();
    print_table(
        "autotune (best-first search vs exhaustive oracle; cold vs warm ProgramCache)",
        &[
            "workload",
            "launched",
            "probed",
            "exhaust ms",
            "cold ms",
            "misses",
            "warm ms",
            "warm hits",
            "est err",
            "regret",
        ],
        &tune_table,
    );
    let fig7 = tune_rows.iter().find(|r| r.name == "spmm_block_group_fig7");
    let trial_table: Vec<Vec<String>> = fig7
        .expect("fig7 is tuned")
        .trials
        .iter()
        .map(|(tile, estimate, measured)| {
            vec![
                format!("{}x{}x{}", tile.yblock, tile.xblock, tile.rblock),
                insum_bench::us(*estimate),
                measured.map_or("-".to_string(), insum_bench::us),
            ]
        })
        .collect();
    print_table(
        "spmm_block_group_fig7 autotune trials (evaluation order; '-' = never launched)",
        &["tile y*x*r", "estimate us", "measured us"],
        &trial_table,
    );

    let chain_table: Vec<Vec<String>> = chain_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.operands.to_string(),
                r.strategy.clone(),
                format!("{:.3}", r.flops_naive as f64 / 1e6),
                format!("{:.3}", r.flops_planned as f64 / 1e6),
                format!("{:.1}", r.ws_naive_bytes as f64 / 1024.0),
                format!("{:.1}", r.ws_planned_bytes as f64 / 1024.0),
                format!("{:.2}", r.wall_naive * 1e3),
                format!("{:.2}", r.wall_planned * 1e3),
                x(r.wall_naive / r.wall_planned),
                r.bit_identical.to_string(),
            ]
        })
        .collect();
    print_table(
        "contraction chains (naive left-to-right vs planned order)",
        &[
            "chain",
            "ops",
            "strategy",
            "naive Mflop",
            "plan Mflop",
            "naive wsKB",
            "plan wsKB",
            "naive ms",
            "plan ms",
            "speedup",
            "bits ok",
        ],
        &chain_table,
    );

    let fast_table: Vec<Vec<String>> = fast_rows
        .iter()
        .map(|r| {
            vec![
                r.name.clone(),
                r.pattern.clone(),
                format!("{:.3}", r.wall_general * 1e3),
                format!("{:.3}", r.wall_general_replayed * 1e3),
                format!("{:.3}", r.wall_fast * 1e3),
                x(r.wall_general / r.wall_fast),
                r.bit_identical.to_string(),
                r.deep_copies_fast.to_string(),
            ]
        })
        .collect();
    print_table(
        "pattern fast path (stride views vs general lowering)",
        &[
            "case",
            "pattern",
            "general ms",
            "replayed ms",
            "fast ms",
            "speedup",
            "bits ok",
            "deep copies",
        ],
        &fast_table,
    );

    let headline = rows
        .iter()
        .find(|r| r.name == "spmm_block_group_fig7" && r.mode == "execute" && r.host_threads == 1)
        .expect("headline row present");
    println!(
        "\nheadline: fig7-scale SpMM execute-mode speedup {:.2}x (single-thread)",
        headline.wall_ref / headline.wall_new
    );

    // Machine-readable trajectory record.
    let mut json = String::from("{\n");
    json.push_str("  \"benchmark\": \"simbench\",\n");
    json.push_str("  \"device_model\": \"rtx3090-sim\",\n");
    json.push_str(&format!("  \"host_threads_max\": {max_threads},\n"));
    json.push_str("  \"compile\": [\n");
    for (i, (name, secs, dedup, bind_ns)) in compile_notes.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"program_compile_seconds\": {secs:.6}, \
             \"analytic_instance_classes\": {dedup}, \"program_cache_hit_on_relaunch\": true, \
             \"bind_ns\": {bind_ns:.1}}}{}\n",
            if i + 1 < compile_notes.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"workloads\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"mode\": \"{}\", \"host_threads\": {}, \
             \"instances\": {}, \
             \"wall_seconds_seed\": {:.6}, \"wall_seconds_new\": {:.6}, \
             \"speedup\": {:.3}, \"instances_per_sec\": {:.1}, \
             \"lanes_per_sec\": {:.1}, \"analytic_instance_classes\": {}, \
             \"row_run_site_share\": {:.3}, \"exact_dot_share\": {}, \
             \"bit_identical\": {}{}}}{}\n",
            r.name,
            r.mode,
            r.host_threads,
            r.instances,
            r.wall_ref,
            r.wall_new,
            r.wall_ref / r.wall_new,
            r.instances as f64 / r.wall_new,
            r.lane_ops as f64 / r.wall_new,
            r.analytic_classes,
            r.row_run_site_share,
            r.exact_dot_share
                .map_or("null".to_string(), |s| format!("{s:.3}")),
            r.bit_identical,
            if r.oversubscribed {
                ", \"oversubscribed\": true"
            } else {
                ""
            },
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"relaunch\": [\n");
    for (i, r) in relaunch_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_seconds_launch1_full\": {:.6}, \
             \"wall_seconds_launch2_recording\": {:.6}, \"wall_seconds_launch3_replay\": {:.6}, \
             \"replay_speedup\": {:.3}, \"recording_overhead\": {:.3}, \
             \"script_bytes\": {}, \"launch3_served_from_script\": true, \
             \"bit_identical\": {}}}{}\n",
            r.name,
            r.wall_full,
            r.wall_recording,
            r.wall_replay,
            r.wall_full / r.wall_replay,
            r.wall_recording / r.wall_full - 1.0,
            r.script_bytes,
            r.bit_identical,
            if i + 1 < relaunch_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"chains\": [\n");
    for (i, r) in chain_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"operands\": {}, \"steps\": {}, \
             \"strategy\": \"{}\", \"flops_naive\": {}, \"flops_planned\": {}, \
             \"workspace_bytes_naive\": {}, \"workspace_bytes_planned\": {}, \
             \"wall_seconds_naive\": {:.6}, \"wall_seconds_planned\": {:.6}, \
             \"speedup\": {:.3}, \"program_cache_hit_on_replan\": true, \
             \"bit_identical\": {}}}{}\n",
            r.name,
            r.operands,
            r.steps,
            r.strategy,
            r.flops_naive,
            r.flops_planned,
            r.ws_naive_bytes,
            r.ws_planned_bytes,
            r.wall_naive,
            r.wall_planned,
            r.wall_naive / r.wall_planned,
            r.bit_identical,
            if i + 1 < chain_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"fast_path\": [\n");
    for (i, r) in fast_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"pattern\": \"{}\", \
             \"wall_seconds_general\": {:.9}, \
             \"wall_seconds_general_replayed\": {:.9}, \"wall_seconds_fast\": {:.9}, \
             \"speedup\": {:.3}, \"bit_identical\": {}, \
             \"deep_copies_fast\": {}}}{}\n",
            r.name,
            r.pattern,
            r.wall_general,
            r.wall_general_replayed,
            r.wall_fast,
            r.wall_general / r.wall_fast,
            r.bit_identical,
            r.deep_copies_fast,
            if i + 1 < fast_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"autotune\": [\n");
    for (i, r) in tune_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workload\": \"{}\", \"configs_tried\": {}, \"configs_probed\": {}, \
             \"tuning_wall_seconds_exhaustive\": {:.6}, \
             \"estimate_max_rel_error\": {:e}, \"regret\": {:e}, \
             \"tuning_wall_seconds_cold\": {:.6}, \"cache_misses_cold\": {}, \
             \"tuning_wall_seconds_warm\": {:.6}, \"cache_hits_warm\": {}, \
             \"cache_misses_warm\": {}}}{}\n",
            r.name,
            r.configs_tried,
            r.configs_probed,
            r.exhaustive_wall,
            r.estimate_max_rel_error,
            r.regret,
            r.cold_wall,
            r.cold_misses,
            r.warm_wall,
            r.warm_hits,
            r.warm_misses,
            if i + 1 < tune_rows.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}
