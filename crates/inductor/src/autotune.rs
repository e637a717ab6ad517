//! Tile-size autotuning by one-instance probes.
//!
//! The paper integrates PyTorch's autotuning infrastructure to pick Triton
//! configurations automatically (§6.7) — the 4.9 s "autotune" row of
//! Table 3. The tile space is the product of power-of-two Y/X/R
//! candidates ([`tile_candidates`]). Launching all of it in
//! [`Mode::Analytic`] on the real inputs is exact but spends nearly all
//! its time on configurations that lose, so the sweep is a best-first
//! search that returns the exhaustive sweep's winner:
//!
//! 1. **Measure the default** configuration with a full launch. It seeds
//!    best-so-far — `best_time` is never worse than the default's, by
//!    construction — and supplies the launch's DRAM + atomic time, which
//!    counts unique sectors, issued atomics and per-address collisions:
//!    properties of the data, not of the tiling.
//! 2. **Estimate every other candidate** from one program instance:
//!    generate its kernel, lower it for a `[1, …, 1]` grid, launch that,
//!    and extend the instance's SM time with
//!    [`insum_gpu::uniform_launch_time`] to the instances masked like it
//!    (all tiles but ragged last ones), against the default's DRAM time.
//!    Dropping the cheaper edge tiles makes the estimate a lower bound —
//!    some SM still runs its share of the full tiles — provided full tiles
//!    cost alike. The paper's fixed-length formats (GroupCOO,
//!    BlockGroupCOO, §4) and dense tiles guarantee that: every instance
//!    does the same work (no CSR-style row imbalance), so on extents the
//!    tile divides the estimate is the launch time to the bit. Probe
//!    programs are throwaway: they bypass the [`ProgramCache`].
//! 3. **Fully launch candidates in ascending estimate** (ties in sweep
//!    order), through the cache, and stop at the first with
//!    `estimate · (1 − err) > best`. `err` is the largest relative amount
//!    by which a measurement of this sweep undercut its estimate, starting
//!    from the default's launch held to the same model (all instances at
//!    its slowest one's time). It is zero on uniform launches, where the
//!    search stops after the front-runners, and grows — towards the full
//!    sweep — exactly when gather alignment makes instances differ.
//!
//! The winner is the fastest *measured* configuration; equal times resolve
//! as the exhaustive sweep would — the default first, then sweep order.
//! Its full-grid program is resident in the cache on return, and
//! re-tuning the same workload lowers nothing but probes.

use crate::cache::ProgramCache;
use crate::codegen::{compile_fused, next_pow2, CodegenOptions, FusedOp};
use crate::plan::FusionPlan;
use crate::runner::{bind_args, run_fused_with_cache};
use crate::winners::{workload_signature, AutotuneCache, TileConfig};
use crate::Result;
use insum_gpu::{uniform_launch_time, DeviceModel, LaunchOptions, Mode, Program};
use insum_tensor::{DType, Tensor};
use std::collections::BTreeMap;

/// Outcome of an autotuning sweep.
#[derive(Debug, Clone)]
pub struct AutotuneResult {
    /// The best compiled operation.
    pub op: FusedOp,
    /// Simulated time of the best configuration, seconds — always a full
    /// launch of `op`, never an estimate.
    pub best_time: f64,
    /// Number of configurations fully measured (the default plus the
    /// candidates the search launched; 1 on a warm start).
    pub configs_tried: usize,
    /// Number of configurations estimated from a one-instance probe
    /// (every candidate but the default; 0 on a warm start).
    pub configs_probed: usize,
    /// The table the winner beat, in evaluation order, as `(configuration,
    /// estimated seconds, measured seconds)`: the default (estimated from
    /// its own launch), then the other candidates by ascending lower-bound
    /// estimate. `None` marks a candidate the stop rule never launched.
    /// Empty on a warm start.
    pub trials: Vec<(TileConfig, f64, Option<f64>)>,
    /// Host wall-clock spent tuning, seconds.
    pub tuning_wall_seconds: f64,
    /// Program-cache hits observed during the sweep (repeat sweeps of
    /// the same workload hit on every measured configuration).
    pub cache_hits: u64,
    /// Program-cache misses (fresh lowerings) during the sweep; probes
    /// never touch the cache.
    pub cache_misses: u64,
    /// True when a persisted [`AutotuneCache`] winner skipped the sweep
    /// (the winner was still re-verified by one analytic launch).
    pub warm_start: bool,
}

fn candidates(extent: usize, dot: bool, has_role: bool) -> Vec<usize> {
    if !has_role {
        return vec![1];
    }
    let cap = next_pow2(extent);
    let floor = if dot { 16 } else { 1 };
    let mut out: Vec<usize> = [8usize, 16, 32, 64]
        .into_iter()
        .filter(|&b| b >= floor && b <= cap.max(floor))
        .collect();
    if out.is_empty() {
        out.push(cap.clamp(floor, 64));
    }
    out.dedup();
    out
}

/// Every tile configuration a sweep of `plan` considers, in sweep order
/// (Y outermost, R innermost). `uses_dot` — [`FusedOp::uses_dot`] of the
/// default configuration — raises the floor to the 16-wide `tl.dot`
/// minimum. The default configuration need not be among them.
pub fn tile_candidates(plan: &FusionPlan, uses_dot: bool) -> impl Iterator<Item = TileConfig> {
    let ys = candidates(plan.y_extent(), uses_dot, plan.y_var.is_some());
    let xs = candidates(plan.x_extent(), uses_dot, plan.x_var.is_some());
    let rs = candidates(plan.r_extent(), uses_dot, !plan.r_vars.is_empty());
    (0..ys.len() * xs.len() * rs.len()).map(move |i| TileConfig {
        yblock: ys[i / (xs.len() * rs.len())],
        xblock: xs[i / rs.len() % xs.len()],
        rblock: rs[i % rs.len()],
    })
}

/// Find the fastest tile configuration (see the module docs for the
/// search). Launches run with `launch_options`.
///
/// # Errors
///
/// Propagates codegen and simulator errors; at least one configuration is
/// always measured.
pub fn autotune(
    plan: &FusionPlan,
    base: &CodegenOptions,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
    launch_options: &LaunchOptions,
) -> Result<AutotuneResult> {
    autotune_impl(
        plan,
        base,
        inputs,
        device,
        launch_options,
        ProgramCache::global(),
        Some(AutotuneCache::global()),
    )
}

/// [`autotune`] with default launch options against an explicit
/// [`ProgramCache`] (useful for isolation in tests and benchmarks; cache
/// counters in the result are then exact rather than shared with
/// concurrent launches). Does not consult persisted winners: every call
/// sweeps.
///
/// # Errors
///
/// Same conditions as [`autotune`].
pub fn autotune_with(
    plan: &FusionPlan,
    base: &CodegenOptions,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
    cache: &ProgramCache,
) -> Result<AutotuneResult> {
    let launch_options = LaunchOptions::default();
    autotune_impl(plan, base, inputs, device, &launch_options, cache, None)
}

/// Lower-bound launch-time estimate for `op` from its first program
/// instance alone: a throwaway lowering for a one-instance grid (never
/// cached), one analytic launch, and the uniform-instance extension to
/// the instances shaped like it.
fn probe(op: &FusedOp, args: &mut [Tensor], device: &DeviceModel, dram_time: f64) -> Result<f64> {
    let lens: Vec<usize> = args.iter().map(Tensor::len).collect();
    let dtypes: Vec<DType> = args.iter().map(Tensor::dtype).collect();
    let program = Program::compile(&op.kernel, &vec![1; op.grid.len()], &lens, &dtypes)?;
    let mut refs: Vec<&mut Tensor> = args.iter_mut().collect();
    let first = program.launch_with(
        &mut refs,
        device,
        Mode::Analytic,
        &LaunchOptions::sequential(),
    )?;
    let like_first = op.instances_masked_like_first();
    Ok(uniform_launch_time(
        device,
        like_first,
        first.sm_time,
        dram_time,
    ))
}

fn autotune_impl(
    plan: &FusionPlan,
    base: &CodegenOptions,
    inputs: &BTreeMap<String, Tensor>,
    device: &DeviceModel,
    launch_options: &LaunchOptions,
    cache: &ProgramCache,
    winners: Option<&AutotuneCache>,
) -> Result<AutotuneResult> {
    // One autotune interval per sweep; the compile/launch guards inside
    // the sweep are suppressed while this span is open, so an installed
    // collector sees the sweep as a single cost instead of an event
    // flood.
    let _autotune_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Autotune);
    let start = std::time::Instant::now();
    let cache_before = cache.stats();
    let finish = |op: FusedOp, best_time: f64, trials: Vec<(TileConfig, f64, Option<f64>)>| {
        let cache_after = cache.stats();
        AutotuneResult {
            op,
            best_time,
            // A warm start's verify launch is its one, untabulated, trial.
            configs_tried: trials.iter().filter(|t| t.2.is_some()).count().max(1),
            configs_probed: trials.len().saturating_sub(1),
            warm_start: trials.is_empty(),
            trials,
            tuning_wall_seconds: start.elapsed().as_secs_f64(),
            cache_hits: cache_after.hits.saturating_sub(cache_before.hits),
            cache_misses: cache_after.misses.saturating_sub(cache_before.misses),
        }
    };
    let measure = |op: &FusedOp| {
        run_fused_with_cache(op, inputs, device, Mode::Analytic, launch_options, cache)
            .map(|(_, report)| report)
    };

    let default = compile_fused(plan, base)?;
    let default_config = TileConfig::of(&default);

    // The workload signature keys persisted winners. It hashes the
    // *default* kernel (compiled from `base`, so deterministic for the
    // workload), not the winner's, so re-tuning after a restart finds
    // the same key regardless of which configuration won.
    let keyed = winners.map(|w| {
        (
            w,
            workload_signature(
                insum_kernel::fingerprint(&default.kernel),
                &default.grid,
                inputs,
                device,
            ),
        )
    });

    // Warm path: a snapshot-seeded winner skips the sweep entirely, but
    // is never trusted blindly — it must recompile and survive one
    // analytic verify launch. Any failure falls through to the full
    // sweep. Winners stored by earlier sweeps in *this* process don't
    // take this path (re-tuning them is already cheap via the program
    // cache, and skipping would distort cold-path measurements).
    if let Some((w, signature)) = keyed {
        if let Some(config) = w.lookup_seeded(signature) {
            if let Ok(op) = compile_fused(plan, &config.apply(base)) {
                if let Ok(report) = measure(&op) {
                    return Ok(finish(op, report.time, Vec::new()));
                }
            }
        }
    }

    // The default's own launch held to the same model — all of its
    // instances at the slowest one's time — starts `err` at the launch's
    // measured non-uniformity.
    let report = measure(&default)?;
    let overshoot = |estimate: f64, measured: f64| (estimate - measured) / estimate;
    let estimate = uniform_launch_time(
        device,
        default.grid.iter().product(),
        report.max_instance_time,
        report.dram_time,
    );
    let mut err = overshoot(estimate, report.time).max(0.0);
    let mut trials = vec![(default_config, estimate, Some(report.time))];

    // Rank the rest of the space; `position` is the place in (default
    // first, then sweep) order that resolves equal measured times.
    let mut args = bind_args(plan, inputs)?;
    let mut ranked = Vec::new();
    for (position, config) in tile_candidates(plan, default.uses_dot).enumerate() {
        if config != default_config {
            let op = compile_fused(plan, &config.apply(base))?;
            let estimate = probe(&op, &mut args, device, report.dram_time)?;
            ranked.push((estimate, position + 1, op));
        }
    }
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0)); // stable: ties keep sweep order

    let mut best = (report.time, 0, default);
    let mut open = true;
    for (estimate, position, op) in ranked {
        open = open && estimate * (1.0 - err) <= best.0;
        let measured = if open { Some(measure(&op)?.time) } else { None };
        trials.push((TileConfig::of(&op), estimate, measured));
        if let Some(time) = measured {
            err = err.max(overshoot(estimate, time));
            if (time, position) < (best.0, best.1) {
                best = (time, position, op);
            }
        }
    }
    let (best_time, _, op) = best;
    if let Some((w, signature)) = keyed {
        w.store(signature, TileConfig::of(&op));
    }
    Ok(finish(op, best_time, trials))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::build_plan;
    use insum_graph::TensorMeta;
    use insum_lang::parse;
    use insum_tensor::{rand_uniform, DType};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn matmul_setup() -> (FusionPlan, BTreeMap<String, Tensor>) {
        let stmt = parse("C[y,x] = A[y,r] * B[r,x]").unwrap();
        let mut rng = SmallRng::seed_from_u64(9);
        let a = rand_uniform(vec![128, 64], -1.0, 1.0, &mut rng);
        let b = rand_uniform(vec![64, 128], -1.0, 1.0, &mut rng);
        let c = Tensor::zeros(vec![128, 128]);
        let metas: BTreeMap<String, TensorMeta> = [
            ("C".to_string(), TensorMeta::new(vec![128, 128], DType::F32)),
            ("A".to_string(), TensorMeta::new(vec![128, 64], DType::F32)),
            ("B".to_string(), TensorMeta::new(vec![64, 128], DType::F32)),
        ]
        .into_iter()
        .collect();
        let inputs: BTreeMap<String, Tensor> = [
            ("C".to_string(), c),
            ("A".to_string(), a),
            ("B".to_string(), b),
        ]
        .into_iter()
        .collect();
        let plan = build_plan(&stmt, &metas).unwrap();
        (plan, inputs)
    }

    #[test]
    fn autotune_finds_no_worse_than_default() {
        let (plan, inputs) = matmul_setup();
        let device = DeviceModel::rtx3090();

        let default_op = compile_fused(&plan, &CodegenOptions::default()).unwrap();
        let launch = LaunchOptions::default();
        let (_, default_report) = run_fused_with_cache(
            &default_op,
            &inputs,
            &device,
            Mode::Analytic,
            &launch,
            ProgramCache::global(),
        )
        .unwrap();

        let tuned = autotune(&plan, &CodegenOptions::default(), &inputs, &device, &launch).unwrap();
        assert!(tuned.configs_tried > 1);
        // The default seeds `best`, so this holds structurally — no
        // floating-point fudge factor needed.
        assert!(tuned.best_time <= default_report.time);
        assert!(tuned.tuning_wall_seconds > 0.0);
    }

    #[test]
    fn autotune_reuses_programs_across_trials() {
        let (plan, inputs) = matmul_setup();
        let device = DeviceModel::rtx3090();
        let cache = ProgramCache::new();
        let first =
            autotune_with(&plan, &CodegenOptions::default(), &inputs, &device, &cache).unwrap();
        // Only fully measured configurations lower through the cache: no
        // one-instance probe program is resident afterwards, in the cache
        // or in a snapshot of it.
        assert!(first.configs_probed > first.configs_tried);
        assert_eq!(first.cache_misses, first.configs_tried as u64);
        assert_eq!(cache.stats().entries, first.configs_tried);
        assert_eq!(cache.snapshot_records().len(), first.configs_tried);
        let second =
            autotune_with(&plan, &CodegenOptions::default(), &inputs, &device, &cache).unwrap();
        assert_eq!(first.configs_tried, second.configs_tried);
        // Re-tuning the same workload lowers nothing: every measured
        // trial's program is already resident in the cross-launch cache.
        assert_eq!(second.cache_misses, 0);
        assert_eq!(second.cache_hits, first.configs_tried as u64);
        assert_eq!(first.best_time, second.best_time);
    }

    #[test]
    fn persisted_winner_skips_sweep_but_is_verified() {
        let (plan, inputs) = matmul_setup();
        let device = DeviceModel::rtx3090();
        let cache = ProgramCache::new();
        let winners = AutotuneCache::new();

        let cold = autotune_impl(
            &plan,
            &CodegenOptions::default(),
            &inputs,
            &device,
            &LaunchOptions::default(),
            &cache,
            Some(&winners),
        )
        .unwrap();
        assert!(!cold.warm_start);
        assert!(cold.configs_tried > 1);
        assert_eq!(winners.len(), 1);

        // The in-process winner alone never warm-starts: re-tuning in
        // the same process sweeps again (hitting the program cache).
        let retune = autotune_impl(
            &plan,
            &CodegenOptions::default(),
            &inputs,
            &device,
            &LaunchOptions::default(),
            &cache,
            Some(&winners),
        )
        .unwrap();
        assert!(!retune.warm_start);
        assert_eq!(retune.configs_tried, cold.configs_tried);
        assert_eq!(retune.cache_misses, 0, "sweep programs are resident");

        // Round-trip the winner through snapshot records, as a restart
        // would: a *seeded* winner is what skips the sweep.
        let seeded = AutotuneCache::new();
        for record in winners.snapshot_records() {
            seeded.load_record(&record).unwrap();
        }
        let warm = autotune_impl(
            &plan,
            &CodegenOptions::default(),
            &inputs,
            &device,
            &LaunchOptions::default(),
            &cache,
            Some(&seeded),
        )
        .unwrap();
        assert!(warm.warm_start);
        assert_eq!(warm.configs_tried, 1);
        // The verify launch measured the same winning configuration the
        // sweep found: analytic times are deterministic, so they agree.
        assert_eq!(warm.best_time, cold.best_time);
        assert_eq!(
            (warm.op.yblock, warm.op.xblock, warm.op.rblock),
            (cold.op.yblock, cold.op.xblock, cold.op.rblock)
        );
        // The winner's program was already resident from the sweep.
        assert_eq!(warm.cache_misses, 0);
    }

    #[test]
    fn candidate_sets_respect_dot_minimum() {
        assert_eq!(candidates(4, false, true), vec![4]);
        assert!(candidates(64, true, true).iter().all(|&b| b >= 16));
        assert_eq!(candidates(0, true, false), vec![1]);
    }
}
