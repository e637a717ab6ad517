//! The traced pass (`--trace 1`): what is measured, in which order, and
//! how the per-layer metrics are derived from the spans and the counts.
//!
//! Phases, each selecting its own spans by operation identifier:
//! 1. the workload's window twice, spans off then on (their ratio is
//!    `trace.overhead_share`), and the output checks;
//! 2. exact counters around a fixed amount of work;
//! 3. format construction and tensor fingerprinting;
//! 4. the layer replay ([`crate::layers`]);
//! 5. the serve layer ([`crate::serve`]);
//! 6. snapshot save / load / warm compile.

use crate::layers::{self, Counts, Derived};
use crate::report::{Metrics, PER_LAYER};
use crate::serve::{self, ServeObs};
use crate::stats;
use crate::trace::Tracer;
use crate::verify::Check;
use crate::workloads::{self, FormatCounts, Window, Workload};
use insum::{ProgramCache, ProgramCacheStats, Tensor};
use std::path::Path;
use std::time::Instant;

/// Repetitions of the cheap probes (formats, fingerprint, snapshot).
const PROBE_REPS: usize = 5;

/// The operations `(lo, hi]` a phase started.
type Ops = (u64, u64);

pub struct Measured {
    plain: Window,
    spanned: Window,
    pub checks: Vec<Check>,
    cache_stats: ProgramCacheStats,
    deep_copies: u64,
    format_counts: FormatCounts,
    tensor_bytes: usize,
    counts: Counts,
    derived: Derived,
    passes: usize,
    obs: ServeObs,
    snapshot_bytes: u64,
    /// Every phase but the first; the metrics read only these.
    phases: Vec<Ops>,
    replay_ops: Ops,
    pub attempted: u64,
    pub failed: u64,
}

fn phase<T>(tracer: &mut Tracer, f: impl FnOnce(&mut Tracer) -> T) -> (T, Ops) {
    let lo = tracer.current_op();
    let out = f(tracer);
    (out, (lo, tracer.current_op()))
}

pub fn measure(
    w: &mut dyn Workload,
    tracer: &mut Tracer,
    seconds: f64,
    shard_threads: usize,
    out_dir: &Path,
) -> Result<Measured, String> {
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let share = seconds / 5.0;

    let plain = w.window(share, tracer);
    tracer.set_enabled(true);
    let spanned = w.window(share, tracer);
    let checks = w.verify();

    let cache = ProgramCache::global();
    w.count_pass();
    cache.reset_stats();
    let copies = Tensor::deep_copy_count();
    w.count_pass();
    let cache_stats = cache.stats();
    let deep_copies = Tensor::deep_copy_count() - copies;

    let ((), formats_ops) = phase(tracer, |t| {
        for _ in 0..PROBE_REPS {
            t.next_op();
            std::hint::black_box(w.formats(t));
        }
    });
    let format_counts = w.formats(&mut Tracer::new(false));

    let tensors: Vec<&Tensor> = w.cases().iter().flat_map(|c| c.tensors.values()).collect();
    let tensor_bytes = tensors.iter().map(|t| t.len() * 4).sum();
    let ((), tensor_ops) = phase(tracer, |t| {
        for _ in 0..PROBE_REPS {
            t.next_op();
            t.span("tensor.fingerprint", |_| {
                for tensor in &tensors {
                    std::hint::black_box(tensor.content_fingerprint());
                }
            });
        }
    });

    // At least three passes, then until the replay's share of the run is
    // spent.
    let ((counts, derived, passes), replay_ops) = phase(tracer, |t| {
        let mut replay = layers::Replay::new(t, shard_threads);
        let started = Instant::now();
        let mut passes = 0;
        while passes < 3 || started.elapsed().as_secs_f64() < 2.0 * share {
            replay.pass(w.cases());
            passes += 1;
        }
        (replay.counts, replay.derived, passes)
    });

    let (obs, serve_ops) = phase(tracer, |t| match w.serve_pass(share / 2.0, t) {
        Some(obs) => obs,
        None => serve::probe(w.cases(), share / 2.0, t),
    });

    let (snapshot_bytes, snapshot_ops) = {
        let (bytes, ops) = phase(tracer, |t| snapshot(t, w, out_dir));
        (bytes?, ops)
    };

    let attempted = (plain.latencies.len() + spanned.latencies.len()) as u64
        + (passes * w.cases().len()) as u64
        + obs.responses
        + obs.failed;
    let failed = plain.failed + spanned.failed + derived.replay_mismatches + obs.failed;
    Ok(Measured {
        plain,
        spanned,
        checks,
        cache_stats,
        deep_copies,
        format_counts,
        tensor_bytes,
        counts,
        derived,
        passes,
        obs,
        snapshot_bytes,
        phases: vec![formats_ops, tensor_ops, replay_ops, serve_ops, snapshot_ops],
        replay_ops,
        attempted,
        failed,
    })
}

/// The warm-boot use of the compile layer: tune the workload's first
/// kernel from cold, save the caches, clear them, load them back and
/// compile again. Returns the snapshot's size.
fn snapshot(tracer: &mut Tracer, w: &dyn Workload, out_dir: &Path) -> Result<u64, String> {
    let path = out_dir.join(format!("snapshot-{}.bin", w.name()));
    let case = &w.cases()[0];
    let opts = workloads::options_with(true);
    let cache = ProgramCache::global();
    for _ in 0..PROBE_REPS {
        tracer.next_op();
        workloads::clear_caches();
        insum::insum_with(case.expr, &case.tensors, &opts)
            .and_then(|c| c.time(&case.tensors))
            .map_err(|e| e.to_string())?;
        tracer
            .span("snapshot.save", |_| cache.save_snapshot(&path))
            .map_err(|e| e.to_string())?;
        workloads::clear_caches();
        let report = tracer.span("snapshot.load", |_| cache.load_snapshot(&path));
        if report.programs_loaded == 0 || report.winners_loaded == 0 || report.rejected > 0 {
            return Err(format!("snapshot did not load back: {report:?}"));
        }
        let warm = tracer
            .span("snapshot.warm_compile", |_| {
                insum::insum_with(case.expr, &case.tensors, &opts)
            })
            .map_err(|e| e.to_string())?;
        if warm.autotune_configs != 1 {
            return Err("the loaded winner did not skip the sweep".to_string());
        }
    }
    Ok(std::fs::metadata(&path).map_err(|e| e.to_string())?.len())
}

/// Span-timed metrics only some workloads have.
const EXTRA: [&str; 5] = [
    "gpu.micro_s",
    "planner.parse_s",
    "planner.order_s",
    "core.plan_chain_s",
    "core.run_chain_s",
];

pub fn metrics(run: &Measured, tracer: &Tracer, per_case: bool) -> Metrics {
    let mut m = Metrics::default();

    // `<layer>.<step>_s` is the median, over a phase's operations, of the
    // self time of the `<layer>.<step>` spans summed within one operation.
    for &ops in &run.phases {
        for (span, seconds) in tracer.self_seconds_by_op(ops, false) {
            let metric = format!("{span}_s");
            let median = stats::median(&seconds);
            if PER_LAYER.iter().any(|(name, _)| *name == metric) {
                m.put_declared(PER_LAYER, &metric, median, seconds.len(), "");
            } else if EXTRA.contains(&metric.as_str()) {
                m.put(&metric, "s", median, seconds.len(), "");
            }
        }
    }
    if per_case {
        for (key, seconds) in tracer.self_seconds_by_op(run.replay_ops, true) {
            if let Some(case) = key.strip_prefix("gpu.launch_execute/") {
                let name = format!("gpu.launch_execute_s.{case}");
                m.put(&name, "s", stats::median(&seconds), seconds.len(), "");
            }
        }
    }

    let mut count = |name: &str, v: f64| m.put_declared(PER_LAYER, name, v, 1, "");
    let c = &run.counts;
    let s = c.profile.total_stats();
    count(
        "pattern.fast_share",
        c.fast_statements as f64 / c.statements as f64,
    );
    count("graph.nodes", c.graph_nodes as f64);
    count("inductor.triton_lines", c.triton_lines as f64);
    count("inductor.autotune_configs", c.autotune_configs as f64);
    count("inductor.cache_hits", run.cache_stats.hits as f64);
    count("inductor.cache_misses", run.cache_stats.misses as f64);
    count("gpu.instances", s.instances as f64);
    count("gpu.instructions", s.instructions as f64);
    count(
        "gpu.dram_sectors",
        (s.dram_read_sectors + s.dram_write_sectors) as f64,
    );
    count("gpu.atomics", s.atomics as f64);
    count("gpu.atomic_conflicts", s.atomic_conflicts as f64);
    count("gpu.cost_units", s.cost_units() as f64);
    let obs = &run.obs;
    let responses = obs.responses.max(1) as f64;
    count("serve.batch_size_mean", obs.batch_sizes as f64 / responses);
    count("serve.batches", obs.batches as f64);
    count(
        "serve.registry_hit_share",
        obs.registry_hits as f64 / responses,
    );
    count("serve.retried", obs.retried as f64);
    count("tensor.deep_copies", run.deep_copies as f64);
    let f = &run.format_counts;
    count("formats.indirect_accesses", f.indirect_accesses as f64);
    count(
        "formats.padding_share",
        f.padded_slots as f64 / f.slots as f64,
    );
    count("snapshot.bytes", run.snapshot_bytes as f64);
    count("trace.spans", tracer.spans().len() as f64);
    if c.planner_steps > 0 {
        m.put("planner.steps", "count", c.planner_steps as f64, 1, "");
        let bytes = c.planner_workspace_bytes as f64;
        m.put("planner.workspace_bytes", "bytes", bytes, 1, "");
    }

    m.put_declared(
        PER_LAYER,
        "gpu.sim_time_s",
        c.profile.total_time(),
        1,
        "Profile::total_time over one pass; the model is unvalidated against hardware",
    );
    m.put_declared(
        PER_LAYER,
        "gpu.instances_per_s",
        s.instances as f64 / m.values["gpu.launch_execute_s"].value,
        1,
        "instances / gpu.launch_execute_s",
    );
    m.put_declared(
        PER_LAYER,
        "tensor.fingerprint_bytes_per_s",
        run.tensor_bytes as f64 / m.values["tensor.fingerprint_s"].value,
        1,
        format!("{} bytes", run.tensor_bytes),
    );
    m.put_declared(
        PER_LAYER,
        "inductor.run_overhead_s",
        stats::median(&run.derived.run_overhead),
        run.passes,
        "run_fused_with_cache - launch_with",
    );
    m.put_declared(
        PER_LAYER,
        "core.dispatch_overhead_s",
        stats::median(&run.derived.dispatch_overhead),
        run.passes,
        "public run - launches",
    );

    // Coverage: what the replayed steps account for of the public call.
    let wall = |name: &str| tracer.total_and_covered_seconds(run.replay_ops, name);
    for (metric, root, public) in [
        (
            "core.compile_coverage_share",
            "replay.compile",
            &[
                "core.compile_default",
                "core.compile_tuned",
                "core.plan_chain",
            ][..],
        ),
        (
            "core.run_coverage_share",
            "replay.run",
            &["core.run", "core.run_chain"][..],
        ),
    ] {
        let public: f64 = public.iter().map(|name| wall(name).0).sum();
        let share = stats::coverage_share(wall(root).1, public);
        let note = if share < 0.9 { "FLAG: below 0.9" } else { "" };
        m.put_declared(PER_LAYER, metric, share, run.passes, note);
    }

    m.put_declared(
        PER_LAYER,
        "serve.queue_wait_p50_s",
        stats::median(&obs.queue_wait),
        obs.queue_wait.len(),
        "Response::queue_seconds",
    );
    if let Some(p99) = stats::percentile(&stats::sorted(obs.queue_wait.clone()), 0.99) {
        m.put("serve.queue_wait_p99_s", "s", p99, obs.queue_wait.len(), "");
    }
    m.put_declared(
        PER_LAYER,
        "serve.overhead_s",
        obs.overhead_s(),
        obs.latencies.len(),
        "median latency - median direct run",
    );
    let per_op = |w: &Window| w.wall_s / w.latencies.len().max(1) as f64;
    m.put_declared(
        PER_LAYER,
        "trace.overhead_share",
        per_op(&run.spanned) / per_op(&run.plain) - 1.0,
        run.plain.latencies.len() + run.spanned.latencies.len(),
        "traced per-op wall / untraced - 1",
    );
    m
}
