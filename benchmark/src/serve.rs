//! `serve_small_mix` and the serve-layer observations.
//!
//! One default-configuration `ServeEngine` (simulator pinned to one
//! thread), two sessions alternating, one client thread keeping a
//! window of eight requests outstanding and waiting oldest-first.
//! Latency is `submit` call → `wait` return. Every response is compared
//! bitwise with the precomputed one-shot result of its request.

use crate::inputs::{self, Bindings, Case, SERVE_EXPRS, SERVE_KINDS, SERVE_KIND_NAMES};
use crate::stats;
use crate::trace::{Open, Tracer};
use crate::verify::{self, Check};
use crate::workloads::{self, Artifact, FormatCounts, Window, Workload};
use insum::Tensor;
use insum_formats::heuristic::{heuristic_group_size, indirect_access_cost};
use insum_formats::Coo;
use insum_serve::{Response, ResponseHandle, ServeConfig, ServeEngine, Session};
use rand::Rng;
use std::collections::VecDeque;
use std::time::Instant;

/// Requests outstanding per client.
const WINDOW: usize = 8;
/// Unique-content variants per request kind (variant 0 is the shared one).
const UNIQUE_VARIANTS: usize = 32;
/// Equal-content, fresh-storage copies of variant 0 per kind. More than
/// the window, so two copies in flight together never share storage.
const FRESH_RING: usize = 4 * WINDOW;
/// Length of the seeded request stream (cycled).
const STREAM_LEN: usize = 1 << 16;
/// Requests of the serial pass that exact counters are read around.
const COUNT_PASS_REQUESTS: usize = 500;

/// How a request's tensors relate to earlier requests' — the traffic
/// dimension of this workload.
#[derive(Clone, Copy)]
enum Sharing {
    /// The same `Tensor` handles again: `ptr_eq` grouping.
    Shared,
    /// Equal content in fresh storage: fingerprint grouping.
    Fresh,
    /// Content no other variant has: no dedup possible.
    Unique(u8),
}

#[derive(Clone, Copy)]
struct Draw {
    kind: u8,
    sharing: Sharing,
}

impl Draw {
    fn variant(self) -> usize {
        match self.sharing {
            Sharing::Shared | Sharing::Fresh => 0,
            Sharing::Unique(v) => v as usize,
        }
    }
}

pub fn engine_config() -> ServeConfig {
    ServeConfig::default()
        .with_sim_threads(Some(1))
        .with_options(workloads::options())
}

/// What the serve layer did for a set of requests, read from the
/// responses and the engine's own metrics.
#[derive(Default)]
pub struct ServeObs {
    pub engine_start_s: f64,
    pub shutdown_s: f64,
    pub latencies: Vec<f64>,
    pub queue_wait: Vec<f64>,
    pub batch_sizes: u64,
    pub registry_hits: u64,
    pub retried: u64,
    pub responses: u64,
    pub batches: u64,
    /// Direct `Compiled::run` / `CompiledChain::run` of the same
    /// requests, seconds each.
    pub direct: Vec<f64>,
    pub failed: u64,
}

impl ServeObs {
    fn record(&mut self, response: &Response, latency: f64) {
        self.latencies.push(latency);
        self.queue_wait.push(response.queue_seconds);
        self.batch_sizes += response.batch_size as u64;
        self.registry_hits += u64::from(response.registry_hit);
        self.retried += u64::from(response.attempts > 1);
        self.responses += 1;
    }

    /// Median request latency − median direct run of the same requests.
    pub fn overhead_s(&self) -> f64 {
        stats::median(&self.latencies) - stats::median(&self.direct)
    }
}

/// Time `ServeEngine::new` + `shutdown` on a throw-away engine.
fn engine_lifecycle(obs: &mut ServeObs, tracer: &mut Tracer) {
    let (engine, start) = tracer.timed("serve.engine_start", |_| {
        ServeEngine::new(engine_config()).expect("default configuration is valid")
    });
    let mut engine = engine;
    let ((), stop) = tracer.timed("serve.shutdown", |_| engine.shutdown());
    obs.engine_start_s = start;
    obs.shutdown_s = stop;
}

/// The generic serve-layer pass of a workload that does not serve: its
/// distinct cases submitted one at a time through a fresh engine, next
/// to a direct run of the same request.
pub fn probe(cases: &[Case], seconds: f64, tracer: &mut Tracer) -> ServeObs {
    let mut obs = ServeObs::default();
    engine_lifecycle(&mut obs, tracer);
    let mut engine = ServeEngine::new(engine_config()).expect("default configuration is valid");
    let session = engine.session("probe");
    let opts = workloads::options();
    let direct: Vec<Artifact> = cases
        .iter()
        .map(|c| Artifact::compile(c.expr, &c.tensors, &opts).expect("compiles"))
        .collect();
    let start = Instant::now();
    let mut rounds = 0;
    // At least twenty requests, so the median has ten on each side.
    while rounds * cases.len() < 2 * stats::MIN_BEYOND || start.elapsed().as_secs_f64() < seconds {
        for (case, direct) in cases.iter().zip(&direct) {
            let op_id = tracer.next_op();
            let open = tracer.open("serve.request", op_id);
            let t0 = Instant::now();
            let handle = tracer.span_under(open, "serve.submit", || {
                session.submit(case.expr, &case.tensors)
            });
            let response =
                tracer.span_under(open, "serve.wait", || handle.and_then(ResponseHandle::wait));
            let latency = t0.elapsed().as_secs_f64();
            tracer.close(open);
            match response {
                Ok(r) => obs.record(&r, latency),
                Err(e) => {
                    eprintln!("probe request {} failed: {e}", case.name);
                    obs.failed += 1;
                }
            }
            let t0 = Instant::now();
            std::hint::black_box(direct.run(&case.tensors).expect("direct run succeeds"));
            obs.direct.push(t0.elapsed().as_secs_f64());
        }
        rounds += 1;
    }
    obs.batches = engine.metrics().batches;
    engine.shutdown();
    obs
}

struct InFlight {
    submitted: Instant,
    handle: ResponseHandle,
    draw: Draw,
    span: Open,
}

pub struct ServeSmallMix {
    engine: ServeEngine,
    sessions: [Session; 2],
    /// `[kind][variant]`; variant 0 is the shared one.
    pool: Vec<Vec<Bindings>>,
    /// `[kind][ring slot]`: variant 0's content in storage of its own.
    fresh: Vec<Vec<Bindings>>,
    stream: Vec<Draw>,
    cursor: usize,
    /// `[kind][variant]` one-shot outputs; filled by `prepare`.
    expected: Vec<Vec<Tensor>>,
    cases: Vec<Case>,
    submitted: u64,
}

impl ServeSmallMix {
    pub fn setup(seed: u64) -> ServeSmallMix {
        let mut pool_rng = inputs::rng(seed, 8);
        let pool: Vec<Vec<Bindings>> = (0..SERVE_KINDS)
            .map(|kind| {
                (0..=UNIQUE_VARIANTS)
                    .map(|_| inputs::serve_request(kind, &mut pool_rng))
                    .collect()
            })
            .collect();
        let fresh = pool
            .iter()
            .map(|variants| {
                (0..FRESH_RING)
                    .map(|_| inputs::fresh_storage(&variants[0]))
                    .collect()
            })
            .collect();
        let mut draw_rng = inputs::rng(seed, 9);
        let stream = (0..STREAM_LEN)
            .map(|_| Draw {
                kind: draw_rng.gen_range(0..SERVE_KINDS) as u8,
                // Half shared, a quarter fresh, a quarter unique.
                sharing: match draw_rng.gen_range(0..4) {
                    0 | 1 => Sharing::Shared,
                    2 => Sharing::Fresh,
                    _ => Sharing::Unique(draw_rng.gen_range(1..=UNIQUE_VARIANTS) as u8),
                },
            })
            .collect();
        let cases = (0..SERVE_KINDS)
            .map(|k| Case::new(SERVE_KIND_NAMES[k], SERVE_EXPRS[k], pool[k][0].clone()))
            .collect();
        let engine = ServeEngine::new(engine_config()).expect("default configuration is valid");
        let sessions = [engine.session("tenant-a"), engine.session("tenant-b")];
        let mut w = ServeSmallMix {
            engine,
            sessions,
            pool,
            fresh,
            stream,
            cursor: 0,
            expected: Vec::new(),
            cases,
            submitted: 0,
        };
        // Cold compile: one request of every kind fills the registry.
        for kind in 0..SERVE_KINDS {
            let draw = Draw {
                kind: kind as u8,
                sharing: Sharing::Shared,
            };
            w.submit(draw)
                .and_then(ResponseHandle::wait)
                .expect("warm-up request completes");
        }
        w
    }

    fn bindings(&self, draw: Draw, seq: u64) -> &Bindings {
        let kind = draw.kind as usize;
        match draw.sharing {
            Sharing::Shared => &self.pool[kind][0],
            Sharing::Fresh => &self.fresh[kind][seq as usize % FRESH_RING],
            Sharing::Unique(v) => &self.pool[kind][v as usize],
        }
    }

    fn submit(&mut self, draw: Draw) -> Result<ResponseHandle, insum_serve::ServeError> {
        let seq = self.submitted;
        self.submitted += 1;
        let session = &self.sessions[seq as usize % 2];
        session.submit(SERVE_EXPRS[draw.kind as usize], self.bindings(draw, seq))
    }

    fn next_draw(&mut self) -> Draw {
        let draw = self.stream[self.cursor % STREAM_LEN];
        self.cursor += 1;
        draw
    }

    fn is_expected(&self, draw: Draw, response: &Response) -> bool {
        self.expected[draw.kind as usize][draw.variant()].bit_eq(&response.output)
    }

    /// The closed loop. `obs` collects the serve-layer observations in
    /// the traced pass; `limit` bounds the request count instead of the
    /// clock (the counted serial pass).
    fn drive(
        &mut self,
        seconds: f64,
        window: usize,
        limit: Option<usize>,
        tracer: &mut Tracer,
        mut obs: Option<&mut ServeObs>,
    ) -> Window {
        let mut inflight: VecDeque<InFlight> = VecDeque::with_capacity(window);
        let mut latencies = Vec::new();
        let mut completed_at = Vec::new();
        let mut failed = 0u64;
        // Say why once; count every time.
        let mut fail = |why: &dyn std::fmt::Display| {
            if failed == 0 {
                eprintln!("request failed: {why}");
            }
            failed += 1;
        };
        let mut sent = 0usize;
        let start = Instant::now();
        loop {
            let open = match limit {
                Some(n) => sent < n,
                None => start.elapsed().as_secs_f64() < seconds,
            };
            while open && inflight.len() < window && limit.is_none_or(|n| sent < n) {
                let draw = self.next_draw();
                let op_id = tracer.next_op();
                let span = tracer.open("serve.request", op_id);
                let submitted = Instant::now();
                let handle = tracer.span_under(span, "serve.submit", || self.submit(draw));
                sent += 1;
                match handle {
                    Ok(handle) => inflight.push_back(InFlight {
                        submitted,
                        handle,
                        draw,
                        span,
                    }),
                    Err(e) => {
                        fail(&e);
                        latencies.push(submitted.elapsed().as_secs_f64());
                        completed_at.push(start.elapsed().as_secs_f64());
                        tracer.close(span);
                    }
                }
            }
            let Some(oldest) = inflight.pop_front() else {
                break;
            };
            let response = tracer.span_under(oldest.span, "serve.wait", || oldest.handle.wait());
            let latency = oldest.submitted.elapsed().as_secs_f64();
            tracer.close(oldest.span);
            latencies.push(latency);
            completed_at.push(start.elapsed().as_secs_f64());
            match response {
                Ok(response) if self.is_expected(oldest.draw, &response) => {
                    if let Some(obs) = obs.as_deref_mut() {
                        obs.record(&response, latency);
                    }
                }
                Ok(_) => fail(&"the response differs from the one-shot result"),
                Err(e) => fail(&e),
            }
        }
        Window {
            latencies,
            completed_at,
            wall_s: start.elapsed().as_secs_f64(),
            failed,
        }
    }
}

impl Workload for ServeSmallMix {
    fn name(&self) -> &'static str {
        "serve_small_mix"
    }

    /// ≈ 10 k requests a second: two thousand samples lie beyond p99.
    fn tail(&self) -> f64 {
        0.99
    }

    fn prepare(&mut self) {
        let opts = workloads::options();
        self.expected = self
            .pool
            .iter()
            .enumerate()
            .map(|(kind, variants)| {
                variants
                    .iter()
                    .map(|t| {
                        workloads::one_shot(SERVE_EXPRS[kind], t, &opts)
                            .expect("one-shot run succeeds")
                    })
                    .collect()
            })
            .collect();
    }

    fn window(&mut self, seconds: f64, tracer: &mut Tracer) -> Window {
        self.drive(seconds, WINDOW, None, tracer, None)
    }

    /// Responses were compared one by one in the window; here the
    /// one-shot results they were compared with are themselves checked
    /// against the general pipeline and the independent references.
    fn verify(&mut self) -> Vec<Check> {
        let mut checks = Vec::new();
        let opts = workloads::options();
        for (kind, case) in self.cases.iter().enumerate() {
            let out = &self.expected[kind][0];
            if insum::is_chain_expression(case.expr) {
                verify::chain(case.name, case.expr, &case.tensors, out, &opts, &mut checks);
            } else {
                match insum::insum_with(case.expr, &case.tensors, &opts)
                    .and_then(|c| c.run(&case.tensors).map(|r| (c, r)))
                {
                    Ok((compiled, (again, profile))) => {
                        verify::check(
                            &mut checks,
                            format!("{}: one-shot run repeats bit for bit", case.name),
                            again.bit_eq(out),
                        );
                        verify::statement(case, &compiled, out, &profile, &opts, &mut checks);
                    }
                    Err(_) => verify::check(&mut checks, format!("{}: runs", case.name), false),
                }
            }
        }
        let m = self.engine.metrics();
        verify::check(
            &mut checks,
            "engine: nothing failed, was rejected, expired or retried",
            m.failed + m.rejected + m.deadline_expired + m.budget_rejected + m.quarantined == 0,
        );
        checks
    }

    /// A serial pass (window of one) over the head of the stream: every
    /// request runs alone, so batch composition — and with it every
    /// launch and copy count — repeats exactly.
    fn count_pass(&mut self) {
        let cursor = std::mem::replace(&mut self.cursor, 0);
        let pass = self.drive(
            0.0,
            1,
            Some(COUNT_PASS_REQUESTS),
            &mut Tracer::new(false),
            None,
        );
        assert_eq!(pass.failed, 0, "counted requests complete");
        self.cursor = cursor;
    }

    fn cases(&self) -> &[Case] {
        &self.cases
    }

    fn formats(&self, tracer: &mut Tracer) -> FormatCounts {
        let t = &self.pool[0][0];
        let dense = Coo {
            rows: 64,
            cols: 64,
            am: t["AM"].clone(),
            ak: t["AK"].clone(),
            av: t["AV"].clone(),
        }
        .to_dense();
        let coo = tracer.span("formats.build", |_| {
            Coo::from_dense(&dense).expect("rank-2 matrix")
        });
        let occ = coo.occupancy();
        tracer.span("formats.heuristic", |_| {
            std::hint::black_box(heuristic_group_size(&occ));
        });
        FormatCounts {
            indirect_accesses: indirect_access_cost(&occ, 1),
            padded_slots: 0,
            slots: coo.nnz() as u64,
        }
    }

    fn serve_pass(&mut self, seconds: f64, tracer: &mut Tracer) -> Option<ServeObs> {
        let mut obs = ServeObs::default();
        engine_lifecycle(&mut obs, tracer);
        let batches_before = self.engine.metrics().batches;
        let first = self.cursor;
        let window = self.drive(seconds, WINDOW, None, tracer, Some(&mut obs));
        obs.failed = window.failed;
        obs.batches = self.engine.metrics().batches - batches_before;
        // The same requests again, run directly on artifacts compiled
        // once — what the engine's queueing, grouping and hand-off add
        // is the difference.
        let opts = workloads::options();
        let direct: Vec<Artifact> = self
            .cases
            .iter()
            .map(|c| Artifact::compile(c.expr, &c.tensors, &opts).expect("compiles"))
            .collect();
        for i in 0..(self.cursor - first).min(4 * COUNT_PASS_REQUESTS) {
            let draw = self.stream[(first + i) % STREAM_LEN];
            let tensors = self.bindings(draw, i as u64);
            let t0 = Instant::now();
            let out = direct[draw.kind as usize].run(tensors);
            std::hint::black_box(out.expect("direct run succeeds"));
            obs.direct.push(t0.elapsed().as_secs_f64());
        }
        Some(obs)
    }
}
