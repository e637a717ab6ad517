//! `perfbench` — the canonical benchmark of the Insum stack.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <BENCHMARK.json> <set-a-dir> <set-b-dir>
//! ```
//!
//! One process measures one workload (so peak RSS is per workload).
//! `--trace 0` measures the end-to-end metrics with the harness's
//! tracing off; `--trace 1` is the separate traced pass that gives the
//! per-layer metrics and writes `<out-dir>/trace-<workload>.json`. The
//! last line of standard output is the result object the driver reads.
//! See `README.md` for the workloads, the metrics and how to read a
//! trace.

mod compare;
mod inputs;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;
mod traced;
mod verify;
mod workloads;

use report::{Metrics, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use verify::Check;
use workloads::{Window, Workload};

/// Rounds an end-to-end run is cut into; each sets up afresh, so this is
/// also the number of set-up repetitions whose median is reported.
/// Spacing them over the run keeps a few seconds of interference on the
/// host from reaching more than half of them.
const ROUNDS: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => out.workload = value.to_string(),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                out.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out-dir" => out.out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&out.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if !(out.seconds > 0.0 && out.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(out)
}

/// The host's thread budget. Every thread count the harness asks for
/// goes through [`Host::claim`], which refuses to oversubscribe.
struct Host {
    nproc: usize,
}

impl Host {
    fn detect() -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        Host { nproc }
    }

    fn claim(&self, threads: usize, what: &str) -> Result<usize, String> {
        if threads > self.nproc {
            return Err(format!(
                "{what} asks for {threads} threads on a host with {}; refusing to oversubscribe",
                self.nproc
            ));
        }
        Ok(threads)
    }
}

/// `VmHWM` of this process, bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb * 1024.0)
        .ok_or_else(|| "VmHWM missing from /proc/self/status".to_string())
}

/// Set up once from cleared caches, timed.
fn timed_setup(args: &Args) -> (Box<dyn Workload>, f64) {
    workloads::clear_caches();
    let t0 = Instant::now();
    let state = workloads::setup(&args.workload, args.seed);
    let seconds = t0.elapsed().as_secs_f64();
    (state.expect("the workload name was validated"), seconds)
}

fn report_checks(checks: &[Check]) -> bool {
    let failed: Vec<&Check> = checks.iter().filter(|c| !c.ok).collect();
    println!(
        "  checks: {}/{} ok",
        checks.len() - failed.len(),
        checks.len()
    );
    for c in &failed {
        println!("  FAILED: {}", c.what);
    }
    failed.is_empty()
}

fn end_to_end(args: &Args, host: &Host) -> Result<String, String> {
    // The run is cut into rounds: set up from cleared caches (timed),
    // then a tenth of the timed window on that fresh state. Set-up is
    // so repeated ten times, two seconds apart, and the window averages
    // over ten independent states. One state is alive at a time: peak
    // RSS is the workload's, not the round count's.
    let mut setup_times = Vec::with_capacity(ROUNDS);
    let mut window = Window::default();
    let mut state: Option<Box<dyn Workload>> = None;
    for _ in 0..ROUNDS {
        drop(state.take());
        let (mut w, seconds) = timed_setup(args);
        setup_times.push(seconds);
        w.prepare();
        window.append(w.window(args.seconds / ROUNDS as f64, &mut Tracer::new(false)));
        state = Some(w);
    }
    let mut w = state.expect("at least one round");
    // Read before verification: the reference interpreter's memory is
    // the harness's, not the workload's.
    let peak_rss = peak_rss_bytes()?;
    let checks = w.verify();
    let name = w.name();
    let tail_p = w.tail();

    // The timing metrics come from the quietest three tenths of the
    // window (see `stats::quiet`); the whole window is printed beside
    // them.
    let n = window.latencies.len();
    let quiet = stats::quiet(
        &window.latencies,
        &window.completed_at,
        window.wall_s,
        stats::SEGMENTS,
        stats::QUIET_SEGMENTS,
    );
    let kept = quiet.latencies.len();
    let sorted = stats::sorted(quiet.latencies);
    let whole = stats::sorted(window.latencies);
    let short = |p: f64| {
        format!(
            "only {n} operations in {:.1} s ({kept} in the quiet segments): p{:.0} needs {} \
             samples beyond it; raise --seconds",
            window.wall_s,
            p * 100.0,
            stats::MIN_BEYOND
        )
    };
    let p50 = stats::percentile(&sorted, 0.5).ok_or_else(|| short(0.5))?;
    let tail = stats::percentile(&sorted, tail_p).ok_or_else(|| short(tail_p))?;

    let mut m = Metrics::default();
    m.put_declared(
        END_TO_END,
        "setup_s",
        stats::median(&setup_times),
        setup_times.len(),
        "median of the rounds' set-ups, caches cleared first",
    );
    m.put_declared(
        END_TO_END,
        "ops_per_s",
        kept as f64 / quiet.wall_s,
        kept,
        format!(
            "quiet {:.2} s of {:.2} s; whole window {:.6} ({n} ops)",
            quiet.wall_s,
            window.wall_s,
            n as f64 / window.wall_s
        ),
    );
    m.put_declared(
        END_TO_END,
        "op_p50_s",
        p50,
        kept,
        format!("whole window {:.6}", stats::nearest_rank(&whole, 0.5)),
    );
    m.put_declared(
        END_TO_END,
        "op_tail_s",
        tail,
        kept,
        format!(
            "p{:.0}; whole window {:.6}",
            tail_p * 100.0,
            stats::nearest_rank(&whole, tail_p)
        ),
    );
    m.put_declared(END_TO_END, "peak_rss_bytes", peak_rss, 1, "VmHWM");

    println!(
        "workload {name} seed {} seconds {} host_nproc {} sim_threads 1",
        args.seed, args.seconds, host.nproc
    );
    m.print_table("end to end (tracing off)", END_TO_END);
    let verified = report_checks(&checks);
    // Operations repeat the same inputs: a wrong output is wrong on
    // every operation that produced it.
    let failed = if verified { window.failed } else { n as u64 };
    println!(
        "  failed_share {} ({failed} of {n})",
        failed as f64 / n as f64
    );
    Ok(report::result_line(
        failed == 0,
        n as u64,
        failed,
        &m.json_object(END_TO_END),
    ))
}

fn traced(args: &Args, host: &Host) -> Result<String, String> {
    let shard_threads = host.claim(host.nproc.min(2), "gpu.launch_sharded_s")?;
    let (mut w, _) = timed_setup(args);
    w.prepare();
    let mut tracer = Tracer::new(false);
    let run = traced::measure(
        w.as_mut(),
        &mut tracer,
        args.seconds,
        shard_threads,
        &args.out_dir,
    )?;
    let m = traced::metrics(&run, &tracer, w.cases().len() > 1);

    let trace_path = args.out_dir.join(format!("trace-{}.json", w.name()));
    std::fs::write(&trace_path, tracer.to_json()).map_err(|e| e.to_string())?;
    let layers_path = args.out_dir.join(format!("layers-{}.json", w.name()));
    std::fs::write(&layers_path, m.json_full()).map_err(|e| e.to_string())?;

    println!(
        "workload {} seed {} seconds {} host_nproc {} sim_threads 1 shard_threads {shard_threads}",
        w.name(),
        args.seed,
        args.seconds,
        host.nproc
    );
    m.print_table("per layer (traced pass)", PER_LAYER);
    println!(
        "  trace: {} spans in {}",
        tracer.spans().len(),
        trace_path.display()
    );
    // A wrong output is wrong on every operation that produced it.
    let failed = if report_checks(&run.checks) {
        run.failed
    } else {
        run.attempted
    };
    Ok(report::result_line(
        failed == 0,
        run.attempted,
        failed,
        &m.json_object(PER_LAYER),
    ))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return compare::main(&argv[1..]);
    }
    let run = || -> Result<String, String> {
        let args = parse_args(&argv)?;
        let host = Host::detect();
        // Every simulator launch the harness does not configure itself
        // (the autotune sweep builds its own `LaunchOptions`) resolves
        // its thread count here: one thread, like the pinned ones.
        let sim_threads = host.claim(1, "sim_threads")?;
        std::env::set_var("INSUM_SIM_THREADS", sim_threads.to_string());
        if args.trace {
            traced(&args, &host)
        } else {
            end_to_end(&args, &host)
        }
    };
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
