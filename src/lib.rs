//! Root crate for the Insum reproduction workspace.
//!
//! This crate only hosts the runnable examples (`examples/`) and the
//! cross-crate integration tests (`tests/`). The actual library lives in
//! the `insum` crate (`crates/core`).
//!
//! ## Crate graph
//!
//! One call — `insum::insum_with(expr, tensors, opts)` for a statement,
//! `insum::plan` for a multi-operand chain — returns the one compiled
//! artifact, `insum::Compiled`: a plan of steps, launched by one path
//! (`Compiled::run_batch_mode`; `run`, `time` and `run_batch` are its
//! callers). An arrow reads "depends on"; leaves are at the bottom.
//!
//! ```text
//!  insum_bench (paper harnesses, simbench, servebench)
//!    ├─► insum_serve ── sessions, registry of Arc<Compiled>, batching scheduler
//!    │     └─► insum (crates/core) ── front doors, Compiled, apps, format tuning
//!    │           ├─► insum_pattern ── recognition table for the fast-path step
//!    │           ├─► insum_planner ── contraction order + workspace plan for chains
//!    │           ├─► insum_inductor ── fusion plan, codegen, autotune, ProgramCache,
//!    │           │     │               the three run_* launchers (fused, fused batch, unfused)
//!    │           │     ├─► insum_graph ── FX-style graph, eager executor
//!    │           │     │     └─► insum_lang ── parser + analysis of the statement language
//!    │           │     ├─► insum_gpu ── kernel → Program lowering, interpreter, cost model
//!    │           │     │     └─► insum_kernel ── Triton-like kernel IR, printer, fingerprint
//!    │           │     └─► insum_snapshot ── warm-start file format (cache keys, winners)
//!    │           ├─► insum_formats ── COO / GroupCOO / BlockCOO / BlockGroupCOO builders
//!    │           └─► insum_workloads ── the paper's datasets and app inputs
//!    └─► insum_baselines ── hand-written comparison kernels (Table 1–3, Fig. 10–13)
//!
//!  under everything: insum_tensor (values, dtypes, einsum oracle),
//!                    insum_telemetry (spans, histograms, the profiling hook)
//! ```
