//! Functional + analytic GPU simulator for the kernel IR.
//!
//! This crate is the hardware substitution documented in DESIGN.md: the
//! paper runs Triton kernels on an RTX 3090; the reproduction runs
//! [`insum_kernel::Kernel`] programs on an instruction-level simulator of
//! an RTX-3090-class device. The simulator does two jobs at once:
//!
//! * **Functional execution** ([`Mode::Execute`]) — every load, store,
//!   atomic add, `tl.dot` and block op computes real values against
//!   [`insum_tensor::Tensor`] storage, so compiled kernels are verified
//!   bit-for-bit against the eager reference.
//! * **Cost accounting** (both modes) — every memory access is decomposed
//!   into per-warp 32-byte sector transactions (coalescing model) with a
//!   kernel-resident L2 filter in front of DRAM; `tl.dot` charges Tensor
//!   Core flops, block arithmetic charges scalar ALU flops,
//!   `tl.view`/`tl.trans`/`tl.broadcast_to` charge shared-memory traffic
//!   (the eager-broadcasting tax of §5.2.3), and atomics track per-address
//!   collision counts. A [`DeviceModel`] converts the counters into
//!   seconds, including a load-imbalance term (longest-processor bound
//!   over the SMs) that matters for skewed sparse workloads.
//!
//! [`Mode::Analytic`] runs the same interpreter but skips floating-point
//! value math (metadata loads still execute so gather/scatter addresses
//! are exact); counters are identical to Execute mode. The benchmark
//! harness uses it for large sweeps.
//!
//! # Simulator performance model
//!
//! The interpreter is the hot path of every experiment harness, so its
//! execution core is engineered for host throughput while staying
//! bit-identical to the straightforward seed implementation (kept in
//! the `reference` module as an oracle; `insum_bench`'s `simbench` binary tracks
//! the speedup in `BENCH_sim.json`):
//!
//! * **Strided copy-on-write blocks** — [`Block`] is a view
//!   (`Rc` storage + shape/strides), so `expand_dims`/`view`/
//!   `broadcast_to`/`trans` are metadata edits and scalars (loop
//!   counters, constants) live inline without heap storage. The *cost
//!   model* still charges shared-memory traffic for `view`/`trans`/
//!   `broadcast_to`: the modeled hardware pays it even though the host
//!   no longer copies.
//! * **A thread-local register file** — a block is `!Send` by design:
//!   the machine that holds it (registers, buffer pool, stream caches)
//!   is built, run and dropped on one host thread, and only a shard's
//!   result and the shared [`Program`] — neither holds a block — cross
//!   threads, so the uniqueness check on every register write is a
//!   plain load, not a locked read-modify-write (`block.rs` module
//!   docs).
//! * **Register-slot recycling** — overwritten registers donate their
//!   buffers (refcount block included) to a pool, so steady-state loop
//!   iterations allocate nothing.
//! * **Compact access tracking** — the kernel-resident L2 filter is an
//!   address-space bitmap and atomic collisions are per-parameter count
//!   vectors; the per-warp coalescing scan runs over stack buffers with
//!   an arithmetic shortcut for the dominant `base + arange` pattern.
//! * **One ISA ladder, bit-exact SIMD** — every host-vector body is safe
//!   Rust compiled once per rung of `Isa { Portable, Avx2, Avx512 }`
//!   (`isa.rs`: an `#[inline(always)]` body entered through one
//!   `#[target_feature]` function per rung, the host's widest picked by
//!   runtime detection; the workspace builds for baseline x86-64 and sets
//!   no `target-cpu`, so other hosts run the portable rung). Wide: the
//!   elementwise f64 ops, the canonical `tl.dot` loop, and the value
//!   bodies of every access — the f32 → f64 widening copies of a load
//!   (dense rows, gathers, masked rows), the store / atomic-add × f32 /
//!   f16 arms of a write, the staging of a broadcast value. An f16 write
//!   stores or adds in f32 and then rounds the row with
//!   `insum_tensor::f16_round_slice` (16-lane chunks: one branch-free add
//!   per lane when the whole chunk lands on normal f16 values, scalar
//!   `f16_round` otherwise). The bits cannot differ between rungs: every
//!   lane keeps its own widening, narrowing, add or rounding, no
//!   reduction is reassociated, and Rust never contracts a multiply and
//!   an add into an FMA, so the canonical loop's multiply and add stay
//!   two roundings; each body has a forced-rung differential test
//!   against `Portable`. The dot sweeps each output row with one tile
//!   body at the widest of 32, 16, 8, 4 or 1 columns that still fits, so
//!   the narrow tiles of the fixed-length formats (16-wide conv and
//!   tensor-product dots) are vector tiles too, with unit-stride and
//!   strided B alike.
//! * **Exact-product dot** — a `tl.dot` whose operands are finite and
//!   f32-representable runs a dense register-blocked FMA kernel instead
//!   (AVX2+FMA 4 × 12 or AVX-512F 8 × 16 accumulators, chosen by runtime
//!   detection; other hosts keep the canonical loop). Fusing is legal
//!   there because the product of two f32 values is exact in f64, so
//!   `RN(acc + RN(a·b))` *is* `fma(a, b, acc)`; finite inputs cannot
//!   overflow, so no NaN corner exists; and each output element still
//!   accumulates in ascending `k` from `+0.0` (no split-k), which also
//!   makes the canonical loop's zero-skip unobservable. The full
//!   argument is on the kernel (`exact_dot.rs`) and pinned by
//!   `tests/dot_kernels.rs`. **Eligible:** operand registers that are
//!   loads of read-only parameters, or f32-exact `other`/constant/`full`
//!   values, rearranged by `expand_dims`/`broadcast_to`/`view`/`trans`
//!   only — decided once per register in [`Program::compile`] — whose
//!   source parameters hold no NaN or Inf, checked with one scan per
//!   parameter per launch. **Declines** (canonical loop, same bits as ever):
//!   any operand that passed through arithmetic (`load(A) * s`, an
//!   accumulator, another dot), a load from a parameter the kernel also
//!   writes, a non-f32 constant, or a non-finite input.
//!   [`dot_dispatch_counts`] reports how many of the calling thread's
//!   executed dots ran each kernel (an eligible dot whose B rows are not
//!   unit-stride runs, and counts as, the canonical loop); `simbench`
//!   asserts 100 % exact on the fig7 SpMM and dense matmul Execute rows
//!   and 0 % with a NaN planted in B, and records every row's
//!   `exact_dot_share`.
//! * **Row-run address streams** — a 2-D access at
//!   `expand_dims(rows, 1) + expand_dims(cols, 0)` (every gather, scatter
//!   and atomic the code generator emits; Fig. 9) never materialises its
//!   `n × m` offset block: [`Program::compile`] recognises the site, the
//!   adds that formed the block charge their cost and compute nothing,
//!   and the site runs as `n` row runs of `m` consecutive elements —
//!   per-warp L2 transactions from the union of the rows' sector ranges,
//!   one slice copy / write / add per row — in the cost pass and the
//!   value pass, Execute and Analytic, instance-class traces included.
//!   Sites that are not separable in form, or whose terms turn out
//!   non-integral or whose columns are gathered, take the per-lane path:
//!   a per-lane cost pass, then their active lanes staged once into the
//!   same run form (one row for a prefix of consecutive elements, one row
//!   per lane otherwise), so every access — row run or per lane, full,
//!   recording or replayed launch — moves tensor data through one load
//!   body and one write body. [`site_dispatch_counts`] reports how many
//!   of the calling thread's executed 2-D accesses took each path;
//!   `simbench` asserts 100 % row runs on its five workloads. The rule
//!   and the bit-identity argument are in `program.rs` (analysis 6), the
//!   differential test in `tests/row_sites.rs`.
//! * **Inspect once, execute many** — a sparse structure is converted
//!   once and launched against many dense operands, and everything a
//!   launch derives from it (addresses, masks, coalescing, collision
//!   counts — 72–82 % of a warm COO / conv / tensor-product launch) is a
//!   function of the program, its I32 arguments and the device model.
//!   [`Program::compile`] splits the kernel into the *value slice* (what
//!   a stored value is computed from, cut at the access sites) and the
//!   index slice (everything else). When no float-derived value reaches
//!   an address the program is *replayable*: the second launch in a row
//!   against the same I32 storage (`Tensor::ptr_eq`; a copy-on-write
//!   edit is new storage) records an **address script** — the resolved
//!   row bases of every value-site execution plus the launch's
//!   [`KernelReport`] — and every later launch with that key runs only
//!   the value slice through the same load / write / dot bodies, does no
//!   cost accounting, and returns the stored report (an Analytic launch
//!   returns it without interpreting anything). One-shot and alternating
//!   keys never record, and a key is remembered by weak witnesses: no
//!   program keeps a caller's tensor alive or makes its owner's next
//!   write copy (see [`Program::launch_with`]). No option selects any of
//!   this;
//!   [`Program::replay_decline`] says why a program opts out (a dynamic
//!   loop, a float-derived address, a store into metadata) and
//!   [`script_dispatch_counts`] how the calling thread's launches split
//!   into full / recorded / replayed. Rule, key and bit-identity
//!   argument: `program.rs` (analysis 7); differential test:
//!   `tests/address_script.rs`; `simbench`'s `relaunch[]` table times
//!   launches 1, 2 and 3+.
//! * **Deterministic parallelism, one launch loop** — every launch cuts
//!   its grid instances into ranges, runs one machine per range and
//!   folds the machines' shards in instance order ([`LaunchOptions`]):
//!   one range runs inline on the calling thread and writes in place;
//!   several — a sharded launch — run on scoped threads, DRAM
//!   first-touch sets union, collision counters add, and Execute-mode
//!   writes replay from per-shard logs in instance order, so outputs and
//!   [`KernelStats`] are bit-for-bit identical at every thread count.
//!   Kernels that read a parameter they also write, and launches that
//!   record an address script, run as one range;
//!   [`Program::launch_batch_with`] hands its request chunks to the same
//!   runner. The three dispatch counters are per thread: each machine
//!   keeps a tally, the fold and the batch runner carry it back, and the
//!   top-level call adds it once to its own thread's counters, so
//!   concurrent tests and serve tenants never see each other's launches.
//!
//! # Compile pipeline
//!
//! Since the "compile-once, launch-many" rework, every launch executes a
//! [`Program`]: the kernel IR is lowered ahead of time (once per launch
//! shape; [`launch`]/[`launch_with`] compile on the fly, while
//! `insum_inductor`'s `ProgramCache` memoizes programs across launches
//! and autotuning trials). Lowering runs these analyses (plus the
//! value-level dot-operand provenance and separable-site recognition
//! described above), all with conservative fallbacks so results stay
//! bit-identical to the seed:
//!
//! * **Grid-invariant prologue** — registers are classified by the grid
//!   axes their values transitively depend on. Level-0 (grid-invariant)
//!   instructions — `arange`, constants, `full`, and any arithmetic or
//!   read-only loads closed over them — execute once per launch/shard
//!   and persist in their registers; level-1 (row-invariant, grid axis 0
//!   free) instructions execute once per row of instances. Invariant
//!   instructions trapped inside per-instance loops are recorded as
//!   *occurrence streams* by the row representative and replayed (a
//!   copy-on-write clone plus the recorded cost) by every other
//!   instance. Costs are deterministic, so each instance is still
//!   charged exactly what re-execution would have charged.
//! * **Last-use liveness** — per-unit release lists return dead
//!   register buffers to the allocation pool immediately, and the
//!   between-instance sweep touches only per-instance registers.
//! * **Analytic instance classes** — each memory site's offset stream is
//!   classified as grid-invariant or *affine* in the axis-0 coordinate
//!   with a sector-aligned stride. When every site qualifies (masks,
//!   trip counts, and metadata loads axis-0-invariant), an analytic
//!   launch costs one representative per row and replays the members by
//!   shifting the recorded sector runs and atomic address streams —
//!   O(instance classes) interpretation instead of O(instances), with
//!   identical stats, DRAM first-touch sets, collision counts, and
//!   per-instance times. [`LaunchOptions::analytic_dedup`] disables the
//!   replay for equivalence testing.
//!
//! Instance classes shrink the cost of an analytic launch; when every
//! instance of a launch is the *same* class — the fixed-length formats
//! and dense tiles of the paper — one instance prices the whole launch.
//! [`uniform_launch_time`] is that extension: the SM time of one instance
//! (the [`KernelReport::sm_time`] of a `[1, …, 1]`-grid launch of the same
//! kernel), an instance count and a DRAM time give the launch time
//! through the same scheduler and the same overlap rule as a real launch,
//! bit-equal to one reporting those instance times. It lives beside the
//! scheduler in `stats.rs` so launch time has one definition;
//! `insum_inductor`'s autotuner ranks its tile space with it.
//!
//! See `crates/gpu/src/program.rs` for the analysis details and
//! `crates/gpu/tests/program_properties.rs` for the equivalence
//! properties that pin the pipeline to the reference interpreter.

mod block;
mod device;
mod exact_dot;
mod interp;
mod isa;
mod micro;
mod program;
#[doc(hidden)]
pub mod reference;
mod script;
mod stats;

pub use block::Block;
pub use device::DeviceModel;
pub use interp::{
    dot_dispatch_counts, launch, launch_with, script_dispatch_counts, site_dispatch_counts,
    GpuError, LaunchOptions, Mode,
};
#[doc(hidden)]
pub use isa::Isa;
pub use micro::{copy_view_eligible, run_micro};
#[doc(hidden)]
pub use program::record_digests;
pub use program::{Program, ReplayDecline};
pub use stats::{uniform_launch_time, KernelReport, KernelStats, Profile};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, GpuError>;
