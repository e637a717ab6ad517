//! The kernel interpreter: functional execution + cost accounting.
//!
//! This is the optimized execution core (see `reference.rs` for the seed
//! implementation it must match bit-for-bit). Kernels are first lowered
//! by [`crate::program`] into a [`Program`] — grid-invariant prologue,
//! per-row caching, occurrence streams, liveness release lists, and
//! analytic instance classes — and this module
//! executes compiled programs. The speed comes from:
//!
//! 1. [`Block`] is a strided copy-on-write view, so shape transforms are
//!    metadata edits and scalars (loop counters!) never allocate.
//! 2. Register slots are recycled through a buffer pool, and last-use
//!    liveness releases dead buffers eagerly: steady-state loop
//!    iterations perform zero heap allocation.
//! 3. DRAM first-touch tracking uses address-space bitmaps and atomics
//!    use per-parameter count vectors — no hashing on the hot path; the
//!    per-warp coalescing walk runs over a stack buffer.
//! 4. Grid-invariant and row-invariant work executes once and is shared
//!    (or stream-replayed) across instances; fully affine analytic
//!    launches cost one representative per row and replay the rest.
//! 5. Every launch is one loop: its instances are cut into ranges (one,
//!    or several when sharded across threads), a machine runs each range
//!    into a shard, and the shards fold in instance order (see
//!    [`LaunchOptions`]); results are bit-identical at every thread
//!    count. A batch hands its requests to the same runner.
//! 6. 2-D accesses at `rows[i] + cols[j]` run as row runs (the `row_run`
//!    submodule): no offset block is formed and no lane is visited. The
//!    per-lane `*_generic` bodies here stay the fallback and the
//!    definition of per-lane addressing and coalescing; they stage their
//!    active lanes once into the same run form, so every access moves
//!    tensor data through one pair of value bodies.
//! 7. A relaunch against the same I32 arguments runs only the kernel's
//!    value slice, its accesses addressed from the script an earlier
//!    launch recorded (`script.rs`; `program.rs`, analysis 7): the
//!    machine skips every unit and node outside the slice, does no cost
//!    pass, and feeds the decoded runs to those same value bodies.

use crate::block::{Block, PoolBuf, Shape4};
use crate::device::DeviceModel;
use crate::program::{CInstr, CNode, Program, UnitMode};
use crate::script::{Cursor, Plan, Recorder};
use crate::stats::{combine_times, KernelReport, KernelStats};
use insum_kernel::{BinOp, Kernel, KernelError, Reg};
use insum_tensor::{DType, Tensor};
use std::cell::Cell;
use std::error::Error;
use std::fmt;

mod row_run;
use row_run::RowScratch;

/// Interpreter mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compute real values and mutate output tensors (used by tests and
    /// small runs). Counters are exact.
    Execute,
    /// Skip floating-point value math and output writes; metadata (I32)
    /// loads still read real data so addresses, masks, and all counters
    /// are exactly as in [`Mode::Execute`].
    Analytic,
}

/// Error from launching a kernel on the simulator.
#[derive(Debug, Clone, PartialEq)]
pub enum GpuError {
    /// Argument count does not match the kernel's parameter list.
    ParamCountMismatch {
        /// Parameters declared by the kernel.
        expected: usize,
        /// Arguments supplied.
        actual: usize,
    },
    /// A lane computed an out-of-bounds element offset.
    OffsetOutOfBounds {
        /// Parameter name.
        param: String,
        /// The offending element offset.
        offset: i64,
        /// The parameter's element count.
        len: usize,
    },
    /// An argument's length or dtype differs from the metadata the
    /// [`Program`] was compiled with.
    ArgumentMismatch {
        /// Position of the offending argument.
        index: usize,
    },
    /// The launch grid is empty, has more than 3 dimensions, contains a
    /// zero, or its instance count overflows.
    BadGrid(Vec<usize>),
    /// The kernel failed structural validation.
    Kernel(KernelError),
    /// A register was read before being written.
    UninitializedRegister(Reg),
    /// A fast-path stride view rejected its pattern or bindings (see
    /// [`crate::run_micro`]).
    Micro(String),
}

impl fmt::Display for GpuError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GpuError::ParamCountMismatch { expected, actual } => {
                write!(f, "kernel expects {expected} arguments, got {actual}")
            }
            GpuError::OffsetOutOfBounds { param, offset, len } => {
                write!(
                    f,
                    "offset {offset} out of bounds for parameter {param:?} ({len} elements)"
                )
            }
            GpuError::ArgumentMismatch { index } => write!(
                f,
                "argument {index} does not match the metadata this program was compiled with"
            ),
            GpuError::BadGrid(g) => write!(f, "bad launch grid {g:?}"),
            GpuError::Kernel(e) => write!(f, "{e}"),
            GpuError::UninitializedRegister(r) => write!(f, "register v{r} read before write"),
            GpuError::Micro(detail) => write!(f, "fast-path view: {detail}"),
        }
    }
}

impl Error for GpuError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            GpuError::Kernel(e) => Some(e),
            _ => None,
        }
    }
}

impl From<KernelError> for GpuError {
    fn from(e: KernelError) -> Self {
        GpuError::Kernel(e)
    }
}

/// Controls how the simulator schedules grid instances on host threads.
///
/// A launch cuts its instances into contiguous ranges and runs one
/// machine per range; each machine leaves a shard (costs, first-touch
/// sets, collision counts, instance times, dispatch tally), and the
/// shards fold into the first in instance order. One range runs inline
/// on the calling thread and writes in place; several run on scoped
/// threads, one each. Instances are independent except for DRAM
/// first-touch accounting, atomic-collision accounting, and (in
/// [`Mode::Execute`]) tensor writes. The first two fold exactly (set
/// unions and counter sums), so analytic launches always shard.
/// Execute-mode launches shard only when every written parameter is
/// write-only within the kernel: shards then log their writes, which
/// are replayed in instance order, reproducing the one-range result
/// bit-for-bit. A kernel that reads a parameter it also writes (a
/// cross-instance hazard), and a launch that records an address script
/// (`program.rs`, analysis 7), run as one range.
#[derive(Debug, Clone)]
pub struct LaunchOptions {
    /// Worker threads; `None` resolves `INSUM_SIM_THREADS` or the
    /// machine's available parallelism.
    pub threads: Option<usize>,
    /// Grids smaller than this always run sequentially (per-shard setup
    /// costs dominate tiny launches).
    pub min_parallel_instances: usize,
    /// Allow [`Mode::Analytic`] launches of fully affine programs to
    /// dedup each row of instances into one costed representative (see
    /// [`Program::analytic_dedup_available`]). Results are bit-identical
    /// either way; disabling is useful for equivalence testing.
    pub analytic_dedup: bool,
}

impl Default for LaunchOptions {
    fn default() -> LaunchOptions {
        LaunchOptions {
            threads: None,
            min_parallel_instances: 64,
            analytic_dedup: true,
        }
    }
}

impl LaunchOptions {
    /// A strictly sequential configuration.
    pub fn sequential() -> LaunchOptions {
        LaunchOptions {
            threads: Some(1),
            ..Default::default()
        }
    }

    /// A configuration with an explicit thread count.
    pub fn with_threads(threads: usize) -> LaunchOptions {
        LaunchOptions {
            threads: Some(threads.max(1)),
            ..Default::default()
        }
    }

    fn resolve_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t.max(1);
        }
        if let Some(t) = std::env::var("INSUM_SIM_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
        {
            return t.max(1);
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    }
}

/// Per-instance cost accumulator.
#[derive(Default, Clone, Copy)]
pub(crate) struct InstCost {
    l2_read_sectors: u64,
    l2_write_sectors: u64,
    flops_tc_f16: u64,
    flops_tc_f32: u64,
    flops_scalar: u64,
    smem_bytes: u64,
    atomics: u64,
    instructions: u64,
    dyn_iters: u64,
}

impl InstCost {
    #[inline]
    fn add(&mut self, o: &InstCost) {
        self.l2_read_sectors += o.l2_read_sectors;
        self.l2_write_sectors += o.l2_write_sectors;
        self.flops_tc_f16 += o.flops_tc_f16;
        self.flops_tc_f32 += o.flops_tc_f32;
        self.flops_scalar += o.flops_scalar;
        self.smem_bytes += o.smem_bytes;
        self.atomics += o.atomics;
        self.instructions += o.instructions;
        self.dyn_iters += o.dyn_iters;
    }

    #[inline]
    fn minus(&self, o: &InstCost) -> InstCost {
        InstCost {
            l2_read_sectors: self.l2_read_sectors - o.l2_read_sectors,
            l2_write_sectors: self.l2_write_sectors - o.l2_write_sectors,
            flops_tc_f16: self.flops_tc_f16 - o.flops_tc_f16,
            flops_tc_f32: self.flops_tc_f32 - o.flops_tc_f32,
            flops_scalar: self.flops_scalar - o.flops_scalar,
            smem_bytes: self.smem_bytes - o.smem_bytes,
            atomics: self.atomics - o.atomics,
            instructions: self.instructions - o.instructions,
            dyn_iters: self.dyn_iters - o.dyn_iters,
        }
    }
}

pub(crate) const SECTOR: u64 = 32;
const WARP: usize = 32;

/// Fixed-size bitmap over the launch's simulated sector space: the
/// kernel-resident L2 filter (replaces the seed's `HashSet<u64>`).
#[derive(Clone)]
struct SectorSet {
    words: Vec<u64>,
}

impl SectorSet {
    fn new(sectors: u64) -> SectorSet {
        SectorSet {
            words: vec![0u64; sectors.div_ceil(64) as usize],
        }
    }

    /// Insert; returns true when the sector was new.
    #[inline]
    fn insert(&mut self, sector: u64) -> bool {
        let word = &mut self.words[(sector >> 6) as usize];
        let bit = 1u64 << (sector & 63);
        let new = *word & bit == 0;
        *word |= bit;
        new
    }

    /// Insert every sector of the inclusive range `[lo, hi]`.
    #[inline]
    fn insert_range(&mut self, lo: u64, hi: u64) {
        let (wl, wh) = ((lo >> 6) as usize, (hi >> 6) as usize);
        let from = !0u64 << (lo & 63);
        let upto = !0u64 >> (63 - (hi & 63));
        if wl == wh {
            self.words[wl] |= from & upto;
        } else {
            self.words[wl] |= from;
            self.words[wl + 1..wh].fill(!0);
            self.words[wh] |= upto;
        }
    }

    fn union(&mut self, other: &SectorSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
}

/// A machine's access to the launch arguments: exclusive for a launch
/// that runs as one machine, which writes in place; shared between the
/// shards of a sharded launch, which log their writes instead.
enum ArgsView<'a, 'b> {
    Shared(&'a [&'a Tensor]),
    Exclusive(&'a mut [&'b mut Tensor]),
}

impl ArgsView<'_, '_> {
    #[inline]
    fn data(&self, param: usize) -> &[f32] {
        match self {
            ArgsView::Shared(ts) => ts[param].data(),
            ArgsView::Exclusive(ts) => ts[param].data(),
        }
    }
}

/// One deferred Execute-mode write, replayed in instance order after a
/// sharded launch.
struct WriteOp {
    off: u32,
    val: f32,
    param: u16,
    atomic: bool,
}

/// One recorded occurrence of an invariant instruction inside a
/// per-instance region: later instances replay the value (a cheap
/// copy-on-write clone) and charge the recorded cost.
struct CacheEntry {
    dst: Reg,
    block: Block,
    cost: InstCost,
}

/// Per-shard stream-cache state: aggregate costs of the once/per-row
/// units, and occurrence streams for invariant instructions trapped in
/// per-instance loops (level 0 = grid-invariant, level 1 = row-invariant).
#[derive(Default)]
struct CacheState {
    agg0: InstCost,
    agg1: InstCost,
    stream0: Vec<CacheEntry>,
    stream1: Vec<CacheEntry>,
    cur0: usize,
    cur1: usize,
    record0: bool,
    record1: bool,
}

impl CacheState {
    fn new() -> CacheState {
        CacheState {
            stream0: Vec::new(),
            stream1: Vec::new(),
            ..Default::default()
        }
    }
}

/// One access-site execution recorded by a row representative for
/// instance-class replay: the touched sectors (as inclusive runs), the
/// atomic address stream, and the active-offset bounds used to prove
/// members in-range.
struct TraceEntry {
    site: u32,
    runs: Vec<(u64, u64)>,
    /// Atomic hits as `(start_addr, run_len, hits)`: `run_len`
    /// consecutive addresses each hit `hits` times (scatter tiles are
    /// row-major, so this compresses a row or more into one triple).
    counts: Vec<(i64, u32, u32)>,
    min_off: i64,
    max_off: i64,
}

/// Instance-class state for the current row (see `program.rs` docs):
/// the representative's cost, simulated time, and per-site traces.
struct TraceState {
    active: bool,
    valid: bool,
    entries: Vec<TraceEntry>,
    rep_cost: InstCost,
    rep_time: f64,
    rep_p0: usize,
    /// Scratch buffer for a site's sorted row starts (representatives
    /// only).
    scratch: Vec<i64>,
}

impl TraceState {
    fn new() -> TraceState {
        TraceState {
            active: false,
            valid: false,
            entries: Vec::new(),
            rep_cost: InstCost::default(),
            rep_time: 0.0,
            rep_p0: 0,
            scratch: Vec::new(),
        }
    }
}

/// What a machine dispatched on the host: its `tl.dot` kernels, its
/// block-shaped access paths, and the way its launch ran (see
/// [`dot_dispatch_counts`]). A launch folds its shards' tallies into one
/// and a batch its workers'; the top-level call publishes the sum.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    exact_dots: u64,
    canonical_dots: u64,
    row_run_sites: u64,
    generic_sites: u64,
    full: u64,
    recorded: u64,
    replayed: u64,
}

impl Tally {
    fn merge(&mut self, o: &Tally) {
        self.exact_dots += o.exact_dots;
        self.canonical_dots += o.canonical_dots;
        self.row_run_sites += o.row_run_sites;
        self.generic_sites += o.generic_sites;
        self.full += o.full;
        self.recorded += o.recorded;
        self.replayed += o.replayed;
    }

    /// Add this tally to the calling thread's counters.
    fn publish(&self) {
        COUNTS.with(|counts| {
            let mut sum = counts.get();
            sum.merge(self);
            counts.set(sum);
        });
    }
}

thread_local! {
    static COUNTS: Cell<Tally> = Cell::new(Tally::default());
}

/// `(exact, canonical)` counts of the Execute-mode `tl.dot` dispatches
/// of the calling thread's launches: how many ran the exact-product FMA
/// kernel and how many the canonical loop.
///
/// This and [`site_dispatch_counts`] and [`script_dispatch_counts`] are
/// diagnostics about the host interpreter, not the simulated device, so
/// they are not part of [`KernelStats`]. They count per thread: every
/// machine keeps its own tally, a launch folds its shards' tallies and a
/// batch its workers', and the top-level call ([`launch_with`],
/// [`Program::launch_with`], [`Program::launch_batch_with`]) adds the sum
/// once, on the thread that made it. Launches made on other threads —
/// concurrent tests, other serve tenants — never move these counts,
/// however the launch was sharded. A launch that fails counts as a launch
/// and counts none of its dots or sites.
///
/// Read it before and after a run and subtract; a workload of plain
/// loads that reports canonical dots has lost its eligibility
/// (non-finite input, or arithmetic between load and dot). Replayed (stream-cached) dots and
/// Analytic launches execute no dot and count nothing; an Execute launch
/// served from an address script ([`script_dispatch_counts`]) executes
/// every dot of its value slice and counts each. The counter reports the
/// kernel that ran, not the eligibility decision: an eligible dot whose
/// B rows are not unit-stride (a transposed B), and every dot on a host
/// without FMA, runs the canonical loop and counts there.
pub fn dot_dispatch_counts() -> (u64, u64) {
    let t = COUNTS.with(Cell::get);
    (t.exact_dots, t.canonical_dots)
}

/// How many executed block-shaped (rank ≥ 2) memory accesses of the
/// calling thread's launches (counted as [`dot_dispatch_counts`] says)
/// ran as row runs and how many on the generic per-lane path:
/// `(row_run, generic)`.
///
/// Every 2-D access the Insum code generator emits with lazy broadcasting
/// is separable (see `program.rs`, analysis 6), so a default-options
/// kernel that reports generic executions has lost a recognition —
/// except where a site declines on its data (a gathered *column* index,
/// non-integral offsets). A per-lane execution is counted once, where its
/// lanes are staged into a run (an Analytic float access that needs no
/// staged lanes counts there too). Accesses replayed from a stream cache
/// or an analytic instance class execute nothing and count nowhere. A
/// launch served from an address script ([`script_dispatch_counts`])
/// counts each value-site execution the way the recording launch ran it:
/// a row run stays a row run (now served from the script), a per-lane
/// access stays generic; the index-slice accesses it skips, and an
/// Analytic launch answered from the stored report, count nowhere.
pub fn site_dispatch_counts() -> (u64, u64) {
    let t = COUNTS.with(Cell::get);
    (t.row_run_sites, t.generic_sites)
}

/// How many of the calling thread's [`Program`] launches (counted as
/// [`dot_dispatch_counts`] says) ran in full, ran in full while recording
/// an address script, and were served from a script:
/// `(full, recorded, replayed)`.
///
/// `replayed` counts Execute launches that ran only their value slice and
/// Analytic launches answered from the stored report; launches of a
/// program that [declines](Program::replay_decline) are all `full`.
/// `replayed / (full + recorded + replayed)` over a workload is the share
/// of its launches whose `(Program, I32 storage, DeviceModel)` equalled a
/// ready key — the property a replay gain depends on.
pub fn script_dispatch_counts() -> (u64, u64, u64) {
    let t = COUNTS.with(Cell::get);
    (t.full, t.recorded, t.replayed)
}

/// Atomic hit counts of one parameter, allocated (zeroed) on first use,
/// with the element range `[lo, hi)` that has been touched: the
/// end-of-launch conflict scan and the shard merge only visit that.
#[derive(Clone)]
struct AtomicHits {
    counts: Vec<u64>,
    lo: usize,
    hi: usize,
}

impl Default for AtomicHits {
    fn default() -> AtomicHits {
        AtomicHits {
            counts: Vec::new(),
            lo: usize::MAX,
            hi: 0,
        }
    }
}

impl AtomicHits {
    /// The count vector, sized to the parameter's `len` elements.
    #[inline]
    fn counts(&mut self, len: usize) -> &mut [u64] {
        if self.counts.is_empty() {
            self.counts = vec![0u64; len];
        }
        &mut self.counts
    }

    /// Record that elements `[lo, hi)` may have been hit.
    #[inline]
    fn touch(&mut self, lo: usize, hi: usize) {
        self.lo = self.lo.min(lo);
        self.hi = self.hi.max(hi);
    }

    fn touched(&self) -> &[u64] {
        self.counts.get(self.lo..self.hi).unwrap_or(&[])
    }

    fn merge(&mut self, other: &AtomicHits) {
        if other.lo >= other.hi {
            return;
        }
        let acc = self.counts(other.counts.len());
        for (a, &v) in acc[other.lo..other.hi].iter_mut().zip(other.touched()) {
            *a += v;
        }
        self.touch(other.lo, other.hi);
    }
}

/// What one machine leaves behind after running its range of instances.
struct Shard {
    stats: KernelStats,
    /// DRAM first-touch sets.
    read: SectorSet,
    write: SectorSet,
    /// Per-parameter atomic hit counts.
    hits: Vec<AtomicHits>,
    /// Simulated time of each instance, in instance order.
    times: Vec<f64>,
    /// Writes deferred by a shard of a sharded Execute launch.
    log: Vec<WriteOp>,
    tally: Tally,
    /// The address script a recording launch writes down.
    recorder: Option<Recorder>,
}

impl Shard {
    /// Fold in the shard that ran the instances after this one's (its
    /// write log stays where it is, for the replay).
    fn absorb(&mut self, o: &Shard) {
        let s = &mut self.stats;
        s.l2_read_sectors += o.stats.l2_read_sectors;
        s.l2_write_sectors += o.stats.l2_write_sectors;
        s.flops_tc_f16 += o.stats.flops_tc_f16;
        s.flops_tc_f32 += o.stats.flops_tc_f32;
        s.flops_scalar += o.stats.flops_scalar;
        s.smem_bytes += o.stats.smem_bytes;
        s.atomics += o.stats.atomics;
        s.instructions += o.stats.instructions;
        self.read.union(&o.read);
        self.write.union(&o.write);
        for (acc, h) in self.hits.iter_mut().zip(&o.hits) {
            acc.merge(h);
        }
        self.times.extend_from_slice(&o.times);
        self.tally.merge(&o.tally);
    }
}

/// Run every unit through `run` and return the results in unit order: a
/// single unit inline on the calling thread, several on scoped threads,
/// one each. The one place the simulator spawns.
fn run_units<U: Send, R: Send>(mut units: Vec<U>, run: impl Fn(U) -> R + Sync) -> Vec<R> {
    if units.len() == 1 {
        return units.pop().map(run).into_iter().collect();
    }
    let run = &run;
    std::thread::scope(|scope| {
        let handles: Vec<_> = units
            .into_iter()
            .map(|unit| scope.spawn(move || run(unit)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("simulator worker panicked"))
            .collect()
    })
}

struct Machine<'a> {
    program: &'a Program,
    mode: Mode,
    out: Shard,
    inst: InstCost,
    /// Recycled heap buffers: registers overwritten by later instructions
    /// (or released by liveness) donate their allocations back, refcount
    /// block included.
    pool: Vec<PoolBuf>,
    cs: CacheState,
    trace: TraceState,
    /// This launch's `DotSources::nonfinite_params` mask.
    nonfinite: u64,
    row_scratch: RowScratch,
    /// The script a replaying launch reads its value-site addresses from.
    replay: Option<Cursor<'a>>,
}

impl<'a> Machine<'a> {
    fn new(
        program: &'a Program,
        mode: Mode,
        nonfinite: u64,
        recorder: Option<Recorder>,
        replay: Option<Cursor<'a>>,
    ) -> Machine<'a> {
        // A replay does no cost pass: it marks no sector.
        let sectors = match replay {
            Some(_) => 0,
            None => program.params.total_sectors,
        };
        Machine {
            program,
            mode,
            out: Shard {
                stats: KernelStats::default(),
                read: SectorSet::new(sectors),
                write: SectorSet::new(sectors),
                hits: vec![AtomicHits::default(); program.params.lens.len()],
                times: Vec::new(),
                log: Vec::new(),
                tally: Tally::default(),
                recorder,
            },
            inst: InstCost::default(),
            pool: Vec::new(),
            cs: CacheState::new(),
            trace: TraceState::new(),
            nonfinite,
            row_scratch: RowScratch::default(),
            replay,
        }
    }

    #[inline]
    fn replaying(&self) -> bool {
        self.replay.is_some()
    }

    /// A buffer from the pool (or a fresh one); contents are stale.
    #[inline]
    fn alloc(&mut self) -> PoolBuf {
        self.pool.pop().unwrap_or_default()
    }

    /// Overwrite a register, reclaiming the old value's buffer when this
    /// register was its sole owner.
    #[inline]
    fn set_reg(&mut self, regs: &mut [Option<Block>], dst: Reg, val: Block) {
        if let Some(old) = regs[dst].take() {
            if let Some(buf) = old.reclaim() {
                self.pool.push(buf);
            }
        }
        regs[dst] = Some(val);
    }

    /// Release a register's buffer back to the pool.
    #[inline]
    fn drop_reg(&mut self, regs: &mut [Option<Block>], r: Reg) {
        if let Some(old) = regs[r].take() {
            if let Some(buf) = old.reclaim() {
                self.pool.push(buf);
            }
        }
    }

    fn reg(regs: &[Option<Block>], r: Reg) -> Result<&Block, GpuError> {
        regs[r].as_ref().ok_or(GpuError::UninitializedRegister(r))
    }

    /// Accumulate one instance's cost into the launch totals.
    fn charge(&mut self, c: &InstCost) {
        self.out.stats.l2_read_sectors += c.l2_read_sectors;
        self.out.stats.l2_write_sectors += c.l2_write_sectors;
        self.out.stats.flops_tc_f16 += c.flops_tc_f16;
        self.out.stats.flops_tc_f32 += c.flops_tc_f32;
        self.out.stats.flops_scalar += c.flops_scalar;
        self.out.stats.smem_bytes += c.smem_bytes;
        self.out.stats.atomics += c.atomics;
        self.out.stats.instructions += c.instructions;
    }

    /// Record a warp-granular memory access over the active lanes of an
    /// offset block (in the logical order of `joint`); returns an error
    /// on the first out-of-bounds active offset.
    ///
    /// Matches the seed semantics exactly: lanes chunk into warps of 32
    /// in logical row-major order, each warp's active sector ids dedup
    /// into L2 transactions, and the launch-wide bitmap provides the
    /// DRAM first-touch filter.
    fn record_access(
        &mut self,
        param: usize,
        offsets: &Block,
        mask: Option<&Block>,
        joint: &[usize],
        is_write: bool,
    ) -> Result<(), GpuError> {
        // Lane values in logical `joint` order. Nearly every access in
        // compiled kernels hits the contiguous fast paths; strided or
        // broadcast layouts stage through pooled scratch buffers first so
        // the warp scan below always runs over plain slices with its
        // state in registers.
        let base = self.program.params.bases[param];
        let esize = self.program.params.esizes[param];
        let len = self.program.params.lens[param];
        let off_direct = if offsets.shape() == joint {
            offsets.as_slice()
        } else {
            None
        };
        let off_scratch = if off_direct.is_some() {
            None
        } else {
            let mut b = self.alloc();
            let v = b.vec();
            v.clear();
            v.reserve(joint.iter().product());
            offsets.broadcast_to(joint).walk(|x| v.push(x));
            Some(b)
        };
        let mask_direct = match mask {
            Some(m) if m.shape() == joint => m.as_slice(),
            _ => None,
        };
        let mut mask_scratch = match mask {
            Some(m) if mask_direct.is_none() => {
                let mut b = self.alloc();
                let v = b.vec();
                v.clear();
                v.reserve(joint.iter().product());
                m.broadcast_to(joint).walk(|x| v.push(x));
                Some(b)
            }
            _ => None,
        };
        let mut off_scratch_for_read = off_scratch;
        let (l2, oob) = {
            let so: &[f64] = match (&mut off_scratch_for_read, off_direct) {
                (Some(b), _) => b.vec(),
                (None, Some(s)) => s,
                (None, None) => unreachable!("offsets staged or direct"),
            };
            let sm: Option<&[f64]> = match (mask, &mut mask_scratch, mask_direct) {
                (None, _, _) => None,
                (Some(_), Some(b), _) => Some(b.vec()),
                (Some(_), None, Some(s)) => Some(s),
                (Some(_), None, None) => unreachable!("mask staged or direct"),
            };
            let seen = if is_write {
                &mut self.out.write
            } else {
                &mut self.out.read
            };
            warp_scan(so, sm, base, esize, len, seen)
        };
        if let Some(b) = off_scratch_for_read {
            self.pool.push(b);
        }
        if let Some(b) = mask_scratch {
            self.pool.push(b);
        }
        if let Some(offset) = oob {
            return Err(GpuError::OffsetOutOfBounds {
                param: self.program.param_names[param].clone(),
                offset,
                len: self.program.params.lens[param],
            });
        }
        if is_write {
            self.inst.l2_write_sectors += l2;
        } else {
            self.inst.l2_read_sectors += l2;
        }
        Ok(())
    }

    /// Replay one row member from the representative's trace: shift the
    /// recorded sector runs and atomic streams by the member's axis-0
    /// delta, charge the representative's cost, and return its (equal)
    /// simulated time. `None` when the trace is unusable or the member
    /// would go out of bounds — the caller then executes it in full.
    fn replay_member(&mut self, p0: usize) -> Option<f64> {
        if !self.trace.valid {
            return None;
        }
        let program = self.program;
        let delta = p0 as i64 - self.trace.rep_p0 as i64;
        for e in &self.trace.entries {
            if e.min_off > e.max_off {
                continue;
            }
            let site = &program.sites[e.site as usize];
            let shift = delta * site.coeff as i64;
            let len = program.params.lens[site.param] as i64;
            if e.min_off + shift < 0 || e.max_off + shift >= len {
                return None;
            }
        }
        for e in &self.trace.entries {
            let site = &program.sites[e.site as usize];
            let esize = program.params.esizes[site.param] as i64;
            let shift_elems = delta * site.coeff as i64;
            // Exact by construction: `coeff · esize` is a whole number
            // of sectors.
            let shift_secs = shift_elems * esize / SECTOR as i64;
            let seen = if site.is_write {
                &mut self.out.write
            } else {
                &mut self.out.read
            };
            for &(lo, hi) in &e.runs {
                for sec in lo..=hi {
                    seen.insert((sec as i64 + shift_secs) as u64);
                }
            }
            if site.is_atomic && !e.counts.is_empty() {
                let hits = &mut self.out.hits[site.param];
                hits.touch(
                    (e.min_off + shift_elems) as usize,
                    (e.max_off + shift_elems) as usize + 1,
                );
                let counts = hits.counts(program.params.lens[site.param]);
                for &(start, len, n) in &e.counts {
                    let s = (start + shift_elems) as usize;
                    for slot in &mut counts[s..s + len as usize] {
                        *slot += n as u64;
                    }
                }
            }
        }
        let c = self.trace.rep_cost;
        self.charge(&c);
        Some(self.trace.rep_time)
    }

    /// Execute the instance range `[lo, hi)` with row-change tracking,
    /// stream caching, and (when `dedup`) analytic instance-class replay.
    /// Pushes one simulated time per instance.
    ///
    /// Kept out of line: its one caller is the runner's closure, and
    /// inlined there the instance loop ran ≈ 5 % slower on a replayed
    /// scatter (EXPERIMENTS.md, "One launch loop").
    #[inline(never)]
    fn run_range(
        &mut self,
        (lo, hi): (usize, usize),
        gdims: [usize; 3],
        args: &mut ArgsView<'_, '_>,
        device: &DeviceModel,
        dedup: bool,
    ) -> Result<(), GpuError> {
        let mut regs: Vec<Option<Block>> = vec![None; self.program.num_regs];
        self.out.times.reserve_exact(hi - lo);
        let mut row = (usize::MAX, usize::MAX);
        for flat in lo..hi {
            let pid = pid_of(flat, gdims);
            let new_shard = flat == lo;
            let new_row = new_shard || (pid[1], pid[2]) != row;
            row = (pid[1], pid[2]);
            if dedup && !new_row {
                if let Some(t) = self.replay_member(pid[0]) {
                    self.out.times.push(t);
                    continue;
                }
            }
            // One script segment per shard, per row and per instance.
            let segments = [(new_shard, 0), (new_row, flat / gdims[0]), (true, flat)];
            for (level, &(starts, segment)) in segments.iter().enumerate() {
                if starts {
                    if let Some(rec) = &mut self.out.recorder {
                        rec.begin(level);
                    }
                    if let Some(cursor) = &mut self.replay {
                        cursor.seek(level, segment);
                    }
                }
            }
            let record = dedup && new_row;
            let t = self.run_instance(&mut regs, pid, args, device, new_shard, new_row, record)?;
            self.out.times.push(t);
        }
        Ok(())
    }

    /// Run one grid instance, returning its simulated time on one SM.
    #[allow(clippy::too_many_arguments)]
    fn run_instance(
        &mut self,
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
        device: &DeviceModel,
        new_shard: bool,
        new_row: bool,
        record_trace: bool,
    ) -> Result<f64, GpuError> {
        let program = self.program;
        self.inst = InstCost::default();
        for &r in &program.level2_regs {
            self.drop_reg(regs, r);
        }
        self.cs.record0 = new_shard;
        self.cs.record1 = new_row;
        self.cs.cur0 = 0;
        self.cs.cur1 = 0;
        if new_shard {
            self.cs.stream0.clear();
            self.cs.agg0 = InstCost::default();
        }
        if new_row {
            self.cs.stream1.clear();
            self.cs.agg1 = InstCost::default();
        }
        self.trace.active = record_trace;
        if record_trace {
            self.trace.entries.clear();
            self.trace.valid = true;
            self.trace.rep_p0 = pid[0];
        }
        let replaying = self.replaying();
        for unit in &program.units {
            if replaying && !unit.value {
                continue;
            }
            match unit.mode {
                UnitMode::Once => {
                    if new_shard {
                        let before = self.inst;
                        self.exec_cinstr(&unit.instr, regs, pid, args)?;
                        let delta = self.inst.minus(&before);
                        self.cs.agg0.add(&delta);
                    }
                }
                UnitMode::PerRow => {
                    if new_row {
                        let before = self.inst;
                        self.exec_cinstr(&unit.instr, regs, pid, args)?;
                        let delta = self.inst.minus(&before);
                        self.cs.agg1.add(&delta);
                    }
                }
                UnitMode::PerInstance => {
                    self.exec_cinstr(&unit.instr, regs, pid, args)?;
                    for &r in &unit.release {
                        self.drop_reg(regs, r);
                    }
                }
            }
        }
        if !new_shard {
            let a = self.cs.agg0;
            self.inst.add(&a);
        }
        if !new_row {
            let a = self.cs.agg1;
            self.inst.add(&a);
        }
        let c = self.inst;
        self.charge(&c);
        let t = instance_time(device, &c);
        if record_trace {
            self.trace.rep_cost = c;
            self.trace.rep_time = t;
            self.trace.active = false;
        }
        Ok(t)
    }

    /// Execute a per-instance body with stream-cache dispatch: invariant
    /// nodes record their value/cost on the representative and replay a
    /// copy-on-write clone afterwards.
    fn run_nodes(
        &mut self,
        nodes: &[CNode],
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        let replaying = self.replaying();
        for node in nodes {
            if replaying && !node.value {
                continue;
            }
            match node.cached {
                None => self.exec_cinstr(&node.instr, regs, pid, args)?,
                Some((level, dst)) => {
                    let record = if level == 0 {
                        self.cs.record0
                    } else {
                        self.cs.record1
                    };
                    if record {
                        let before = self.inst;
                        self.exec_cinstr(&node.instr, regs, pid, args)?;
                        let cost = self.inst.minus(&before);
                        let block = regs[dst]
                            .as_ref()
                            .expect("cached instruction writes its destination")
                            .clone();
                        let stream = if level == 0 {
                            &mut self.cs.stream0
                        } else {
                            &mut self.cs.stream1
                        };
                        stream.push(CacheEntry { dst, block, cost });
                    } else {
                        let (dst, block, cost) = {
                            let (stream, cur) = if level == 0 {
                                (&self.cs.stream0, &mut self.cs.cur0)
                            } else {
                                (&self.cs.stream1, &mut self.cs.cur1)
                            };
                            let e = &stream[*cur];
                            *cur += 1;
                            (e.dst, e.block.clone(), e.cost)
                        };
                        self.inst.add(&cost);
                        self.set_reg(regs, dst, block);
                    }
                }
            }
        }
        Ok(())
    }

    fn exec_cinstr(
        &mut self,
        instr: &CInstr,
        regs: &mut Vec<Option<Block>>,
        pid: [usize; 3],
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        self.inst.instructions += 1;
        match instr {
            CInstr::ProgramId { dst, axis } => {
                self.set_reg(regs, *dst, Block::scalar(pid[*axis] as f64));
            }
            CInstr::Const { dst, value } => {
                self.set_reg(regs, *dst, Block::scalar(*value));
            }
            CInstr::Arange { dst, len } => {
                let mut buf = self.alloc();
                let v = buf.vec();
                v.clear();
                v.extend((0..*len).map(|i| i as f64));
                self.set_reg(regs, *dst, Block::from_pool(vec![*len], buf));
            }
            CInstr::Full { dst, shape, value } => {
                let buf = self.alloc();
                self.set_reg(regs, *dst, Block::full_pooled(shape.clone(), *value, buf));
            }
            CInstr::Binary { dst, op, a, b } => {
                match self.program.row_sites.elided_lanes(*dst) {
                    // An add that only forms a separable site's offset
                    // block: charge what computing it costs the device
                    // and compute nothing — the site reads the terms.
                    Some(lanes) => {
                        self.inst.flops_scalar += lanes;
                        self.set_reg(regs, *dst, Block::scalar(f64::NAN));
                    }
                    None => self.exec_binary(regs, *dst, *op, *a, *b)?,
                }
            }
            CInstr::ExpandDims { dst, src, axis } => {
                let out = Self::reg(regs, *src)?.expand_dims(*axis);
                self.set_reg(regs, *dst, out);
            }
            CInstr::Broadcast { dst, src, shape } => {
                let out = Self::reg(regs, *src)?.broadcast_to(shape);
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::View { dst, src, shape } => {
                let out = Self::reg(regs, *src)?.view(shape.clone());
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Trans { dst, src } => {
                let out = Self::reg(regs, *src)?.trans();
                self.inst.smem_bytes += 4 * out.len() as u64;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Load {
                dst,
                offset,
                mask,
                other,
                site,
                ..
            } => {
                let out = self.exec_load(regs, *offset, *mask, *other, *site, args)?;
                self.set_reg(regs, *dst, out);
            }
            CInstr::Store {
                offset,
                value,
                mask,
                site,
                ..
            }
            | CInstr::AtomicAdd {
                offset,
                value,
                mask,
                site,
                ..
            } => {
                self.exec_write(regs, *offset, *value, *mask, *site, args)?;
            }
            CInstr::Dot { dst, a, b } => {
                let buf = self.alloc();
                let (m, k, n, out) = {
                    let av = Self::reg(regs, *a)?;
                    let bv = Self::reg(regs, *b)?;
                    let (m, k) = (av.shape()[0], av.shape()[1]);
                    let n = bv.shape()[1];
                    let out = if self.mode == Mode::Execute {
                        let (out, exact) =
                            if self.program.dot_sources.eligible(*a, *b, self.nonfinite) {
                                Block::dot_exact_with(av, bv, buf)
                            } else {
                                (Block::dot_with(av, bv, buf), false)
                            };
                        if exact {
                            self.out.tally.exact_dots += 1;
                        } else {
                            self.out.tally.canonical_dots += 1;
                        }
                        out
                    } else {
                        debug_assert_eq!(bv.shape()[0], k, "dot inner dims");
                        Block::full_pooled(vec![m, n], 0.0, buf)
                    };
                    (m, k, n, out)
                };
                let flops = 2 * (m * k * n) as u64;
                if self.program.dot_f16 {
                    self.inst.flops_tc_f16 += flops;
                } else {
                    self.inst.flops_tc_f32 += flops;
                }
                self.set_reg(regs, *dst, out);
            }
            CInstr::Sum { dst, src, axis } => {
                let out = {
                    let sv = Self::reg(regs, *src)?;
                    self.inst.flops_scalar += sv.len() as u64;
                    sv.sum_axis(*axis)
                };
                self.set_reg(regs, *dst, out);
            }
            CInstr::Loop {
                var,
                start,
                end,
                step,
                body,
            } => {
                let mut v = *start;
                while v < *end {
                    self.set_reg(regs, *var, Block::scalar(v as f64));
                    self.run_nodes(body, regs, pid, args)?;
                    v += *step;
                }
            }
            CInstr::LoopDyn {
                var,
                start,
                end,
                body,
            } => {
                let lo = Self::reg(regs, *start)?.first() as i64;
                let hi = Self::reg(regs, *end)?.first() as i64;
                self.inst.dyn_iters += (hi - lo).max(0) as u64;
                let mut v = lo;
                while v < hi {
                    self.set_reg(regs, *var, Block::scalar(v as f64));
                    self.run_nodes(body, regs, pid, args)?;
                    v += 1;
                }
            }
        }
        Ok(())
    }

    fn exec_binary(
        &mut self,
        regs: &mut [Option<Block>],
        dst: Reg,
        op: BinOp,
        a: Reg,
        b: Reg,
    ) -> Result<(), GpuError> {
        // Accumulator fast path (`acc = acc <op> v`): mutate the
        // destination's own buffer when it is the sole owner — no copy,
        // no register churn.
        if dst == a && a != b {
            let mut av = regs[a].take().ok_or(GpuError::UninitializedRegister(a))?;
            let done = {
                let bv = Self::reg(regs, b)?;
                Block::binary_assign(op, &mut av, bv)
            };
            if done {
                self.inst.flops_scalar += av.len() as u64;
                regs[dst] = Some(av);
                return Ok(());
            }
            let buf = self.alloc();
            let out = {
                let bv = Self::reg(regs, b)?;
                Block::binary_with(op, &av, bv, buf)
            };
            self.inst.flops_scalar += out.len() as u64;
            if let Some(old) = av.reclaim() {
                self.pool.push(old);
            }
            regs[dst] = Some(out);
            return Ok(());
        }
        let scalar = {
            let av = Self::reg(regs, a)?;
            let bv = Self::reg(regs, b)?;
            Block::try_scalar_binary(op, av, bv)
        };
        if let Some(out) = scalar {
            self.inst.flops_scalar += 1;
            self.set_reg(regs, dst, out);
            return Ok(());
        }
        let buf = self.alloc();
        let out = {
            let av = Self::reg(regs, a)?;
            let bv = Self::reg(regs, b)?;
            Block::binary_with(op, av, bv, buf)
        };
        self.inst.flops_scalar += out.len() as u64;
        self.set_reg(regs, dst, out);
        Ok(())
    }

    /// A `Load`: as row runs when the site is separable and its data
    /// allow, per lane otherwise.
    fn exec_load(
        &mut self,
        regs: &[Option<Block>],
        offset: Reg,
        mask: Option<Reg>,
        other: f64,
        site: u32,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<Block, GpuError> {
        if self.replaying() {
            return Ok(self.load_scripted(site, other, args));
        }
        let mb = match mask {
            Some(m) => Some(Self::reg(regs, m)?),
            None => None,
        };
        let Some(rs) = self.program.row_sites.site(site) else {
            let off = Self::reg(regs, offset)?;
            return self.load_generic(off, mb, other, site, args);
        };
        if let Some(out) = self.load_rows(rs, regs, site, other, args)? {
            return Ok(out);
        }
        let off = self.materialize(rs, regs)?;
        let out = self.load_generic(&off, mb, other, site, args);
        self.recycle(off);
        out
    }

    /// The per-lane load: any offset block, any mask. Its lanes are
    /// staged once and read by [`Machine::load_values`].
    fn load_generic(
        &mut self,
        off: &Block,
        mb: Option<&Block>,
        other: f64,
        site: u32,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<Block, GpuError> {
        let lanes = match mb {
            Some(m) => Shape4::joint(off.shape(), m.shape()),
            None => off.shape4(),
        };
        let staged = self.with_lanes(site, off, mb, lanes, args, |machine, run, args| {
            machine.load_values(run, site, other, args, lanes)
        })?;
        if let Some(out) = staged {
            return Ok(out);
        }
        // An Analytic float load: 0.0 on the active lanes, `other` on the
        // rest — the mask is all it reads.
        let Some(m) = mb else {
            return Ok(self.filled(lanes, 0.0));
        };
        let mut buf = self.alloc();
        let out = buf.vec();
        out.clear();
        out.reserve(lanes.volume());
        m.broadcast_to(lanes.as_slice())
            .walk(|mk| out.push(if mk != 0.0 { 0.0 } else { other }));
        Ok(self.packed(lanes, buf))
    }

    /// A `Store` or `AtomicAdd` (the site knows which): as row runs when
    /// the site is separable and its data allow, per lane otherwise.
    fn exec_write(
        &mut self,
        regs: &[Option<Block>],
        offset: Reg,
        value: Reg,
        mask: Option<Reg>,
        site: u32,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        let val = Self::reg(regs, value)?;
        if self.replaying() {
            self.write_scripted(site, val, args);
            return Ok(());
        }
        let mb = match mask {
            Some(m) => Some(Self::reg(regs, m)?),
            None => None,
        };
        let Some(rs) = self.program.row_sites.site(site) else {
            let off = Self::reg(regs, offset)?;
            return self.write_generic(off, val, mb, site, args);
        };
        if self.write_rows(rs, regs, site, val, args)?.is_some() {
            return Ok(());
        }
        let off = self.materialize(rs, regs)?;
        let out = self.write_generic(&off, val, mb, site, args);
        self.recycle(off);
        out
    }

    /// The per-lane store or atomic add: any offset block, any value, any
    /// mask. Its lanes are staged once and written by
    /// [`Machine::write_values`].
    fn write_generic(
        &mut self,
        off: &Block,
        val: &Block,
        mb: Option<&Block>,
        site: u32,
        args: &mut ArgsView<'_, '_>,
    ) -> Result<(), GpuError> {
        let mut lanes = Shape4::joint(off.shape(), val.shape());
        if let Some(m) = mb {
            lanes = Shape4::joint(lanes.as_slice(), m.shape());
        }
        self.with_lanes(site, off, mb, lanes, args, |machine, run, args| {
            machine.write_values(run, site, val, args, lanes);
        })?;
        Ok(())
    }

    /// `buf` as a block of shape `shape`; a scalar hands its buffer back.
    fn packed(&mut self, shape: Shape4, mut buf: PoolBuf) -> Block {
        if shape.as_slice().is_empty() {
            let value = buf.vec()[0];
            self.pool.push(buf);
            return Block::scalar(value);
        }
        Block::from_packed(shape, buf)
    }

    /// A block of shape `shape` filled with `value` (a scalar takes no
    /// buffer).
    fn filled(&mut self, shape: Shape4, value: f64) -> Block {
        if shape.as_slice().is_empty() {
            return Block::scalar(value);
        }
        let buf = self.alloc();
        Block::full_packed(shape, value, buf)
    }

    /// Return a temporary's buffer to the pool if nothing shares it.
    fn recycle(&mut self, block: Block) {
        if let Some(buf) = block.reclaim() {
            self.pool.push(buf);
        }
    }
}

/// The warp-coalescing scan over one access's lane stream: chunk lanes
/// into warps of 32, bounds-check active offsets, dedup each warp's
/// sector ids into L2 transactions, and feed the launch-wide DRAM
/// first-touch bitmap. Returns `(l2_sectors, first_oob_offset)`.
///
/// All per-warp state lives in locals so the loop stays in registers;
/// offsets are almost always ascending within a warp (tile base plus
/// `arange`), so sortedness is tracked while filling and only the rare
/// crooked warp pays for a sort.
/// True when the lane offsets are `chunk[0] + [0, 1, 2, ...]` — the tile
/// pattern `base + arange` that dominates compiled kernels. Offsets are
/// integers below 2^53, so the f64 comparison is exact.
#[inline]
fn consecutive(chunk: &[f64]) -> bool {
    // Branchless difference fold (no int-to-float conversions) so the
    // probe vectorizes.
    let mut ok = true;
    for t in 1..chunk.len() {
        ok &= chunk[t] - chunk[t - 1] == 1.0;
    }
    ok
}

/// Sector accounting for one consecutive full warp (`chunk[0] + arange`):
/// the touched sectors are exactly the arithmetic range [first, last].
/// Returns the L2 transaction count, or the first offending offset using
/// the same convention as the lane-order scan (the lowest out-of-range
/// value, since offsets ascend).
#[inline]
fn scan_consecutive(
    chunk: &[f64],
    base: u64,
    esize: u64,
    len: usize,
    seen: &mut SectorSet,
) -> Result<u64, i64> {
    let o0 = chunk[0] as i64;
    if o0 as u64 >= len as u64 {
        return Err(o0);
    }
    let o1 = o0 + chunk.len() as i64 - 1;
    if o1 as u64 >= len as u64 {
        // First offending lane is the first offset == len.
        return Err(len as i64);
    }
    let sec0 = (base + o0 as u64 * esize) / SECTOR;
    let sec1 = (base + o1 as u64 * esize) / SECTOR;
    for sec in sec0..=sec1 {
        seen.insert(sec);
    }
    Ok(sec1 - sec0 + 1)
}

fn warp_scan(
    offs: &[f64],
    mask: Option<&[f64]>,
    base: u64,
    esize: u64,
    len: usize,
    seen: &mut SectorSet,
) -> (u64, Option<i64>) {
    let mut l2 = 0u64;
    match mask {
        None => {
            for chunk in offs.chunks(WARP) {
                // Consecutive warps resolve arithmetically: the touched
                // sectors are exactly the range [first, last].
                if chunk.len() == WARP && consecutive(chunk) {
                    match scan_consecutive(chunk, base, esize, len, seen) {
                        Ok(uniq) => l2 += uniq,
                        Err(offset) => return (l2, Some(offset)),
                    }
                    continue;
                }
                let (uniq, oob) = scan_chunk(chunk, None, base, esize, len, seen);
                l2 += uniq;
                if oob.is_some() {
                    return (l2, oob);
                }
            }
        }
        Some(mask) => {
            for (chunk, mchunk) in offs.chunks(WARP).zip(mask.chunks(WARP)) {
                let (uniq, oob) = scan_chunk(chunk, Some(mchunk), base, esize, len, seen);
                l2 += uniq;
                if oob.is_some() {
                    return (l2, oob);
                }
            }
        }
    }
    (l2, None)
}

/// One warp's generic sector scan: dedup by adjacent transition while
/// filling (exact when the warp is sorted — the common case), recount
/// after a sort otherwise. `seen` inserts are idempotent, so inserting
/// before sortedness is known is harmless.
#[inline]
fn scan_chunk(
    chunk: &[f64],
    mask: Option<&[f64]>,
    base: u64,
    esize: u64,
    len: usize,
    seen: &mut SectorSet,
) -> (u64, Option<i64>) {
    let mut sectors = [0u64; WARP];
    let mut n = 0usize;
    let mut sorted = true;
    let mut prev = 0u64;
    let mut uniq = 0u64;
    let mut prev_ins = u64::MAX;
    for (t, &off) in chunk.iter().enumerate() {
        if let Some(m) = mask {
            if m[t] == 0.0 {
                continue;
            }
        }
        let off_i = off as i64;
        // Unsigned compare covers both negative and too-large.
        if off_i as u64 >= len as u64 {
            return (
                if sorted {
                    uniq
                } else {
                    recount(&mut sectors[..n])
                },
                Some(off_i),
            );
        }
        let sec = (base + off_i as u64 * esize) / SECTOR;
        sorted &= prev <= sec;
        prev = sec;
        if sec != prev_ins {
            uniq += 1;
            seen.insert(sec);
            prev_ins = sec;
        }
        sectors[n] = sec;
        n += 1;
    }
    if sorted {
        (uniq, None)
    } else {
        (recount(&mut sectors[..n]), None)
    }
}

/// Unique-count of an unsorted warp (sorts in place).
fn recount(sectors: &mut [u64]) -> u64 {
    sectors.sort_unstable();
    let mut uniq = 0u64;
    let mut prev = u64::MAX;
    for &sec in sectors.iter() {
        if sec != prev {
            uniq += 1;
            prev = sec;
        }
    }
    uniq
}

/// Grid coordinates of a flat instance id (x fastest, matching the seed
/// interpreter's `iz`/`iy`/`ix` loop nest).
#[inline]
fn pid_of(flat: usize, gdims: [usize; 3]) -> [usize; 3] {
    [
        flat % gdims[0],
        (flat / gdims[0]) % gdims[1],
        flat / (gdims[0] * gdims[1]),
    ]
}

/// Per-instance time on one SM (the seed cost model, verbatim).
fn instance_time(device: &DeviceModel, c: &InstCost) -> f64 {
    let mem = 32.0 * (c.l2_read_sectors + c.l2_write_sectors) as f64 / device.per_sm(device.l2_bw);
    let compute = c.flops_tc_f16 as f64 / device.per_sm(device.tc_f16_flops)
        + c.flops_tc_f32 as f64 / device.per_sm(device.tc_f32_flops)
        + c.flops_scalar as f64 / device.per_sm(device.alu_flops)
        + c.smem_bytes as f64 / device.per_sm(device.smem_bw);
    device.instr_issue * c.instructions as f64
        + device.dyn_loop_stall * c.dyn_iters as f64
        + mem.max(compute)
}

/// True when every parameter the kernel writes (Store/AtomicAdd) is never
/// loaded — the condition under which Execute-mode instances can run out
/// of order with their writes replayed later.
#[cfg(test)]
fn kernel_allows_parallel_execute(kernel: &Kernel) -> bool {
    insum_kernel::param_usage(kernel).no_read_write_params()
}

/// Launch a kernel on the simulated device with default scheduling.
///
/// `args` bind positionally to `kernel.params`. In [`Mode::Execute`] the
/// written parameters are mutated in place; in [`Mode::Analytic`] no
/// tensor is modified but all counters (and the returned timing) are
/// identical.
///
/// # Errors
///
/// * [`GpuError::Kernel`] if the kernel fails validation or breaks a
///   block-shape rule (see [`Program::compile`]).
/// * [`GpuError::ParamCountMismatch`] / [`GpuError::BadGrid`] on binding
///   errors.
/// * [`GpuError::OffsetOutOfBounds`] if any active lane addresses outside
///   its parameter (this catches codegen bugs; real GPUs would corrupt
///   memory). On error, output tensors are in an unspecified state.
pub fn launch(
    kernel: &Kernel,
    grid: &[usize],
    args: &mut [&mut Tensor],
    device: &DeviceModel,
    mode: Mode,
) -> Result<KernelReport, GpuError> {
    launch_with(kernel, grid, args, device, mode, &LaunchOptions::default())
}

/// [`launch`] with explicit instance-scheduling options.
///
/// Results — output tensors, [`KernelStats`], and timing — are
/// bit-identical for every thread configuration; see [`LaunchOptions`]
/// for how that is guaranteed.
///
/// Internally this compiles the kernel into a [`Program`] and launches
/// it; callers that re-launch the same kernel and shapes should compile
/// once with [`Program::compile`] (or use `insum_inductor`'s program
/// cache) and call [`Program::launch_with`] directly.
///
/// # Errors
///
/// Same conditions as [`launch`].
pub fn launch_with(
    kernel: &Kernel,
    grid: &[usize],
    args: &mut [&mut Tensor],
    device: &DeviceModel,
    mode: Mode,
    options: &LaunchOptions,
) -> Result<KernelReport, GpuError> {
    kernel.validate()?;
    if args.len() != kernel.params.len() {
        return Err(GpuError::ParamCountMismatch {
            expected: kernel.params.len(),
            actual: args.len(),
        });
    }
    let lens: Vec<usize> = args.iter().map(|t| t.len()).collect();
    let dtypes: Vec<DType> = args.iter().map(|t| t.dtype()).collect();
    let program = Program::compile(kernel, grid, &lens, &dtypes)?;
    program.launch_with(args, device, mode, options)
}

impl Program {
    /// Launch this compiled program with default scheduling. See
    /// [`launch`] for semantics; results are bit-identical to launching
    /// the original kernel.
    ///
    /// # Errors
    ///
    /// Same conditions as [`launch`] (validation and grid errors are
    /// caught at compile time instead), plus
    /// [`GpuError::ArgumentMismatch`] if an argument's length or dtype
    /// differs from the metadata the program was compiled with.
    pub fn launch(
        &self,
        args: &mut [&mut Tensor],
        device: &DeviceModel,
        mode: Mode,
    ) -> Result<KernelReport, GpuError> {
        self.launch_with(args, device, mode, &LaunchOptions::default())
    }

    /// [`Program::launch`] with explicit instance-scheduling options.
    ///
    /// # What a replayable program keeps of its arguments
    ///
    /// Nothing that owns them. A program whose
    /// [`Program::replay_decline`] is `None` remembers the I32 arguments
    /// of its last Execute launch, and of the launch whose address script
    /// is ready, by [`insum_tensor::WeakTensor`] witnesses (analysis 7 in
    /// the `program` module docs): the tensors are freed with the
    /// caller's last handle, and a sole owner's `data_mut` still writes
    /// without copying an element — it moves the buffer to a new
    /// allocation, which is what makes the edited tensor a new key. What
    /// a program does keep is the ready script itself
    /// ([`Program::script_bytes`]), until a different key repeats or the
    /// program is dropped (one in `insum_inductor`'s `ProgramCache`:
    /// evicted or cleared). Float arguments are never remembered.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::launch`].
    pub fn launch_with(
        &self,
        args: &mut [&mut Tensor],
        device: &DeviceModel,
        mode: Mode,
        options: &LaunchOptions,
    ) -> Result<KernelReport, GpuError> {
        // Profiling hook: one launch interval per top-level launch. Inert
        // — a single relaxed atomic load — unless a collector is
        // installed.
        let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
        let mut tally = Tally::default();
        let report = self.launch_tallied(args, device, mode, options, &mut tally);
        tally.publish();
        report
    }

    /// [`Program::launch_with`], adding what it dispatched to `tally`.
    fn launch_tallied(
        &self,
        args: &mut [&mut Tensor],
        device: &DeviceModel,
        mode: Mode,
        options: &LaunchOptions,
        tally: &mut Tally,
    ) -> Result<KernelReport, GpuError> {
        if args.len() != self.param_names.len() {
            return Err(GpuError::ParamCountMismatch {
                expected: self.param_names.len(),
                actual: args.len(),
            });
        }
        for (index, t) in args.iter().enumerate() {
            if t.len() != self.params.lens[index] || t.dtype() != self.params.dtypes[index] {
                return Err(GpuError::ArgumentMismatch { index });
            }
        }
        let (gdims, instances) = (self.gdims, self.instances);
        let dedup =
            mode == Mode::Analytic && options.analytic_dedup && self.dedup_ok && gdims[0] > 1;

        // The per-launch half of exact-product dot eligibility, decided
        // once here and shared by every shard (Analytic launches execute
        // no dot and never read it).
        let nonfinite = match mode {
            Mode::Execute => self.dot_sources.nonfinite_params(args),
            Mode::Analytic => 0,
        };

        // Inspect once, execute many (`program.rs`, analysis 7): a launch
        // whose I32 arguments and device equal a ready key runs only its
        // value slice against the recorded addresses — or nothing at all
        // in Analytic mode — and reports what the recording launch did.
        let slot = self.replay.as_ref().ok();
        let plan = slot.map_or(Plan::Full, |slot| {
            slot.plan(args, device, mode == Mode::Execute)
        });
        let (recording, replay) = match (&plan, slot) {
            (Plan::Record(_), Some(slot)) => (Some(slot.levels), None),
            (Plan::Replay(script), _) => (None, Some(&**script)),
            _ => (None, None),
        };
        match plan {
            Plan::Full => tally.full += 1,
            Plan::Record(_) => tally.recorded += 1,
            Plan::Replay(_) => tally.replayed += 1,
        }
        if let (Some(script), Mode::Analytic) = (replay, mode) {
            return Ok(script.report.clone());
        }

        // The instance ranges: one (run inline with direct writes), or —
        // a sharded launch — contiguous ones on scoped threads that log
        // their writes. A recording is one machine's, so it never shards.
        let threads = options.resolve_threads().min(instances);
        let sharded = threads > 1
            && instances >= options.min_parallel_instances.max(2)
            && (mode == Mode::Analytic || self.parallel_execute_ok)
            && recording.is_none();
        let chunk = instances.div_ceil(if sharded { threads } else { 1 });
        let shared: Vec<&Tensor>;
        let units: Vec<((usize, usize), ArgsView<'_, '_>)> = if sharded {
            shared = args.iter().map(|t| &**t).collect();
            (0..instances)
                .step_by(chunk)
                .map(|lo| ((lo, (lo + chunk).min(instances)), ArgsView::Shared(&shared)))
                .collect()
        } else {
            vec![((0, instances), ArgsView::Exclusive(&mut *args))]
        };
        let results = run_units(units, |(range, mut view)| {
            let recorder = recording.map(|levels| Recorder::new(levels, instances));
            let cursor = replay.map(Cursor::new);
            let mut machine = Machine::new(self, mode, nonfinite, recorder, cursor);
            machine.run_range(range, gdims, &mut view, device, dedup)?;
            Ok(machine.out)
        });

        // Fold the shards into the first. They cover ordered, disjoint
        // ranges, so the first error in instance order is the first
        // erroring shard's.
        let mut results = results.into_iter();
        let mut first = results.next().expect("a launch has instances")?;
        let rest = results.collect::<Result<Vec<Shard>, GpuError>>()?;
        for shard in &rest {
            first.absorb(shard);
        }
        tally.merge(&first.tally);
        let shards = || std::iter::once(&first).chain(&rest);

        // Replay Execute-mode writes in instance order: bit-identical
        // to the sequential interleaving because shards are ordered
        // and written parameters are never read back by the kernel.
        // Replay runs per written parameter — distinct parameters
        // never alias, so their relative write order is immaterial —
        // which binds each output's copy-on-write storage exactly
        // once instead of re-checking uniqueness on every write op.
        // The marking pass costs one sequential scan of the logs and
        // keeps materialization exact (only params with logged
        // writes are bound); kernels write one or two params, so the
        // per-param filtered replay stays within a small constant of
        // the old single interleaved pass. It stays scalar, unlike
        // the value bodies: the log's offsets are scattered, so
        // there is no row for a vector loop to run along.
        if shards().any(|s| !s.log.is_empty()) {
            let mut touched = vec![false; self.params.lens.len()];
            for shard in shards() {
                for w in &shard.log {
                    touched[w.param as usize] = true;
                }
            }
            for (p, _) in touched.iter().enumerate().filter(|&(_, &t)| t) {
                let round = self.params.dtypes[p] == DType::F16;
                let data = args[p].data_mut();
                for shard in shards() {
                    for w in shard.log.iter().filter(|w| w.param as usize == p) {
                        let slot = &mut data[w.off as usize];
                        let mut v = if w.atomic { *slot + w.val } else { w.val };
                        if round {
                            v = insum_tensor::f16_round(v);
                        }
                        *slot = v;
                    }
                }
            }
        }

        if let Some(script) = replay {
            return Ok(script.report.clone());
        }
        let Shard {
            mut stats,
            read,
            write,
            hits,
            times,
            recorder,
            ..
        } = first;
        stats.instances = instances as u64;
        stats.dram_read_sectors = read.count();
        stats.dram_write_sectors = write.count();
        let mut conflicts = 0u64;
        let mut max_chain = 0u64;
        for hits in &hits {
            for &c in hits.touched() {
                if c > 0 {
                    conflicts += c - 1;
                    max_chain = max_chain.max(c - 1);
                }
            }
        }
        stats.atomic_conflicts = conflicts;

        // Atomics to distinct addresses pipeline across the L2 slices
        // (throughput term); only the longest same-address chain
        // serializes (latency term).
        let dram_time = stats.dram_bytes() as f64 / device.dram_bw
            + stats.atomics as f64 / device.atomic_rate
            + max_chain as f64 * device.atomic_conflict_penalty;
        let (time, sm_time, dram_time) = combine_times(device, &times, dram_time);
        let max_instance_time = times.iter().copied().fold(0.0, f64::max);

        let report = KernelReport {
            name: self.name.clone(),
            grid: self.grid.clone(),
            stats,
            time,
            sm_time,
            dram_time,
            max_instance_time,
        };
        if let (Plan::Record(ticket), Some(slot), Some(recorder)) = (plan, slot, recorder) {
            if let Some(script) = recorder.finish(report.clone()) {
                slot.install(ticket, script);
            }
        }
        Ok(report)
    }

    /// Heap bytes of the address script this program currently holds
    /// (`None` when no launch has recorded one): a diagnostic for
    /// `simbench`'s `relaunch[]` table.
    pub fn script_bytes(&self) -> Option<usize> {
        self.replay.as_ref().ok()?.script_bytes()
    }

    /// Launch this program once per request of a batch, sharing one pool
    /// of host threads across the whole batch instead of scheduling each
    /// request separately.
    ///
    /// Each element of `batch` is one request's argument list (same
    /// layout as [`Program::launch_with`]); all requests must match the
    /// metadata this program was compiled with. The thread budget in
    /// `options` is split across the batch: requests are cut into
    /// contiguous chunks, one per worker, and handed to the runner a
    /// launch hands its instance ranges to (one chunk runs inline on the
    /// calling thread, several on scoped threads); any leftover budget
    /// shards the grid-instance loop *inside* each request exactly as
    /// [`Program::launch_with`] would. The workers' dispatch tallies come
    /// back with their reports and are added once, on the calling thread
    /// (see [`dot_dispatch_counts`]).
    ///
    /// Requests are independent — each owns its tensor handles — so
    /// request-level parallelism needs no write-log merge and is safe
    /// even for Execute-mode kernels whose cross-instance hazards force
    /// the intra-request loop sequential. Handles across requests may
    /// share copy-on-write storage (batched serving binds one buffer for
    /// operands shared by every request); a request's first write
    /// materializes its own private output, so workers never race. Every
    /// request's output tensors and [`KernelReport`] are bit-identical to
    /// a serial per-request [`Program::launch_with`] call, regardless of
    /// batch composition or thread count.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Program::launch_with`]; if several requests
    /// fail, the error of the smallest request index is returned (and the
    /// whole batch's outputs are in an unspecified state).
    pub fn launch_batch_with(
        &self,
        batch: &mut [&mut [&mut Tensor]],
        device: &DeviceModel,
        mode: Mode,
        options: &LaunchOptions,
    ) -> Result<Vec<KernelReport>, GpuError> {
        // One launch interval covers the whole batched launch.
        let _launch_span = insum_telemetry::hook::timed(insum_telemetry::HookPhase::Launch);
        let n = batch.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        // Contiguous request chunks, one worker each; the remaining
        // thread budget is spread over the workers (first `rem` workers
        // get one extra) and shards the grid-instance loop *inside*
        // their requests, so the whole budget is used. The split only
        // affects scheduling — per-request results are bit-identical at
        // every configuration.
        let total = options.resolve_threads();
        let chunk = n.div_ceil(total.min(n));
        let workers = n.div_ceil(chunk);
        let (base, rem) = (total / workers, total % workers);
        let units: Vec<_> = batch.chunks_mut(chunk).enumerate().collect();
        let results = run_units(units, |(ci, requests)| {
            let inner = LaunchOptions {
                threads: Some((base + usize::from(ci < rem)).max(1)),
                ..options.clone()
            };
            let mut tally = Tally::default();
            let reports = requests
                .iter_mut()
                .map(|args| self.launch_tallied(args, device, mode, &inner, &mut tally))
                .collect::<Result<Vec<_>, _>>();
            (reports, tally)
        });
        let mut tally = Tally::default();
        for (_, worker) in &results {
            tally.merge(worker);
        }
        tally.publish();
        // Each worker stops at its first failure and the chunks are in
        // request order, so the first error met is the lowest index's.
        let mut out = Vec::with_capacity(n);
        for (reports, _) in results {
            out.extend(reports?);
        }
        Ok(out)
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::launch_reference;
    use insum_kernel::{BinOp, KernelBuilder};

    fn device() -> DeviceModel {
        DeviceModel::rtx3090()
    }

    /// y[i] = 2 * x[i] over a 64-element vector, 32 lanes per program.
    fn axpy_kernel() -> Kernel {
        let mut b = KernelBuilder::new("axpy");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let lanes = b.arange(32);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        let v = b.load(x, offs, None, 0.0);
        let two = b.constant(2.0);
        let v2 = b.binary(BinOp::Mul, v, two);
        b.store(y, offs, v2, None);
        b.build()
    }

    #[test]
    fn execute_computes_values() {
        let mut x = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y = Tensor::zeros(vec![64]);
        let report = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(y.at(&[10]), 20.0);
        assert_eq!(y.at(&[63]), 126.0);
        assert_eq!(report.stats.instances, 2);
        assert!(report.time > 0.0);
    }

    #[test]
    fn analytic_counts_match_execute_but_skips_writes() {
        let mut x = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y1 = Tensor::zeros(vec![64]);
        let mut y2 = Tensor::zeros(vec![64]);
        let r1 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y1],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        let r2 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y2],
            &device(),
            Mode::Analytic,
        )
        .unwrap();
        assert_eq!(r1.stats, r2.stats);
        assert_eq!(r1.time, r2.time);
        assert!(
            y2.data().iter().all(|&v| v == 0.0),
            "analytic mode must not write"
        );
    }

    #[test]
    fn coalesced_load_sector_count() {
        // 64 contiguous f32 = 256 bytes = 8 sectors read; same written.
        let mut x = Tensor::zeros(vec![64]);
        let mut y = Tensor::zeros(vec![64]);
        let r = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x, &mut y],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 8);
        assert_eq!(r.stats.dram_read_sectors, 8);
        assert_eq!(r.stats.l2_write_sectors, 8);
    }

    #[test]
    fn strided_access_costs_more_sectors() {
        // Gather x[8*i] for 32 lanes: each lane lands in its own sector.
        let mut b = KernelBuilder::new("strided");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let stride = b.constant(8.0);
        let offs = b.binary(BinOp::Mul, lanes, stride);
        let v = b.load(x, offs, None, 0.0);
        b.store(y, lanes, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![256]);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 32, "one sector per strided lane");
    }

    #[test]
    fn repeated_loads_hit_l2_not_dram() {
        // Two programs load the same 32 elements.
        let mut b = KernelBuilder::new("reuse");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let lanes = b.arange(32);
        let v = b.load(x, lanes, None, 0.0);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        b.store(y, offs, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![32]);
        let mut y_t = Tensor::zeros(vec![64]);
        let r = launch(
            &k,
            &[2],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 8, "both programs read 4 sectors");
        assert_eq!(r.stats.dram_read_sectors, 4, "DRAM sees the data once");
    }

    #[test]
    fn masked_lanes_generate_no_traffic() {
        let mut b = KernelBuilder::new("masked");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let bound = b.constant(8.0);
        let mask = b.binary(BinOp::Lt, lanes, bound);
        let v = b.load(x, lanes, Some(mask), 0.0);
        b.store(y, lanes, v, Some(mask));
        let k = b.build();
        let mut x_t = Tensor::from_fn(vec![32], |i| i[0] as f32);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.l2_read_sectors, 1, "8 f32 = 1 sector");
        assert_eq!(y_t.at(&[7]), 7.0);
        assert_eq!(y_t.at(&[8]), 0.0);
    }

    #[test]
    fn masked_out_of_bounds_is_safe() {
        // Lanes beyond the tensor are masked off; no error.
        let mut b = KernelBuilder::new("tailmask");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let bound = b.constant(10.0);
        let mask = b.binary(BinOp::Lt, lanes, bound);
        let v = b.load(x, lanes, Some(mask), 0.0);
        b.store(y, lanes, v, Some(mask));
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![10]);
        let mut y_t = Tensor::zeros(vec![10]);
        launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
    }

    #[test]
    fn unmasked_out_of_bounds_reported() {
        let mut b = KernelBuilder::new("oob");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let v = b.load(x, lanes, None, 0.0);
        b.store(y, lanes, v, None);
        let k = b.build();
        let mut x_t = Tensor::zeros(vec![10]);
        let mut y_t = Tensor::zeros(vec![32]);
        assert!(matches!(
            launch(
                &k,
                &[1],
                &mut [&mut x_t, &mut y_t],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::OffsetOutOfBounds { .. })
        ));
    }

    #[test]
    fn atomic_conflicts_are_counted() {
        // All 32 lanes atomically add 1.0 to Y[0].
        let mut b = KernelBuilder::new("conflict");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let zero = b.constant(0.0);
        let offs = b.binary(BinOp::Mul, lanes, zero);
        let one = b.constant(1.0);
        let ones = b.binary(BinOp::Add, offs, one); // block of 1.0
        b.atomic_add(y, offs, ones, None);
        let k = b.build();
        let mut y_t = Tensor::zeros(vec![4]);
        let r = launch(&k, &[1], &mut [&mut y_t], &device(), Mode::Execute).unwrap();
        assert_eq!(y_t.at(&[0]), 32.0);
        assert_eq!(r.stats.atomics, 32);
        assert_eq!(r.stats.atomic_conflicts, 31);
    }

    #[test]
    fn atomics_to_distinct_addresses_do_not_conflict() {
        let mut b = KernelBuilder::new("noconflict");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let one = b.constant(1.0);
        let zero = b.constant(0.0);
        let vals = b.binary(BinOp::Mul, lanes, zero);
        let vals1 = b.binary(BinOp::Add, vals, one);
        b.atomic_add(y, lanes, vals1, None);
        let k = b.build();
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(&k, &[1], &mut [&mut y_t], &device(), Mode::Execute).unwrap();
        assert_eq!(r.stats.atomic_conflicts, 0);
        assert!(y_t.data().iter().all(|&v| v == 1.0));
    }

    #[test]
    fn dot_counts_tensor_core_flops_by_dtype() {
        let mut b = KernelBuilder::new("dot");
        let a = b.input("A");
        let bb = b.input("B");
        let c = b.output("C");
        let offs_a = b.arange(16 * 8);
        let a2 = b.load(a, offs_a, None, 0.0);
        let a2v = b.view(a2, vec![16, 8]);
        let offs_b = b.arange(8 * 16);
        let b2 = b.load(bb, offs_b, None, 0.0);
        let b2v = b.view(b2, vec![8, 16]);
        let d = b.dot(a2v, b2v);
        let offs_c = b.arange(16 * 16);
        let dflat = b.view(d, vec![256]);
        b.store(c, offs_c, dflat, None);
        let k = b.build();

        let mut a_t = Tensor::ones(vec![16, 8]);
        let mut b_t = Tensor::ones(vec![8, 16]);
        let mut c_t = Tensor::zeros(vec![16, 16]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut a_t, &mut b_t, &mut c_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.flops_tc_f32, 2 * 16 * 8 * 16);
        assert_eq!(r.stats.flops_tc_f16, 0);
        assert_eq!(c_t.at(&[0, 0]), 8.0);

        // Same kernel with f16 inputs charges the f16 pipe.
        let mut a_h = Tensor::ones(vec![16, 8]).cast(DType::F16);
        let mut b_h = Tensor::ones(vec![8, 16]).cast(DType::F16);
        let mut c_h = Tensor::zeros(vec![16, 16]).cast(DType::F16);
        let r2 = launch(
            &k,
            &[1],
            &mut [&mut a_h, &mut b_h, &mut c_h],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r2.stats.flops_tc_f16, 2 * 16 * 8 * 16);
        assert_eq!(r2.stats.flops_tc_f32, 0);
    }

    #[test]
    fn f16_tensors_move_fewer_bytes() {
        let mut x32 = Tensor::zeros(vec![64]);
        let mut y32 = Tensor::zeros(vec![64]);
        let r32 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x32, &mut y32],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        let mut x16 = Tensor::zeros(vec![64]).cast(DType::F16);
        let mut y16 = Tensor::zeros(vec![64]).cast(DType::F16);
        let r16 = launch(
            &axpy_kernel(),
            &[2],
            &mut [&mut x16, &mut y16],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert!(r16.stats.dram_bytes() < r32.stats.dram_bytes());
    }

    #[test]
    fn loop_accumulates() {
        // y[0..32] = sum over 4 chunks of x.
        let mut b = KernelBuilder::new("loopsum");
        let x = b.input("X");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let acc = b.full(vec![32], 0.0);
        let i = b.begin_loop(0, 4, 1);
        let width = b.constant(32.0);
        let base = b.binary(BinOp::Mul, i, width);
        let offs = b.binary(BinOp::Add, base, lanes);
        let v = b.load(x, offs, None, 0.0);
        b.binary_into(acc, BinOp::Add, acc, v);
        b.end_loop();
        b.store(y, lanes, acc, None);
        let k = b.build();
        let mut x_t = Tensor::ones(vec![128]);
        let mut y_t = Tensor::zeros(vec![32]);
        launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert!(y_t.data().iter().all(|&v| v == 4.0));
    }

    #[test]
    fn param_count_mismatch_reported() {
        let mut x = Tensor::zeros(vec![64]);
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[1],
                &mut [&mut x],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::ParamCountMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn bad_grid_reported() {
        let mut x = Tensor::zeros(vec![64]);
        let mut y = Tensor::zeros(vec![64]);
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[],
                &mut [&mut x, &mut y],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::BadGrid(_))
        ));
        assert!(matches!(
            launch(
                &axpy_kernel(),
                &[0],
                &mut [&mut x, &mut y],
                &device(),
                Mode::Execute
            ),
            Err(GpuError::BadGrid(_))
        ));
    }

    #[test]
    fn smem_traffic_charged_for_view_and_trans() {
        let mut b = KernelBuilder::new("smem");
        let x = b.input("X");
        let y = b.output("Y");
        let offs = b.arange(64);
        let v = b.load(x, offs, None, 0.0);
        let v2 = b.view(v, vec![8, 8]);
        let v3 = b.trans(v2);
        let v4 = b.view(v3, vec![64]);
        b.store(y, offs, v4, None);
        let k = b.build();
        let mut x_t = Tensor::from_fn(vec![64], |i| i[0] as f32);
        let mut y_t = Tensor::zeros(vec![64]);
        let r = launch(
            &k,
            &[1],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        assert_eq!(r.stats.smem_bytes, 3 * 64 * 4);
        // Transposed copy really happened.
        assert_eq!(y_t.at(&[1]), 8.0);
    }

    #[test]
    fn straggler_dominates_kernel_time() {
        // Program 0 loops 256 times, programs 1..64 do nothing much.
        let mut b = KernelBuilder::new("skew");
        let x = b.input("X");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let zero = b.constant(0.0);
        let is_zero = b.binary(BinOp::Eq, pid, zero);
        let iters = b.constant(256.0);
        let my_iters = b.binary(BinOp::Mul, is_zero, iters);
        let lanes = b.arange(32);
        let acc = b.full(vec![32], 0.0);
        let i = b.begin_loop(0, 256, 1);
        let live = b.binary(BinOp::Lt, i, my_iters);
        let v = b.load(x, lanes, Some(live), 0.0);
        b.binary_into(acc, BinOp::Add, acc, v);
        b.end_loop();
        b.store(y, lanes, acc, None);
        let k = b.build();
        let mut x_t = Tensor::ones(vec![32]);
        let mut y_t = Tensor::zeros(vec![32]);
        let r = launch(
            &k,
            &[64],
            &mut [&mut x_t, &mut y_t],
            &device(),
            Mode::Execute,
        )
        .unwrap();
        // The longest instance is far above the mean.
        assert!(r.max_instance_time > 10.0 * r.sm_time / 64.0);
        assert!(r.sm_time >= r.max_instance_time);
    }

    /// A gather/scale/scatter kernel with a masked tail — exercises loads,
    /// masks, atomics, and integer metadata in one program.
    fn scatter_kernel(n: usize) -> Kernel {
        let mut b = KernelBuilder::new("scatter");
        let x = b.input("X");
        let idx = b.input("IDX");
        let y = b.output("Y");
        let pid = b.program_id(0);
        let w = b.constant(32.0);
        let base = b.binary(BinOp::Mul, pid, w);
        let lanes = b.arange(32);
        let flat = b.binary(BinOp::Add, base, lanes);
        let n_c = b.constant(n as f64);
        let mask = b.binary(BinOp::Lt, flat, n_c);
        let v = b.load(x, flat, Some(mask), 0.0);
        let s = b.constant(1.5);
        let sv = b.binary(BinOp::Mul, v, s);
        let j = b.load(idx, flat, Some(mask), 0.0);
        b.atomic_add(y, j, sv, Some(mask));
        b.build()
    }

    #[test]
    fn matches_reference_interpreter_bit_for_bit() {
        let n = 300;
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = || {
            (
                Tensor::from_fn(vec![n], |i| (i[0] % 13) as f32 - 6.0),
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| i % 17).collect()).unwrap(),
                Tensor::zeros(vec![17]),
            )
        };
        for mode in [Mode::Execute, Mode::Analytic] {
            let (mut x1, mut i1, mut y1) = mk();
            let (mut x2, mut i2, mut y2) = mk();
            let r_new = launch(
                &kernel,
                &grid,
                &mut [&mut x1, &mut i1, &mut y1],
                &device(),
                mode,
            )
            .unwrap();
            let r_ref = launch_reference(
                &kernel,
                &grid,
                &mut [&mut x2, &mut i2, &mut y2],
                &device(),
                mode,
            )
            .unwrap();
            assert_eq!(r_new.stats, r_ref.stats, "{mode:?} stats diverge from seed");
            assert_eq!(r_new.time, r_ref.time, "{mode:?} time diverges from seed");
            assert_eq!(y1.data(), y2.data(), "{mode:?} outputs diverge from seed");
        }
    }

    #[test]
    fn forced_parallel_matches_sequential_bit_for_bit() {
        let n = 4096; // 128 instances
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = || {
            (
                Tensor::from_fn(vec![n], |i| (i[0] % 29) as f32 * 0.25 - 3.0),
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| (i * 7) % 33).collect())
                    .unwrap(),
                Tensor::zeros(vec![33]),
            )
        };
        for mode in [Mode::Execute, Mode::Analytic] {
            let (mut x1, mut i1, mut y1) = mk();
            let (mut x2, mut i2, mut y2) = mk();
            let seq = launch_with(
                &kernel,
                &grid,
                &mut [&mut x1, &mut i1, &mut y1],
                &device(),
                mode,
                &LaunchOptions::sequential(),
            )
            .unwrap();
            let mut par_opts = LaunchOptions::with_threads(5);
            par_opts.min_parallel_instances = 2;
            let par = launch_with(
                &kernel,
                &grid,
                &mut [&mut x2, &mut i2, &mut y2],
                &device(),
                mode,
                &par_opts,
            )
            .unwrap();
            assert_eq!(
                seq.stats, par.stats,
                "{mode:?} stats diverge under sharding"
            );
            assert_eq!(seq.time, par.time, "{mode:?} time diverges under sharding");
            assert_eq!(
                y1.data(),
                y2.data(),
                "{mode:?} outputs diverge under sharding"
            );
        }
    }

    #[test]
    fn batched_launch_matches_serial_per_request_bit_for_bit() {
        let n = 2048; // 64 instances per request
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let mk = |seed: usize| {
            (
                Tensor::from_fn(vec![n], |i| ((i[0] + 3 * seed) % 23) as f32 * 0.5 - 4.0),
                Tensor::from_indices(
                    vec![n],
                    (0..n as i64).map(|i| (i * 5 + seed as i64) % 29).collect(),
                )
                .unwrap(),
                Tensor::zeros(vec![29]),
            )
        };
        let lens = [n, n, 29];
        let dtypes = [DType::F32, DType::I32, DType::F32];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let nreq = 7;
        for mode in [Mode::Execute, Mode::Analytic] {
            // Serial reference: one request at a time, sequential.
            let mut serial: Vec<(Tensor, Tensor, Tensor)> = (0..nreq).map(mk).collect();
            let serial_reports: Vec<KernelReport> = serial
                .iter_mut()
                .map(|(x, i, y)| {
                    program
                        .launch_with(
                            &mut [x, i, y],
                            &device(),
                            mode,
                            &LaunchOptions::sequential(),
                        )
                        .unwrap()
                })
                .collect();
            // Batched, at several thread budgets (1 = one inline worker,
            // 3 = requests split unevenly, 16 = leftover budget shards
            // inside each request).
            for threads in [1usize, 3, 16] {
                let mut tensors: Vec<(Tensor, Tensor, Tensor)> = (0..nreq).map(mk).collect();
                let mut views: Vec<[&mut Tensor; 3]> = tensors
                    .iter_mut()
                    .map(|(x, i, y)| [&mut *x, &mut *i, &mut *y])
                    .collect();
                let mut reqs: Vec<&mut [&mut Tensor]> =
                    views.iter_mut().map(|v| v.as_mut_slice()).collect();
                let mut opts = LaunchOptions::with_threads(threads);
                opts.min_parallel_instances = 2;
                let reports = program
                    .launch_batch_with(&mut reqs, &device(), mode, &opts)
                    .unwrap();
                assert_eq!(reports, serial_reports, "{mode:?} @{threads} threads");
                for (got, want) in tensors.iter().zip(&serial) {
                    assert_eq!(got.2.data(), want.2.data(), "{mode:?} @{threads} threads");
                }
            }
        }
    }

    #[test]
    fn batched_launch_reports_first_erroring_request() {
        // Request 1 scatters out of bounds; the batch must surface its
        // error even when later requests are fine.
        let n = 64;
        let kernel = scatter_kernel(n);
        let grid = [n.div_ceil(32)];
        let lens = [n, n, 17];
        let dtypes = [DType::F32, DType::I32, DType::F32];
        let program = Program::compile(&kernel, &grid, &lens, &dtypes).unwrap();
        let mk = |bad: bool| {
            let idx = if bad {
                Tensor::from_indices(vec![n], (0..n as i64).map(|_| 99).collect()).unwrap()
            } else {
                Tensor::from_indices(vec![n], (0..n as i64).map(|i| i % 17).collect()).unwrap()
            };
            (Tensor::ones(vec![n]), idx, Tensor::zeros(vec![17]))
        };
        let mut tensors = [mk(false), mk(true), mk(false)];
        let mut views: Vec<[&mut Tensor; 3]> = tensors
            .iter_mut()
            .map(|(x, i, y)| [&mut *x, &mut *i, &mut *y])
            .collect();
        let mut reqs: Vec<&mut [&mut Tensor]> =
            views.iter_mut().map(|v| v.as_mut_slice()).collect();
        let err = program
            .launch_batch_with(
                &mut reqs,
                &device(),
                Mode::Execute,
                &LaunchOptions::with_threads(3),
            )
            .unwrap_err();
        assert!(matches!(err, GpuError::OffsetOutOfBounds { .. }));
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let kernel = axpy_kernel();
        let program =
            Program::compile(&kernel, &[2], &[64, 64], &[DType::F32, DType::F32]).unwrap();
        let mut reqs: Vec<&mut [&mut Tensor]> = Vec::new();
        let reports = program
            .launch_batch_with(
                &mut reqs,
                &device(),
                Mode::Execute,
                &LaunchOptions::default(),
            )
            .unwrap();
        assert!(reports.is_empty());
    }

    #[test]
    fn mismatched_arguments_are_a_typed_error_not_a_panic() {
        let program =
            Program::compile(&axpy_kernel(), &[2], &[64, 64], &[DType::F32, DType::F32]).unwrap();
        let good = || Tensor::zeros(vec![64]);
        // A wrong length in argument 0, a wrong dtype in argument 1.
        let cases = [
            (Tensor::zeros(vec![32]), good(), 0),
            (good(), good().cast(DType::F16), 1),
        ];
        for (mut x, mut y, index) in cases {
            let want = Err(GpuError::ArgumentMismatch { index });
            let opts = LaunchOptions::with_threads(2);
            let got = program.launch_with(&mut [&mut x, &mut y], &device(), Mode::Execute, &opts);
            assert_eq!(got.map(|_| ()), want);
            // The batch entry, behind a well-formed request, with one
            // inline worker and with a worker per chunk.
            for threads in [1, 2] {
                let (mut x0, mut y0) = (good(), good());
                let (mut r0, mut r1) = ([&mut x0, &mut y0], [&mut x, &mut y]);
                let mut reqs: Vec<&mut [&mut Tensor]> = vec![&mut r0, &mut r1];
                let opts = LaunchOptions::with_threads(threads);
                let got = program.launch_batch_with(&mut reqs, &device(), Mode::Execute, &opts);
                assert_eq!(got.map(|_| ()), want);
            }
        }
    }

    #[test]
    fn execute_parallel_gated_on_read_write_params() {
        // A kernel that reads its own output must run sequentially; one
        // with a write-only output may parallelize.
        let mut b = KernelBuilder::new("rmw");
        let y = b.output("Y");
        let lanes = b.arange(32);
        let v = b.load(y, lanes, None, 0.0);
        let one = b.constant(1.0);
        let v1 = b.binary(BinOp::Add, v, one);
        b.store(y, lanes, v1, None);
        let rmw = b.build();
        assert!(!kernel_allows_parallel_execute(&rmw));
        assert!(kernel_allows_parallel_execute(&axpy_kernel()));

        // The gate is behavioral, not just advisory: a read-modify-write
        // kernel still produces sequential results at high thread counts.
        let mut y_t = Tensor::zeros(vec![32]);
        let mut opts = LaunchOptions::with_threads(8);
        opts.min_parallel_instances = 2;
        launch_with(&rmw, &[4], &mut [&mut y_t], &device(), Mode::Execute, &opts).unwrap();
        assert!(
            y_t.data().iter().all(|&v| v == 4.0),
            "each instance increments by 1"
        );
    }
}
