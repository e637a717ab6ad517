//! Ahead-of-time program compilation: lower a [`Kernel`] once per launch
//! shape into a [`Program`] that thousands of grid instances execute.
//!
//! The seed interpreter re-walked the kernel IR tree for every grid
//! instance, re-materializing `arange`/constant blocks and re-deriving
//! every schedule-invariant offset each time. Compilation hoists that
//! work, guided by the analyses the items below describe.
//!
//! Seven of them are dataflow problems over the kernel's registers, and
//! all seven run on one driver, `Dataflow::solve`. The kernel is walked
//! once into its instructions in pre-order, each with its register edges
//! ([`Instr::dst`], [`Instr::operands`]); from every register at the
//! lattice's bottom, the driver applies the analysis's transfer function
//! to each of them until a whole pass changes nothing, and answers the
//! lattice's top should it not converge within its cap. The two
//! analyses that are not fixpoints — liveness (item 2) and separable
//! sites (item 6) — are computed by lowering, the walk that turns the
//! kernel into units, from the same edges.
//!
//! | analysis (module, item) | lattice per register: bottom; join | transfer of one instruction | consumer |
//! | --- | --- | --- | --- |
//! | levels (`levels`, 1) | 0 ≤ 1 ≤ 2: 0; max | its destination takes the max of its operands' levels and its own (`program_id` of a grid axis, a load of a written parameter) | unit modes, node cache levels, per-instance registers |
//! | affine values (`affine`, 4) | unset ≤ constant ≤ invariant ≤ bad, affine ≤ bad: unset; widen | its destination's value along grid axis 0 under analytic semantics | site coefficients, `dedup_ok` |
//! | dot sources (`dot_sources`, 5) | parameter bits and `INEXACT`: none; or | a constant or load names its source, a rearrangement passes its operand's mask on, anything else is `INEXACT` | exact-product `tl.dot` eligibility |
//! | shapes (`shapes`) | unset ≤ one shape ≤ unknown: unset; equal or unknown | its shape rule; a rule that fails on converged known operand shapes is a [`GpuError::Kernel`] | separable sites, value-site lanes |
//! | taint (`value_slice`, 7) | false ≤ true: false; or | a load of a float or written parameter, or a tainted value operand, taints its destination | [`ReplayDecline::FloatAddress`] |
//! | needed (`value_slice`, 7) | false ≤ true: false; or | a store, or a writer of a needed register, needs its value operands (backward; cut at index operands) | value flags of units, nodes and sites |
//! | index (`value_slice`, 7) | false ≤ true: false; or | an index operand, or any operand of a writer of an index register, is index (backward) | what the machine computes or skips |
//!
//! 1. **pid-dependence levels** — every register is classified by the
//!    grid axes its value (transitively) depends on: level 0 values are
//!    *grid-invariant* (computed once per launch/shard and shared
//!    read-only by every instance), level 1 values are invariant along
//!    grid axis 0 (computed once per *row* of instances — axis 0
//!    iterates fastest), and level 2 values are re-computed per
//!    instance. The grid is known: `program_id` of an extent-1 axis is
//!    the constant 0 (level 0 — the column tile of the `[1, n]` grids of
//!    COO, conv and the tensor product), and when axis 0 has extent 1
//!    there is no per-row tier at all. Invariant instructions trapped
//!    inside per-instance loops are cached as *occurrence streams*: the
//!    row representative records one value per dynamic execution, later
//!    instances replay the stream. Costs are still charged to every instance (they are
//!    deterministic), so [`crate::KernelStats`] and timing stay
//!    bit-identical to the reference interpreter.
//! 2. **last-use liveness** — per-unit release lists return dead
//!    register buffers to the allocation pool immediately instead of
//!    waiting for the end-of-instance sweep, and the sweep itself only
//!    touches the per-instance registers.
//! 3. *(retired)* **superinstructions** — fused adjacent `Binary` pairs;
//!    retired on a perfbench measurement (EXPERIMENTS.md).
//! 4. **address-stream classification** — every memory-access site's
//!    offset stream is classified as grid-invariant, affine in the
//!    axis-0 coordinate (`offsets = base + pid0 · c` with a compile-time
//!    integer constant `c` whose byte stride is sector-aligned), or
//!    opaque. When every site is invariant/affine (and masks, loop trip
//!    counts, and metadata loads are axis-0-invariant), all instances of
//!    a row form one *instance class*: [`Mode::Analytic`](crate::Mode)
//!    launches execute the row representative once and replay the
//!    remaining members by shifting the recorded sector runs and atomic
//!    address streams — O(classes) interpretation instead of
//!    O(instances), with identical stats, DRAM first-touch sets, atomic
//!    collision counts, and per-instance times.
//!
//! Two analyses of the kernel alone (not the launch shape) ride along:
//!
//! 5. **dot-operand provenance** ([`DotSources`]) records, per register,
//!    which read-only parameters its value is a pure rearrangement of —
//!    the static half of deciding, in O(1) per `tl.dot`, whether the
//!    exact-product FMA kernel may serve it (see `exact_dot.rs`).
//! 6. **separable access sites** ([`RowSites`]) — every 2-D access the
//!    code generator emits addresses
//!    `expand_dims(rows, 1) + expand_dims(cols, 0)` (the paper's Fig. 9):
//!    a gathered or scattered *row base* per lane of one role plus a
//!    *contiguous column run* of the other. Such a site executes as `n`
//!    row runs of `m` elements instead of as `n · m` lanes: the cost pass
//!    takes each warp's L2 transactions from the union of the sector
//!    ranges of the row pieces it covers, the value pass is one slice
//!    copy / write / add per row, and the `Binary::Add`s that only formed
//!    the offset block compute nothing.
//!
//!    *Recognised form.* A `Load` / `Store` / `AtomicAdd` whose offset
//!    register is the root of a tree of single-writer `Binary::Add`s in
//!    the access's own body, each read by nothing but its parent (the
//!    root: by the access alone). The tree's leaves are whatever else
//!    the adds read; by their static shapes (every block shape is a
//!    function of the kernel text — `shapes`) the root is `[n, m]`
//!    and each leaf varies along at most one of the two axes: a *row
//!    term* `[n, 1]`, a *column term* `[1, m]` or `[m]`, or a scalar. So
//!    `off[i, j] = R[i] + C[j]` with `R` the sum of the row and scalar
//!    terms and `C` the sum of the column terms. The mask is absent, a
//!    row mask `[n, 1]` or a column mask `[1, m]`; a stored or added
//!    value broadcasts into `[n, m]`. Between the add that reads a leaf
//!    and the access nothing writes that leaf, because the site reads it
//!    when it executes (liveness counts that read at the access).
//!
//!    *Integrality.* Folding `(R₁[i] + C₁[j]) + C₂[j]` into
//!    `R₁[i] + (C₁ + C₂)[j]` reassociates f64 adds. Each execution
//!    therefore checks, in O(n + m), that every leaf element is an
//!    integer below 2^48 in magnitude: with at most
//!    [`MAX_TREE_LEAVES`] leaves every partial sum stays below 2^52, so
//!    the adds are exact in every association. (Integer-valuedness could
//!    be had statically from `AV::integral()`, magnitude cannot, and the
//!    check costs a few dozen nanoseconds.) It also checks that `C` is
//!    `c₀ + arange` and that a column mask is a prefix, so each active
//!    row is the element range `[R[i] + c₀, R[i] + c₀ + cols)`.
//!
//!    *What declines.* Statically: offsets of rank other than 2
//!    (the rank-3 scalar lowering of `tensor_cores: false`), leaves that
//!    vary along both axes (eager broadcasting puts a `Broadcast` between
//!    the `ExpandDims` and the add), a 2-D mask (the `And` of a row and a
//!    column mask), an offset register with a second reader, adds outside
//!    the access's body, unknown shapes. At run time: a non-integral or
//!    huge term, a gathered column index (`A[y, E[r]]`), a non-prefix
//!    column mask — the site then materialises the offset block with the
//!    kernel's own association and takes the per-lane path, which remains
//!    the single definition of per-lane *addressing and coalescing*: its
//!    cost pass walks the lanes (warps, sectors, bounds, truncation of a
//!    non-integral offset), then stages the active lanes once as one row
//!    (a prefix of consecutive elements) or one row per lane. The run then
//!    feeds what a row run feeds — the instance-class trace, the script
//!    recorder, the atomic hit counts, and the value tape's bodies: an
//!    access site is an address stage followed by a shared value body.
//!
//!    *Why no counter can move.* An elided add stays where it stood — same
//!    unit, same stream-cache occurrence — and charges what it charged:
//!    one instruction and its static lane count of scalar flops. The
//!    site's L2 transactions are the distinct sectors per warp of the
//!    same lanes in the same row-major order, its DRAM first-touch marks
//!    the same sectors, its atomic hit counts the same addresses, and the
//!    first out-of-bounds lane in lane order is reported with the same
//!    offset. Rows are visited in order and a row's addresses are
//!    distinct, so same-address atomic chains add in the per-lane order:
//!    output bits are unchanged too.
//!
//! And one analysis splits the kernel in two, so that what a launch works
//! out about the sparse *structure* is worked out once:
//!
//! 7. **value slice and address scripts** (`value_slice.rs`,
//!    `script.rs`) — an indirect Einsum keeps everything the format
//!    knows in I32 metadata that is built once per sparse matrix and
//!    launched against many dense operands, yet every address, mask,
//!    coalescing scan and collision count of a launch is a function of
//!    `(Program, I32 arguments, DeviceModel)` alone. The analysis finds
//!    the part that is not.
//!
//!    *Slice rule.* The **value slice** is the backward slice from the
//!    value operand of every `Store` / `AtomicAdd` through operand edges,
//!    *cut at access sites*: a load in the slice is a leaf, its offset
//!    and mask registers are not followed. Registers are not SSA, so the
//!    slice is kept per register — every writer of a needed register is
//!    in it, as is every loop around one — and it is closed under
//!    operands by construction: nothing in it reads a register written
//!    only outside it. [`CUnit::value`], [`CNode::value`] and
//!    [`SiteInfo::value`] carry the split. The **index slice** is the
//!    backward slice from every offset, mask and dynamic loop bound:
//!    program ids, `arange`, metadata loads and arithmetic, the offset
//!    trees. A register can be in both.
//!
//!    *One value path.* Every Execute launch splits the work between the
//!    two: the machine evaluates the index slice and runs the cost pass
//!    on every access, charging each instruction only the value slice
//!    needs from its static shapes ([`CUnit::skip`], [`CNode::skip`]) —
//!    no counter depends on a value — and writes each value-site run and
//!    each value-slice `LoopDyn` trip count into an **address script**
//!    (`script.rs`); after every chunk of instances the program's **value
//!    tape** (`interp/tape.rs`: straight-line tile ops, lowered on the
//!    first Execute launch) runs them from the script. An Analytic launch
//!    is the machine alone. `Program::compile` refuses, with a
//!    [`GpuError::Kernel`], a kernel whose index slice loads a parameter
//!    the kernel writes (the machine would read it ahead of the tape's
//!    writes) or computes a `tl.dot`, or whose value slice has an
//!    instruction of unknown static shape; the first Execute launch
//!    refuses one whose tape cannot place a tile statically
//!    ([`ReplayDecline::MovingTile`]). No corpus kernel is either
//!    (`crates/core/tests/analysis_digests.rs`).
//!
//!    *Replayable.* A program whose index slice reads nothing but the
//!    program and its I32 arguments: no register derived from a float
//!    parameter (or from a parameter the kernel writes) reaches an offset,
//!    a mask or a loop bound, no I32 parameter is written, and every
//!    parameter fits 32-bit addresses. [`Program::replay_decline`] names
//!    the first condition that fails ([`ReplayDecline`]); such programs —
//!    float-addressed kernels — launch in full every time.
//!
//!    *Key.* A replayable program owns one slot. Its key is the launch's
//!    I32 arguments **by storage identity** plus the [`DeviceModel`] by
//!    value. The slot holds `WeakTensor` witnesses of the tensors, which
//!    keep nothing alive and cost no owner a copy, and compares with
//!    `ptr_eq`: while a witness lives its allocation's address is not
//!    reused, and no write goes through it in place — `data_mut` on a
//!    shared handle copies, on a sole owner's re-homes the buffer — so a
//!    freed-and-reused or mutated buffer is a miss by construction. The
//!    first Execute launch with a key only remembers it; the second *in
//!    a row* runs in full, as one machine whatever the thread budget, and
//!    keeps its script — per executed value site, in order, the element
//!    address of each active row of lanes, taken right after the cost
//!    pass has bounds-checked them, and each trip count — plus the
//!    launch's `KernelReport`. Rows in arithmetic progression take three
//!    words however many they are; a gather or scatter lists its rows,
//!    one word each. Every later launch with that key runs the value tape
//!    alone from the kept script, with no machine and no cost accounting,
//!    and returns the stored report; an Analytic launch returns the
//!    report without interpreting anything. One-shot and alternating keys
//!    (autotune candidates, the paper harnesses, unique serve requests)
//!    never keep a script, a ready script is displaced only by a key that
//!    itself repeats, and a launch that fails leaves none. Entries live in
//!    one stream per execution frequency ([`SiteInfo::level`]), cut into
//!    segments by shard, row and instance, so a script recorded by one
//!    machine is replayed at any thread count. Debug builds run every
//!    replay a second time in full, on copies of its arguments, and
//!    assert equal bits and report.
//!
//!    *Why no counter can move.* The recording launch *is* a full launch:
//!    its report is what that launch returns. A replay returns that
//!    report for the same program, metadata and device, under which every
//!    counter is determined — the index slice, which decides addresses,
//!    masks and trip counts, reads nothing else, and the float values a
//!    replay may change reach no counter (Analytic mode already computes
//!    every counter with all of them zero). Output bits: every Execute
//!    launch runs the same tape, in instance order, at the seed's
//!    frequencies (`Once` and `PerRow` units on a shard's or row's first
//!    instance, stream-cached invariants recorded by the representative
//!    and copied back), with the addresses and trip counts the machine
//!    resolved; the per-launch dot-eligibility scan of the float operands
//!    runs on every launch, so a NaN planted under a ready key flips the
//!    dot kernel exactly as it would on a first launch
//!    (`tests/address_script.rs`). `tests/tape.rs` holds launches 1, 2
//!    and 3 to the seed interpreter.
//!
//! Compilation is cheap (a few passes per analysis over the instruction
//! tree), but `insum_inductor`'s `ProgramCache` still memoizes programs
//! across launches keyed by kernel fingerprint + grid + argument
//! metadata, so repeated executions and autotuning sweeps never re-lower.

use crate::block::Shape4;
use crate::interp::{GpuError, InstCost, Tape, SECTOR};
use crate::script::ReplaySlot;
use affine::{Avals, AV};
use insum_kernel::{param_usage, visit_instrs, BinOp, Instr, Kernel, KernelError, Operands, Reg};
use insum_tensor::DType;
use levels::Levels;
use row_sites::SiteScan;
use std::sync::OnceLock;
use value_slice::ValueSlice;

mod affine;
mod digest;
mod dot_sources;
mod levels;
mod row_sites;
mod shapes;
mod value_slice;

pub use digest::record_programs;
pub(crate) use dot_sources::DotSources;
pub(crate) use row_sites::{RowSite, RowSites, SiteMask, TermAxis, TreeOp};
pub use value_slice::ReplayDecline;

/// How often a top-level unit executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitMode {
    /// Once per launch (per shard); values persist in their registers.
    Once,
    /// Once per row of instances sharing grid coordinates (y, z).
    PerRow,
    /// Every instance.
    PerInstance,
}

/// A compiled instruction. Mirrors [`Instr`] with loop bodies lowered to
/// [`CNode`]s and memory accesses annotated with site ids.
#[derive(Debug, Clone)]
pub(crate) enum CInstr {
    ProgramId {
        dst: Reg,
        axis: usize,
    },
    Const {
        dst: Reg,
        value: f64,
    },
    Arange {
        dst: Reg,
        len: usize,
    },
    Full {
        dst: Reg,
        shape: Vec<usize>,
        value: f64,
    },
    Binary {
        dst: Reg,
        op: BinOp,
        a: Reg,
        b: Reg,
    },
    ExpandDims {
        dst: Reg,
        src: Reg,
        axis: usize,
    },
    Broadcast {
        dst: Reg,
        src: Reg,
        shape: Vec<usize>,
    },
    View {
        dst: Reg,
        src: Reg,
        shape: Vec<usize>,
    },
    Trans {
        dst: Reg,
        src: Reg,
    },
    Load {
        dst: Reg,
        offset: Reg,
        mask: Option<Reg>,
        other: f64,
        site: u32,
    },
    Store {
        offset: Reg,
        value: Reg,
        mask: Option<Reg>,
        site: u32,
    },
    AtomicAdd {
        offset: Reg,
        value: Reg,
        mask: Option<Reg>,
        site: u32,
    },
    Dot {
        dst: Reg,
        a: Reg,
        b: Reg,
    },
    Sum {
        dst: Reg,
        src: Reg,
        axis: usize,
    },
    Loop {
        var: Reg,
        start: i64,
        end: i64,
        step: i64,
        body: Vec<CNode>,
    },
    LoopDyn {
        var: Reg,
        start: Reg,
        end: Reg,
        /// In the value slice: the script stream its trip count is
        /// written to on every entry, for the value tape to read.
        trips: Option<u8>,
        body: Vec<CNode>,
    },
}

/// One instruction inside a per-instance region. `cached` is the
/// invariance level (0 grid-invariant, 1 row-invariant) and destination
/// register of instructions whose per-occurrence values the
/// representative records and later instances replay; `None` executes
/// every time.
#[derive(Debug, Clone)]
pub(crate) struct CNode {
    pub(crate) cached: Option<(u8, Reg)>,
    /// In the value slice (analysis 7): the value tape executes it.
    pub(crate) value: bool,
    /// What the machine charges instead of executing it (`charge`).
    pub(crate) skip: Option<InstCost>,
    pub(crate) instr: CInstr,
}

/// A top-level unit: one instruction (possibly a whole loop) plus its
/// execution frequency and the per-instance registers that die with it.
#[derive(Debug, Clone)]
pub(crate) struct CUnit {
    pub(crate) mode: UnitMode,
    /// In the value slice (analysis 7): the value tape executes it.
    pub(crate) value: bool,
    /// What the machine charges instead of executing it (`charge`).
    pub(crate) skip: Option<InstCost>,
    pub(crate) instr: CInstr,
    /// Level-2 registers whose last use is inside this unit: released to
    /// the buffer pool right after it executes.
    pub(crate) release: Vec<Reg>,
}

/// Per-site address-stream classification.
#[derive(Debug, Clone)]
pub(crate) struct SiteInfo {
    pub(crate) param: usize,
    pub(crate) is_atomic: bool,
    pub(crate) is_write: bool,
    /// Along grid axis 0, the site's element offsets shift by
    /// `pid0 · coeff`, with `coeff · esize` a whole number of sectors
    /// (0 for axis-0-invariant streams). Meaningless when the program's
    /// `dedup_ok` is false.
    pub(crate) coeff: f64,
    /// Whether the row representative must record this site's streams
    /// for member replay (all atomics, plus shifted loads/stores).
    pub(crate) traced: bool,
    /// In the value slice (analysis 7): every store and atomic, and the
    /// loads a stored value is computed from. An address script holds
    /// one entry per execution of such a site.
    pub(crate) value: bool,
    /// How often the site executes, which is the script stream its
    /// entries live in: 0 once per shard (a `Once` unit or a level-0
    /// cached node), 1 once per row of instances, 2 every instance.
    pub(crate) level: u8,
    /// The static shape of the site's lanes (offsets joined with mask and
    /// value); `None` when the shape analysis cannot tell.
    pub(crate) lanes: Option<Shape4>,
}

/// Shared per-launch parameter table (address layout, sizes, dtypes) —
/// identical to the seed interpreter's layout.
pub(crate) struct ParamTable {
    pub(crate) bases: Vec<u64>,
    pub(crate) esizes: Vec<u64>,
    pub(crate) lens: Vec<usize>,
    pub(crate) dtypes: Vec<DType>,
    pub(crate) total_sectors: u64,
}

impl ParamTable {
    fn new(lens: &[usize], dtypes: &[DType]) -> ParamTable {
        // Parameter layout in the simulated address space (256-byte
        // aligned), exactly as the seed interpreter laid it out.
        let mut bases = Vec::with_capacity(lens.len());
        let mut esizes = Vec::with_capacity(lens.len());
        let mut cursor = 0u64;
        for (&len, &dt) in lens.iter().zip(dtypes) {
            bases.push(cursor);
            let esize = dt.size_bytes() as u64;
            esizes.push(esize);
            // Saturating: a forged snapshot key may carry any length.
            let bytes = (len as u64).saturating_mul(esize).div_ceil(256);
            cursor = cursor.saturating_add(bytes.saturating_mul(256).saturating_add(256));
        }
        ParamTable {
            bases,
            esizes,
            lens: lens.to_vec(),
            dtypes: dtypes.to_vec(),
            total_sectors: cursor.div_ceil(SECTOR),
        }
    }
}

/// A kernel lowered for one launch shape: grid dimensions and argument
/// metadata are baked in. Compile once with [`Program::compile`], then
/// launch any number of times with [`Program::launch`] /
/// [`Program::launch_with`] — results are bit-identical to
/// [`crate::launch`] on the same kernel and inputs.
pub struct Program {
    /// Kernel name (for reports).
    pub(crate) name: String,
    /// Parameter names (for out-of-bounds diagnostics); execution runs
    /// the lowered units, so the original instruction tree is not kept.
    pub(crate) param_names: Vec<String>,
    pub(crate) num_regs: usize,
    pub(crate) grid: Vec<usize>,
    pub(crate) gdims: [usize; 3],
    pub(crate) instances: usize,
    pub(crate) units: Vec<CUnit>,
    /// Nodes whose values are recorded as occurrence streams.
    cached_nodes: usize,
    /// Registers written by per-instance code: the only ones cleared
    /// between instances (level-0/1 registers persist by construction).
    pub(crate) level2_regs: Vec<Reg>,
    pub(crate) sites: Vec<SiteInfo>,
    /// True when every access site is invariant/affine along axis 0 —
    /// analytic launches may dedup each row into one instance class.
    pub(crate) dedup_ok: bool,
    pub(crate) params: ParamTable,
    pub(crate) dot_sources: DotSources,
    pub(crate) row_sites: RowSites,
    pub(crate) dot_f16: bool,
    /// No parameter is both loaded and written: Execute-mode instances
    /// may run out of order across host threads.
    pub(crate) parallel_execute_ok: bool,
    /// Per site, whether it is a load the index slice reads (analysis
    /// 7): the only accesses whose lanes the machine reads.
    pub(crate) index_sites: Vec<bool>,
    /// Which script streams some value site or value-slice dynamic loop
    /// writes to.
    pub(crate) script_levels: [bool; 3],
    /// Analysis 7: the slot a replayable program keeps its address
    /// script in, or why it keeps none.
    pub(crate) replay: Result<ReplaySlot, ReplayDecline>,
    /// The value tape replays run, lowered on the first one.
    pub(crate) tape: OnceLock<Result<Tape, ReplayDecline>>,
}

impl Program {
    /// The launch grid this program was compiled for.
    pub fn grid(&self) -> &[usize] {
        &self.grid
    }

    /// Total grid instances per launch.
    pub fn instances(&self) -> usize {
        self.instances
    }

    /// True when analytic launches can dedup each row of instances into
    /// one costed representative (see the module docs).
    pub fn analytic_dedup_available(&self) -> bool {
        self.dedup_ok
    }

    /// How many of this program's memory-access sites were recognised as
    /// separable (`off[i, j] = R[i] + C[j]`, executed as row runs — see
    /// the module docs, analysis 6): `(recognised, total)`.
    pub fn separable_sites(&self) -> (usize, usize) {
        self.row_sites.counts()
    }

    /// Why this program's launches always run in full (see the module
    /// docs, analysis 7); `None` when a relaunch against the same I32
    /// arguments may be replayed from an address script.
    pub fn replay_decline(&self) -> Option<ReplayDecline> {
        self.replay.as_ref().err().copied()
    }

    /// Classification summary for diagnostics and benchmarks:
    /// `(once_units, per_row_units, per_instance_units, cached_nodes)`.
    pub fn classification(&self) -> (usize, usize, usize, usize) {
        let count = |mode| self.units.iter().filter(|u| u.mode == mode).count();
        (
            count(UnitMode::Once),
            count(UnitMode::PerRow),
            count(UnitMode::PerInstance),
            self.cached_nodes,
        )
    }

    /// Compile a kernel for a launch shape. `lens`/`dtypes` describe the
    /// argument tensors positionally (element counts and dtypes — the
    /// values are bound later, at launch time).
    ///
    /// # Errors
    ///
    /// * [`GpuError::Kernel`] if the kernel fails validation, applies a
    ///   shape rule to blocks whose static shapes break it (a transpose
    ///   of a 1-D block, a dot of disagreeing dimensions, …), or cannot
    ///   be split between the machine and the value tape (analysis 7: its
    ///   index slice loads a parameter the kernel writes or computes a
    ///   `tl.dot`, or a value-slice instruction has no static shape).
    /// * [`GpuError::ParamCountMismatch`] if `lens`/`dtypes` do not match
    ///   the kernel's parameter list.
    /// * [`GpuError::BadGrid`] if the grid is empty, has more than three
    ///   dimensions, contains a zero, or its instance count overflows.
    pub fn compile(
        kernel: &Kernel,
        grid: &[usize],
        lens: &[usize],
        dtypes: &[DType],
    ) -> Result<Program, GpuError> {
        kernel.validate()?;
        if lens.len() != kernel.params.len() || dtypes.len() != kernel.params.len() {
            return Err(GpuError::ParamCountMismatch {
                expected: kernel.params.len(),
                actual: lens.len(),
            });
        }
        if grid.is_empty() || grid.len() > 3 || grid.contains(&0) {
            return Err(GpuError::BadGrid(grid.to_vec()));
        }
        let mut gdims = [1usize; 3];
        gdims[..grid.len()].copy_from_slice(grid);
        let instances = gdims
            .iter()
            .try_fold(1usize, |n, &g| n.checked_mul(g))
            .ok_or_else(|| GpuError::BadGrid(grid.to_vec()))?;

        let usage = param_usage(kernel);
        let flow = Dataflow::new(kernel);
        let shapes = shapes::infer(&flow)?;
        let levels = Levels::analyze(&flow, &usage.written, gdims);
        let avals = Avals::analyze(&flow, dtypes, &usage.written);
        let params = ParamTable::new(lens, dtypes);
        let slice = ValueSlice::analyze(&flow, dtypes, &usage.written);
        let refused = |why: String| GpuError::Kernel(KernelError(why));
        if let Some(why) = slice.refusal(&flow, &usage.written) {
            return Err(refused(why));
        }
        let dot_f16 = {
            let floats: Vec<DType> = dtypes.iter().copied().filter(|d| d.is_float()).collect();
            !floats.is_empty() && floats.iter().all(|&d| d == DType::F16)
        };

        let mut ctx = Lowering {
            levels: &levels,
            avals: &avals,
            params: &params,
            shapes: &shapes,
            slice: &slice,
            rows: SiteScan::new(&flow, &shapes),
            sites: Vec::new(),
            dedup_ok: avals.loops_ok,
            cached_nodes: 0,
            unit: 0,
            level: 0,
            last_use: vec![None; kernel.num_regs],
            script_levels: [false; 3],
            unknown: None,
            index_sites: Vec::new(),
            dot_f16,
        };
        let mut units = ctx.lower_units(&kernel.body);
        let level2_regs: Vec<Reg> = (0..kernel.num_regs)
            .filter(|&r| levels.reg[r] >= 2)
            .collect();
        // Last-use liveness at top-level granularity: after the final unit
        // that reads a per-instance register, its buffer is dead.
        for &r in &level2_regs {
            if let Some(i) = ctx.last_use[r] {
                units[i].release.push(r);
            }
        }
        let Lowering {
            sites,
            dedup_ok,
            cached_nodes,
            rows,
            mut script_levels,
            unknown,
            index_sites,
            ..
        } = ctx;
        if let Some(instr) = unknown {
            return Err(refused(format!(
                "the value-slice instruction {instr} has no static shape"
            )));
        }
        for site in sites.iter().filter(|s| s.value) {
            script_levels[site.level as usize] = true;
        }
        let row_sites = rows.finish();
        let replay = match slice.decline(&params) {
            Some(decline) => Err(decline),
            None => Ok(ReplaySlot::new(dtypes)),
        };

        let program = Program {
            name: kernel.name.clone(),
            param_names: kernel.params.iter().map(|p| p.name.clone()).collect(),
            num_regs: kernel.num_regs,
            grid: grid.to_vec(),
            gdims,
            instances,
            units,
            cached_nodes,
            level2_regs,
            sites,
            dedup_ok,
            params,
            dot_sources: DotSources::analyze(&flow, &usage.written),
            row_sites,
            dot_f16,
            parallel_execute_ok: usage.no_read_write_params(),
            index_sites,
            script_levels,
            replay,
            tape: OnceLock::new(),
        };
        digest::note(&program);
        Ok(program)
    }
}

// ---------------------------------------------------------------------
// The dataflow driver
// ---------------------------------------------------------------------

/// One instruction of the kernel with its register edges, read once
/// from [`Instr::dst`] and [`Instr::operands`].
pub(super) struct Edges<'k> {
    pub(super) instr: &'k Instr,
    pub(super) dst: Option<Reg>,
    pub(super) operands: Operands,
}

/// The kernel as the analyses see it: its instructions in pre-order (a
/// loop before its body), each with its edges, walked once.
pub(super) struct Dataflow<'k> {
    pub(super) num_regs: usize,
    /// Every instruction, in pre-order.
    pub(super) instrs: Vec<Edges<'k>>,
}

impl<'k> Dataflow<'k> {
    fn new(kernel: &'k Kernel) -> Dataflow<'k> {
        let mut instrs = Vec::new();
        visit_instrs(&kernel.body, &mut |instr| {
            instrs.push(Edges {
                instr,
                dst: instr.dst(),
                operands: instr.operands(),
            })
        });
        Dataflow {
            num_regs: kernel.num_regs,
            instrs,
        }
    }

    /// The one fixpoint of the analyses: from every register at `bottom`,
    /// run `step` (an analysis's transfer function, which joins what one
    /// instruction implies into the state) on every instruction in
    /// pre-order until a whole pass changes nothing — registers are not
    /// SSA and loop-carried values flow backwards. Should the safety cap
    /// be hit, every register is `top`: an analysis may over-approximate,
    /// never under-approximate.
    pub(super) fn solve<T: Copy + PartialEq>(
        &self,
        bottom: T,
        top: T,
        mut step: impl FnMut(&Edges<'k>, &mut [T]),
    ) -> Vec<T> {
        let mut state = vec![bottom; self.num_regs];
        for _ in 0..3 * self.num_regs + 8 {
            let before = state.clone();
            for e in &self.instrs {
                step(e, &mut state);
            }
            if state == before {
                return state;
            }
        }
        vec![top; self.num_regs]
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// The one walk that lowers the kernel: it numbers sites and bodies in
/// program order, feeds the separable-site scan, and takes liveness from
/// each source instruction's operands.
struct Lowering<'a> {
    levels: &'a Levels,
    avals: &'a Avals,
    params: &'a ParamTable,
    shapes: &'a [Option<Shape4>],
    slice: &'a ValueSlice,
    rows: SiteScan<'a>,
    sites: Vec<SiteInfo>,
    dedup_ok: bool,
    cached_nodes: usize,
    /// The top-level unit being lowered, and how often it executes: the
    /// script stream of what it executes that is not stream-cached.
    unit: usize,
    level: u8,
    /// Per register, the last top-level unit that reads it (a separable
    /// site also reads the leaves of its offset tree).
    last_use: Vec<Option<usize>>,
    /// The script streams value-slice dynamic loops (and, once lowered,
    /// value sites) write to.
    script_levels: [bool; 3],
    /// The first skipped instruction whose charge has no static shape.
    unknown: Option<String>,
    /// Per site, whether it is an index-slice load.
    index_sites: Vec<bool>,
    dot_f16: bool,
}

impl Lowering<'_> {
    /// Lower the kernel's top-level body into units.
    fn lower_units(&mut self, body: &[Instr]) -> Vec<CUnit> {
        let id = self.rows.body();
        let mut units = Vec::with_capacity(body.len());
        for (idx, top) in body.iter().enumerate() {
            self.unit = idx;
            // A unit's frequency covers its whole subtree *and* every
            // register it writes: a prologue `full(...)` that a
            // per-instance loop also writes (the accumulator pattern)
            // must re-execute per instance to reset the register.
            let lvl = self.levels.of(top);
            self.level = lvl.min(2);
            let first_site = self.sites.len();
            let skip = self.charge(top);
            let instr = self.lower_one(body, id, idx, lvl >= 2, 0);
            if lvl < 2 {
                // Nothing in a once/per-row unit is stream-cached: its
                // sites all execute at the unit's own frequency.
                for site in &mut self.sites[first_site..] {
                    site.level = lvl;
                }
            }
            units.push(CUnit {
                mode: match lvl {
                    0 => UnitMode::Once,
                    1 => UnitMode::PerRow,
                    _ => UnitMode::PerInstance,
                },
                value: self.slice.contains(top),
                skip,
                instr,
                release: Vec::new(),
            });
        }
        units
    }

    /// Lower a loop body. `trip_level` is the invariance level of every
    /// enclosing loop's trip count: a node's occurrence stream is only
    /// aligned across instances when both its value *and* the number of
    /// times control reaches it are invariant, so the effective cache
    /// level is the max of the two.
    fn lower_body(&mut self, body: &[Instr], per_instance: bool, trip_level: u8) -> Vec<CNode> {
        let id = self.rows.body();
        let mut nodes = Vec::with_capacity(body.len());
        for (idx, instr) in body.iter().enumerate() {
            let lvl = self.levels.of(instr).max(trip_level);
            let value = self.slice.contains(instr);
            let cached = match instr.dst() {
                Some(dst)
                    if per_instance
                        && lvl <= 1
                        && !matches!(instr, Instr::Loop { .. } | Instr::LoopDyn { .. }) =>
                {
                    Some((lvl, dst))
                }
                _ => None,
            };
            let skip = self.charge(instr);
            let instr = self.lower_one(body, id, idx, per_instance, trip_level);
            self.cached_nodes += usize::from(cached.is_some());
            if let (Some(_), CInstr::Load { site, .. }) = (cached, &instr) {
                // Executed by the shard's or the row's representative only.
                self.sites[*site as usize].level = lvl;
            }
            nodes.push(CNode {
                cached,
                value,
                skip,
                instr,
            });
        }
        nodes
    }

    /// Lower `body[idx]`, the instruction at `idx` of body `id`.
    fn lower_one(
        &mut self,
        body: &[Instr],
        id: u32,
        idx: usize,
        per_instance: bool,
        trip_level: u8,
    ) -> CInstr {
        let instr = &body[idx];
        let (unit, last_use) = (self.unit, &mut self.last_use);
        for &(r, _) in instr.operands().iter() {
            last_use[r] = Some(unit);
        }
        self.rows.note(body, id, idx);
        match *instr {
            Instr::ProgramId { dst, axis } => CInstr::ProgramId { dst, axis },
            Instr::Const { dst, value } => CInstr::Const { dst, value },
            Instr::Arange { dst, len } => CInstr::Arange { dst, len },
            Instr::Full {
                dst,
                ref shape,
                value,
            } => CInstr::Full {
                dst,
                shape: shape.clone(),
                value,
            },
            Instr::Binary { dst, op, a, b } => CInstr::Binary { dst, op, a, b },
            Instr::ExpandDims { dst, src, axis } => CInstr::ExpandDims { dst, src, axis },
            Instr::Broadcast {
                dst,
                src,
                ref shape,
            } => CInstr::Broadcast {
                dst,
                src,
                shape: shape.clone(),
            },
            Instr::View {
                dst,
                src,
                ref shape,
            } => CInstr::View {
                dst,
                src,
                shape: shape.clone(),
            },
            Instr::Trans { dst, src } => CInstr::Trans { dst, src },
            Instr::Load {
                dst,
                param,
                offset,
                mask,
                other,
            } => {
                let site = self.push_site(param, offset, mask, None, self.slice.needs(dst));
                self.index_sites.push(self.slice.index(dst));
                CInstr::Load {
                    dst,
                    offset,
                    mask,
                    other,
                    site,
                }
            }
            Instr::Store {
                param,
                offset,
                value,
                mask,
            } => {
                let site = self.push_site(param, offset, mask, Some((value, false)), true);
                self.index_sites.push(false);
                CInstr::Store {
                    offset,
                    value,
                    mask,
                    site,
                }
            }
            Instr::AtomicAdd {
                param,
                offset,
                value,
                mask,
            } => {
                let site = self.push_site(param, offset, mask, Some((value, true)), true);
                self.index_sites.push(false);
                CInstr::AtomicAdd {
                    offset,
                    value,
                    mask,
                    site,
                }
            }
            Instr::Dot { dst, a, b } => CInstr::Dot { dst, a, b },
            Instr::Sum { dst, src, axis } => CInstr::Sum { dst, src, axis },
            Instr::Loop {
                var,
                start,
                end,
                step,
                body: ref inner,
            } => CInstr::Loop {
                var,
                start,
                end,
                step,
                body: self.lower_body(inner, per_instance, trip_level),
            },
            Instr::LoopDyn {
                var,
                start,
                end,
                body: ref inner,
            } => {
                let trips = self.slice.contains(instr).then_some(self.level);
                if let Some(level) = trips {
                    self.script_levels[level as usize] = true;
                }
                let trip_level = trip_level
                    .max(self.levels.reg[start])
                    .max(self.levels.reg[end]);
                CInstr::LoopDyn {
                    var,
                    start,
                    end,
                    trips,
                    body: self.lower_body(inner, per_instance, trip_level),
                }
            }
        }
    }

    /// What the machine charges for `instr` instead of executing it,
    /// read off the static shapes — an elementwise op's lanes, a
    /// reduction's source lanes, a `tl.dot`'s `2mkn` flops, a `view` /
    /// `trans` / `broadcast_to`'s shared-memory bytes, none of which
    /// depends on a value; `None` for what it executes: accesses, loops
    /// and every index-slice instruction.
    fn charge(&mut self, instr: &Instr) -> Option<InstCost> {
        let dst = instr.dst()?;
        let executed = matches!(
            instr,
            Instr::Load { .. } | Instr::Loop { .. } | Instr::LoopDyn { .. }
        );
        if executed || self.slice.index(dst) {
            return None;
        }
        let volume = |r: Reg| self.shapes[r].map(|s| s.volume() as u64);
        let mut cost = InstCost::default();
        cost.instructions = 1;
        let known = match *instr {
            Instr::Binary { dst: r, .. } | Instr::Sum { src: r, .. } => {
                volume(r).map(|v| cost.flops_scalar = v)
            }
            Instr::Broadcast { dst, .. } | Instr::View { dst, .. } | Instr::Trans { dst, .. } => {
                volume(dst).map(|v| cost.smem_bytes = 4 * v)
            }
            // `[m, k] · [k, n]`: `2mkn` flops.
            Instr::Dot { a, b, .. } => {
                let n = self.shapes[b].and_then(|s| s.as_slice().get(1).copied());
                let pipe = match self.dot_f16 {
                    true => &mut cost.flops_tc_f16,
                    false => &mut cost.flops_tc_f32,
                };
                volume(a).zip(n).map(|(mk, n)| *pipe = 2 * mk * n as u64)
            }
            _ => Some(()),
        };
        if known.is_none() && self.unknown.is_none() {
            self.unknown = Some(format!("{instr:?}"));
        }
        Some(cost)
    }

    /// Register one access site: `write` is the stored or added value
    /// register and whether the write is atomic, `value` whether the site
    /// belongs to the value slice.
    fn push_site(
        &mut self,
        param: usize,
        offset: Reg,
        mask: Option<Reg>,
        write: Option<(Reg, bool)>,
        value: bool,
    ) -> u32 {
        let esize = self.params.esizes[param];
        let coeff = match self.avals.get(offset) {
            AV::Known { .. } | AV::NX { .. } => Some(0.0),
            AV::Aff(c) if ((c.abs() as u64) * esize).is_multiple_of(SECTOR) => Some(c),
            _ => None,
        };
        let mask_ok = match mask {
            None => true,
            Some(m) => !matches!(self.avals.get(m), AV::Aff(_) | AV::Bad),
        };
        if coeff.is_none() || !mask_ok {
            self.dedup_ok = false;
        }
        let coeff = coeff.unwrap_or(0.0);
        let is_atomic = write.is_some_and(|(_, atomic)| atomic);
        // The lanes of an access: its offsets joined with whatever
        // broadcasts against them.
        let lanes = self.shapes[offset].and_then(|offsets| {
            [mask, write.map(|(v, _)| v)]
                .into_iter()
                .flatten()
                .try_fold(offsets, |joint, r| {
                    Shape4::try_joint(joint.as_slice(), self.shapes[r]?.as_slice())
                })
        });
        if value && lanes.is_none() && self.unknown.is_none() {
            self.unknown = Some(format!("access of parameter {param}"));
        }
        let id = self.sites.len() as u32;
        self.sites.push(SiteInfo {
            param,
            is_atomic,
            is_write: write.is_some(),
            coeff,
            traced: is_atomic || coeff != 0.0,
            value,
            level: 2,
            lanes,
        });
        // A separable site reads the leaves of its offset tree when it
        // executes, so they stay live until the access.
        for r in self.rows.leaves(id) {
            self.last_use[r] = Some(self.unit);
        }
        id
    }
}
